"""Bit-stable report emission.

Exact values (rationals) are printed as strings, approximate values as
JSON numbers with exactly 12 significant digits; keys are emitted sorted.
The renderer is hand-rolled so the byte stream is a pure function of the
report dict, independent of platform float repr details.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .flats import FlatCertificate
from .manifold import GluingReport, NpcResult
from .places import Classification, DirectionProfile, DriftProfile, PlaceSet
from .session import fraction_str

__all__ = [
    "render_json",
    "render_text",
    "classification_dict",
    "profile_dict",
    "direction_dict",
    "places_dict",
    "flat_dict",
    "npc_dict",
]


def fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float in report: {x}")
    s = f"{x:.12g}"
    # normalize "-0" and bare exponent forms into valid, stable JSON numbers
    if s == "-0":
        s = "0"
    if "e" in s:
        mantissa, exp = s.split("e")
        if "." not in mantissa:
            mantissa += ".0"
        s = f"{mantissa}e{int(exp)}"
    return s


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj, key=str)
        parts = [f"{inner}{json.dumps(str(k))}: {render_json(obj[k], indent + 1)}" for k in keys]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{render_json(x, indent + 1)}" for x in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, Fraction):
        return json.dumps(fraction_str(obj))
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


def render_text(obj, prefix: str = "") -> str:
    """Flat key: value lines for --text mode."""
    lines: list[str] = []

    def walk(node, path):
        if isinstance(node, dict):
            for k in sorted(node, key=str):
                walk(node[k], f"{path}.{k}" if path else str(k))
        elif isinstance(node, (list, tuple)):
            for i, x in enumerate(node):
                walk(x, f"{path}[{i}]")
        else:
            if isinstance(node, bool):
                val = "true" if node else "false"
            elif isinstance(node, Fraction):
                val = fraction_str(node)
            elif isinstance(node, float):
                val = fmt_float(node)
            elif node is None:
                val = "null"
            else:
                val = str(node)
            lines.append(f"{prefix}{path} = {val}")

    walk(obj, "")
    return "\n".join(lines)


# -- dict builders -----------------------------------------------------------


def places_dict(places: PlaceSet) -> dict:
    return {"archimedean": places.archimedean, "primes": list(places.primes)}


def classification_dict(cls: Classification) -> dict:
    out: dict = {"tag": cls.tag}
    if cls.order is not None:
        out["order"] = cls.order
    if cls.tag == "Ballistic":
        out["diagonalizable"] = cls.diagonalizable
        out["length2"] = {
            "arch": cls.length2_arch,
            "nonarch": cls.length2_nonarch,
        }
    return out


def profile_dict(profile: DriftProfile) -> dict:
    return {
        "arch": list(profile.arch),
        "padic": {str(p): list(vals) for p, vals in profile.padic.items()},
    }


def direction_dict(d: DirectionProfile) -> dict:
    return {
        "norms": dict(d.norms),
        "norms2Nonarch": dict(d.norms2_nonarch),
        "units": {k: list(v) for k, v in d.units.items()},
        "joinAngles": {f"{p}->{q}": a for (p, q), a in d.angles.items()},
    }


def flat_dict(cert: FlatCertificate) -> dict:
    if cert.tag == "Lattice":
        return {"tag": "Lattice", "rank": cert.rank, "covolume": cert.covolume}
    return {
        "tag": "Degenerate",
        "latticeRank": cert.rank,
        "nullVector": list(cert.null_vector),
        "nullVectors": [list(v) for v in cert.null_vectors],
        "witness": cert.witness_word,
        "witnessClass": classification_dict(cert.witness_class),
    }


def npc_dict(result: NpcResult, gluing_reports: list[GluingReport] | None = None) -> dict:
    out: dict = {
        "tag": result.tag,
        "tori": {tid: flat_dict(cert) for tid, cert in result.tori},
    }
    if result.tag == "Obstruction":
        out["obstruction"] = {
            "torus": result.obstruction_torus,
            "witness": result.witness_word,
            "witnessClass": classification_dict(result.witness_class),
        }
    if gluing_reports is not None:
        out["gluings"] = [
            {
                "torus": r.torus,
                "ok": r.ok,
                "nonarchExact": r.nonarch_exact,
                "archMaxRelErr": r.arch_max_rel_err,
            }
            for r in gluing_reports
        ]
    return out
