"""Session and graph input files.

A session is JSON with an optional number-field minpoly (coefficient
strings, lowest degree first) and named det-1 generator matrices; entries
are exact scalar strings "p/q" over Q, or coordinate arrays in the power
basis over Q(alpha).  Parsing yields square entry grids: Fractions over Q,
and over Q(alpha) the d x d regular matrix of each entry, built straight
from its coordinates.  embed_regular checks det = 1 (over Q(alpha) by block
elimination, in the field) and folds each grid into one rational SqMatrix,
so every downstream computation sees rational matrices only.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DeterminantNotOne, DimensionMismatch, ParseError
from .exact.numberfield import make_field
from .exact.poly import Poly
from .linalg import SqMatrix, embed_regular, regular_matrix
from .places import discover_places
from .words import NAME_RE

if TYPE_CHECKING:
    from .manifold import GraphRep

__all__ = [
    "SessionSpec",
    "parse_session",
    "parse_graph",
    "parse_scalar",
    "parse_matrix",
    "fraction_str",
]

def fraction_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(value) -> Fraction:
    """An exact rational "p/q" string or integer; anything else, including
    a zero denominator, is a ParseError.  A plain ASCII "p" or "p/q", with
    an optional minus sign, is read with int(); any other string goes
    through Fraction's own parser."""
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            if isinstance(value, str) and (m := _PLAIN.fullmatch(value)):
                p, q = m.groups()
                return Fraction(int(p), int(q or 1))
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(0, 'an exact rational "p/q"', value)


def parse_scalar(value, field: Poly | None):
    """One matrix entry: "p/q" string (or int) over Q; over Q(alpha), the
    regular matrix of a rational or of a coordinate list."""
    if isinstance(value, bool):
        raise ParseError(0, "a scalar string", value)
    if isinstance(value, (str, int)):
        q = _rational(value)
        return q if field is None else regular_matrix([q], field)
    if isinstance(value, list):
        if field is None:
            raise ParseError(0, "a rational string (no number field declared)", value)
        if len(value) > field.degree:
            raise ParseError(0, f"at most {field.degree} field coordinates", value)
        return regular_matrix([_rational(c) for c in value], field)
    raise ParseError(0, "a scalar string or coordinate array", value)


def parse_matrix(rows, field: Poly | None) -> list[list[Fraction | SqMatrix]]:
    """The square entry grid of a matrix document."""
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError(0, "a nonempty array of matrix rows", rows)
    parsed = [[parse_scalar(x, field) for x in row] for row in rows]
    if any(len(r) != len(parsed) for r in parsed):
        raise DimensionMismatch("matrix is not square")
    return parsed


@dataclass(frozen=True)
class SessionSpec:
    """Validated session: the rational embeddings of the generators, and
    the discovered places of the embedded family."""

    embedded: dict[str, SqMatrix]
    places: tuple[int, ...]


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.pos, "valid JSON", e.msg, line=e.lineno, column=e.colno) from None
    except (ValueError, RecursionError) as e:
        # an integer literal past int()'s digit limit, or nesting past the
        # recursion limit
        raise ParseError(0, "valid JSON", str(e)) from None


def _parse_field(doc) -> Poly | None:
    coeffs = doc.get("field")
    if coeffs is None:
        return None
    if not isinstance(coeffs, list):
        raise ParseError(0, 'a "field" array of minimal polynomial coefficients', coeffs)
    minpoly = Poly([_rational(c) for c in coeffs])
    try:
        return make_field(minpoly)
    except ValueError:
        raise ParseError(
            0, "an integer minimal polynomial of degree at least 1", coeffs
        ) from None


def parse_session(text: str) -> SessionSpec:
    """Parse and validate a session document; determinants checked exactly."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError(0, "a JSON object", type(doc).__name__)
    field = _parse_field(doc)
    gens_doc = doc.get("generators")
    if not isinstance(gens_doc, dict) or not gens_doc:
        raise ParseError(0, 'a nonempty "generators" object', gens_doc)
    generators = {}
    dim = None
    for name in sorted(gens_doc):
        if not NAME_RE.fullmatch(name):
            raise ParseError(0, "a generator name matching [a-z][a-z0-9_]*", name)
        rows = parse_matrix(gens_doc[name], field)
        n = len(rows)
        if dim is None:
            dim = n
        elif n != dim:
            raise DimensionMismatch(f"generator {name!r} is {n}x{n}, expected {dim}x{dim}")
        generators[name] = rows
    # embed_regular enforces det = 1 (exactly) for each generator
    embedded = {}
    for name, rows in generators.items():
        try:
            embedded[name] = embed_regular(rows, field)
        except DeterminantNotOne as e:
            raise DeterminantNotOne(name=name, det=e.det) from None
    places = discover_places(list(embedded.values()))
    return SessionSpec(embedded=embedded, places=places)


def _require_keys(obj, keys: tuple[str, ...], expected: str) -> None:
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        raise ParseError(0, expected, obj)


def _string(value, expected: str) -> str:
    if not isinstance(value, str):
        raise ParseError(0, expected, value)
    return value


def parse_graph(text: str) -> GraphRep:
    """Parse a graph-representation document into embedded rational form."""
    from .manifold import GluingSpec, GraphRep, TorusRep

    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError(0, "a JSON object", type(doc).__name__)
    field = _parse_field(doc)
    tori_doc = doc.get("tori")
    if not isinstance(tori_doc, list) or not tori_doc:
        raise ParseError(0, 'a nonempty "tori" array', tori_doc)
    tori = []
    for t in tori_doc:
        _require_keys(t, ("id", "A", "B"), 'a torus object with "id", "A" and "B"')
        torus_id = _string(t["id"], "a torus id string")
        basis = []
        for key in ("A", "B"):
            try:
                basis.append(embed_regular(parse_matrix(t[key], field), field))
            except DeterminantNotOne as e:
                who = f"torus {torus_id!r} basis image {key}"
                raise DeterminantNotOne(det=e.det, who=who) from None
        a, b = basis
        if a.n != b.n:
            raise DimensionMismatch(f"torus {torus_id!r} basis image dimensions differ")
        tori.append(TorusRep(id=torus_id, a=a, b=b))
    gluings = []
    gluings_doc = doc.get("gluings", [])
    if not isinstance(gluings_doc, list):
        raise ParseError(0, 'a "gluings" array', gluings_doc)
    for g in gluings_doc:
        _require_keys(g, ("torus", "U"), 'a gluing object with "torus" and "U"')
        torus_id = _string(g["torus"], "a torus id string")
        u = g["U"]
        if (
            not isinstance(u, list)
            or len(u) != 2
            or any(not isinstance(row, list) or len(row) != 2 for row in u)
            or any(not isinstance(x, int) or isinstance(x, bool) for row in u for x in row)
        ):
            raise ParseError(0, "a 2x2 integer gluing matrix U", u)
        words = g.get("secondBasisWords")
        if (
            not isinstance(words, list)
            or len(words) != 2
            or not all(isinstance(w, str) for w in words)
        ):
            raise ParseError(0, "two second-basis word strings", words)
        gluings.append(
            GluingSpec(
                torus=torus_id,
                u=((u[0][0], u[0][1]), (u[1][0], u[1][1])),
                second_basis_words=tuple(words),
            )
        )
    return GraphRep.build(tori, gluings)
