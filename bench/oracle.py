"""Expected answers from construction, and the check of each report.

Expectations are computed from gen.py's models with fractions and math; the
check compares them with the JSON report the program printed.  A mismatch is
a wrong answer and fails the whole benchmark run; an error exit is not
checked here and counts as a failed request instead.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from gen import FIELDS, Atom, Field, Model, atoms, exponent_rank, has_jordan

ARCH_REL = 1e-9
COVOLUME_REL = 1e-8
NON_BALLISTIC = ("Identity", "Unipotent", "FiniteOrder", "VirtuallyUnipotent")


# -- expectations ---------------------------------------------------------------


def expect_classify(model: Model, fld: Field, primes, direction: bool = False) -> dict:
    ats = atoms(model, fld)
    jordan = has_jordan(model)
    exp: dict = {"type": "classify", "direction": direction}
    if all(a.cyc == 1 for a in ats):
        exp["tag"] = "Unipotent" if jordan else "Identity"
    elif all(a.a2 == a.a3 == 0 for a in ats) and all(a.cyc is not None for a in ats):
        exp["tag"] = "VirtuallyUnipotent" if jordan else "FiniteOrder"
        exp["order"] = math.lcm(*(a.cyc for a in ats))
    else:
        exp["tag"] = "Ballistic"
        exp["diagonalizable"] = not jordan
    exp["arch"] = sorted((a.log for a in ats), reverse=True)
    exp["padic"] = {
        str(p): sorted((Fraction(_val(a, p)) for a in ats), reverse=True) for p in primes
    }
    return exp


def _val(a: Atom, p: int) -> int:
    return a.a2 if p == 2 else a.a3


def expect_flat(models: list[Model], fld: Field) -> dict:
    """Lattice(rank, covolume) when the exponent data are independent,
    otherwise Degenerate with the remaining rank."""
    r = len(models)
    rk = exponent_rank(models, fld)
    if rk < r:
        return {"type": "flat", "tag": "Degenerate", "latticeRank": rk,
                "exps": [_exponent_vector(m, fld) for m in models]}
    g = gram(models, fld)
    return {"type": "flat", "tag": "Lattice", "rank": r, "covolume": math.sqrt(_det(g))}


def _exponent_vector(m: Model, fld: Field) -> list[int]:
    return [x for a in atoms(m, fld) if a.conj == 0 for x in (a.a2, a.a3, a.e, a.c)]


def gram(models: list[Model], fld: Field) -> list[list[float]]:
    """Drift Gram over every place, with eigenvalues indexed jointly."""
    coords = []
    for m in models:
        ats = atoms(m, fld)
        coords.append([a.log for a in ats] + [float(_val(a, p)) for p in (2, 3) for a in ats])
    return [[math.fsum(x * y for x, y in zip(u, v)) for v in coords] for u in coords]


def _det(g) -> float:
    a = [list(r) for r in g]
    n = len(a)
    det = 1.0
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[piv][k] == 0:
            return 0.0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def expect_blocks(models: list[Model], fld: Field) -> dict:
    """Block sizes of the finest decomposition in which every generator is
    primary: slots whose eigenvalues have the same minimal polynomial over Q
    for every generator share a block of d times their number."""
    d = fld.degree
    keys: dict[tuple, int] = {}
    for i in range(models[0].n):
        key = tuple(_minpoly_key(m.slots[i], d) for m in models)
        keys[key] = keys.get(key, 0) + 1
    return {"type": "decompose", "sizes": sorted(d * k for k in keys.values())}


def _minpoly_key(slot, d: int):
    a2, a3, c = slot
    # in Q(sqrt2), sigma(u)^c = (-1)^c u^-c: for even c, u^c and u^-c are conjugate
    if d == 2 and c % 2 == 0:
        c = abs(c)
    return (a2, a3, c)


def expect_graph(tori: list[tuple[str, list[Model]]]) -> dict:
    certs = {tid: expect_flat(models, FIELDS[1]) for tid, models in tori}
    bad = [tid for tid, _ in tori if certs[tid]["tag"] == "Degenerate"]
    return {"type": "graph", "tag": "Obstruction" if bad else "NPC",
            "obstruction": bad[0] if bad else None, "tori": certs}


# -- checks -------------------------------------------------------------------


class WrongAnswer(Exception):
    pass


def _need(ok: bool, what: str):
    if not ok:
        raise WrongAnswer(what)


def _close(x: float, y: float, rel: float) -> bool:
    if y == 0.0:
        return x == 0.0
    return abs(x - y) <= rel * abs(y)


def check(expect: dict, code: int, stdout: str) -> None:
    """Raise WrongAnswer unless a successful report matches the expectation."""
    report = json.loads(stdout)
    kind = expect["type"]
    if kind == "places":
        _need(code == 0, f"exit code {code}")
        _need(report["primes"] == expect["primes"], f"primes {report['primes']}")
    elif kind == "classify":
        _check_classify(expect, code, report)
    elif kind == "flat":
        _need(code == (0 if expect["tag"] == "Lattice" else 2), f"exit code {code}")
        _check_flat(expect, report)
    elif kind == "decompose":
        _need(code == 0, f"exit code {code}")
        sizes = [b["size"] for b in report["blocks"]]
        _need(sizes == expect["sizes"], f"block sizes {sizes}, expected {expect['sizes']}")
    elif kind == "graph":
        _need(code == (0 if expect["tag"] == "NPC" else 2), f"exit code {code}")
        _need(report["tag"] == expect["tag"], f"graph tag {report['tag']}")
        for tid, cert in expect["tori"].items():
            _check_flat(cert, report["tori"][tid])
        if expect["tag"] == "Obstruction":
            obs = report["obstruction"]
            _need(obs["torus"] == expect["obstruction"], f"obstruction torus {obs['torus']}")
            _need(obs["witnessClass"]["tag"] in NON_BALLISTIC, "ballistic witness")
        _need(all(g["ok"] for g in report["gluings"]), "gluing covariance failed")
    else:
        raise ValueError(kind)


def _check_classify(expect: dict, code: int, report: dict) -> None:
    _need(code == 0, f"exit code {code}")
    tag = report["tag"]
    _need(tag == expect["tag"], f"tag {tag}, expected {expect['tag']}")
    _need(report.get("order") == expect.get("order"), f"order {report.get('order')}")
    if tag == "Ballistic":
        _need(report["diagonalizable"] == expect["diagonalizable"], "diagonalizable flag")
    arch = report["arch"]
    _need(len(arch) == len(expect["arch"]), "arch length")
    for x, y in zip(arch, expect["arch"]):
        _need(_close(x, y, ARCH_REL), f"arch coordinate {x}, expected {y}")
    padic = {p: [Fraction(v) for v in vals] for p, vals in report["padic"].items()}
    _need(padic == expect["padic"], "p-adic valuations")
    if expect["direction"]:
        d = report["direction"]
        for p, vals in expect["padic"].items():
            _need(Fraction(d["norms2Nonarch"][p]) == sum(v * v for v in vals), "nonarch norm")
        arch_norm = math.sqrt(math.fsum(x * x for x in expect["arch"]))
        _need(_close(d["norms"]["arch"], arch_norm, ARCH_REL), "arch norm")


def _check_flat(expect: dict, report: dict) -> None:
    tag = report["tag"]
    _need(tag == expect["tag"], f"flat tag {tag}, expected {expect['tag']}")
    if tag == "Lattice":
        _need(report["rank"] == expect["rank"], "lattice rank")
        _need(_close(report["covolume"], expect["covolume"], COVOLUME_REL),
              f"covolume {report['covolume']}, expected {expect['covolume']}")
        return
    _need(report["latticeRank"] == expect["latticeRank"], f"latticeRank {report['latticeRank']}")
    _need(report["witnessClass"]["tag"] in NON_BALLISTIC, "ballistic witness")
    v = report["nullVector"]
    combo = [sum(c * row[i] for c, row in zip(v, expect["exps"]))
             for i in range(len(expect["exps"][0]))]
    _need(any(v) and not any(combo), f"null vector {v} is not in the kernel")
