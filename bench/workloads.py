"""The three workloads, built round by round from the seed.

A round is a fixed mix of request kinds and size classes with fresh seeded
inputs, so every round exercises the same layers in the same proportions,
and per-round rates and percentiles can be compared across rounds, runs
and seeds.  Inputs are written as session and graph files; the
program sees nothing else.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle
from gen import FIELDS, Model, build_doc, combine, family, power_word, random_slots

# Bands of the exponent k in "h^k" for the hyperbolic generator
# h ~ [[2, 1], [1, 1]].  One power per band is requested each round, so each
# band enters at a fixed rate, including the bands where the program is known
# to fail (ToleranceNotReached at k = 10..29 and 369..737, OverflowError from
# 738, and sporadic ValueErrors in 229..365).
POWER_BANDS = ((1, 9), (10, 29), (30, 368), (369, 737), (738, 2000))


@dataclass
class Request:
    kind: str  # request kind for the run record, e.g. "flat/3"
    argv: list[str]  # CLI arguments after the program name
    expect: dict  # oracle expectation


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _band_power(rng: random.Random, band) -> int:
    lo, hi = band
    # log-uniform inside the band
    return int(round(lo * (hi / lo) ** rng.random()))


class _Files:
    def __init__(self, rdir: Path):
        self.rdir = rdir
        self.count = 0

    def session(self, rng, d: int, models: dict[str, Model]):
        doc, primes = build_doc(rng, FIELDS[d], models, "generators")
        self.count += 1
        return _write(self.rdir / f"s{self.count}.json", doc), primes


def _mixed_models(rng: random.Random, n: int, d: int) -> dict[str, Model]:
    """One ballistic, one hyperbolic, one finite-order, one unipotent and one
    virtually unipotent generator of the same size."""
    big = n >= 4
    return {
        "a": Model(n, random_slots(rng, n, d)),
        "h": Model(n, (), (("hyp", 1),)),
        "r": Model(n, (), (("rot", 3, 1),) + ((("rot", 4, 1),) if big else ())),
        "j": Model(n, (), (("unip", 1),) + ((("unip", 2),) if big else ())),
        "v": Model(n, (), (("negunip", 1),) + ((("rot", 6, 1),) if big else ())),
    }


def _classify(path, primes, models, name, e, d) -> Request:
    word = name if e == 1 else f"{name}^{e}"
    exp = oracle.expect_classify(models[name].power(e), FIELDS[d], primes)
    return Request("classify", ["-i", path, "classify", word], exp)


def _family_requests(rng, files, n, d, plan) -> list[Request]:
    """Requests on one commuting family session; plan lists the kinds."""
    rank3 = "flat/3" in plan
    # two slots carry at most two independent non-archimedean directions
    dependent = rank3 and (n < 3 or rng.random() < 0.5)
    repeat = "decompose" in plan and n >= 3 + dependent and rng.random() < 0.5
    models = family(rng, n, d, 3 if rank3 else 2, dependent, repeat)
    names = ["a", "b", "c"][: len(models)]
    named = dict(zip(names, models))
    path, primes = files.session(rng, d, named)
    fld = FIELDS[d]
    out = []
    for kind in plan:
        if kind in ("classify", "classify --direction"):
            exps = [1, rng.choice((-1, 1))]
            word = power_word(["a", "b"], exps)
            m = combine(models[:2], exps)
            direction = kind != "classify"
            exp = oracle.expect_classify(m, fld, primes, direction)
            argv = ["-i", path, "classify"] + (["--direction"] if direction else []) + [word]
            out.append(Request(kind, argv, exp))
        elif kind in ("flat/2", "flat/3"):
            k = int(kind[-1])
            out.append(Request(kind, ["-i", path, "flat"] + names[:k],
                               oracle.expect_flat(models[:k], fld)))
        elif kind == "decompose":
            out.append(Request(kind, ["-i", path, "decompose", "a", "b"],
                               oracle.expect_blocks(models[:2], fld)))
        elif kind == "places":
            out.append(Request(kind, ["-i", path, "places"],
                               {"type": "places", "primes": list(primes)}))
        else:
            raise ValueError(kind)
    return out


# -- session-large ----------------------------------------------------------------

# One round: (n*d, d, session kind, requests), plus five hyperbolic powers.
# The mix is fixed, so every round has the same share of each size class and
# field degree.  The nd8 requests and the powers cost about the same (40-115
# ms on a 2-CPU x86 container) and hold the middle of the latency
# distribution, so latency_p50_ms falls inside them; nd12 holds about the
# 84th to 96th percentiles, so latency_p90_ms falls inside it.  A round takes
# about 4 s, so a 45 s run has about ten rounds to take medians over.
SESSION_PLAN = (
    (4, 1, "family", ("classify", "classify --direction", "flat/3", "decompose")),
    (4, 2, "mixed", ("r", "j", "v")),
    (8, 1, "family", ("classify", "flat/2")),
    (8, 2, "family", ("classify", "decompose")),
    (8, 4, "family", ("flat/2",)),
    (8, 4, "mixed", ("a", "h")),
    (8, 2, "family", ("classify --direction", "flat/3")),
    (12, 1, "family", ("classify",)),
    (12, 2, "family", ("decompose",)),
    (12, 4, "family", ("flat/2",)),
    (16, 1, "family", ("classify",)),
)


def session_large_round(rng: random.Random, rdir: Path, first: bool) -> list[Request]:
    files = _Files(rdir)
    out: list[Request] = []
    for nd, d, session, plan in SESSION_PLAN:
        if session == "family":
            out += _family_requests(rng, files, nd // d, d, plan)
            continue
        models = _mixed_models(rng, nd // d, d)
        path, primes = files.session(rng, d, models)
        for name in plan:
            e = rng.choice((-1, 1)) if name == "a" else rng.choice((1, 2, 3))
            out.append(_classify(path, primes, models, name, e, d))
    # hyperbolic powers, one per band, on an nd8 session over Q(sqrt2)
    models = _mixed_models(rng, 4, 2)
    path, primes = files.session(rng, 2, models)
    for band in POWER_BANDS:
        out.append(_classify(path, primes, models, "h", _band_power(rng, band), 2))
    if first:
        # item 5 of the roadmap: flat on {h^i, h^j, h^k} does not terminate
        n = rng.choice((2, 3, 4))
        exps = sorted(rng.sample(range(1, 5), 3))
        fam = {f"g{e}": Model(n, (), (("hyp", e),)) for e in exps}
        path, _ = files.session(rng, 1, fam)
        exp = oracle.expect_flat(list(fam.values()), FIELDS[1])
        out.append(Request("flat/3", ["-i", path, "flat"] + list(fam), exp))
    return out


# -- graph-tori -------------------------------------------------------------------

# Torus counts of the 20 graphs of a round: 1 to 50, skewed toward small
# graphs.  Four 2-torus graphs sit at the middle of the round and two 15-torus
# graphs at its 90th percentile, so latency_p50_ms and latency_p90_ms fall
# inside a group of like graphs rather than between two sizes.
TORI_COUNTS = (1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 4, 5, 6, 8, 15, 15, 50)


def _torus(rng: random.Random, kind: str, n: int, hyp_k: int = 1) -> list[Model]:
    if kind == "lattice":
        return family(rng, n, 1, 2, dependent=False)
    if kind == "hyp":
        # a hyperbolic block carries a's direction, b's slots the other one;
        # below n = 4 the pair {h^k, h^2k} is degenerate
        if n < 4:
            a = Model(n, ((0, 0, 0),) * (n - 2), (("hyp", hyp_k),))
            return [a, a.power(2)]
        return [Model(n, random_slots(rng, 2, 1), (("hyp", hyp_k),)),
                Model(n, random_slots(rng, 2, 1))]
    if kind == "unip":
        # a is scalar on the two coordinates where b is unipotent
        s = (rng.choice((-1, 1)), rng.choice((-1, 0, 1)), 0)
        rest = ((-2 * s[0], -2 * s[1], 0),) if n == 3 else ((-s[0], 0, 0), (-s[0], -2 * s[1], 0))
        return [Model(n, (s, s) + rest), Model(n, (), (("unip", rng.choice((1, 2))),))]
    (a,) = family(rng, n, 1, 1, dependent=False)
    if kind == "power":
        return [a, a.power(rng.choice((-2, -1, 2, 3)))]
    if kind == "finite":
        # -1 on two coordinates, where a is diagonal
        return [a, Model(n, (), (("rot", 2, 1), ("rot", 2, 1)))]
    raise ValueError(kind)


def _graph_doc(rng: random.Random, tori: list[list[Model]]):
    doc = {"tori": [], "gluings": []}
    for i, (a, b) in enumerate(tori):
        mats, _ = build_doc(rng, FIELDS[1], {"A": a, "B": b}, "m")
        tid = f"T{i + 1}"
        doc["tori"].append({"id": tid, "A": mats["m"]["A"], "B": mats["m"]["B"]})
        u = _unimodular_2x2(rng)
        words = [power_word(["a", "b"], [u[0][k], u[1][k]]) for k in range(2)]
        doc["gluings"].append({"torus": tid, "U": u, "secondBasisWords": words})
    return doc


def _unimodular_2x2(rng: random.Random):
    u = [[1, 0], [0, 1]]
    # entries stay small, so words in a hyperbolic torus stay below h^10
    for _ in range(rng.randint(1, 2)):
        c = rng.choice((-1, 1))
        i = rng.randrange(2)
        u[i][0] += c * u[1 - i][0]
        u[i][1] += c * u[1 - i][1]
    return u


def graph_tori_round(rng: random.Random, rdir: Path, first: bool) -> list[Request]:
    out = []
    failing = rng.randrange(len(TORI_COUNTS))
    for g, t_count in enumerate(TORI_COUNTS):
        kinds = [rng.choice(("lattice", "lattice", "lattice", "hyp")) for _ in range(t_count)]
        if g % 2:
            kinds[rng.randrange(t_count)] = rng.choice(("power", "finite", "unip"))
        tori = []
        for i, kind in enumerate(kinds):
            # sizes 2, 3, 4 in turn, so graphs of one torus count cost alike
            n = 4 if kind == "hyp" else max(2 + (g + i) % 3, 3 if kind == "unip" else 2)
            tori.append(_torus(rng, kind, n))
        if g == failing:
            # a hyperbolic torus in a known failing band of the exponent
            i = rng.randrange(t_count)
            tori[i] = _torus(rng, "hyp", rng.choice((2, 3, 4)), _band_power(rng, POWER_BANDS[1]))
        doc = _graph_doc(rng, tori)
        path = _write(rdir / f"g{g}.json", doc)
        exp = oracle.expect_graph([(f"T{i + 1}", t) for i, t in enumerate(tori)])
        out.append(Request("graph", ["graph", path], exp))
    return out


# -- cli-cold ---------------------------------------------------------------------


def cli_cold_round(rng: random.Random, rdir: Path, first: bool) -> list[Request]:
    """One request per subcommand on small inputs, plus a hyperbolic power in
    a known failing band; one classify runs over a degree-2 field."""
    files = _Files(rdir)
    out = []
    out += _family_requests(rng, files, rng.choice((2, 3, 4)), 1, ("places",))
    out += _family_requests(rng, files, rng.choice((2, 3, 4)), 1, ("classify", "flat/2"))
    out += _family_requests(rng, files, 2, 2, ("classify --direction",))
    out += _family_requests(rng, files, rng.choice((3, 4)), 1, ("decompose",))
    n = rng.choice((2, 3, 4))
    models = _mixed_models(rng, n, 1)
    path, primes = files.session(rng, 1, models)
    name = rng.choice(("r", "j", "v"))
    out.append(_classify(path, primes, models, name, rng.choice((1, 2, 5)), 1))
    out.append(_classify(path, primes, models, "h", _band_power(rng, POWER_BANDS[1]), 1))
    tori = []
    for _ in range(rng.randint(1, 3)):
        tori.append(_torus(rng, "lattice", rng.choice((2, 3)), 1))
    path = _write(rdir / "g.json", _graph_doc(rng, tori))
    exp = oracle.expect_graph([(f"T{i + 1}", t) for i, t in enumerate(tori)])
    out.append(Request("graph", ["graph", path], exp))
    return out


WORKLOADS = {
    "session-large": session_large_round,
    "graph-tori": graph_tori_round,
    "cli-cold": cli_cold_round,
}
