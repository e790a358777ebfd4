"""Construction-oracle sweeps of `decompose`, `flat` and `graph`: seeded
commuting families from bench/gen.py, and graphs of such tori from
bench/workloads.py, whose blocks and certificates are known from their
construction, are checked by bench/oracle.py against the report the CLI
prints.

The bench modules are imported read-only: no bytecode is written under
bench/.
"""

import json
import random
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from flatcert.cli import main

BENCH = str(Path(__file__).resolve().parents[1] / "bench")

_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH)
try:
    import gen
    import oracle
    import workloads
finally:
    sys.path.remove(BENCH)
    sys.dont_write_bytecode = _write_bytecode

# (field degree, n) with n * d from 2 to 16
CASES = [(d, n) for d in (1, 2, 4) for n in range(2, 16 // d + 1)]


@pytest.mark.parametrize("d, n", CASES, ids=[f"d{d}-nd{n * d}" for d, n in CASES])
def test_decompose_matches_construction(tmp_path, d, n):
    fld = gen.FIELDS[d]
    for seed in range(3):
        rng = random.Random(f"decompose/{d}/{n}/{seed}")
        # with repeat two slots agree in every member and share a block;
        # it draws n - 1 slots in inverse pairs, so it needs n >= 3
        models = gen.family(rng, n, d, 2, dependent=False, repeat=n >= 3)
        doc, _ = gen.build_doc(rng, fld, dict(zip("ab", models)), "generators")
        path = tmp_path / f"s{seed}.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["-i", str(path), "decompose", "a", "b"])
        oracle.check(oracle.expect_blocks(models, fld), res.exit_code, res.stdout)


# (field degree, n, rank, dependent) with n * d from 2 to 16 and n >= rank
FLAT_CASES = [
    (d, n, rank, dependent)
    for d, n in CASES
    for rank in (2, 3)
    for dependent in (False, True)
    if n >= rank
]
# requests that end in a structured error today, by (d, n, rank, dependent,
# seed): ROADMAP item 1's absolute root tolerance, missed in a degree-4 field
FLAT_ERRORS = {(4, 4, 3, True, 0): "ToleranceNotReached"}


@pytest.mark.parametrize(
    "d, n, rank, dependent",
    FLAT_CASES,
    ids=[f"d{d}-nd{n * d}-r{r}{'-dep' if dep else ''}" for d, n, r, dep in FLAT_CASES],
)
def test_flat_matches_construction(tmp_path, d, n, rank, dependent):
    fld = gen.FIELDS[d]
    for seed in range(2):
        rng = random.Random(f"flat/{d}/{n}/{rank}/{dependent}/{seed}")
        models = gen.family(rng, n, d, rank, dependent)
        names = "abc"[:rank]
        doc, _ = gen.build_doc(rng, fld, dict(zip(names, models)), "generators")
        path = tmp_path / f"s{seed}.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["-i", str(path), "flat", *names])
        error = FLAT_ERRORS.get((d, n, rank, dependent, seed))
        if error is None:
            oracle.check(oracle.expect_flat(models, fld), res.exit_code, res.stdout)
        else:
            assert res.exit_code == 1
            assert json.loads(res.stderr)["error"]["type"] == error


# torus kinds at n = 2-4; a unipotent torus needs n >= 3
GRAPH_CASES = [
    (kind, n)
    for kind in ("lattice", "hyp", "unip", "power", "finite")
    for n in range(3 if kind == "unip" else 2, 5)
]
# hyperbolic exponents k whose Gram words stay outside the known failing
# band h^10..h^29 (ROADMAP item 1): below n = 4 a hyperbolic torus is
# {h^k, h^2k}, and its Gram analyses h^3k and h^-k as well
HYP_POWERS = (1, 2, 3, 30, 41)


@pytest.mark.parametrize("kind, n", GRAPH_CASES, ids=[f"{k}-n{n}" for k, n in GRAPH_CASES])
def test_graph_matches_construction(tmp_path, kind, n):
    for seed in range(30):
        rng = random.Random(f"graph/{kind}/{n}/{seed}")
        # the torus of this kind among up to two lattice tori, at any position
        extra = seed % 3
        tori = [workloads._torus(rng, "lattice", rng.choice((2, 3, 4))) for _ in range(extra)]
        hyp_k = rng.choice(HYP_POWERS) if kind == "hyp" else 1
        tori.insert(rng.randrange(extra + 1), workloads._torus(rng, kind, n, hyp_k))
        doc = workloads._graph_doc(rng, tori)
        path = tmp_path / f"g{seed}.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["graph", str(path)])
        expect = oracle.expect_graph([(f"T{i + 1}", t) for i, t in enumerate(tori)])
        oracle.check(expect, res.exit_code, res.stdout)
