"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import math
import random
from fractions import Fraction as F

from click.testing import CliRunner

from flatcert import (
    CommutingFamily,
    GluingSpec,
    GraphRep,
    PlaceSet,
    SqMatrix,
    TorusRep,
    charpoly,
    classify,
    discover_places,
    drift_profile,
    embed_regular,
    factor_q,
    flat_certificate,
    gluing_covariance,
    gram,
    is_unipotent,
    make_field,
    newton_slopes,
    npc_certificate,
    parse_graph,
    word_eval,
)
from flatcert import Poly
from flatcert.cli import main as cli_main
from flatcert.exact.integers import padic_valuation
from flatcert.linalg import block_decompose, regular_matrix

from conftest import det1_corpus, random_diag_23, unimodular, unimodular_2x2


def _ok(num: int, text: str):
    print(f"ACCEPTANCE {num:2d} PASS  {text}")


def test_criterion_01_classification_totality():
    tags = {"Identity", "Unipotent", "FiniteOrder", "VirtuallyUnipotent", "Ballistic"}
    corpus = det1_corpus(20260810, 200)
    places = discover_places(corpus)
    for m in corpus:
        cls = classify(m, places)
        assert cls.tag in tags
    assert classify(SqMatrix([[1, 1], [0, 1]]), places).tag == "Unipotent"
    rot = classify(SqMatrix([[0, -1], [1, 0]]), places)
    assert (rot.tag, rot.order) == ("FiniteOrder", 4)
    assert classify(SqMatrix([[2, 1], [1, 1]]), places).tag == "Ballistic"
    _ok(1, "classification total and exact on 200 random det-1 matrices")


def test_criterion_02_newton_polygon_oracle():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        m = random_diag_23(rng, n)  # entries 2^a 3^b, |a|,|b| <= 3 by construction
        cp = charpoly(m)
        for p in (2, 3):
            direct = sorted(F(padic_valuation(m.rows[i][i], p)) for i in range(n))
            assert sorted(newton_slopes(cp, p).valuations) == direct
    _ok(2, "newton slopes equal direct entry valuations on 100 diagonal matrices")


def test_criterion_03_polarization_oracle():
    rng = random.Random(3)
    places = PlaceSet(primes=(2, 3))
    for _ in range(100):
        n = rng.choice([2, 3])
        g, h = random_diag_23(rng, n), random_diag_23(rng, n)
        fam = CommutingFamily.build([("g", g), ("h", h)], places=places)
        gm = gram(fam)
        pairs = {(0, 0): (g, g), (0, 1): (g, h), (1, 1): (h, h)}
        for (i, j), (x, y) in pairs.items():
            arch = sum(
                math.log(abs(x.rows[k][k])) * math.log(abs(y.rows[k][k])) for k in range(n)
            )
            nonarch = sum(
                F(padic_valuation(x.rows[k][k], p)) * padic_valuation(y.rows[k][k], p)
                for k in range(n)
                for p in (2, 3)
            )
            assert gm.nonarch[i][j] == nonarch
            assert abs(gm.arch[i][j] - arch) <= 1e-9
    _ok(3, "polarized Gram equals the joint-indexing sum on 100 diagonal pairs")


def test_criterion_04_parallelogram_law():
    rng = random.Random(4)
    places = PlaceSet(primes=(2, 3))
    from flatcert import length_sq

    for _ in range(100):
        n = rng.choice([2, 3])
        g, h = random_diag_23(rng, n), random_diag_23(rng, n)
        qg, qh = length_sq(g, places), length_sq(h, places)
        qp, qm = length_sq(g * h, places), length_sq(g * h.inverse(), places)
        assert qp[1] + qm[1] == 2 * qg[1] + 2 * qh[1]
        lhs, rhs = qp[0] + qm[0], 2 * qg[0] + 2 * qh[0]
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))
    _ok(4, "parallelogram law exact (nonarch) and 1e-8 relative (arch)")


def _conjugated_family(rng: random.Random):
    sizes = rng.choice([[2], [3], [1, 2], [2, 2], [1, 1, 2]])
    n = sum(sizes)
    lams = [F(2), F(1, 2), F(3), F(-1), F(5, 2), F(1)]
    gens = []
    for _ in range(rng.randint(1, 3)):
        big = [[F(0)] * n for _ in range(n)]
        off = 0
        for s in sizes:
            lam = rng.choice(lams)
            c = F(rng.randint(-2, 2))
            for i in range(s):
                big[off + i][off + i] = lam
                if i + 1 < s:
                    big[off + i][off + i + 1] = c
            off += s
        gens.append(SqMatrix(big))
    conj = unimodular(rng, n)
    return [(f"g{k}", g.conjugate_by(conj)) for k, g in enumerate(gens)]


def test_criterion_05_triangularize_suite():
    rng = random.Random(5)
    for _ in range(50):
        family = _conjugated_family(rng)
        d = block_decompose(family)
        assert d.conjugator.det() == 1
        for k, (_, g) in enumerate(family):
            assert d.reassemble(k) == g
        for per_gen in d.block_charpolys:
            for cp in per_gen:
                assert len(factor_q(cp)) == 1
    _ok(5, "50 commuting families: exact reassembly, primary blocks, det C = 1")


def test_criterion_06_thick_flat_certificates():
    fam = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.diagonal([3, F(1, 3)]))],
        places=PlaceSet(primes=(2, 3)),
    )
    cert = flat_certificate(fam)
    assert cert.tag == "Lattice" and cert.rank == 2
    covol2 = 4 * (math.log(2) ** 2 + math.log(3) ** 2 + 1)
    assert abs(cert.covolume**2 - covol2) <= 1e-8 * covol2

    fam2 = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.diagonal([4, F(1, 4)]))]
    )
    cert2 = flat_certificate(fam2)
    assert cert2.tag == "Degenerate"
    assert cert2.null_vector in ((2, -1), (-2, 1))
    assert cert2.witness_class.tag == "Identity"
    _ok(6, "lattice covolume and degenerate witness match the worked examples")


def test_criterion_07_heisenberg_shadow():
    a = SqMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = SqMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    gens = {"a": a, "b": b}
    center = word_eval("a*b*a^-1*b^-1", gens)
    assert not center.is_identity()
    places = discover_places([a, b])
    assert classify(center, places).tag == "Unipotent"
    fam = CommutingFamily.build([("z", center)], places=places)
    cert = flat_certificate(fam)
    assert cert.tag == "Degenerate"
    assert cert.witness_class.tag == "Unipotent"
    _ok(7, "Heisenberg center is a unipotent degenerate witness")


def test_criterion_08_graph_checker_cli():
    runner = CliRunner()
    npc_doc = json.dumps(
        {
            "tori": [
                {"id": "T1", "A": [["2", "0"], ["0", "1/2"]], "B": [["3", "0"], ["0", "1/3"]]}
            ],
            "gluings": [{"torus": "T1", "U": [[0, 1], [1, 0]], "secondBasisWords": ["b", "a"]}],
        }
    )
    obstructed_doc = json.dumps(
        {"tori": [{"id": "T1", "A": [["1", "1"], ["0", "1"]], "B": [["1", "5"], ["0", "1"]]}]}
    )
    with runner.isolated_filesystem():
        with open("npc.json", "w") as fh:
            fh.write(npc_doc)
        with open("bad.json", "w") as fh:
            fh.write(obstructed_doc)
        res = runner.invoke(cli_main, ["graph", "npc.json"], catch_exceptions=False)
        assert res.exit_code == 0
        assert json.loads(res.output)["tag"] == "NPC"
        res2 = runner.invoke(cli_main, ["graph", "bad.json"], catch_exceptions=False)
        assert res2.exit_code == 2
        doc = json.loads(res2.output)
        assert doc["tag"] == "Obstruction"
        assert doc["obstruction"]["witnessClass"]["tag"] == "Unipotent"
    # swap-gluing covariance holds exactly on the non-archimedean part
    rep = parse_graph(npc_doc)
    reports = gluing_covariance(rep)
    assert all(r.nonarch_exact for r in reports)
    assert all(r.ok for r in reports)
    _ok(8, "graph checker exits 0/2 with the right certificates; gluing covariance exact")


def test_criterion_09_regular_representation_consistency():
    field = make_field(Poly([-2, 0, 1]))
    r2, zero = regular_matrix([0, 1], field), regular_matrix([], field)
    big = embed_regular([[r2, zero], [zero, r2.inverse()]], field)
    places = discover_places([big])
    prof = drift_profile(big, places)
    half = 0.5 * math.log(2)
    expect = [half, half, -half, -half]
    assert all(abs(x - y) <= 1e-9 for x, y in zip(prof.arch, expect))
    assert prof.padic[2] == (F(1, 2), F(1, 2), F(-1, 2), F(-1, 2))
    _ok(9, "diag(sqrt2, 1/sqrt2) embeds with drift (+-1/2)ln2 and valuations +-1/2")


def test_criterion_10_invariance_suite():
    rng = random.Random(10)
    corpus = det1_corpus(515, 40, sizes=(2, 3))
    places = PlaceSet(primes=(2,))
    for m in corpus:
        c = unimodular(rng, m.n)
        mc = m.conjugate_by(c)
        a, b = classify(m, places), classify(mc, places)
        assert (a.tag, a.order) == (b.tag, b.order)
        pa, pb = drift_profile(m, places), drift_profile(mc, places)
        assert pa.padic == pb.padic
        assert all(abs(x - y) <= 1e-9 for x, y in zip(pa.arch, pb.arch))

    cases = [
        (SqMatrix.diagonal([2, F(1, 2)]), SqMatrix.diagonal([3, F(1, 3)]), "NPC"),
        (SqMatrix([[1, 1], [0, 1]]), SqMatrix([[1, 5], [0, 1]]), "Obstruction"),
    ]
    checked = 0
    while checked < 20:
        for a, b, expected in cases:
            u = unimodular_2x2(rng)
            a2 = a ** u[0][0] * b ** u[1][0]
            b2 = a ** u[0][1] * b ** u[1][1]
            rep = GraphRep.build([TorusRep(id="T", a=a2, b=b2)], [])
            assert npc_certificate(rep).tag == expected
            checked += 1
    _ok(10, "conjugation and re-basing invariance hold")
