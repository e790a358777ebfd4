"""Gram polarization against the joint-indexing oracle, parallelogram law,
certificates, Tits angles."""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcert import (
    CommutingFamily,
    PlaceSet,
    SqMatrix,
    classify,
    drift_profile,
    flat_certificate,
    gram,
    length_sq,
    tits_angle,
    verify_commuting,
    word_eval,
)
from flatcert.cli import main
from flatcert.errors import DeterminantNotOne, NotBallistic, NotCommuting, PlaceSetIncomplete
from flatcert.exact.integers import padic_valuation
from flatcert.flats import _eigh, _lattice_covolume
from flatcert.places import _charpoly_drift

from conftest import numpy_eigh, numpy_lattice_decision, random_diag_23


def _diag_gram_oracle(g: SqMatrix, h: SqMatrix, primes) -> tuple[float, F]:
    """Direct joint-indexing inner product for commuting diagonal matrices:
    sum over places and diagonal slots of drift * drift."""
    arch = 0.0
    nonarch = F(0)
    for i in range(g.n):
        gi, hi = g.rows[i][i], h.rows[i][i]
        arch += math.log(abs(gi)) * math.log(abs(hi))
        for p in primes:
            nonarch += padic_valuation(gi, p) * padic_valuation(hi, p)
    return arch, nonarch


def test_verify_commuting_examples():
    d1 = SqMatrix.diagonal([2, F(1, 2)])
    d2 = SqMatrix.diagonal([3, F(1, 3)])
    assert verify_commuting([("a", d1), ("b", d2)]) is None
    w = verify_commuting([("a", SqMatrix([[1, 1], [0, 1]])), ("b", SqMatrix([[1, 0], [1, 1]]))])
    assert w is not None and {w.i, w.j} == {"a", "b"}
    assert not w.commutator.is_identity()
    assert verify_commuting([("a", d1)]) is None


def test_length_sq_examples():
    places = PlaceSet(primes=(2, 3))
    assert length_sq(SqMatrix.identity(2), places) == (0.0, 0)
    a, na = length_sq(SqMatrix.diagonal([2, F(1, 2)]), places)
    assert na == 2 and abs(a - 2 * math.log(2) ** 2) < 1e-11
    a, na = length_sq(SqMatrix.diagonal([3, F(1, 3)]), places)
    assert na == 2 and abs(a - 2 * math.log(3) ** 2) < 1e-11


@pytest.mark.parametrize(
    "bad, error",
    [
        (SqMatrix.diagonal([2, 1]), DeterminantNotOne),
        (SqMatrix.diagonal([5, F(1, 5)]), PlaceSetIncomplete),
    ],
    ids=["det-2", "off-place"],
)
def test_public_entry_points_keep_their_checks(bad, error):
    """Only gram's products skip the det and place checks; every public
    entry point checks the matrices it is given."""
    places = PlaceSet(primes=(2,))
    for check in (length_sq, drift_profile, classify):
        with pytest.raises(error):
            check(bad, places)
    # built directly, so nothing checked the family; the bad generator is last
    family = CommutingFamily(
        names=("a", "b"), gens=(SqMatrix.diagonal([2, F(1, 2)]), bad), places=places
    )
    with pytest.raises(error):
        gram(family)


FLAT_POWERS_REPORT = {
    "latticeRank": 1,
    "nullVector": [1, 1, -1],
    "nullVectors": [[1, 1, -1], [2, -1, 0]],
    "tag": "Degenerate",
    "witness": "g1*g2*g3^-1",
    "witnessClass": {"tag": "Identity"},
}


def test_flat_on_hyperbolic_powers_keeps_its_witnesses(tmp_path):
    """flat g1 g2 g3 with g_k = h^k.  The null candidates come from the float
    eigenbasis of the polarized Gram, so they move with its rounding: the
    parallelogram form (Q(gh) - Q(g) - Q(h))/2 of the same Gram took this
    request from 0.25 s to past 10 s."""
    h = SqMatrix([[2, 1], [1, 1]])
    gens = {f"g{k}": [[str(x) for x in row] for row in (h**k).rows] for k in (1, 2, 3)}
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"generators": gens}))
    _charpoly_drift.cache_clear()
    t0 = time.perf_counter()
    res = CliRunner().invoke(main, ["-i", str(path), "flat", "g1", "g2", "g3"])
    assert time.perf_counter() - t0 < 2.0
    assert res.exit_code == 2
    assert res.stdout == json.dumps(FLAT_POWERS_REPORT, indent=2, sort_keys=True) + "\n"


def test_gram_worked_example():
    fam = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.diagonal([3, F(1, 3)]))],
        places=PlaceSet(primes=(2, 3)),
    )
    g = gram(fam)
    assert g.nonarch == ((F(2), F(0)), (F(0), F(2)))
    l2, l3 = math.log(2), math.log(3)
    expect = [[2 * l2 * l2, 2 * l2 * l3], [2 * l2 * l3, 2 * l3 * l3]]
    for i in range(2):
        for j in range(2):
            assert abs(g.arch[i][j] - expect[i][j]) < 1e-10


def test_gram_zero_for_unipotent_pair():
    fam = CommutingFamily.build(
        [("a", SqMatrix([[1, 1], [0, 1]])), ("b", SqMatrix([[1, 5], [0, 1]]))]
    )
    g = gram(fam)
    assert g.nonarch == ((F(0), F(0)), (F(0), F(0)))
    assert g.arch == ((0.0, 0.0), (0.0, 0.0))


def test_gram_singleton_is_length_sq():
    places = PlaceSet(primes=(2,))
    m = SqMatrix.diagonal([2, F(1, 2)])
    fam = CommutingFamily.build([("a", m)], places=places)
    g = gram(fam)
    a, na = length_sq(m, places)
    assert g.nonarch[0][0] == na
    assert abs(g.arch[0][0] - a) < 1e-12


def test_polarization_matches_joint_indexing_oracle():
    rng = random.Random(131)
    for _ in range(40):
        n = rng.choice([2, 3])
        g = random_diag_23(rng, n)
        h = random_diag_23(rng, n)
        fam = CommutingFamily.build([("g", g), ("h", h)], places=PlaceSet(primes=(2, 3)))
        gm = gram(fam)
        for (i, x), (j, y) in [((0, g), (0, g)), ((0, g), (1, h)), ((1, h), (1, h))]:
            arch, nonarch = _diag_gram_oracle(x, y, (2, 3))
            assert gm.nonarch[i][j] == nonarch
            assert abs(gm.arch[i][j] - arch) <= 1e-9


def test_parallelogram_law():
    rng = random.Random(137)
    places = PlaceSet(primes=(2, 3))
    for _ in range(30):
        n = rng.choice([2, 3])
        g = random_diag_23(rng, n)
        h = random_diag_23(rng, n)
        qg = length_sq(g, places)
        qh = length_sq(h, places)
        qp = length_sq(g * h, places)
        qm = length_sq(g * h.inverse(), places)
        assert qp[1] + qm[1] == 2 * qg[1] + 2 * qh[1]
        lhs = qp[0] + qm[0]
        rhs = 2 * qg[0] + 2 * qh[0]
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


def test_flat_certificate_lattice_example():
    fam = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.diagonal([3, F(1, 3)]))],
        places=PlaceSet(primes=(2, 3)),
    )
    cert = flat_certificate(fam)
    assert cert.tag == "Lattice" and cert.rank == 2
    covol2 = 4 * (math.log(2) ** 2 + math.log(3) ** 2 + 1)
    assert abs(cert.covolume**2 - covol2) <= 1e-8 * covol2


def test_flat_certificate_degenerate_examples():
    # zero Gram singleton
    fam = CommutingFamily.build([("a", SqMatrix([[1, 1], [0, 1]]))])
    cert = flat_certificate(fam)
    assert cert.tag == "Degenerate"
    assert cert.null_vector == (1,)
    assert cert.witness_word == "a"
    assert cert.witness_class.tag == "Unipotent"
    assert cert.rank == 0

    # second generator is the square of the first
    fam = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.diagonal([4, F(1, 4)]))]
    )
    cert = flat_certificate(fam)
    assert cert.tag == "Degenerate"
    assert cert.null_vector == (2, -1)
    assert cert.witness_word == "a^2*b^-1"
    assert cert.witness_class.tag == "Identity"
    assert cert.rank == 1


def test_lattice_certificate_excludes_neutral_combinations():
    fam = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.diagonal([3, F(1, 3)]))],
        places=PlaceSet(primes=(2, 3)),
    )
    cert = flat_certificate(fam)
    assert cert.tag == "Lattice"
    for i in range(-3, 4):
        for j in range(-3, 4):
            if i == 0 and j == 0:
                continue
            word = fam.word_matrix((i, j))
            tag = classify(word, fam.places).tag
            assert tag == "Ballistic"


def test_gram_basis_covariance():
    # re-base by words: gram transforms as A^T G A, exactly on nonarch
    rng = random.Random(139)
    fam = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.diagonal([3, F(1, 3)]))],
        places=PlaceSet(primes=(2, 3)),
    )
    g = gram(fam)
    for _ in range(10):
        a11, a21 = rng.randint(-2, 2), rng.randint(-2, 2)
        a12, a22 = rng.randint(-2, 2), rng.randint(-2, 2)
        if a11 * a22 - a12 * a21 not in (1, -1):
            continue
        new_gens = [
            ("x", fam.word_matrix((a11, a21))),
            ("y", fam.word_matrix((a12, a22))),
        ]
        fam2 = CommutingFamily.build(new_gens, places=fam.places)
        g2 = gram(fam2)
        amat = [[a11, a12], [a21, a22]]
        for i in range(2):
            for j in range(2):
                expect = sum(
                    amat[k][i] * g.nonarch[k][l] * amat[l][j]
                    for k in range(2)
                    for l in range(2)
                )
                assert g2.nonarch[i][j] == expect


def test_tits_angle_examples():
    fam = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.diagonal([F(1, 2), 2]))]
    )
    assert abs(tits_angle(fam, 0, 1) - math.pi) < 1e-9

    m = SqMatrix.diagonal([2, F(1, 2)])
    fam2 = CommutingFamily.build([("a", m), ("b", m * m)])
    # arccos near cos = 1 amplifies float error to sqrt(eps)
    assert abs(tits_angle(fam2, 0, 1)) < 1e-7

    fam3 = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.diagonal([3, F(1, 3)]))],
        places=PlaceSet(primes=(2, 3)),
    )
    # the Gram-entry formula is the oracle here
    l2, l3 = math.log(2), math.log(3)
    expected = math.acos((2 * l2 * l3) / math.sqrt((2 * l2 * l2 + 2) * (2 * l3 * l3 + 2)))
    assert abs(tits_angle(fam3, 0, 1) - expected) < 1e-10

    fam4 = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.identity(2))]
    )
    with pytest.raises(NotBallistic):
        tits_angle(fam4, 0, 1)


def test_family_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        CommutingFamily.build(
            [("a", SqMatrix([[1, 1], [0, 1]])), ("b", SqMatrix([[1, 0], [1, 1]]))]
        )


# -- the exact Gram decisions against the numpy oracle ----------------------


@st.composite
def psd_ish_grams(draw):
    """Symmetric float Grams scale * (B^T B + delta * I), r x r with r in
    1..4, B of k <= r rows (integer or float entries), so that PD, singular
    and slightly indefinite Grams all occur."""
    r = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10))
    b = draw(st.lists(st.lists(entry, min_size=r, max_size=r), max_size=r))
    delta = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, 1e-3, 1.0]))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return tuple(
        tuple(scale * (sum(row[i] * row[j] for row in b) + delta * (i == j)) for j in range(r))
        for i in range(r)
    )


@settings(max_examples=400, deadline=None)
@given(psd_ish_grams(), st.sampled_from([1e-12, 1e-8, 1e-4, 1e-2]))
def test_gram_decisions_match_numpy_oracle(combined, pd_epsilon):
    r = len(combined)
    lattice, min_eig, trace, covolume = numpy_lattice_decision(combined, pd_epsilon)
    # the decision as flat_certificate makes it
    got = _lattice_covolume(combined, pd_epsilon * trace) if trace > 0 else None
    if abs(min_eig - pd_epsilon * trace) > 1e-9 * abs(trace):
        assert (got is not None) == lattice
    wn, vn = numpy_eigh(combined)
    if got is not None and lattice:
        # LU's det is backward stable: its relative error grows with the
        # condition number, while the exact pivots have none
        cond = wn[-1] / wn[0]
        assert got == pytest.approx(covolume, rel=max(1e-12, 4 * r * 2.0**-52 * cond))
    # hypot scales before squaring, so the norm of a Gram near 1e-214 does
    # not underflow to 0 and take every tolerance below with it
    norm = math.hypot(*(x for row in combined for x in row))
    w, v = _eigh(combined)
    assert all(abs(a - b) <= 1e-12 * norm for a, b in zip(w, wn))
    for k in range(r):
        gap = min((abs(wn[k] - wn[j]) for j in range(r) if j != k), default=norm)
        if gap > 1e-6 * norm:
            err = min(max(abs(x - s * y) for x, y in zip(v[k], vn[k])) for s in (1, -1))
            assert err <= 1e-12 * (norm / gap)
