"""Gram polarization against the joint-indexing oracle, parallelogram law,
certificates."""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest
import sympy
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcert import (
    CommutingFamily,
    SqMatrix,
    classify,
    drift_profile,
    flat_certificate,
    gram,
    length_sq,
    verify_commuting,
    word_eval,
)
from flatcert.cli import main
from flatcert.errors import (
    DeterminantNotOne,
    NotCommuting,
    NumericalInconclusive,
    PlaceSetIncomplete,
)
from flatcert.exact.integers import padic_valuation
from flatcert.flats import _lattice_covolume
from flatcert.places import _charpoly_drift

from conftest import numpy_eigvalsh, numpy_lattice_decision, random_diag_23


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
    places = (2, 3)
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
    places = (2,)
    for check in (length_sq, drift_profile, classify):
        with pytest.raises(error):
            check(bad, places)
    # built directly, so nothing checked the family; the bad generator is last
    family = CommutingFamily(
        names=("a", "b"), gens=(SqMatrix.diagonal([2, F(1, 2)]), bad), places=places
    )
    with pytest.raises(error):
        gram(family)


# (powers k of g_k = h^k, nullVectors, witness); the last two never
# finished when the candidates came from a float eigenbasis
FLAT_POWERS = [
    ((1, 2, 3), [[1, 1, -1], [2, -1, 0]], "g1*g2*g3^-1"),
    ((1, 2, 4), [[2, -1, 0], [0, 2, -1]], "g1^2*g2^-1"),
    ((2, 3, 5), [[1, 1, -1], [3, -2, 0]], "g2*g3*g5^-1"),
]


@pytest.mark.parametrize(
    "powers, null_vectors, witness", FLAT_POWERS, ids=["h1-h2-h3", "h1-h2-h4", "h2-h3-h5"]
)
def test_flat_on_hyperbolic_powers_keeps_its_witnesses(tmp_path, powers, null_vectors, witness):
    """flat on {h^i, h^j, h^k}: the Gram has a null lattice of rank 2, and
    its short LLL basis gives the witnesses at once.  Candidates read from a
    float eigenbasis were far from that basis, such as (488102, -894623,
    325286) on {h, h^2, h^4}, and the exact powers of their words never
    finished."""
    h = SqMatrix([[2, 1], [1, 1]])
    gens = {f"g{k}": [[str(x) for x in row] for row in (h**k).rows] for k in powers}
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"generators": gens}))
    _charpoly_drift.cache_clear()
    t0 = time.perf_counter()
    res = CliRunner().invoke(main, ["-i", str(path), "flat", *gens])
    assert time.perf_counter() - t0 < 2.0
    assert res.exit_code == 2
    report = {
        "latticeRank": 1,
        "nullVector": null_vectors[0],
        "nullVectors": null_vectors,
        "tag": "Degenerate",
        "witness": witness,
        "witnessClass": {"tag": "Identity"},
    }
    assert res.stdout == json.dumps(report, indent=2, sort_keys=True) + "\n"


def _diagonal_family(rng: random.Random) -> tuple[list[list[int]], CommutingFamily]:
    """(E, family): r in 2..4 commuting n x n diagonal members, n in {3, 4},
    over the primes 2, 3, 5.  Row k of E lists member k's exponents, prime by
    prime; an independent row is drawn in -2..2 with each prime's last slot
    making det 1, and 0-2 dependent rows (0-1 at r = 2) combine the earlier
    rows with coefficients in -3..3, not all zero."""
    primes = (2, 3, 5)
    n, r = rng.choice((3, 4)), rng.choice((2, 3, 4))
    dependent = rng.randint(0, 1 if r == 2 else 2)
    rows: list[list[int]] = []
    for _ in range(r - dependent):
        row = []
        for _ in primes:
            e = [rng.randint(-2, 2) for _ in range(n - 1)]
            row += e + [-sum(e)]
        rows.append(row)
    for _ in range(dependent):
        coeffs = [0]
        while not any(coeffs):
            coeffs = [rng.randint(-3, 3) for _ in rows]
        rows.append([sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)])
    gens = [
        (f"g{k}", SqMatrix.diagonal([
            math.prod(F(p) ** row[j * n + i] for j, p in enumerate(primes)) for i in range(n)
        ]))
        for k, row in enumerate(rows)
    ]
    return rows, CommutingFamily.build(gens, places=primes)


def test_flat_on_diagonal_families_finds_the_null_lattice():
    """flat on seeded diagonal families: latticeRank is the rank of the
    exponent matrix E, and the null vectors are r - rank E independent
    vectors of E's left kernel.  With candidates read from a float
    eigenbasis, 13 of these 100 families ran past 3 s."""
    rng = random.Random(163)
    for _ in range(100):
        rows, fam = _diagonal_family(rng)
        r, rank = fam.rank, sympy.Matrix(rows).rank()
        t0 = time.process_time()
        cert = flat_certificate(fam)
        assert time.process_time() - t0 < 1.0
        if cert.tag == "Lattice":
            assert rank == r
            continue
        assert cert.rank == rank
        assert len(cert.null_vectors) == r - rank
        assert sympy.Matrix(cert.null_vectors).rank() == r - rank
        for v in cert.null_vectors:
            assert not any(sum(x * y for x, y in zip(v, col)) for col in zip(*rows))


def test_gram_worked_example():
    fam = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.diagonal([3, F(1, 3)]))],
        places=(2, 3),
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
    places = (2,)
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
        fam = CommutingFamily.build([("g", g), ("h", h)], places=(2, 3))
        gm = gram(fam)
        for (i, x), (j, y) in [((0, g), (0, g)), ((0, g), (1, h)), ((1, h), (1, h))]:
            arch, nonarch = _diag_gram_oracle(x, y, (2, 3))
            assert gm.nonarch[i][j] == nonarch
            assert abs(gm.arch[i][j] - arch) <= 1e-9


def test_parallelogram_law():
    rng = random.Random(137)
    places = (2, 3)
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
        places=(2, 3),
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
    assert cert.null_vectors[0] == (1,)
    assert cert.witness_word == "a"
    assert cert.witness_class.tag == "Unipotent"
    assert cert.rank == 0

    # second generator is the square of the first
    fam = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.diagonal([4, F(1, 4)]))]
    )
    cert = flat_certificate(fam)
    assert cert.tag == "Degenerate"
    assert cert.null_vectors[0] == (2, -1)
    assert cert.witness_word == "a^2*b^-1"
    assert cert.witness_class.tag == "Identity"
    assert cert.rank == 1


def test_witness_search_below_float_noise_is_inconclusive():
    """At a pd_epsilon far below the float noise of the combined Gram, the
    rounded integer form is indefinite; flat raises NumericalInconclusive
    at once, where LLL on an indefinite form need not end."""
    h = SqMatrix([[2, 1], [1, 1]])
    fam = CommutingFamily.build([(f"g{k}", h**k) for k in (1, 2, 3)])
    with pytest.raises(NumericalInconclusive, match="not positive definite"):
        flat_certificate(fam, pd_epsilon=1e-20)


def test_lattice_certificate_excludes_neutral_combinations():
    fam = CommutingFamily.build(
        [("a", SqMatrix.diagonal([2, F(1, 2)])), ("b", SqMatrix.diagonal([3, F(1, 3)]))],
        places=(2, 3),
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
        places=(2, 3),
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
    if got is not None and lattice:
        # LU's det is backward stable: its relative error grows with the
        # condition number, while the exact pivots have none
        wn = numpy_eigvalsh(combined)
        cond = wn[-1] / wn[0]
        assert got == pytest.approx(covolume, rel=max(1e-12, 4 * r * 2.0**-52 * cond))
