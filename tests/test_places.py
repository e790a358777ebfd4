"""Place discovery, drift profiles, classification, direction profiles."""

import math
import random
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcert import (
    PlaceSet,
    Poly,
    SqMatrix,
    classify,
    cyclotomic,
    direction_profile,
    discover_places,
    drift_profile,
)
from flatcert.errors import DeterminantNotOne, NotBallistic, PlaceSetIncomplete, ToleranceNotReached
from flatcert.exact import complex_roots, factor_q
from flatcert.linalg import charpoly
from flatcert.places import _charpoly_drift
from flatcert.report import profile_dict, render_json

from conftest import arch_drift_factor, det1_corpus, quasi_unipotent_order_factor, unimodular

# integer polynomials with no cyclotomic factor: x^2-3x+1 (golden ratio
# squared), x^2+3x+1, x^3-x-1 (plastic number), x^4-x^3-x^2-x+1 (Salem)
NON_CYCLOTOMIC = (Poly([1, -3, 1]), Poly([1, 3, 1]), Poly([-1, -1, 0, 1]), Poly([1, -1, -1, -1, 1]))


@st.composite
def _cyclotomic_products(draw, max_degree=16):
    """A product of cyclotomic polynomials with multiplicities, optionally
    times one non-cyclotomic factor, of degree at most max_degree."""
    cp = draw(st.sampled_from((Poly([1]),) + NON_CYCLOTOMIC))
    for k, e in draw(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 3)), max_size=5)):
        factor = cyclotomic(k) ** e
        if cp.degree + factor.degree <= max_degree:
            cp = cp * factor
    return cp


def _drift(cp: Poly, primes: tuple[int, ...] = ()) -> tuple:
    """(arch, padic, order) of cp from a cold analysis, so that every call
    reaches the root finder and the factorizer it needs."""
    _charpoly_drift.cache_clear()
    return _charpoly_drift(cp, primes, 1e-12)


def _order(cp: Poly) -> int | None:
    """The quasi-unipotent order read from the analysis' cyclotomic split."""
    return _drift(cp)[2]


@settings(max_examples=150, deadline=None)
@given(_cyclotomic_products())
def test_quasi_unipotent_order_matches_factorization(cp):
    n = max(cp.degree, 1)
    assert _order(cp) == quasi_unipotent_order_factor(cp, n)


def test_quasi_unipotent_order_examples():
    assert _order(cyclotomic(4) * cyclotomic(6)) == 12
    assert _order(cyclotomic(2) ** 3 * cyclotomic(1)) == 2
    assert _order(Poly([-1, 1]) ** 3) == 1
    assert _order(cyclotomic(3) * Poly([1, -3, 1])) is None
    # a non-integral charpoly is never consumed by the split
    assert _order(Poly([1, F(-5, 2), 1])) is None


# -- the exact split of the archimedean drift, against factor_q ------------

_CYCLOTOMIC = st.integers(1, 12).map(cyclotomic)
_S_UNIT_ROOT = st.tuples(
    st.sampled_from((1, -1)), st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2)
).map(lambda s: Poly([-s[0] * F(2) ** s[1] * F(3) ** s[2] * F(5) ** s[3], 1]))


@st.composite
def _split_products(draw):
    """(cp, quadratics): a product of powers of Phi_k (k <= 12), of x - r
    with r = +-2^a 3^b 5^c, and of 0 to 3 distinct x^2 - t x + 1 with
    |t| >= 3, which are irreducible."""
    traces = st.integers(3, 40).flatmap(lambda t: st.sampled_from((t, -t)))
    ts = draw(st.lists(traces, max_size=3, unique=True))
    factors = draw(st.lists(st.one_of(_CYCLOTOMIC, _S_UNIT_ROOT), max_size=5))
    cp = Poly([1])
    for f in factors + [Poly([1, -t, 1]) for t in ts]:
        cp = cp * f ** draw(st.integers(1, 3))
    return cp, len(ts)


def _drift_or_error(fn):
    try:
        return tuple(fn())
    except ToleranceNotReached:
        return "ToleranceNotReached"


@settings(max_examples=200, deadline=None)
@given(_split_products())
def test_arch_drift_matches_factor_oracle(case):
    cp, quadratics = case
    with (
        mock.patch("flatcert.places.complex_roots", wraps=complex_roots) as aberth,
        mock.patch("flatcert.places.factor_q", wraps=factor_q) as factor,
    ):
        drift = _drift_or_error(lambda: _drift(cp, (2, 3, 5))[0])
    assert drift == _drift_or_error(lambda: arch_drift_factor(cp, 1e-12))
    # cyclotomic factors and S-unit roots never reach the float root finder,
    # and a single quadratic, at any power, is not factored
    assert (aberth.call_count > 0) == (quadratics > 0)
    assert factor.call_count == 0 or quadratics > 1


def _conjugated_s_units(seed: int, primes: tuple[int, ...], block: list[list[int]]) -> SqMatrix:
    """diag(8 S-units over primes, exponents in -3..3, their inverses, block),
    conjugated by a unimodular upper-triangular matrix."""
    rng = random.Random(seed)
    units = [
        rng.choice((-1, 1)) * math.prod(F(p) ** rng.randint(-3, 3) for p in primes) for _ in range(8)
    ]
    diagonal = units + [1 / u for u in units]
    n = len(diagonal) + len(block)
    rows = [[F(0)] * n for _ in range(n)]
    for i, u in enumerate(diagonal):
        rows[i][i] = u
    for i, row in enumerate(block):
        rows[len(diagonal) + i][len(diagonal) :] = row
    up = SqMatrix(
        [[int(i == j) or (rng.choice((-1, 0, 1)) if j > i else 0) for j in range(n)] for i in range(n)]
    )
    return up * SqMatrix(rows) * up.inverse()


@pytest.mark.parametrize(
    "primes, block, factor_calls, aberth_calls",
    [
        # 2 * 7^6 candidates, inside the search budget: searched to the last root
        ((2, 3, 5, 7, 11, 13), [], 0, 0),
        # the same with an irreducible cofactor, so searched to exhaustion
        ((2, 3, 5, 7, 11, 13), [[2, 1], [1, 1]], 0, 1),
        # some 2 * 7^9 candidates, over budget: factored, with no search
        ((2, 3, 5, 7, 11, 13, 17, 19, 23), [[2, 1], [1, 1]], 1, 17),
    ],
    ids=["rational", "irreducible-cofactor", "over-budget"],
)
def test_arch_drift_candidate_search_is_bounded(primes, block, factor_calls, aberth_calls):
    m = _conjugated_s_units(16, primes, block)
    places = discover_places([m])
    assert places.primes == primes
    cp = charpoly(m)
    with (
        mock.patch("flatcert.places.complex_roots", wraps=complex_roots) as aberth,
        mock.patch("flatcert.places.factor_q", wraps=factor_q) as factor,
    ):
        start = time.perf_counter()
        arch = list(_drift(cp, primes)[0])
        elapsed = time.perf_counter() - start
    assert arch == arch_drift_factor(cp, 1e-12)
    assert (factor.call_count, aberth.call_count) == (factor_calls, aberth_calls)
    # well inside the worker's 5 s deadline
    assert elapsed < 3.0


def test_arch_drift_factors_a_cofactor_over_budget():
    """u = the product of the first 15 primes: diag(u, 1/u) gives 2 * 2^15
    candidates, over the budget of 2^14 per degree, so its cofactor
    (x - u)(x - 1/u), squarefree of degree 2 but reducible, is factored
    rather than sent to Aberth whole."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    u = math.prod(primes)
    cp = Poly([-u, 1]) * Poly([-F(1, u), 1])
    with (
        mock.patch("flatcert.places.complex_roots", wraps=complex_roots) as aberth,
        mock.patch("flatcert.places.factor_q", wraps=factor_q) as factor,
    ):
        arch = list(_drift(cp, primes)[0])
    assert arch == arch_drift_factor(cp, 1e-12)
    assert (factor.call_count, aberth.call_count) == (1, 2)


def test_discover_places_examples():
    assert discover_places([SqMatrix([[1, 1], [0, 1]])]).primes == ()
    gens = [SqMatrix.diagonal([2, F(1, 2)]), SqMatrix.diagonal([3, F(1, 3)])]
    assert discover_places(gens).primes == (2, 3)
    assert discover_places([SqMatrix.diagonal([F(1, 6), 6])]).primes == (2, 3)
    with pytest.raises(DeterminantNotOne):
        discover_places([SqMatrix.diagonal([2, 1])])


def test_drift_profile_examples():
    m = SqMatrix.diagonal([2, F(1, 2)])
    prof = drift_profile(m, PlaceSet(primes=(2,)))
    assert prof.padic[2] == (F(1), F(-1))
    assert abs(prof.arch[0] - math.log(2)) < 1e-12
    assert abs(prof.arch[1] + math.log(2)) < 1e-12

    uni = SqMatrix([[1, 1], [0, 1]])
    prof = drift_profile(uni, PlaceSet(primes=()))
    assert prof.arch == (0.0, 0.0)

    fib = SqMatrix([[2, 1], [1, 1]])
    prof = drift_profile(fib, PlaceSet(primes=()))
    lam = (3 + math.sqrt(5)) / 2
    assert abs(prof.arch[0] - math.log(lam)) < 1e-11
    assert abs(prof.arch[1] + math.log(lam)) < 1e-11


def test_classify_examples():
    places = PlaceSet(primes=(2,))
    ident = SqMatrix.identity(2)
    cls = classify(ident, places)
    assert cls.tag == "Identity"
    # decided before any charpoly, with the profile the charpoly would give
    assert ident._charpoly is None
    zero = render_json(profile_dict(drift_profile(SqMatrix.identity(2), places)))
    assert render_json(profile_dict(cls.profile)) == zero
    rot = classify(SqMatrix([[0, -1], [1, 0]]), places)
    assert (rot.tag, rot.order) == ("FiniteOrder", 4)
    assert classify(SqMatrix([[1, 1], [0, 1]]), places).tag == "Unipotent"
    cls = classify(SqMatrix.diagonal([2, F(1, 2)]), places)
    assert cls.tag == "Ballistic"
    assert cls.diagonalizable is True
    assert cls.length2_nonarch == 2
    assert abs(cls.length2_arch + float(cls.length2_nonarch) - 2.9609060278) < 1e-9


def test_classify_virtually_unipotent():
    # -1 times a nontrivial unipotent: square is unipotent and nontrivial
    m = SqMatrix([[-1, 1], [0, -1]])
    cls = classify(m, PlaceSet(primes=()))
    assert cls.tag == "VirtuallyUnipotent"
    assert cls.order == 2
    from flatcert import is_unipotent

    assert is_unipotent(m**2) and not (m**2).is_identity()


def test_classify_requires_complete_places():
    with pytest.raises(PlaceSetIncomplete):
        classify(SqMatrix.diagonal([2, F(1, 2)]), PlaceSet(primes=()))


def test_classification_conjugation_invariant():
    rng = random.Random(83)
    places = PlaceSet(primes=(2,))
    for m in det1_corpus(311, 40, sizes=(2, 3)):
        c = unimodular(rng, m.n)
        mc = m.conjugate_by(c)
        a, b = classify(m, places), classify(mc, places)
        assert (a.tag, a.order) == (b.tag, b.order)
        pa, pb = drift_profile(m, places), drift_profile(mc, places)
        assert pa.padic == pb.padic
        assert all(abs(x - y) < 1e-9 for x, y in zip(pa.arch, pb.arch))


def test_inverse_symmetry_and_power_scaling():
    places = PlaceSet(primes=(2, 3))
    for m in det1_corpus(313, 25, sizes=(2, 3)):
        prof = drift_profile(m, places)
        prof_inv = drift_profile(m.inverse(), places)
        for p in places.primes:
            assert prof_inv.padic[p] == tuple(sorted((-v for v in prof.padic[p]), reverse=True))
        assert all(
            abs(x - y) < 1e-9
            for x, y in zip(prof_inv.arch, sorted((-v for v in prof.arch), reverse=True))
        )
        cls = classify(m, places)
        cls_inv = classify(m.inverse(), places)
        if cls.tag == "Ballistic":
            assert cls_inv.length2_nonarch == cls.length2_nonarch
            assert abs(cls_inv.length2_arch - cls.length2_arch) < 1e-8
        # power scaling of squared length, k <= 5
        if cls.tag == "Ballistic":
            for k in (2, 3, 5):
                ck = classify(m**k, places)
                assert ck.length2_nonarch == k * k * cls.length2_nonarch
                if cls.length2_arch > 1e-12:
                    assert abs(ck.length2_arch - k * k * cls.length2_arch) <= 1e-8 * k * k * cls.length2_arch


def test_triangular_drift_equals_diagonal_part():
    rng = random.Random(97)
    places = PlaceSet(primes=(2, 3))
    diag_pool = [F(1), F(2), F(1, 2), F(3), F(2, 3), F(-1)]
    for _ in range(25):
        n = rng.choice([2, 3])
        diag = [rng.choice(diag_pool) for _ in range(n - 1)]
        prod = F(1)
        for d in diag:
            prod *= d
        diag.append(1 / prod)
        rows = [
            [diag[i] if i == j else (F(rng.randint(-2, 2)) if j > i else F(0)) for j in range(n)]
            for i in range(n)
        ]
        m = SqMatrix(rows)
        d = SqMatrix.diagonal(diag)
        pm, pd = drift_profile(m, places), drift_profile(d, places)
        assert pm.padic == pd.padic
        assert all(abs(x - y) < 1e-9 for x, y in zip(pm.arch, pd.arch))


def test_zero_sum_per_place():
    places = PlaceSet(primes=(2,))
    for m in det1_corpus(317, 40, sizes=(2, 3, 4)):
        prof = drift_profile(m, places)
        assert sum(prof.padic[2], F(0)) == 0
        assert abs(sum(prof.arch)) < 1e-9


def test_direction_profile_examples():
    m = SqMatrix.diagonal([2, F(1, 2)])
    d = direction_profile(classify(m, PlaceSet(primes=(2,))))
    r_arch = math.sqrt(2) * math.log(2)
    assert abs(d.norms["arch"] - r_arch) < 1e-11
    assert abs(d.norms["2"] - math.sqrt(2)) < 1e-12
    assert d.norms2_nonarch["2"] == 2
    assert abs(d.angles[("arch", "2")] - math.atan(1 / math.log(2))) < 1e-11

    # scaling invariance: diag(4,1/4) has the same unit vectors and angles
    m2 = SqMatrix.diagonal([4, F(1, 4)])
    d2 = direction_profile(classify(m2, PlaceSet(primes=(2,))))
    for lbl in d.units:
        assert all(abs(x - y) < 1e-10 for x, y in zip(d.units[lbl], d2.units[lbl]))
    for pair in d.angles:
        assert abs(d.angles[pair] - d2.angles[pair]) < 1e-10

    # single place: no angles
    fib = SqMatrix([[2, 1], [1, 1]])
    d3 = direction_profile(classify(fib, PlaceSet(primes=())))
    assert d3.angles == {}

    with pytest.raises(NotBallistic):
        direction_profile(classify(SqMatrix([[1, 1], [0, 1]]), PlaceSet(primes=())))


def test_classification_totality_on_corpus():
    tags = {"Identity", "Unipotent", "FiniteOrder", "VirtuallyUnipotent", "Ballistic"}
    corpus = det1_corpus(401, 60)
    places = discover_places(corpus)
    for m in corpus:
        cls = classify(m, places)
        assert cls.tag in tags
