"""Polynomial layer: arithmetic, gcd/squarefree, rational factorization,
cyclotomics."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly_gcd, sympy_factor
from flatcert import Poly, cyclotomic, factor_q, squarefree_part
from flatcert.exact.poly import cyclotomic_index, squarefree_decomposition


def test_squarefree_part_examples():
    # (x-1)^2 -> x-1
    assert squarefree_part(Poly([-1, 1]) ** 2) == Poly([-1, 1])
    # x^2 - (5/2)x + 1 is already squarefree
    p = Poly([1, F(-5, 2), 1])
    assert squarefree_part(p) == p
    # x^3 -> x
    assert squarefree_part(Poly([0, 0, 0, 1])) == Poly([0, 1])


def test_squarefree_decomposition_reassembles():
    rng = random.Random(11)
    for _ in range(25):
        factors = [Poly([rng.randint(-3, 3), 1]) for _ in range(rng.randint(1, 3))]
        mults = [rng.randint(1, 3) for _ in factors]
        p = Poly([1])
        for f, m in zip(factors, mults):
            p = p * f**m
        rebuilt = Poly([1])
        for q, m in squarefree_decomposition(p):
            g = poly_gcd(q, q.derivative())
            assert g.degree == 0
            rebuilt = rebuilt * q**m
        assert rebuilt == p.monic()


def test_factor_q_examples():
    # x^4 - 1 = (x-1)(x+1)(x^2+1)
    fs = factor_q(Poly([-1, 0, 0, 0, 1]))
    assert fs == [
        (Poly([-1, 1]), 1),
        (Poly([1, 1]), 1),
        (Poly([1, 0, 1]), 1),
    ]
    # x^2 - (5/2)x + 1 = (x-2)(x-1/2) by the rational root test
    fs = factor_q(Poly([1, F(-5, 2), 1]))
    assert fs == [(Poly([-2, 1]), 1), (Poly([F(-1, 2), 1]), 1)]
    # x^2 + 1 irreducible
    assert factor_q(Poly([1, 0, 1])) == [(Poly([1, 0, 1]), 1)]


def test_factor_q_reexpands():
    rng = random.Random(23)
    for _ in range(30):
        deg = rng.randint(1, 6)
        p = Poly([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)] + [1])
        prod = Poly([1])
        for q, m in factor_q(p):
            assert q.is_monic()
            prod = prod * q**m
        assert prod == p.monic()


# irreducible over Q, but split into factors of degree at most 2 modulo
# every prime, so the recombination of modular factors must take subsets
X4_10X2_1 = Poly([1, 0, -10, 0, 1])
# the minimal polynomial of sqrt2 + sqrt3 + sqrt5 (Swinnerton-Dyer), of
# degree 8, likewise splits into at least four factors modulo every prime
SWINNERTON_DYER_235 = Poly([576, 0, -960, 0, 352, 0, -40, 0, 1])

_dense = st.tuples(
    st.lists(st.integers(-20, 20), min_size=1, max_size=6),
    st.integers(-4, 4).filter(bool),
).map(lambda cl: Poly(cl[0] + [cl[1]]))

_factor_blocks = st.one_of(
    st.integers(1, 30).map(cyclotomic),
    st.fractions(-12, 12, max_denominator=6).map(lambda a: Poly([-a, 1])),
    st.integers(-30, 30).map(lambda t: Poly([1, -t, 1])),
    st.sampled_from([X4_10X2_1, SWINNERTON_DYER_235]),
    st.integers(1, 3).map(lambda k: Poly([0] * k + [1])),
    _dense,
)


@st.composite
def _factor_products(draw):
    p = Poly([draw(st.sampled_from([1, 1, -1, 3, F(2, 7), F(-5, 3)]))])
    for block, mult in draw(st.lists(st.tuples(_factor_blocks, st.integers(1, 3)), min_size=1, max_size=3)):
        p = p * block**mult
    return p


@settings(max_examples=300, deadline=None)
@given(_factor_products())
def test_factor_q_matches_sympy_oracle(p):
    assert factor_q(p) == sympy_factor(p)


def test_factor_q_recombines_modular_factors():
    # each is irreducible, though split into factors of degree <= 2 mod p
    assert factor_q(X4_10X2_1) == [(X4_10X2_1, 1)]
    assert factor_q(SWINNERTON_DYER_235) == [(SWINNERTON_DYER_235, 1)]
    # two such irreducibles: some pairs of modular factors make each one
    assert factor_q(X4_10X2_1 * SWINNERTON_DYER_235) == [(X4_10X2_1, 1), (SWINNERTON_DYER_235, 1)]


def test_cyclotomic_small():
    assert cyclotomic(1) == Poly([-1, 1])
    assert cyclotomic(2) == Poly([1, 1])
    assert cyclotomic(3) == Poly([1, 1, 1])
    assert cyclotomic(4) == Poly([1, 0, 1])
    assert cyclotomic(6) == Poly([1, -1, 1])
    # product over divisors reassembles x^12 - 1
    prod = Poly([1])
    for d in (1, 2, 3, 4, 6, 12):
        prod = prod * cyclotomic(d)
    assert prod == Poly([-1] + [0] * 11 + [1])


def test_cyclotomic_index():
    assert cyclotomic_index(Poly([1, 0, 1]), 12) == 4
    assert cyclotomic_index(Poly([1, -1, 1]), 12) == 6
    # x^2 - 3x + 1 has a root off the unit circle
    assert cyclotomic_index(Poly([1, -3, 1]), 12) is None
