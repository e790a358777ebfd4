"""Newton polygon slopes against directly computed root valuations."""

import random
from fractions import Fraction as F

import pytest

from flatcert import Poly, newton_slopes
from flatcert.errors import NotMonic, ZeroConstantTerm
from flatcert.exact.integers import padic_valuation


def test_examples():
    # roots 2 and 1/2
    assert sorted(newton_slopes(Poly([1, F(-5, 2), 1]), 2)) == [F(-1), F(1)]
    # x - 1 at any prime
    for p in (2, 3, 5):
        assert newton_slopes(Poly([-1, 1]), p) == (F(0),)
    # regular representation of diag(sqrt2, 1/sqrt2): the degree-4 charpoly
    # is (x^2-2)(x^2-1/2) = x^4 - (5/2)x^2 + 1, verified by expansion
    quartic = Poly([-2, 0, 1]) * Poly([F(-1, 2), 0, 1])
    assert quartic == Poly([1, 0, F(-5, 2), 0, 1])
    assert sorted(newton_slopes(quartic, 2)) == [F(-1, 2), F(-1, 2), F(1, 2), F(1, 2)]


def test_errors():
    with pytest.raises(NotMonic):
        newton_slopes(Poly([1, 2]), 2)
    with pytest.raises(ZeroConstantTerm):
        newton_slopes(Poly([0, 0, 1]), 2)


def test_hull_endpoint_identity():
    # multiset sum of valuations = nu_p(a_0) - nu_p(a_N)
    rng = random.Random(5)
    for _ in range(50):
        deg = rng.randint(1, 6)
        coeffs = [F(rng.choice([1, 2, 3, 4, 6, 9, 12]), rng.choice([1, 2, 3, 8]))
                  for _ in range(deg)] + [F(1)]
        while coeffs[0] == 0:
            coeffs[0] = F(1)
        p = Poly(coeffs)
        for q in (2, 3):
            assert sum(newton_slopes(p, q)) == padic_valuation(p[0], q)


def test_product_of_linear_factors():
    # p = prod (x - 2^a 3^b): valuations at 2 are exactly the exponents a
    rng = random.Random(9)
    for _ in range(20):
        exps = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))]
        p = Poly([1])
        for a, b in exps:
            p = p * Poly([-(F(2) ** a * F(3) ** b), 1])
        assert sorted(newton_slopes(p, 2)) == sorted(F(a) for a, _ in exps)
        assert sorted(newton_slopes(p, 3)) == sorted(F(b) for _, b in exps)
