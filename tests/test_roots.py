"""Root isolation: spec examples, numpy cross-check, log-sum identity."""

import cmath
import math
import random
from fractions import Fraction as F

import numpy as np

from flatcert import Poly, complex_roots
from flatcert.exact.roots import expand_roots


def _sorted_values(clusters):
    return sorted(
        (z for z, _ in expand_roots(clusters)), key=lambda z: (round(z.real, 9), round(z.imag, 9))
    )


def test_quadratic_against_formula():
    roots = complex_roots(Poly([1, -3, 1]), 1e-12)
    got = _sorted_values(roots)
    exp = sorted([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
    for g, e in zip(got, exp):
        assert abs(g - e) < 1e-11
    assert all(b <= 1e-12 for _, b in expand_roots(roots))


def test_gaussian_units():
    got = _sorted_values(complex_roots(Poly([1, 0, 1])))
    assert abs(got[0] - (-1j)) < 1e-11 and abs(got[1] - 1j) < 1e-11


def test_triple_root_cluster():
    clusters = complex_roots(Poly([-1, 1]) ** 3)
    assert len(clusters) == 1
    assert clusters[0].multiplicity == 3
    assert abs(clusters[0].value - 1.0) < 1e-12


def test_against_numpy_roots():
    rng = random.Random(31)
    inputs = [Poly([0, 0, -1, 1])]  # x^3 - x^2: 0 twice, split off exactly
    for _ in range(40):
        deg = rng.randint(1, 7)
        coeffs = [F(rng.randint(-6, 6)) for _ in range(deg)] + [F(1)]
        while coeffs[0] == 0:
            coeffs[0] = F(rng.randint(1, 6))
        inputs.append(Poly(coeffs))
    for p in inputs:
        mine = _sorted_values(complex_roots(p, 1e-10))
        ref = sorted(
            np.roots([float(c) for c in reversed(p.coeffs)]),
            key=lambda z: (round(z.real, 6), round(z.imag, 6)),
        )
        for g, e in zip(mine, ref):
            assert abs(g - e) < 1e-6


def test_log_moduli_sum_zero_for_unit_constant():
    # monic with p(0) = +-1: product of |roots| is 1
    rng = random.Random(17)
    for _ in range(20):
        deg = rng.randint(2, 5)
        mid = [F(rng.randint(-4, 4)) for _ in range(deg - 1)]
        p = Poly([rng.choice([1, -1])] + mid + [1])
        total = sum(
            math.log(abs(z)) for z, _ in expand_roots(complex_roots(p, 1e-12))
        )
        assert abs(total) < 1e-9
