"""Number field construction, and the regular representation as the
field's arithmetic."""

import random
from fractions import Fraction as F

import pytest

from flatcert import Poly, SqMatrix, make_field
from flatcert.errors import NotIrreducible, NotMonic
from flatcert.linalg import regular_matrix

from conftest import from_sympy, to_sympy


def test_make_field_examples():
    # x - 1 presents Q itself
    q = make_field(Poly([-1, 1]))
    assert q.degree == 1
    # x^2 - 2 presents Q(sqrt2)
    q2 = make_field(Poly([-2, 0, 1]))
    assert q2.degree == 2
    # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(NotIrreducible) as exc:
        make_field(Poly([-1, 0, 1]))
    assert exc.value.factor in (Poly([-1, 1]), Poly([1, 1]))
    with pytest.raises(NotMonic):
        make_field(Poly([-2, 0, 2]))


@pytest.mark.parametrize(
    "minpoly, witness",
    [
        (Poly([6, 0, -5, 0, 1]), Poly([-3, 0, 1])),  # (x^2 - 2)(x^2 - 3)
        (Poly([-2, 0, -1, 0, 1]), Poly([-2, 0, 1])),  # (x^2 + 1)(x^2 - 2)
        (Poly([1, 0, 2, 0, 1]), Poly([1, 0, 1])),  # (x^2 + 1)^2
        (Poly([2, -1, -2, 1]), Poly([-2, 1])),  # (x - 2)(x^2 - 1)
    ],
)
def test_not_irreducible_witness_is_first_sorted_factor(minpoly, witness):
    with pytest.raises(NotIrreducible) as exc:
        make_field(minpoly)
    assert exc.value.factor == witness


def test_arithmetic_examples():
    f = make_field(Poly([-2, 0, 1]))
    r2, one = regular_matrix([0, 1], f), SqMatrix.identity(2)
    assert r2 * r2 == regular_matrix([2], f)
    # 1/(1+sqrt2) = -1+sqrt2, cross-checked by multiplying back
    inv = (one + r2).inverse()
    assert inv == regular_matrix([-1, 1], f)
    assert inv * (one + r2) == one
    a = regular_matrix([F(3, 2), F(-1, 3)], f)
    assert a + regular_matrix([], f) == a


def test_regular_matrix_examples():
    f = make_field(Poly([-2, 0, 1]))
    # multiplication by sqrt2 sends 1 -> sqrt2 and sqrt2 -> 2
    assert regular_matrix([0, 1], f) == SqMatrix([[0, 2], [1, 0]])
    assert regular_matrix([1], f) == SqMatrix.identity(2)
    q = make_field(Poly([-3, 1]))
    assert regular_matrix([3], q) == SqMatrix([[3]])
    # alpha^3 = alpha - 2: the first column holds the coordinates
    c = make_field(Poly([2, -1, 0, 1]))
    assert regular_matrix([0, 1], c) == SqMatrix([[0, 0, -2], [1, 0, 1], [0, 1, 0]])


FIELDS = [make_field(Poly([-2, 0, 1])), make_field(Poly([2, -1, 0, 1]))]


def test_regular_matrix_is_ring_homomorphism():
    # regular(a) regular(b) = regular(ab), with ab reduced modulo the
    # minimal polynomial by sympy
    rng = random.Random(41)
    for f in FIELDS:
        d, minpoly = f.degree, to_sympy(f.minpoly)
        for _ in range(50):
            a = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
            b = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
            ab = from_sympy((to_sympy(Poly(a)) * to_sympy(Poly(b))).rem(minpoly))
            assert regular_matrix(a, f) * regular_matrix(b, f) == regular_matrix(ab.coeffs, f)


def test_inverse_via_extended_euclid_random():
    # the inverse of a nonzero regular matrix is the regular matrix of the
    # field inverse, by sympy's extended Euclid against the minpoly
    rng = random.Random(43)
    f = FIELDS[1]  # x^3 - x + 2, irreducible over Q
    for _ in range(25):
        coords = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
        if not any(coords):
            continue
        inv = from_sympy(to_sympy(Poly(coords)).invert(to_sympy(f.minpoly)))
        assert regular_matrix(coords, f).inverse() == regular_matrix(inv.coeffs, f)
