"""Number field construction, arithmetic, and the regular representation."""

import random
from fractions import Fraction as F

import pytest

from flatcert import Poly, make_field
from flatcert.errors import DivideByZero, FieldMismatch, NotIrreducible, NotMonic


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
    r2 = f.generator
    assert r2 * r2 == f.from_rational(2)
    # 1/(1+sqrt2) = -1+sqrt2, cross-checked by multiplying back
    inv = (f.one + r2).inverse()
    assert inv == f.element([-1, 1])
    assert inv * (f.one + r2) == f.one
    a = f.element([F(3, 2), F(-1, 3)])
    assert a + f.zero == a
    with pytest.raises(DivideByZero):
        f.zero.inverse()


def test_field_mismatch():
    f = make_field(Poly([-2, 0, 1]))
    g = make_field(Poly([-3, 0, 1]))
    with pytest.raises(FieldMismatch):
        f.generator + g.generator


def test_regular_matrix_examples():
    f = make_field(Poly([-2, 0, 1]))
    # multiplication by sqrt2 sends 1 -> sqrt2 and sqrt2 -> 2
    assert f.generator.regular_matrix() == [[0, 2], [1, 0]]
    assert f.one.regular_matrix() == [[1, 0], [0, 1]]
    q = make_field(Poly([-3, 1]))
    assert q.from_rational(3).regular_matrix() == [[3]]


def test_regular_matrix_is_ring_homomorphism():
    # regular_matrix(ab) = regular_matrix(a) regular_matrix(b) exactly
    rng = random.Random(41)
    fields = [make_field(Poly([-2, 0, 1])), make_field(Poly([2, -1, 0, 1]))]
    for f in fields:
        d = f.degree
        for _ in range(50):
            a = f.element([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
            b = f.element([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
            ma, mb = a.regular_matrix(), b.regular_matrix()
            mab = (a * b).regular_matrix()
            prod = [
                [sum(ma[i][k] * mb[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)
            ]
            assert prod == mab


def test_inverse_via_extended_euclid_random():
    rng = random.Random(43)
    f = make_field(Poly([2, -1, 0, 1]))  # x^3 - x + 2, irreducible over Q
    for _ in range(25):
        coords = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
        a = f.element(coords)
        if a.is_zero():
            continue
        assert a * a.inverse() == f.one
