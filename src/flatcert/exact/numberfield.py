"""Number fields Q(alpha) presented by a monic irreducible integer minpoly.

Elements are coordinate vectors in the power basis 1, alpha, ...,
alpha^(d-1); all arithmetic is exact, with division by the extended
Euclidean algorithm in Q[x].  The regular representation turns a field
element into the d x d rational matrix of multiplication by it, which is
how matrices over Q(alpha) are folded into plain rational matrices while
aggregating every complex embedding at once.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DivideByZero, FieldMismatch, NotIrreducible, NotMonic
from .poly import Poly, factor_q

__all__ = ["NumberField", "FieldElement", "make_field"]


class NumberField:
    """Q[x]/(minpoly); degree-1 minpoly gives Q itself."""

    __slots__ = ("minpoly", "degree")

    def __init__(self, minpoly: Poly):
        object.__setattr__(self, "minpoly", minpoly)
        object.__setattr__(self, "degree", minpoly.degree)

    def __setattr__(self, name, value):
        raise AttributeError("NumberField is immutable")

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({self.minpoly!r})"

    def element(self, coords) -> "FieldElement":
        cs = list(coords)
        if len(cs) > self.degree:
            raise ValueError("coordinate vector longer than the field degree")
        cs += [0] * (self.degree - len(cs))
        return FieldElement(self, tuple(Fraction(c) for c in cs))

    def from_rational(self, q) -> "FieldElement":
        return self.element([Fraction(q)])

    @property
    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    @property
    def one(self) -> "FieldElement":
        return self.from_rational(1)

    @property
    def generator(self) -> "FieldElement":
        if self.degree == 1:
            # alpha is rational: the root of the degree-1 minpoly
            return self.from_rational(-self.minpoly[0])
        return self.element([0, 1])


def make_field(minpoly: Poly) -> NumberField:
    """Construct Q(alpha) after verifying minpoly is monic, integral and
    irreducible over Q (via factor_q); degree 1 yields Q."""
    if minpoly.degree < 1:
        raise ValueError("minimal polynomial must have degree >= 1")
    if not minpoly.is_monic():
        raise NotMonic(f"minimal polynomial must be monic, got {minpoly!r}")
    if not minpoly.integer_coeffs():
        raise ValueError(f"minimal polynomial must have integer coefficients, got {minpoly!r}")
    factors = factor_q(minpoly)
    if len(factors) > 1 or factors[0][1] > 1:
        witness = factors[0][0]
        raise NotIrreducible(minpoly, witness)
    return NumberField(minpoly)


class FieldElement:
    """Element of a NumberField, as coordinates in the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple[Fraction, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other: "FieldElement"):
        if self.field != other.field:
            raise FieldMismatch("elements belong to different number fields")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coords))

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        raise TypeError(f"cannot coerce {other!r} into {self.field!r}")

    def _poly(self) -> Poly:
        return Poly(self.coords)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        prod = (self._poly() * other._poly()) % self.field.minpoly
        return self.field.element(prod.coeffs)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """1/self via extended Euclid in Q[x] against the minpoly."""
        if self.is_zero():
            raise DivideByZero("inverse of zero in a number field")
        # r0 = minpoly, r1 = self as a polynomial; track t with r = s*minpoly + t*self
        r0, r1 = self.field.minpoly, self._poly()
        t0, t1 = Poly(), Poly([1])
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        # r0 is a nonzero constant: minpoly is irreducible and self != 0
        assert r0.degree == 0
        inv = t0 * (Fraction(1) / r0.coeffs[0])
        return self.field.element((inv % self.field.minpoly).coeffs)

    def __truediv__(self, other):
        other = self._coerce(other)
        self._check(other)
        return self * other.inverse()

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def regular_matrix(self) -> list[list[Fraction]]:
        """d x d rational matrix of multiplication by self in the power basis.

        Its characteristic polynomial is the product over all complex
        embeddings sigma_j of (x - sigma_j(self)), up to the usual power
        when self generates a proper subfield.
        """
        d = self.field.degree
        cols = []
        basis = self.field.element
        for j in range(d):
            e_j = basis([0] * j + [1])
            cols.append((self * e_j).coords)
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"

    def __str__(self):
        """Power-basis coordinates as exact rationals, e.g. [3, 2]."""
        return f"[{', '.join(map(str, self.coords))}]"
