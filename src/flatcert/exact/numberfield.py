"""Number fields Q(alpha) presented by a monic irreducible integer minpoly.

A field here is only its checked minimal polynomial and degree.  Its
elements never exist as such: a session entry, given by coordinates in the
power basis 1, alpha, ..., alpha^(d-1), is parsed straight into its d x d
regular matrix (linalg.regular_matrix), the rational matrix of
multiplication by it.  That is how matrices over Q(alpha) are folded into
plain rational matrices while aggregating every complex embedding at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NotIrreducible, NotMonic
from .poly import Poly, factor_q

__all__ = ["NumberField", "make_field"]


@dataclass(frozen=True)
class NumberField:
    """Q[x]/(minpoly); degree-1 minpoly gives Q itself."""

    minpoly: Poly

    @property
    def degree(self) -> int:
        return self.minpoly.degree


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
