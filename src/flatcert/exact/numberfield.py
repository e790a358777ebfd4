"""Number fields Q(alpha) presented by a monic irreducible integer minpoly.

A field here is only its checked minimal polynomial, a Poly.  Its
elements never exist as such: a session entry, given by coordinates in the
power basis 1, alpha, ..., alpha^(d-1), is parsed straight into its d x d
regular matrix (linalg.regular_matrix), the rational matrix of
multiplication by it.  That is how matrices over Q(alpha) are folded into
plain rational matrices while aggregating every complex embedding at once.
"""

from __future__ import annotations

from ..errors import NotIrreducible, NotMonic
from .poly import Poly, factor_q

__all__ = ["make_field"]


def make_field(minpoly: Poly) -> Poly:
    """Q(alpha) = Q[x]/(minpoly), as minpoly itself after verifying that it
    is monic, integral and irreducible over Q (via factor_q); degree 1
    yields Q."""
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
    return minpoly
