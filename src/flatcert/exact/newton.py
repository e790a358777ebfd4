"""Newton polygons: exact p-adic valuations of polynomial roots.

Convention (fixed once, package-wide): plot the points (i, nu_p(a_i)) for
p(x) = sum a_i x^i, take the lower convex hull, and read each hull segment
of slope s and horizontal length l as l roots of valuation -s.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import NotMonic, ZeroConstantTerm
from .integers import padic_valuation
from .poly import Poly

__all__ = ["newton_slopes"]


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone-chain lower hull; points are pre-sorted by abscissa."""
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop while hull turns left or straight at (x2, y2)
            if (x2 - x1) * (pt[1] - y1) <= (pt[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_slopes(p: Poly, prime: int) -> tuple[Fraction, ...]:
    """Valuations (with multiplicity) of the deg(p) roots of monic p at
    prime, sorted descending."""
    if not p.is_monic():
        raise NotMonic(f"Newton polygon requires a monic polynomial, got {p!r}")
    if p[0] == 0:
        raise ZeroConstantTerm("constant term is zero; valuation of a zero root is undefined")
    points = [
        (i, padic_valuation(c, prime))
        for i, c in enumerate(p.coeffs)
        if c != 0
    ]
    hull = _lower_hull(points)
    vals: list[Fraction] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        vals.extend([-slope] * (x2 - x1))
    assert len(vals) == p.degree
    return tuple(sorted(vals, reverse=True))
