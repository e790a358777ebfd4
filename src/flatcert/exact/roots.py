"""Complex root approximation with estimated error bounds.

The input polynomial is exact, so we first split off multiplicities with
Yun's algorithm (exact gcds), then run Aberth-Ehrlich simultaneous
iteration on each squarefree factor.  The per-root bound deg * |q(z)/q'(z)|
would be rigorous in exact arithmetic, since
1/|q'(z)/q(z)| = 1/|sum 1/(z - r_i)| >= (min_i |z - r_i|)/deg; here q(z)
and q'(z) are evaluated in double precision, where the residual q(z) can
round to 0, so the bound is a floating estimate, not a certificate.
"""

from __future__ import annotations

import cmath
import math

from ..errors import ToleranceNotReached
from .poly import Poly, squarefree_decomposition

__all__ = ["complex_roots", "expand_roots", "RootCluster"]

MAX_ITERATIONS = 1000


class RootCluster(tuple):
    """(value, error_bound, multiplicity) triple; behaves as a tuple."""

    __slots__ = ()

    def __new__(cls, value: complex, bound: float, multiplicity: int):
        return super().__new__(cls, (value, bound, multiplicity))

    @property
    def value(self) -> complex:
        return self[0]

    @property
    def bound(self) -> float:
        return self[1]

    @property
    def multiplicity(self) -> int:
        return self[2]


def _aberth(q: Poly, tol: float) -> list[tuple[complex, float]]:
    """Simultaneous refinement of all roots of a squarefree monic q with
    q(0) != 0.  A root that comes out as 0.0 (a tiny root lost below the
    double range) is a failed isolation, reported as ToleranceNotReached."""
    n = q.degree
    if n == 0:
        return []
    try:
        if n == 1:
            z = complex(-q.coeffs[0] / q.coeffs[1])
            if z == 0:
                raise ToleranceNotReached(0, math.inf)
            return [(z, 0.0)]
        cs = [complex(c) for c in q.coeffs]
        dcs = [complex(c) for c in q.derivative().coeffs]
    except OverflowError:  # a coefficient beyond the double range
        raise ToleranceNotReached(0, math.inf) from None

    def ev(coeffs: list[complex], z: complex) -> complex:
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    # Cauchy bound initialization, slightly de-symmetrized so the iteration
    # does not lock onto a symmetric stationary configuration.
    radius = 1.0 + max(abs(c / cs[-1]) for c in cs[:-1])
    zs = [
        radius * cmath.exp(2j * math.pi * (k / n) + 0.4j)
        for k in range(n)
    ]
    bounds = [math.inf] * n
    for iteration in range(MAX_ITERATIONS):
        converged = True
        for i in range(n):
            pz = ev(cs, zs[i])
            dpz = ev(dcs, zs[i])
            if dpz == 0:
                zs[i] += (1e-8 + 1e-8j) * (1.0 + abs(zs[i]))
                converged = False
                continue
            newton = pz / dpz
            bounds[i] = n * abs(newton)
            if bounds[i] > tol:
                converged = False
            repulsion = 0j
            for j in range(n):
                if j != i:
                    diff = zs[i] - zs[j]
                    if diff == 0:
                        diff = (1e-12 + 1e-12j) * (1.0 + abs(zs[i]))
                    repulsion += 1.0 / diff
            denom = 1.0 - newton * repulsion
            if denom == 0:
                zs[i] -= newton
            else:
                zs[i] -= newton / denom
        if converged:
            # final floating bound estimates at the accepted points
            for i in range(n):
                dpz = ev(dcs, zs[i])
                bounds[i] = n * abs(ev(cs, zs[i]) / dpz) if dpz != 0 else math.inf
            if 0 in zs:
                raise ToleranceNotReached(iteration + 1, math.inf)
            if max(bounds) <= tol:
                return list(zip(zs, bounds))
    raise ToleranceNotReached(MAX_ITERATIONS, max(bounds))


def complex_roots(p: Poly, tol: float = 1e-12) -> list[RootCluster]:
    """All deg(p) complex roots with error bounds <= tol and multiplicities.

    Roots are ordered by (-multiplicity, real, imag) and repeated roots are
    reported once per cluster with their multiplicity; the flat multiset is
    available via expand_roots.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no well-defined roots")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    clusters: list[RootCluster] = []
    for factor, mult in squarefree_decomposition(p):
        zero_order = next(i for i, c in enumerate(factor.coeffs) if c)
        if zero_order:
            clusters.append(RootCluster(0j, 0.0, zero_order * mult))
            factor = Poly(factor.coeffs[zero_order:])
        for z, bound in _aberth(factor.monic(), tol):
            clusters.append(RootCluster(z, bound, mult))
    clusters.sort(key=lambda c: (-c.multiplicity, c.value.real, c.value.imag))
    assert sum(c.multiplicity for c in clusters) == p.degree
    return clusters


def expand_roots(clusters: list[RootCluster]) -> list[tuple[complex, float]]:
    """Flatten clusters to a multiset of (approximation, bound) pairs."""
    out = []
    for c in clusters:
        out.extend([(c.value, c.bound)] * c.multiplicity)
    return out
