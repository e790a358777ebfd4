"""Places, drift profiles, and the total element classification.

A det-1 rational matrix moves in one symmetric-space factor per complex
embedding (aggregated here through the regular representation) and one
building factor per prime dividing an entry denominator.  Its drift
profile collects, per place, the sorted log-moduli (archimedean) or Newton
valuations (p-adic) of its eigenvalues; the classification decision tree
is exact: every tag is decided with integer/rational arithmetic only, the
floating archimedean numbers are payload, never evidence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DeterminantNotOne, NotBallistic, PlaceSetIncomplete
from .exact.newton import newton_slopes
from .exact.poly import Poly, cyclotomic, cyclotomic_index, factor_q
from .exact.roots import complex_roots
from .linalg import SqMatrix, charpoly, is_diagonalizable, order_bound

__all__ = [
    "PlaceSet",
    "DriftProfile",
    "Classification",
    "discover_places",
    "drift_profile",
    "classify",
    "direction_profile",
    "DirectionProfile",
]


@dataclass(frozen=True)
class PlaceSet:
    """The finitely many places relevant to a generating set: one aggregate
    archimedean place plus the primes dividing entry denominators."""

    primes: tuple[int, ...]
    archimedean: bool = True

    def labels(self) -> list[str]:
        out = ["arch"] if self.archimedean else []
        out.extend(str(p) for p in self.primes)
        return out


@dataclass(frozen=True)
class DriftProfile:
    """Per-place sorted (descending) eigenvalue drift of one element."""

    arch: tuple[float, ...]
    padic: dict[int, tuple[Fraction, ...]]
    label: str | None = None

    def nonarch_is_zero(self) -> bool:
        return all(v == 0 for vals in self.padic.values() for v in vals)

    def length2_arch(self) -> float:
        return sum(x * x for x in self.arch)

    def length2_nonarch(self) -> Fraction:
        return sum((v * v for vals in self.padic.values() for v in vals), Fraction(0))


@dataclass(frozen=True)
class Classification:
    """Total, mutually exclusive tag for a det-1 matrix.

    order is the k of FiniteOrder(k) / VirtuallyUnipotent(k); the last
    three fields are the Ballistic payload.
    """

    tag: str
    order: int | None = None
    diagonalizable: bool | None = None
    length2_arch: float | None = None
    length2_nonarch: Fraction | None = None

    @property
    def is_ballistic(self) -> bool:
        return self.tag == "Ballistic"

    def __str__(self):
        if self.order is not None:
            return f"{self.tag}({self.order})"
        return self.tag


def _check_det_one(m: SqMatrix, name: str | None = None):
    d = m.det()
    if d != 1:
        raise DeterminantNotOne(name=name, det=d)


def discover_places(gens: list[SqMatrix]) -> PlaceSet:
    """Primes dividing any entry denominator of any generator.

    Inverses contribute nothing new: adjugate entries have denominators
    dividing products of entry denominators, and det = 1.
    """
    from math import lcm

    from .exact.integers import prime_factors

    denom = 1
    for g in gens:
        _check_det_one(g)
        denom = lcm(denom, g.den)
    primes = tuple(p for p, _ in prime_factors(denom))
    return PlaceSet(primes=primes)


def _check_places_complete(m: SqMatrix, places: PlaceSet):
    from .exact.integers import prime_factors

    missing = [p for p, _ in prime_factors(m.den) if p not in places.primes]
    if missing:
        raise PlaceSetIncomplete(missing)


def _arch_drift(cp: Poly, tol: float) -> list[float]:
    """Sorted log-moduli of the roots of cp.

    Computed per irreducible factor so that cyclotomic factors contribute
    exact 0.0 coordinates: a neutral direction must never pick up floating
    fuzz, or the positive-definiteness tests downstream would see it as a
    spurious ballistic direction.
    """
    bound = order_bound(cp.degree)
    arch: list[float] = []
    for q, e in factor_q(cp):
        if cyclotomic_index(q, bound) is not None:
            arch.extend([0.0] * (q.degree * e))
            continue
        for cluster in complex_roots(q, tol):
            arch.extend([math.log(abs(cluster.value))] * (cluster.multiplicity * e))
    arch.sort(reverse=True)
    return arch


@functools.lru_cache(maxsize=4096)
def _charpoly_drift(
    cp: Poly, primes: tuple[int, ...], tol: float
) -> tuple[tuple[float, ...], tuple[tuple[int, tuple[Fraction, ...]], ...]]:
    """(arch coordinates, ((p, valuations), ...)) of a charpoly.

    The drift of an element depends on its characteristic polynomial and
    the place set alone, so it is computed once per distinct charpoly; the
    result is immutable because every caller shares it.  Raised errors
    (ToleranceNotReached) are not cached.
    """
    arch = tuple(_arch_drift(cp, tol))
    return arch, tuple((p, newton_slopes(cp, p).valuations) for p in primes)


def drift_profile(
    m: SqMatrix, places: PlaceSet, label: str | None = None, *, tol: float = 1e-12
) -> DriftProfile:
    """Sorted per-place drift coordinates of a det-1 rational matrix."""
    _check_det_one(m)
    _check_places_complete(m, places)
    arch, padic = _charpoly_drift(charpoly(m), places.primes, tol)
    return DriftProfile(arch=arch, padic=dict(padic), label=label)


def _quasi_unipotent_order(cp: Poly, n: int) -> int | None:
    """lcm of the k whose cyclotomic polynomial divides cp, or None if cp is
    not a product of cyclotomic polynomials.

    Phi_k for k <= order_bound(n) are divided out exactly, on integer
    coefficient lists, while they divide; since they are irreducible and
    pairwise coprime, a constant cofactor means every irreducible factor
    of cp is cyclotomic.  Valid only when cp has integer coefficients: by
    Kronecker, a monic integer irreducible with all roots on the unit
    circle is cyclotomic.
    """
    c = [int(x) for x in cp.coeffs]
    k0 = 1
    for k in range(1, order_bound(n) + 1):
        phi = [int(x) for x in cyclotomic(k).coeffs]
        divided = False
        while len(phi) <= len(c):
            q = _divide_monic(c, phi)
            if q is None:
                break
            c, divided = q, True
        if divided:
            k0 = math.lcm(k0, k)
    return k0 if len(c) == 1 else None


def _divide_monic(c: list[int], d: list[int]) -> list[int] | None:
    """c / d for a monic integer d (lowest degree first), or None when d
    does not divide c."""
    r = list(c)
    m = len(d) - 1
    q = [0] * (len(r) - m)
    for i in range(len(r) - 1, m - 1, -1):
        t = q[i - m] = r[i]
        if t:
            for j in range(m + 1):
                r[i - m + j] -= t * d[j]
    return None if any(r[:m]) else q


def classify(
    m: SqMatrix, places: PlaceSet, label: str | None = None, *, tol: float = 1e-12
) -> Classification:
    """Total exact classification of a det-1 rational matrix.

    Decision tree: identity; unipotent (charpoly = (x-1)^n); zero p-adic
    drift and all-cyclotomic charpoly factors => finite order or virtually
    unipotent with the exact power k; otherwise ballistic with the squared
    translation length split into float archimedean and exact
    non-archimedean parts.
    """
    _check_det_one(m, name=label)
    _check_places_complete(m, places)
    if m.is_identity():
        return Classification(tag="Identity")
    cp = charpoly(m)
    n = m.n
    if cp == Poly([-1, 1]) ** n:
        return Classification(tag="Unipotent")
    padic_zero = all(
        v == 0 for p in places.primes for v in newton_slopes(cp, p).valuations
    )
    if padic_zero:
        # zero slopes at every discovered prime force integral coefficients
        assert cp.integer_coeffs(), "flat Newton polygons must have integral coefficients"
        k0 = _quasi_unipotent_order(cp, n)
        if k0 is not None:
            if (m ** k0).is_identity():
                return Classification(tag="FiniteOrder", order=k0)
            return Classification(tag="VirtuallyUnipotent", order=k0)
    profile = drift_profile(m, places, label=label, tol=tol)
    return Classification(
        tag="Ballistic",
        diagonalizable=is_diagonalizable(m),
        length2_arch=profile.length2_arch(),
        length2_nonarch=profile.length2_nonarch(),
    )


@dataclass(frozen=True)
class DirectionProfile:
    """Per-place norms and unit drift vectors of a ballistic element, plus
    the spherical-join angle arctan(r_Q / r_P) for each ordered place pair."""

    norms: dict[str, float]
    norms2_nonarch: dict[str, Fraction]
    units: dict[str, tuple[float, ...]]
    angles: dict[tuple[str, str], float]


def direction_profile(
    m: SqMatrix, places: PlaceSet, label: str | None = None, *, tol: float = 1e-12
) -> DirectionProfile:
    cls = classify(m, places, label=label, tol=tol)
    if not cls.is_ballistic:
        raise NotBallistic(f"element classifies {cls}; direction is defined for ballistic elements")
    profile = drift_profile(m, places, label=label, tol=tol)
    coords: dict[str, list[float]] = {"arch": list(profile.arch)}
    norms2_nonarch: dict[str, Fraction] = {}
    for p in places.primes:
        vals = profile.padic[p]
        coords[str(p)] = [float(v) for v in vals]
        norms2_nonarch[str(p)] = sum((v * v for v in vals), Fraction(0))
    norms = {lbl: math.sqrt(sum(x * x for x in v)) for lbl, v in coords.items()}
    units = {
        lbl: tuple((x / norms[lbl]) if norms[lbl] > 0 else 0.0 for x in v)
        for lbl, v in coords.items()
    }
    labels = places.labels()
    angles = {
        (p_lbl, q_lbl): math.atan2(norms[q_lbl], norms[p_lbl])
        for p_lbl in labels
        for q_lbl in labels
        if p_lbl != q_lbl
    }
    return DirectionProfile(
        norms=norms, norms2_nonarch=norms2_nonarch, units=units, angles=angles
    )
