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
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DeterminantNotOne, NotBallistic, PlaceSetIncomplete
from .exact.integers import prime_factors
from .exact.newton import newton_slopes
from .exact.poly import Poly, _divide, _integral, cyclotomic, factor_q, squarefree_decomposition
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


@dataclass(frozen=True)
class DriftProfile:
    """Per-place sorted (descending) eigenvalue drift of one element."""

    arch: tuple[float, ...]
    padic: dict[int, tuple[Fraction, ...]]
    label: str | None = None

    def length2_arch(self) -> float:
        return sum(x * x for x in self.arch)

    def length2_nonarch(self) -> Fraction:
        return _sum_sq(tuple(itertools.chain.from_iterable(self.padic.values())))


def _sum_sq(vals: tuple[Fraction, ...]) -> Fraction:
    """The exact sum of squares of rationals, as one integer sum over their
    common denominator squared."""
    den = math.lcm(*(v.denominator for v in vals))
    return Fraction(sum((v.numerator * (den // v.denominator)) ** 2 for v in vals), den * den)


@dataclass(frozen=True)
class Classification:
    """Total, mutually exclusive tag for a det-1 matrix.

    order is the k of FiniteOrder(k) / VirtuallyUnipotent(k); diagonalizable
    is set for Ballistic.  profile is the drift the tag was decided from.
    """

    tag: str
    profile: DriftProfile = field(compare=False, repr=False)
    order: int | None = None
    diagonalizable: bool | None = None

    @property
    def length2_arch(self) -> float:
        return self.profile.length2_arch()

    @property
    def length2_nonarch(self) -> Fraction:
        return self.profile.length2_nonarch()

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
    denom = 1
    for g in gens:
        _check_det_one(g)
        denom = math.lcm(denom, g.den)
    primes = tuple(p for p, _ in prime_factors(denom))
    return PlaceSet(primes=primes)


def _check_places_complete(m: SqMatrix, places: PlaceSet):
    missing = [p for p, _ in prime_factors(m.den) if p not in places.primes]
    if missing:
        raise PlaceSetIncomplete(missing)


def _cyclotomic_split(cp: Poly, bound: int) -> tuple[list[int], list[int]]:
    """(c, ks): the primitive integer multiple of cp, lowest degree first,
    with each Phi_k, k <= bound, divided out exactly while it divides, and
    the k that divided.  The Phi_k are irreducible and pairwise coprime."""
    c, ks = _integral(cp), []
    for k in range(1, bound + 1):
        phi = [int(x) for x in cyclotomic(k).coeffs]
        while len(phi) <= len(c) and (q := _divide(c, phi)) is not None:
            c = q
            ks.append(k)
    return c, ks


def _arch_drift(c: list[int], n: int, padic: tuple, tol: float) -> list[float]:
    """Sorted log-moduli of the roots of a charpoly of degree n, of which
    _cyclotomic_split left the integer polynomial c, lowest degree first.

    Each Phi_k divided out gives its degree in exact 0.0 coordinates, so
    that no neutral direction picks up floating fuzz.  A rational root of
    the charpoly of a det-1 matrix over Z[1/S] is a unit u/v = +-prod p^k
    of that ring, k an integer slope in padic = ((p, valuations), ...);
    x - u/v | c over Z forces v - u | c(1) and v + u | c(-1), screened
    before each division.  Free of rational roots, a squarefree part of
    degree <= 3 is irreducible.
    """
    arch = [0.0] * (n + 1 - len(c))
    slopes = [(p, {int(v) for v in vals if v.denominator == 1}) for p, vals in padic]
    # some 0.11 us a candidate: 2^14 per degree cost what factor_q takes on such
    # a charpoly (25-55 ms at degree 16-18), so past that, factoring is cheaper
    searched = 2 * math.prod(len(ks) for _, ks in slopes) <= 2**14 * n
    halves = [[(1, 1), (-1, 1)], [(1, 1)]]  # u/v = u1 u2 / v1 v2, one (u, v) from each
    for (p, ks), h in zip(slopes if searched else (), itertools.cycle(halves)):
        h[:] = [(u * p**k, v) if k >= 0 else (u, v * p**-k) for u, v in h for k in ks]
    at1, at_minus1 = sum(c), sum(c[0::2]) - sum(c[1::2])
    for (u1, v1), (u2, v2) in itertools.product(*halves):
        if len(c) == 1:
            break
        u, v = u1 * u2, v1 * v2
        while v != abs(u) and at1 % (v - u) == 0 and at_minus1 % (v + u) == 0:
            if (q := _divide(c, [-u, v])) is None:
                break
            c, at1, at_minus1 = q, at1 // (v - u), at_minus1 // -(v + u)
            arch.append(math.log(abs(u) / v))
    rest = Poly(c)
    whole = searched and all(q.degree <= 3 for q, _ in squarefree_decomposition(rest))
    for q, e in ([(rest, 1)] if whole else factor_q(rest)) if rest.degree else ():
        for cluster in complex_roots(q, tol):
            arch.extend([math.log(abs(cluster.value))] * (cluster.multiplicity * e))
    arch.sort(reverse=True)
    return arch


@functools.lru_cache(maxsize=4096)
def _charpoly_drift(
    cp: Poly, primes: tuple[int, ...], tol: float
) -> tuple[tuple[float, ...], tuple[tuple[int, tuple[Fraction, ...]], ...], int | None]:
    """(arch coordinates, ((p, valuations), ...), order) of a charpoly.

    One exact cyclotomic split serves both the drift and the tag.  order is
    the lcm of the k with Phi_k | cp when those Phi_k consume cp, else None.
    By Kronecker, a monic integer irreducible with all roots on the unit
    circle is cyclotomic; a non-integral cp is never consumed.

    The drift of an element depends on its characteristic polynomial and
    the place set alone, so it is computed once per distinct charpoly; the
    result is immutable because every caller shares it.  Raised errors
    (ToleranceNotReached) are not cached.
    """
    padic = tuple((p, newton_slopes(cp, p).valuations) for p in primes)
    c, ks = _cyclotomic_split(cp, order_bound(cp.degree))
    arch = _arch_drift(c, cp.degree, padic, tol)
    return tuple(arch), padic, math.lcm(*ks) if len(c) == 1 else None


def _drift(
    m: SqMatrix, places: PlaceSet, label: str | None, tol: float
) -> tuple[DriftProfile, int | None]:
    arch, padic, order = _charpoly_drift(charpoly(m), places.primes, tol)
    return DriftProfile(arch=arch, padic=dict(padic), label=label), order


def drift_profile(
    m: SqMatrix, places: PlaceSet, label: str | None = None, *, tol: float = 1e-12
) -> DriftProfile:
    """Sorted per-place drift coordinates of a det-1 rational matrix."""
    _check_det_one(m)
    _check_places_complete(m, places)
    return _drift(m, places, label, tol)[0]


def classify(
    m: SqMatrix, places: PlaceSet, label: str | None = None, *, tol: float = 1e-12
) -> Classification:
    """Total exact classification of a det-1 rational matrix.

    Decision tree, after one det-1 and one place check:
    - Identity, before any charpoly, with the zero drift profile;
    - otherwise one drift analysis of the charpoly, whose cyclotomic split
      gives order, the lcm of the k with Phi_k | cp when those consume cp:
      - order 1, i.e. cp = (x-1)^n: Unipotent;
      - any other order k: FiniteOrder(k) if m^k is the identity, else
        VirtuallyUnipotent(k);
      - no order: Ballistic, with the squared translation length split
        into float archimedean and exact non-archimedean parts.
    The result carries the profile it was decided from.
    """
    _check_det_one(m, name=label)
    _check_places_complete(m, places)
    if m.is_identity():
        zero = DriftProfile(
            arch=(0.0,) * m.n, padic={p: (Fraction(0),) * m.n for p in places.primes}, label=label
        )
        return Classification(tag="Identity", profile=zero)
    profile, order = _drift(m, places, label, tol)
    if order == 1:
        return Classification(tag="Unipotent", profile=profile)
    if order is not None:
        tag = "FiniteOrder" if (m**order).is_identity() else "VirtuallyUnipotent"
        return Classification(tag=tag, profile=profile, order=order)
    return Classification(tag="Ballistic", profile=profile, diagonalizable=is_diagonalizable(m))


@dataclass(frozen=True)
class DirectionProfile:
    """Per-place norms and unit drift vectors of a ballistic element, plus
    the spherical-join angle arctan(r_Q / r_P) for each ordered place pair."""

    norms: dict[str, float]
    norms2_nonarch: dict[str, Fraction]
    units: dict[str, tuple[float, ...]]
    angles: dict[tuple[str, str], float]


def direction_profile(cls: Classification) -> DirectionProfile:
    """Directions of a ballistic element, read from its classification's
    drift profile; the places are the profile's."""
    if not cls.is_ballistic:
        raise NotBallistic(f"element classifies {cls}; direction is defined for ballistic elements")
    profile = cls.profile
    coords: dict[str, list[float]] = {"arch": list(profile.arch)}
    norms2_nonarch: dict[str, Fraction] = {}
    for p, vals in profile.padic.items():
        coords[str(p)] = [float(v) for v in vals]
        norms2_nonarch[str(p)] = _sum_sq(vals)
    norms = {lbl: math.sqrt(sum(x * x for x in v)) for lbl, v in coords.items()}
    units = {
        lbl: tuple((x / norms[lbl]) if norms[lbl] > 0 else 0.0 for x in v)
        for lbl, v in coords.items()
    }
    angles = {
        (p_lbl, q_lbl): math.atan2(norms[q_lbl], norms[p_lbl])
        for p_lbl in coords
        for q_lbl in coords
        if p_lbl != q_lbl
    }
    return DirectionProfile(
        norms=norms, norms2_nonarch=norms2_nonarch, units=units, angles=angles
    )
