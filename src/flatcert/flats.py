"""Thick-flat lattice certificates for commuting families.

The Gram matrix of translation vectors is assembled by polarization,
<g,h> = (Q(gh) - Q(gh^-1))/4, which is valid for commuting matrices
because they are simultaneously triangularizable, making drift additive
under the joint eigenvalue indexing.  The non-archimedean part is exact;
positive definiteness is decided exactly, by integer elimination, on the
float combined Gram but only certified together with an exact PSD check.
Degenerate directions are searched by one LLL reduction of Z^r under the
combined Gram rounded to an integer form at the PD threshold's scale, and
every one is confirmed by classifying an explicit witness word, so no
certificate ever rests on floating point alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DeterminantNotOne, NotCommuting, NumericalInconclusive
from .blocks import verify_commuting
from .linalg import SqMatrix
from .places import Classification, _drift, classify, discover_places, drift_profile
from .words import power_word

__all__ = [
    "CommutingFamily",
    "GramData",
    "FlatCertificate",
    "length_sq",
    "gram",
    "flat_certificate",
    "PD_EPSILON",
]

PD_EPSILON = 1e-8


@dataclass(frozen=True)
class CommutingFamily:
    """A verified pairwise-commuting det-1 family with its place set."""

    names: tuple[str, ...]
    gens: tuple[SqMatrix, ...]
    places: tuple[int, ...]

    @classmethod
    def build(
        cls,
        named_gens: list[tuple[str, SqMatrix]],
        places: tuple[int, ...] | None = None,
    ) -> "CommutingFamily":
        for name, g in named_gens:
            if g.det() != 1:
                raise DeterminantNotOne(name=name, det=g.det())
        witness = verify_commuting(named_gens)
        if witness is not None:
            raise NotCommuting(witness.i, witness.j, witness.commutator)
        if places is None:
            places = discover_places([g for _, g in named_gens])
        return cls(
            names=tuple(n for n, _ in named_gens),
            gens=tuple(g for _, g in named_gens),
            places=places,
        )

    @property
    def rank(self) -> int:
        return len(self.gens)

    def word_matrix(self, exponents) -> SqMatrix:
        out = SqMatrix.identity(self.gens[0].n)
        for g, e in zip(self.gens, exponents):
            if e:
                out = out * g**e
        return out


def length_sq(
    m: SqMatrix, places: tuple[int, ...], *, tol: float = 1e-12
) -> tuple[float, Fraction]:
    """Squared translation length, split (archimedean float, non-archimedean
    exact rational)."""
    profile = drift_profile(m, places, tol=tol)
    return profile.length2_arch(), profile.length2_nonarch()


@dataclass(frozen=True)
class GramData:
    """Split Gram matrix of translation vectors of a commuting family."""

    nonarch: tuple[tuple[Fraction, ...], ...]
    arch: tuple[tuple[float, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.nonarch)

    def combined(self) -> tuple[tuple[float, ...], ...]:
        return tuple(
            tuple(float(x) + y for x, y in zip(na, a)) for na, a in zip(self.nonarch, self.arch)
        )


def gram(family: CommutingFamily, *, tol: float = 1e-12) -> GramData:
    """Polarized Gram matrix; diagonal straight from squared lengths.

    Each generator is checked for det 1 and the place set by length_sq.
    The products g_i g_j and g_i g_j^-1 inherit both checks: det is
    multiplicative, and their denominators divide products of the
    generators' (an inverse's entries are cofactors, as det = 1).
    """
    r = family.rank
    nonarch = [[Fraction(0)] * r for _ in range(r)]
    arch = [[0.0] * r for _ in range(r)]
    for i in range(r):
        a, na = length_sq(family.gens[i], family.places, tol=tol)
        arch[i][i] = a
        nonarch[i][i] = na
    for i in range(r):
        for j in range(i + 1, r):
            gi, gj = family.gens[i], family.gens[j]
            plus = _drift(gi * gj, family.places, tol)[0]
            minus = _drift(gi * gj.inverse(), family.places, tol)[0]
            arch[i][j] = arch[j][i] = (plus.length2_arch() - minus.length2_arch()) / 4.0
            nonarch[i][j] = nonarch[j][i] = (plus.length2_nonarch() - minus.length2_nonarch()) / 4
    return GramData(
        nonarch=tuple(tuple(row) for row in nonarch),
        arch=tuple(tuple(row) for row in arch),
    )


def _integer_form(rows) -> tuple[list[list[int]], int]:
    """(d * rows, d) for the least d > 0 that makes it an integer matrix;
    exact, as each float or Fraction entry is a ratio p/q of integers."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    d = math.lcm(*(q for row in ratios for _, q in row))
    return [[p * (d // q) for p, q in row] for row in ratios], d


def _pivots(a: list[list[int]]) -> list[int] | None:
    """Fraction-free symmetric (Bareiss) elimination: the leading principal
    minors of an integer matrix, or None when it is not PSD.  A zero pivot
    whose row is zero gives 0, and its row and column drop out of the later
    minors."""
    a = [list(row) for row in a]
    pivots, prev = [], 1
    for k, row in enumerate(a):
        p = row[k]
        if p < 0 or (p == 0 and any(row[k + 1:])):
            return None
        pivots.append(p)
        if p:
            for i in range(k + 1, len(a)):
                for j in range(k + 1, len(a)):
                    a[i][j] = (p * a[i][j] - a[i][k] * row[j]) // prev
            prev = p
    return pivots


@dataclass(frozen=True)
class FlatCertificate:
    """Lattice(rank, covolume) or Degenerate(null vectors, witness, class).

    For Degenerate, rank is the number of independent verified drift
    directions that remain, null_vectors lists every verified independent
    integer null vector, and the witness word, with its class, is the power
    word of null_vectors[0].
    """

    tag: str
    rank: int
    covolume: float | None = None
    witness_word: str | None = None
    witness_class: Classification | None = None
    null_vectors: tuple[tuple[int, ...], ...] | None = None


def _primitive(vec: list[Fraction]) -> tuple[int, ...] | None:
    """Clear denominators and content; flip sign so the first nonzero is
    positive.  None for the zero vector."""
    if all(v == 0 for v in vec):
        return None
    denom = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * denom) for v in vec]
    content = math.gcd(*(abs(x) for x in ints))
    ints = [x // content for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def _lattice_covolume(combined, shift: float) -> float | None:
    """sqrt(det) of a float Gram whose smallest eigenvalue exceeds shift,
    else None; exact on the float entries, by Sylvester's criterion."""
    a, d = _integer_form(combined)
    sn, sd = shift.as_integer_ratio()
    # sd * d * (Gram - shift * I) is an integer matrix
    shifted = [[sd * x - sn * d * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    pivots = _pivots(shifted)
    if pivots is None or not all(pivots):
        return None
    return math.sqrt(_pivots(a)[-1] / d ** len(a))


def _lll(form: list[list[int]]) -> list[list[int]]:
    """An LLL-reduced basis (delta = 3/4) of Z^r under a positive definite
    integer Gram form (Lenstra, Lenstra & Lovasz 1982; Cohen, Alg. 2.6.3),
    with the Gram-Schmidt data exact over Fraction."""
    r = len(form)
    basis = [[int(i == j) for j in range(r)] for i in range(r)]
    k = 1
    while k < r:
        dots = [[sum(x * f * y for x, row in zip(u, form) for f, y in zip(row, v)) for v in basis]
                for u in basis]
        # mu is unit lower triangular, so a row operation on basis is one on mu
        mu = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
        norms: list[Fraction] = []
        for i in range(r):
            for j in range(i):
                dot = dots[i][j] - sum(mu[j][l] * mu[i][l] * norms[l] for l in range(j))
                mu[i][j] = dot / norms[j]
            norms.append(Fraction(dots[i][i]) - sum(mu[i][l] ** 2 * norms[l] for l in range(i)))
            if norms[i] <= 0:
                raise NumericalInconclusive(
                    "the rounded Gram form of the witness search is not positive definite"
                )
        for j in reversed(range(k)):
            q = round(mu[k][j])
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                mu[k] = [x - q * y for x, y in zip(mu[k], mu[j])]
        if norms[k] < (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            k = max(k - 1, 1)
        else:
            k += 1
    return basis


def _null_candidates(
    g: GramData, combined: tuple[tuple[float, ...], ...], threshold: float
) -> list[tuple[int, ...]]:
    """Primitive integer candidates for null vectors of the combined Gram,
    ordered by (max-norm, lexicographic).

    They are the vectors of one LLL-reduced basis of Z^r under the integer
    form round(combined / threshold) + r * I (r * I when threshold is 0)
    that the exact non-archimedean part annihilates and whose combined Gram
    value is at most r * threshold * |v|^2.  On a null vector the rounding
    moves the form by at most r/2 * |v|^2, so null vectors stay short while
    every other direction is scaled up past the threshold."""
    r = g.rank
    scale = 1 / Fraction(threshold) if threshold else 0
    form = [[round(Fraction(x) * scale) + r * (i == j) for j, x in enumerate(row)]
            for i, row in enumerate(combined)]
    candidates = []
    for v in _lll(form):
        if any(sum(x * y for x, y in zip(row, v)) for row in g.nonarch):
            continue
        value = sum(x * v[i] * v[j] for i, row in enumerate(combined) for j, x in enumerate(row))
        if value <= r * threshold * sum(x * x for x in v):
            candidates.append(_primitive(v))
    # smallest max-norm first, then fewest nonzero coordinates, then weight
    # on the earliest generators, so witnesses are reproducible
    candidates.sort(
        key=lambda v: (
            max(abs(x) for x in v),
            sum(1 for x in v if x),
            tuple(-abs(x) for x in v),
            v,
        )
    )
    return candidates


def flat_certificate(
    family: CommutingFamily, pd_epsilon: float = PD_EPSILON, *, tol: float = 1e-12
) -> FlatCertificate:
    """Lattice certificate or degenerate-direction witness for a commuting
    family.

    Lattice requires the floating combined Gram to be positive definite
    (smallest eigenvalue > pd_epsilon * trace, decided exactly) AND the exact
    non-archimedean part to be PSD; a disagreement raises NumericalInconclusive.
    Degenerate directions are only reported when an explicit witness word
    classifies non-ballistic, which is an exact decision.
    """
    g = gram(family, tol=tol)
    r = g.rank
    combined = g.combined()
    trace = sum(row[i] for i, row in enumerate(combined))
    covolume = _lattice_covolume(combined, pd_epsilon * trace) if trace > 0 else None
    if covolume is not None:
        if _pivots(_integer_form(g.nonarch)[0]) is None:
            raise NumericalInconclusive(
                "floating Gram is positive definite but the exact non-archimedean part is not PSD"
            )
        return FlatCertificate(tag="Lattice", rank=r, covolume=covolume)

    threshold = pd_epsilon * max(trace, 0.0)
    verified: list[tuple[tuple[int, ...], str, Classification]] = []
    for v in _null_candidates(g, combined, threshold):
        word = power_word(list(zip(family.names, v)))
        cls = classify(family.word_matrix(v), family.places, label=word, tol=tol)
        if not cls.is_ballistic:
            verified.append((v, word, cls))
    if not verified:
        raise NumericalInconclusive(
            "combined Gram is numerically singular but no rational null direction "
            "could be verified by an exact witness"
        )
    # distinct vectors of one basis of Z^r are independent over Q
    _, word, cls = verified[0]
    return FlatCertificate(
        tag="Degenerate",
        rank=r - len(verified),
        witness_word=word,
        witness_class=cls,
        null_vectors=tuple(v for v, _, _ in verified),
    )
