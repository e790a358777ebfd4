"""Dense univariate polynomials over Q with exact Fraction coefficients.

Coefficients are stored lowest degree first, matching the wire format used
by the CLI.  Everything here is immutable and exact; the only floating
point in the package lives in the root isolator and in archimedean drift.
Poly has ring operations only: exact division, the squarefree split and
factorization over Q run on the primitive integer multiple of a
polynomial, as a plain coefficient list.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

__all__ = [
    "Poly",
    "squarefree_part",
    "squarefree_decomposition",
    "factor_q",
    "cyclotomic",
    "cyclotomic_index",
]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


class Poly:
    """Polynomial over Q; ``Poly([a0, a1, ...])`` is a0 + a1*x + ..."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return Poly([c / self.coeffs[-1] for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    def integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), made monic.

    Annihilates a matrix iff the matrix is diagonalizable over C when p is
    its characteristic polynomial.
    """
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    f = _integral(p)
    return Poly(_divide(f, _gcd(f, _derivative(f)))).monic()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: returns [(q, m)] with p = lead * prod q^m, q monic
    squarefree and pairwise coprime."""
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    return [(Poly(g).monic(), m) for g, m in _yun(_integral(p))]


def factor_q(p: Poly) -> list[tuple[Poly, int]]:
    """Irreducible factorization over Q as [(monic factor, multiplicity)].

    Berlekamp-Zassenhaus on each squarefree part f of Yun's split, a
    primitive integer polynomial: Berlekamp's deterministic split of f
    modulo the prime with the fewest factors among the first few that keep
    f squarefree and of full degree; quadratic Hensel lifts along a
    balanced tree of those factors, past 2 |lc(f)| times Mignotte's bound
    on the coefficients of a factor of f over Z; then trial division by the
    products of subsets of the lifted factors, smallest subsets first.
    Factors are ordered by (degree, coefficient tuple) so output is
    deterministic.
    """
    from .factor import zassenhaus  # loaded on the first call: few requests factor

    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    out = [(Poly(g).monic(), m) for f, m in _yun(_integral(p)) for g in zassenhaus(f)]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


# Integer polynomials below are coefficient lists, lowest degree first, with
# no trailing zeros; the zero polynomial is [].


def _divide(c: list[int], d: list[int]) -> list[int] | None:
    """c / d for a primitive integer d (lowest degree first), or None when
    d does not divide c.  By Gauss's lemma a primitive d that divides c
    over Q divides it over Z, so a non-integral quotient digit means no."""
    r = list(c)
    m = len(d) - 1
    q = [0] * (len(r) - m)
    for i in range(len(r) - 1, m - 1, -1):
        t, rem = divmod(r[i], d[m])
        if rem:
            return None
        q[i - m] = t
        if t:
            for j in range(m + 1):
                r[i - m + j] -= t * d[j]
    return None if any(r[:m]) else q


def _integral(p: Poly) -> list[int]:
    """The primitive integer multiple of p with a positive leading coefficient."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in p.coeffs])


def _primitive(a: list[int]) -> list[int]:
    c = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [x // c for x in a]


def _derivative(a: list[int]) -> list[int]:
    return [i * x for i, x in enumerate(a)][1:]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd over Z, by the primitive remainder sequence."""
    while b:
        r, lb, db = list(a), b[-1], len(b) - 1
        while len(r) > db:  # pseudo-division by b
            c = r.pop()
            r = [lb * x for x in r]
            for j in range(db):
                r[len(r) - db + j] -= c * b[j]
            while r and not r[-1]:
                r.pop()
        a, b = b, _primitive(r) if r else []
    return _primitive(a)


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    """[(g, m)] with f = prod g^m, each g primitive and squarefree, the g
    pairwise coprime, for a primitive f with a positive leading coefficient."""
    out, g, m = [], _gcd(f, _derivative(f)), 1
    w = _divide(f, g)
    while len(w) > 1:
        y = _gcd(w, g)
        if len(q := _divide(w, y)) > 1:
            out.append((q, m))
        w, g, m = y, _divide(g, y), m + 1
    return out


@functools.cache
def cyclotomic(k: int) -> Poly:
    """k-th cyclotomic polynomial, by exact division of x^k - 1 over Z."""
    if k < 1:
        raise ValueError("cyclotomic index must be positive")
    num = [-1] + [0] * (k - 1) + [1]  # x^k - 1
    for d in range(1, k):
        if k % d == 0:
            num = _divide(num, [int(c) for c in cyclotomic(d).coeffs])
    return Poly(num)


def cyclotomic_index(q: Poly, bound: int) -> int | None:
    """Return k <= bound with q == cyclotomic(k), or None.

    Used to decide the root-of-unity (quasi-unipotent) branch exactly: a
    monic irreducible integer polynomial has all roots on the unit circle
    iff it is cyclotomic.
    """
    for k in range(1, bound + 1):
        phi = cyclotomic(k)
        if phi.degree == q.degree and phi == q:
            return k
    return None
