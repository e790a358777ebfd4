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
import itertools
import math
from fractions import Fraction

from .integers import is_prime

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

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
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
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    out = [(Poly(g).monic(), m) for f, m in _yun(_integral(p)) for g in _zassenhaus(f)]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


# Integer polynomials below are coefficient lists, lowest degree first, with
# no trailing zeros; the zero polynomial is [].  Arguments m and p are
# moduli, and results mod m are reduced to [0, m).


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


def _add(a: list[int], b: list[int], m: int) -> list[int]:
    a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
    return _reduce([x + y for x, y in zip(a, b)], m)


def _sub(a: list[int], b: list[int], m: int) -> list[int]:
    return _add(a, [-y for y in b], m)


def _reduce(a: list[int], m: int) -> list[int]:
    a = [x % m for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _mul(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _reduce(out, m)


def _divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q b + r mod m, for b with a unit leading coefficient."""
    r, db, inv = list(a), len(b) - 1, pow(b[-1], -1, m)
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        q[i - db] = c = r[i] * inv % m
        for j in range(db + 1):
            r[i - db + j] -= c * b[j]
    return _reduce(q, m), _reduce(r[:db], m)


def _gcdex(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(g, s): the monic gcd of a and b over F_p, and s with s a = g mod b."""
    r0, r1, s0, s1 = _reduce(a, p), _reduce(b, p), [1], []
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _sub(s0, _mul(q, s1, p), p)
    inv = pow(r0[-1], -1, p)
    return _reduce([x * inv for x in r0], p), _reduce([x * inv for x in s0], p)


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """A basis of {v : v^p = v mod f} over F_p, for a monic f squarefree
    mod p; its size is the number of irreducible factors of f mod p."""
    n = len(f) - 1
    rows, r = [], [1] + [0] * (n - 1)
    for i in range(n):
        rows.append([x - (j == i) for j, x in enumerate(r)])  # x^(p i) - x^i
        for _ in range(p):
            r = [(x - r[-1] * y) % p for x, y in zip([0] + r[:-1], f)]
    a, pivots = [list(col) for col in zip(*rows)], []  # v with sum v_i row_i = 0
    for c in range(n):
        k = next((i for i in range(len(pivots), n) if a[i][c] % p), None)
        if k is None:
            continue
        i = len(pivots)
        a[i], a[k] = a[k], a[i]
        inv = pow(a[i][c], -1, p)
        a[i] = [x * inv % p for x in a[i]]
        a = [
            b if j == i else [(x - b[c] * y) % p for x, y in zip(b, a[i])] for j, b in enumerate(a)
        ]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [int(c == free) for c in range(n)]
        for i, c in enumerate(pivots):
            v[c] = -a[i][free] % p
        basis.append(_reduce(v, p))
    return basis


def _hensel(
    f: list[int], g: list[int], h: list[int], p: int, m: int
) -> tuple[list[int], list[int]]:
    """(g', h'), congruent to (g, h) mod p, with f = g' h' mod m and h' monic,
    given f = g h mod p with h monic and g, h coprime, for m a power p^(2^j)
    (von zur Gathen and Gerhard, Algorithm 15.10)."""
    s = _gcdex(g, h, p)[1]
    t, q = _divmod(_sub([1], _mul(s, g, p), p), h, p)[0], p
    while q < m:
        q *= q
        e = _sub(f, _mul(g, h, q), q)
        a, r = _divmod(_mul(s, e, q), h, q)
        g, h = _add(g, _add(_mul(t, e, q), _mul(a, g, q), q), q), _add(h, r, q)
        b = _sub(_add(_mul(s, g, q), _mul(t, h, q), q), [1], q)
        c, d = _divmod(_mul(s, b, q), h, q)
        s, t = _sub(s, d, q), _sub(t, _add(_mul(t, b, q), _mul(c, g, q), q), q)
    return g, h


def _lift(f: list[int], factors: list[list[int]], p: int, m: int) -> list[list[int]]:
    """The monic lifts mod m of the factors, given f = lc(f) prod(factors)
    mod p with the factors monic and pairwise coprime: Hensel lifts of a
    balanced split, then of each half."""
    if len(factors) == 1:
        inv = pow(f[-1], -1, m)
        return [_reduce([x * inv for x in f], m)]
    k, g, h = len(factors) // 2, [f[-1]], [1]
    for u in factors[:k]:
        g = _mul(g, u, p)
    for u in factors[k:]:
        h = _mul(h, u, p)
    g, h = _hensel(f, g, h, p, m)
    return _lift(g, factors[:k], p, m) + _lift(h, factors[k:], p, m)


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """The irreducible factors over Z of a primitive f, squarefree over Q."""
    n, lc = len(f) - 1, f[-1]
    if n <= 1:
        return [f]
    tried, df = [], _derivative(f)
    for p in filter(is_prime, itertools.count(2)):
        if lc % p and len(_gcdex(f, df, p)[0]) == 1:  # squarefree mod p, of degree n
            inv = pow(lc, -1, p)
            fp = _reduce([x * inv for x in f], p)
            tried.append((len(basis := _berlekamp(fp, p)), p, fp, basis))
            if len(tried) == 5 or len(basis) == 1:
                break
    r, p, fp, basis = min(tried)
    if r == 1:
        return [f]
    factors = [fp]
    for v in basis:  # the gcds of u with v - s, s in F_p, multiply to u
        factors = [
            g
            for u in factors
            for g in ([u] if len(u) == 2 else (_gcdex(u, _sub(v, [s], p), p)[0] for s in range(p)))
            if len(g) > 1
        ]
        if len(factors) == r:
            break
    m, bound = p, 2 * abs(lc) * 2**n * (math.isqrt(sum(x * x for x in f)) + 1)
    while m <= bound:
        m *= m
    lifted = _lift(f, factors, p, m)
    out, k = [], 1
    while 2 * k <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), k):
            g = [f[-1]]
            for i in subset:
                g = _mul(g, lifted[i], m)
            g = _primitive([x - m if 2 * x > m else x for x in g])
            if (q := _divide(f, g)) is not None:
                out.append(g)
                f, lifted = q, [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            k += 1
    return out + [f]


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
