"""Berlekamp-Zassenhaus factorization of a primitive integer polynomial.

The engine behind ``poly.factor_q``, which imports it on its first call:
Berlekamp's deterministic split modulo a small prime, quadratic Hensel
lifts along a balanced tree of the modular factors, and recombination by
trial division.  Polynomials are coefficient lists as in ``poly``; the
arguments m and p are moduli, and results mod m are reduced to [0, m).
"""

from __future__ import annotations

import itertools
import math

from .integers import is_prime
from .poly import _derivative, _divide, _primitive


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


def zassenhaus(f: list[int]) -> list[list[int]]:
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
