"""Exact construction of seeded benchmark inputs and their known answers.

Every generator matrix is U * blockdiag(blocks) * U^-1 for an integer
unimodular U, so its eigenvalues are known from the blocks alone:

- a scale slot (a2, a3, c) is the field element 2^a2 * 3^a3 * u^c, with u a
  fixed unit of the number field (c = 0 over Q).  Each of its d conjugates
  has valuation a2 at 2 and a3 at 3 and log-modulus
  a2 log 2 + a3 log 3 + c log|sigma_j(u)|;
- ("hyp", e) is A^e with A = [[2, 1], [1, 1]], eigenvalues phi^(+-2e);
- ("rot", k, e) is R^e for the companion matrix R of the k-th cyclotomic
  polynomial;
- ("unip", e) is [[1, e], [0, 1]] and ("negunip", e) is (-[[1, 1], [0, 1]])^e.

Answers are derived with fractions and math only; nothing in this package
imports flatcert.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

LOG_PHI2 = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0)
LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
PRIMES = (2, 3)


# -- number fields ------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """Q(alpha) for a monic integer minpoly (lowest degree first), with the
    unit u = 1 + alpha, its inverse, and log|sigma_j(u)| per embedding."""

    minpoly: tuple[int, ...]
    unit: tuple[Fraction, ...]
    unit_inv: tuple[Fraction, ...]
    unit_logs: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def mul(self, x, y):
        d = self.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod[i + j] += a * b
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = Fraction(0)
                for i in range(d):
                    prod[k - d + i] -= c * self.minpoly[i]
        return tuple(prod[:d])

    def scalar(self, q):
        return (Fraction(q),) + (Fraction(0),) * (self.degree - 1)

    def unit_power(self, c: int):
        out = self.scalar(1)
        base = self.unit if c >= 0 else self.unit_inv
        for _ in range(abs(c)):
            out = self.mul(out, base)
        return out


def _field(minpoly, unit, unit_inv, roots) -> Field:
    logs = tuple(math.log(abs(sum(c * r**i for i, c in enumerate(unit)))) for r in roots)
    return Field(tuple(minpoly), tuple(map(Fraction, unit)), tuple(map(Fraction, unit_inv)), logs)


FIELDS = {
    1: Field((0, 1), (Fraction(1),), (Fraction(1),), (0.0,)),
    # u = 1 + sqrt2, u^-1 = sqrt2 - 1
    2: _field((-2, 0, 1), (1, 1), (-1, 1), (math.sqrt(2.0), -math.sqrt(2.0))),
    # alpha^4 = 2 and N(1 + alpha) = -1, so u^-1 = -(1 - alpha + alpha^2 - alpha^3)
    4: _field((-2, 0, 0, 0, 1), (1, 1, 0, 0), (-1, 1, -1, 1),
              tuple(2.0**0.25 * 1j**k for k in range(4))),
}


# -- models -------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """One generator before conjugation: scale slots first, then the other
    blocks, then identity padding up to n."""

    n: int
    slots: tuple[tuple[int, int, int], ...] = ()
    blocks: tuple[tuple, ...] = ()

    def power(self, e: int) -> "Model":
        slots = tuple((a * e, b * e, c * e) for a, b, c in self.slots)
        blocks = tuple(
            ("rot", blk[1], blk[2] * e) if blk[0] == "rot" else (blk[0], blk[1] * e)
            for blk in self.blocks
        )
        return Model(self.n, slots, blocks)


def combine(models: list[Model], exps: list[int]) -> Model:
    """Product of powers of commuting scale-only models."""
    slots = tuple(
        tuple(sum(e * m.slots[i][t] for m, e in zip(models, exps)) for t in range(3))
        for i in range(len(models[0].slots))
    )
    return Model(models[0].n, slots)


def euler_phi(k: int) -> int:
    return sum(1 for i in range(1, k + 1) if math.gcd(i, k) == 1)


@dataclass(frozen=True)
class Atom:
    """One eigenvalue of the embedded matrix: its position, integer exponent
    data (a2, a3, hyperbolic e, unit c), log-modulus, and root-of-unity
    order (None when it is not a root of unity)."""

    pos: int
    conj: int
    a2: int
    a3: int
    e: int
    c: int
    log: float
    cyc: int | None


def atoms(model: Model, fld: Field) -> list[Atom]:
    out = []
    pos = 0

    def add(a2, a3, e, c, cyc_if_trivial=1):
        trivial = a2 == a3 == e == c == 0
        for j in range(fld.degree):
            log = a2 * LOG2 + a3 * LOG3 + e * LOG_PHI2 + c * fld.unit_logs[j]
            out.append(Atom(pos, j, a2, a3, e, c, 0.0 if trivial else log,
                            cyc_if_trivial if trivial else None))

    for a2, a3, c in model.slots:
        add(a2, a3, 0, c)
        pos += 1
    for blk in model.blocks:
        kind = blk[0]
        if kind == "hyp":
            add(0, 0, blk[1], 0)
            pos += 1
            add(0, 0, -blk[1], 0)
            pos += 1
        elif kind == "rot":
            k = blk[1]
            order = k // math.gcd(k, blk[2])
            for _ in range(euler_phi(k)):
                add(0, 0, 0, 0, order)
                pos += 1
        elif kind == "unip":
            for _ in range(2):
                add(0, 0, 0, 0)
                pos += 1
        elif kind == "negunip":
            for _ in range(2):
                add(0, 0, 0, 0, 2 if blk[1] % 2 else 1)
                pos += 1
    while pos < model.n:
        add(0, 0, 0, 0)
        pos += 1
    return out


def has_jordan(model: Model) -> bool:
    return any(blk[0] in ("unip", "negunip") and blk[1] != 0 for blk in model.blocks)


# -- exact matrices -----------------------------------------------------------


def _cyclotomic(k: int) -> list[int]:
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            den = _cyclotomic(d)
            q = [0] * (len(num) - len(den) + 1)
            for i in range(len(q) - 1, -1, -1):
                q[i] = num[i + len(den) - 1]
                for t, dv in enumerate(den):
                    num[i + t] -= q[i] * dv
            num = q
    return num


def _matmul(x, y):
    n = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _power(m, e: int):
    """m^e for an integer det-1 matrix (negative e only for 2x2 and rotations)."""
    n = len(m)
    if e < 0:
        (a, b), (c, d) = m
        m, e = [[d, -b], [-c, a]], -e
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    while e:
        if e & 1:
            out = _matmul(out, m)
        m = _matmul(m, m)
        e >>= 1
    return out


def block_matrix(blk):
    kind = blk[0]
    if kind == "hyp":
        return _power([[2, 1], [1, 1]], blk[1])
    if kind == "rot":
        k = blk[1]
        cp = _cyclotomic(k)
        m = len(cp) - 1
        r = [[1 if i == j + 1 else 0 for j in range(m - 1)] + [-cp[i]] for i in range(m)]
        return _power(r, blk[2] % k)
    if kind == "unip":
        return [[1, blk[1]], [0, 1]]
    if kind == "negunip":
        s = -1 if blk[1] % 2 else 1
        return [[s, s * blk[1]], [0, s]]
    raise ValueError(kind)


def model_matrix(model: Model, fld: Field):
    """Block-diagonal matrix over the field; entries are coordinate tuples."""
    n = model.n
    rows = [[fld.scalar(int(i == j)) for j in range(n)] for i in range(n)]
    pos = 0
    for a2, a3, c in model.slots:
        s = Fraction(2) ** a2 * Fraction(3) ** a3
        rows[pos][pos] = fld.mul(fld.scalar(s), fld.unit_power(c))
        pos += 1
    for blk in model.blocks:
        mat = block_matrix(blk)
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                rows[pos + i][pos + j] = fld.scalar(x)
        pos += len(mat)
    return rows


def unimodular(rng: random.Random, n: int):
    """Integer U with det 1 and its inverse: one pass of row additions
    U_i += +-U_j along a random cycle of the rows, so that entry sizes, and
    with them the cost of the conjugated inputs, vary little between seeds."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    cycle = rng.sample(range(n), n)
    for k in range(n):
        i, j = cycle[k], cycle[(k + 1) % n]
        c = rng.choice((-1, 1))
        for t in range(n):
            u[i][t] += c * u[j][t]
            inv[t][j] -= c * inv[t][i]
    return u, inv


def conjugate(u, inv, m, fld: Field):
    """u * m * inv over the field, for integer u and inv."""
    n, d = len(m), fld.degree

    def lin(coeffs, vecs):
        acc = [Fraction(0)] * d
        for c, v in zip(coeffs, vecs):
            if c:
                for t in range(d):
                    acc[t] += c * v[t]
        return tuple(acc)

    um = [[lin([u[i][k] for k in range(n)], [m[k][j] for k in range(n)]) for j in range(n)]
          for i in range(n)]
    return [[lin([inv[k][j] for k in range(n)], [um[i][k] for k in range(n)]) for j in range(n)]
            for i in range(n)]


def frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def matrix_json(m, fld: Field):
    if fld.degree == 1:
        return [[frac_str(x[0]) for x in row] for row in m]
    return [[[frac_str(c) for c in x] for x in row] for row in m]


def denominator_primes(mats) -> tuple[int, ...]:
    """Primes dividing a coordinate denominator; in the regular representation
    the first column of each entry's block is its coordinate vector, so these
    are the primes of the embedded rational matrices too."""
    den = 1
    for m in mats:
        for row in m:
            for x in row:
                for c in x:
                    den = math.lcm(den, c.denominator)
    return tuple(p for p in PRIMES if den % p == 0)


def build_doc(rng: random.Random, fld: Field, models: dict[str, Model], key: str):
    """Conjugate every model by one random unimodular U; returns the JSON
    document (a session when key is "generators") and the place primes."""
    n = next(iter(models.values())).n
    u, inv = unimodular(rng, n)
    mats = {name: conjugate(u, inv, model_matrix(m, fld), fld) for name, m in models.items()}
    doc = {key: {name: matrix_json(m, fld) for name, m in mats.items()}}
    if fld.degree > 1:
        doc["field"] = [str(c) for c in fld.minpoly]
    return doc, denominator_primes(mats.values())


# -- random models ------------------------------------------------------------


def random_slots(rng: random.Random, k: int, d: int):
    """k scale slots in inverse pairs (s, -s), plus a zero slot when k is odd,
    so exponents stay in -1..1 and the determinant is 1."""
    while True:
        half = [(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-1, 1) if d > 1 else 0)
                for _ in range(k // 2)]
        if any(any(s) for s in half):
            break
    slots = half + [tuple(-x for x in s) for s in half] + [(0, 0, 0)] * (k % 2)
    rng.shuffle(slots)
    return tuple(slots)


def exponent_rank(models: list[Model], fld: Field) -> int:
    """Rank over Q of the integer exponent data; equals the rank of the drift
    Gram because log 2, log 3, log phi^2 and the unit log vector are
    independent over Q."""
    rows = [[Fraction(x) for a in atoms(m, fld) if a.conj == 0 for x in (a.a2, a.a3, a.e, a.c)]
            for m in models]
    return rank(rows)


def rank(rows) -> int:
    a = [list(r) for r in rows]
    rk = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rk, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        for r in range(len(a)):
            if r != rk and a[r][col] != 0:
                f = a[r][col] / a[rk][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rk])]
        rk += 1
    return rk


def nonarch_rank(models: list[Model]) -> int:
    return rank([[Fraction(x) for s in m.slots for x in s[:2]] for m in models])


def family(rng: random.Random, n: int, d: int, size: int, dependent: bool,
           repeat: bool = False) -> list[Model]:
    """Commuting scale-only family whose free members have independent
    non-archimedean parts; a dependent family ends with a product of powers
    of the others.  With repeat, two slots agree in every member, so their
    eigenvalues share a decompose block."""
    free = size - 1 if dependent else size
    for _ in range(1000):
        models = []
        for _ in range(free):
            if repeat:
                s = random_slots(rng, n - 1, d)
                twin = s[0]
                last = tuple(x - y for x, y in zip(s[-1], twin))
                models.append(Model(n, (twin,) + s[:-1] + (last,)))
            else:
                models.append(Model(n, random_slots(rng, n, d)))
        if nonarch_rank(models) == free:
            break
    else:
        raise ValueError(f"no {free} independent members found in {n} slots")
    if dependent:
        exps = [rng.choice((-1, 1, 2)) for _ in range(free)]
        models.append(combine(models, exps))
    return models


def power_word(names, exps) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(parts) if parts else f"{names[0]}^0"
