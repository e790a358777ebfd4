"""Exact square-matrix algebra over Q.

A matrix is stored as integer rows ``num`` over one common denominator
``den`` > 0, normalized so that gcd(den, every entry) = 1.  The form is
canonical, so equality and hashing compare integers, and products, powers,
inverses and determinants run on integers with one gcd normalization per
result.  Inverses and determinants use fraction-free Bareiss elimination
(Bareiss, Math. Comp. 1968); characteristic polynomials use division-free
Berkowitz on ``num`` (the test suite cross-checks against Faddeev-LeVerrier
and determinant interpolation).  The determinant and the characteristic
polynomial are kept on the matrix after the first call.  A matrix over
Q(alpha) is only ever a grid of regular_matrix blocks, one per entry:
embed_regular decides its determinant in the field by elimination over the
commuting blocks, and tiles the blocks into one rational matrix.
Kernels, the pairwise commutation check and the block decomposition of
commuting families live in flatcert.blocks, which only flat, decompose and
graph load; kernel_basis and block_decompose are re-exported here lazily.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .errors import DeterminantNotOne, DimensionMismatch
from .exact.integers import euler_phi
from .exact.poly import Poly

__all__ = [
    "SqMatrix",
    "charpoly",
    "embed_regular",
    "regular_matrix",
    "kernel_basis",
    "is_diagonalizable",
    "order_bound",
    "block_decompose",
    "poly_at_matrix",
]

_BLOCKS = frozenset(("kernel_basis", "block_decompose"))


def __getattr__(name: str):
    if name in _BLOCKS:
        from . import blocks

        return getattr(blocks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@functools.cache
def _identity_num(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class SqMatrix:
    """Immutable square rational matrix.

    The entries are num[i][j] / den: integer rows over one denominator
    den > 0 with gcd(den, every entry) = 1.  ``rows`` is the Fraction view;
    the characteristic polynomial and the determinant are kept in slots once
    computed.
    """

    __slots__ = ("n", "num", "den", "_charpoly", "_det")

    def __init__(self, rows):
        entries = [[x if isinstance(x, Fraction) else Fraction(x) for x in r] for r in rows]
        n = len(entries)
        if any(len(r) != n for r in entries):
            raise DimensionMismatch("matrix is not square")
        den = math.lcm(1, *(x.denominator for r in entries for x in r))
        num = tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in entries)
        # den is the lcm of reduced denominators, so (num, den) is normalized
        self._set(num, den)

    def _set(self, num, den):
        """Fill every slot once; the charpoly and det slots start empty."""
        for name, value in zip(self.__slots__, (len(num), num, den, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SqMatrix is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def _over(cls, num: tuple[tuple[int, ...], ...], den: int = 1) -> "SqMatrix":
        """The matrix num / den from integer row tuples, den > 0."""
        if den != 1:
            g = math.gcd(den, *itertools.chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple(x // g for x in r) for r in num)
                den //= g
        m = object.__new__(cls)
        m._set(num, den)
        return m

    @classmethod
    def identity(cls, n: int) -> "SqMatrix":
        return cls._over(_identity_num(n))

    @classmethod
    def diagonal(cls, entries) -> "SqMatrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    # -- basics ---------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries row by row, as Fractions."""
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in r) for r in self.num)

    def __eq__(self, other):
        return isinstance(other, SqMatrix) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def is_identity(self) -> bool:
        return self.den == 1 and self.num == _identity_num(self.n)

    def trace(self) -> Fraction:
        return Fraction(sum(r[i] for i, r in enumerate(self.num)), self.den)

    def __add__(self, other: "SqMatrix") -> "SqMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "SqMatrix") -> "SqMatrix":
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other: "SqMatrix", op) -> "SqMatrix":
        self._check_compat(other)
        d = math.lcm(self.den, other.den)
        s, t = d // self.den, d // other.den
        return SqMatrix._over(
            tuple(tuple(op(x * s, y * t) for x, y in zip(r, q)) for r, q in zip(self.num, other.num)),
            d,
        )

    def _check_compat(self, other: "SqMatrix"):
        if not isinstance(other, SqMatrix):
            raise TypeError("expected a SqMatrix")
        if self.n != other.n:
            raise DimensionMismatch(f"dimensions {self.n} and {other.n} differ")

    def scale(self, c) -> "SqMatrix":
        c = Fraction(c)
        return SqMatrix._over(
            tuple(tuple(c.numerator * x for x in r) for r in self.num), self.den * c.denominator
        )

    def __mul__(self, other: "SqMatrix") -> "SqMatrix":
        self._check_compat(other)
        cols = tuple(zip(*other.num))
        return SqMatrix._over(
            tuple(tuple(sum(map(operator.mul, r, c)) for c in cols) for r in self.num),
            self.den * other.den,
        )

    def __pow__(self, k: int) -> "SqMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return SqMatrix.identity(self.n) if result is None else result

    def commutes_with(self, other: "SqMatrix") -> bool:
        return self * other == other * self

    def __repr__(self):
        return f"SqMatrix({[[str(x) for x in row] for row in self.rows]})"

    # -- elimination-based kernels: det, inverse, solve -------------------

    def det(self) -> Fraction:
        """Exact determinant: Bareiss on num, over den^n, kept on the matrix
        after the first call."""
        if self._det is None:
            object.__setattr__(self, "_det", Fraction(_det_bareiss(self.num), self.den**self.n))
        return self._det

    def inverse(self) -> "SqMatrix":
        """Exact inverse by fraction-free Gauss-Jordan (Bareiss) on [num | I].

        Every intermediate entry is a minor of [num | I], so each division
        is exact; at the end each row reads [d e_i | d num^-1 row i] with d
        the determinant of the row-swapped num, and m^-1 = den num^-1.
        """
        n = self.n
        a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.num)]
        prev = 1
        for k in range(n):
            piv = next((r for r in range(k, n) if a[r][k]), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            a[k], a[piv] = a[piv], a[k]
            row_k = a[k]
            pk = row_k[k]
            for i in range(n):
                if i != k:
                    f = a[i][k]
                    a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], row_k)]
            prev = pk
        scale = self.den if prev > 0 else -self.den
        return SqMatrix._over(tuple(tuple(scale * x for x in r[n:]) for r in a), abs(prev))

    def conjugate_by(self, c: "SqMatrix") -> "SqMatrix":
        """c * self * c^-1."""
        return c * self * c.inverse()

    def submatrix(self, idx: list[int]) -> "SqMatrix":
        return SqMatrix._over(tuple(tuple(self.num[i][j] for j in idx) for i in idx), self.den)


def _det_bareiss(num) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(num)
    if n == 0:
        return 1
    a = [list(r) for r in num]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- characteristic polynomial -------------------------------------------


def charpoly(m: SqMatrix) -> Poly:
    """Monic characteristic polynomial det(xI - m), exact, over Q.

    Division-free Berkowitz on the integer rows A = den m; since
    det(xI - A) = den^n det((x/den) I - m), the coefficient of x^k is
    rescaled as c_k(m) = c_k(A) / den^(n-k).  The result is kept on m (which
    is immutable), so every analysis of the same matrix shares one
    computation.
    """
    if m._charpoly is None:
        n, d = m.n, m.den
        p = _berkowitz(m.num)
        cp = Poly([Fraction(p[n - k], d ** (n - k)) for k in range(n + 1)])
        object.__setattr__(m, "_charpoly", cp)
    return m._charpoly


def _berkowitz(a) -> list[int]:
    """Coefficients of det(xI - a), highest degree first, with ring
    operations only.

    Step k borders the leading k x k block M with row R = a[k][:k], column
    C = a[:k][k] and corner a[k][k]; the new polynomial is the Toeplitz
    product of (1, -a[k][k], -RC, -RMC, ..., -RM^(k-1)C) with the old one.
    """
    p = [1]
    for k in range(len(a)):
        block = [r[:k] for r in a[:k]]
        row = a[k][:k]
        col = [r[k] for r in a[:k]]
        toeplitz = [1, -a[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(x * c for x, c in zip(row, col)))
            col = [sum(x * c for x, c in zip(r, col)) for r in block]
        p = [
            sum(toeplitz[i - j] * p[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
            for i in range(k + 2)
        ]
    return p


def regular_matrix(coords, field: Poly) -> SqMatrix:
    """The d x d rational matrix of multiplication by the element of
    Q(alpha) with power-basis coordinates coords (at most d of them); field
    is the minpoly of alpha, as make_field returns it.

    It is sum_i coords[i] C^i for C the companion matrix of the minpoly:
    column j holds the coordinates of the element times alpha^j, so the
    first column is coords itself.  These matrices form a field isomorphic
    to Q(alpha); they commute, and every nonzero one is invertible.
    """
    d, m = field.degree, field.coeffs
    col = [Fraction(c) for c in coords] + [Fraction(0)] * (d - len(coords))
    cols = [col]
    for _ in range(d - 1):
        # times alpha: shift up, and reduce alpha^d = -(m_0 + ... + m_(d-1) alpha^(d-1))
        top = col[-1]
        col = [-top * m[0]] + [c - top * mi for c, mi in zip(col, m[1:d])]
        cols.append(col)
    return SqMatrix(list(zip(*cols)))


def embed_regular(rows, field: Poly | None = None) -> SqMatrix:
    """The rational SL matrix of a det-1 entry grid.

    Over Q (field None) the entries are rationals and the result is
    SqMatrix(rows).  Over Q(alpha) they are regular_matrix blocks, and the
    output is the (n*d) x (n*d) rational matrix they tile, whose
    characteristic polynomial is the product of all embeddings of the field
    charpoly.  det = 1 is checked exactly before embedding, in the field,
    by _block_det: the embedded determinant is only the norm of the field
    determinant, which can be 1 when det is not.  The norm of 1 is 1, so
    the result keeps det 1 without another elimination.
    """
    if field is None:
        m = SqMatrix(rows)
        if m.det() != 1:
            raise DeterminantNotOne(det=m.det())
        return m
    rows = [list(r) for r in rows]
    if any(len(r) != len(rows) for r in rows):
        raise DimensionMismatch("matrix is not square")
    det = _block_det(rows)
    if not det.is_identity():
        raise DeterminantNotOne(det=f"[{', '.join(str(det[i, 0]) for i in range(det.n))}]")
    d = field.degree
    den = math.lcm(*(b.den for r in rows for b in r))
    m = SqMatrix._over(
        tuple(
            tuple(x * (den // b.den) for b in brow for x in b.num[i])
            for brow in rows
            for i in range(d)
        ),
        den,
    )
    object.__setattr__(m, "_det", Fraction(1))
    return m


def _block_det(rows) -> SqMatrix:
    """The regular block of the determinant of a grid of regular blocks, by
    Gaussian elimination: the blocks commute, and a nonzero one is a unit."""
    n, d = len(rows), rows[0][0].n
    a = [list(r) for r in rows]
    det = SqMatrix.identity(d)
    for col in range(n):
        piv = next((r for r in range(col, n) if any(map(any, a[r][col].num))), None)
        if piv is None:
            return det.scale(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = det.scale(-1)
        p = a[col][col]
        det = det * p
        pinv = p.inverse()
        for r in range(col + 1, n):
            if any(map(any, a[r][col].num)):
                f = a[r][col] * pinv
                a[r][col + 1 :] = [x - f * y for x, y in zip(a[r][col + 1 :], a[col][col + 1 :])]
    return det


def poly_at_matrix(p: Poly, m: SqMatrix) -> SqMatrix:
    """Exact Horner evaluation of p at a matrix."""
    n = m.n
    acc = SqMatrix.identity(n).scale(0)
    for c in reversed(p.coeffs):
        acc = acc * m + SqMatrix.identity(n).scale(c)
    return acc


# -- element predicates ------------------------------------------------------


def is_diagonalizable(m: SqMatrix) -> bool:
    """True iff the squarefree part of charpoly annihilates m (minimal
    polynomial squarefree, hence diagonalizable over C)."""
    from .exact.poly import squarefree_part

    p = squarefree_part(charpoly(m))
    return not any(map(any, poly_at_matrix(p, m).num))


@functools.cache
def order_bound(n: int) -> int:
    """max { k : phi(k) <= n }: a root of unity of degree <= n over Q has
    order at most this.  Memoized: one entry per matrix size seen."""
    # phi(k) >= sqrt(k/2), so k <= 2 n^2 suffices as a search window
    best = 1
    for k in range(1, 2 * n * n + 1):
        if euler_phi(k) <= n:
            best = k
    return best
