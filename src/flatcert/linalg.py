"""Exact square-matrix algebra over Q and Q(alpha).

A rational matrix is stored as integer rows ``num`` over one common
denominator ``den`` > 0, normalized so that gcd(den, every entry) = 1.  The
form is canonical, so equality and hashing compare integers, and products,
powers, inverses and determinants run on integers with one gcd
normalization per result.  Inverses and determinants use fraction-free
Bareiss elimination (Bareiss, Math. Comp. 1968); characteristic
polynomials use division-free Berkowitz on ``num`` (the test suite
cross-checks against Faddeev-LeVerrier and determinant interpolation) and
are kept on the matrix after the first call; kernels come from Bareiss
forward elimination.  Matrices over Q(alpha) keep FieldElement rows and
plain elimination; they exist only between parsing and embed_regular.
Commuting families are split into blocks on which every generator's
characteristic polynomial is a power of a single Q-irreducible.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DeterminantNotOne, DimensionMismatch, NotCommuting
from .exact.integers import euler_phi
from .exact.numberfield import FieldElement, NumberField
from .exact.poly import Poly, factor_q

__all__ = [
    "SqMatrix",
    "charpoly",
    "embed_regular",
    "kernel_basis",
    "is_unipotent",
    "is_diagonalizable",
    "finite_order",
    "order_bound",
    "BlockDecomposition",
    "block_decompose",
    "poly_at_matrix",
]


def _as_scalar(x, field: NumberField | None):
    if field is None:
        if isinstance(x, FieldElement):
            return x.as_rational()
        return Fraction(x)
    if isinstance(x, FieldElement):
        if x.field != field:
            raise DimensionMismatch("entry from a different number field")
        return x
    return field.from_rational(Fraction(x))


@functools.cache
def _identity_num(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class SqMatrix:
    """Immutable square matrix.

    Over Q (field None) the entries are num[i][j] / den: integer rows over
    one denominator den > 0 with gcd(den, every entry) = 1.  Over a number
    field they are FieldElements.  ``rows`` is the entry view in either
    case (Fractions over Q).
    """

    __slots__ = ("n", "field", "num", "den", "_field_rows", "_charpoly")

    def __init__(self, rows, field: NumberField | None = None):
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix is not square")
        if field is None:
            field = next(
                (x.field for r in rows for x in r if isinstance(x, FieldElement)), None
            )
        if field is None:
            entries = [[_as_scalar(x, None) for x in r] for r in rows]
            den = math.lcm(1, *(x.denominator for r in entries for x in r))
            num = tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in entries)
            # den is the lcm of reduced denominators, so (num, den) is normalized
            self._set(n, None, num, den, None)
        else:
            self._set(
                n, field, None, None, tuple(tuple(_as_scalar(x, field) for x in r) for r in rows)
            )

    def _set(self, n, field, num, den, field_rows):
        """Fill every slot once; the charpoly slot starts empty."""
        for name, value in zip(self.__slots__, (n, field, num, den, field_rows, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SqMatrix is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def _over(cls, num: tuple[tuple[int, ...], ...], den: int = 1) -> "SqMatrix":
        """The rational matrix num / den from integer row tuples, den > 0."""
        if den != 1:
            g = math.gcd(den, *itertools.chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple(x // g for x in r) for r in num)
                den //= g
        m = object.__new__(cls)
        m._set(len(num), None, num, den, None)
        return m

    @classmethod
    def identity(cls, n: int, field: NumberField | None = None) -> "SqMatrix":
        if field is None:
            return cls._over(_identity_num(n))
        one, zero = field.one, field.zero
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], field)

    @classmethod
    def diagonal(cls, entries, field: NumberField | None = None) -> "SqMatrix":
        entries = list(entries)
        n = len(entries)
        zero = Fraction(0) if field is None else field.zero
        return cls(
            [[entries[i] if i == j else zero for j in range(n)] for i in range(n)], field
        )

    # -- basics ---------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The entries row by row: Fractions over Q, FieldElements over
        Q(alpha)."""
        if self.field is not None:
            return self._field_rows
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in r) for r in self.num)

    def __eq__(self, other):
        return (
            isinstance(other, SqMatrix)
            and self.num == other.num
            and self.den == other.den
            and self.field == other.field
            and self._field_rows == other._field_rows
        )

    def __hash__(self):
        return hash((self.num, self.den, self.field, self._field_rows))

    def __getitem__(self, ij):
        i, j = ij
        if self.field is not None:
            return self._field_rows[i][j]
        return Fraction(self.num[i][j], self.den)

    def is_identity(self) -> bool:
        if self.field is None:
            return self.den == 1 and self.num == _identity_num(self.n)
        return self == SqMatrix.identity(self.n, self.field)

    def trace(self):
        if self.field is None:
            return Fraction(sum(r[i] for i, r in enumerate(self.num)), self.den)
        return sum((r[i] for i, r in enumerate(self._field_rows)), self.field.zero)

    def __add__(self, other: "SqMatrix") -> "SqMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "SqMatrix") -> "SqMatrix":
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other: "SqMatrix", op) -> "SqMatrix":
        self._check_compat(other)
        if self.field is not None:
            return SqMatrix(
                [[op(x, y) for x, y in zip(r, q)] for r, q in zip(self._field_rows, other._field_rows)],
                self.field,
            )
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
        if self.field != other.field:
            raise DimensionMismatch("matrices over different fields")

    def scale(self, c) -> "SqMatrix":
        c = _as_scalar(c, self.field)
        if self.field is not None:
            return SqMatrix([[c * x for x in r] for r in self._field_rows], self.field)
        return SqMatrix._over(
            tuple(tuple(c.numerator * x for x in r) for r in self.num), self.den * c.denominator
        )

    def __mul__(self, other: "SqMatrix") -> "SqMatrix":
        self._check_compat(other)
        if self.field is None:
            cols = tuple(zip(*other.num))
            return SqMatrix._over(
                tuple(tuple(sum(map(operator.mul, r, c)) for c in cols) for r in self.num),
                self.den * other.den,
            )
        zero = self.field.zero
        cols = list(zip(*other._field_rows))
        out = []
        for row in self._field_rows:
            out_row = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    if a != 0:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return SqMatrix(out, self.field)

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
        return SqMatrix.identity(self.n, self.field) if result is None else result

    def commutes_with(self, other: "SqMatrix") -> bool:
        return self * other == other * self

    def __repr__(self):
        return f"SqMatrix({[[str(x) for x in row] for row in self.rows]})"

    # -- elimination-based kernels: det, inverse, solve -------------------

    def det(self):
        """Exact determinant (Bareiss on num over Q, ordinary elimination
        over Q(alpha))."""
        if self.field is None:
            return Fraction(_det_bareiss(self.num), self.den**self.n)
        return _det_elimination(self)

    def inverse(self) -> "SqMatrix":
        """Exact inverse.

        Over Q: fraction-free Gauss-Jordan (Bareiss) on [num | I].  Every
        intermediate entry is a minor of [num | I], so each division is
        exact; at the end each row reads [d e_i | d num^-1 row i] with d the
        determinant of the row-swapped num, and m^-1 = den num^-1.
        """
        if self.field is not None:
            return _inverse_elimination(self)
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
        if self.field is None:
            return SqMatrix._over(
                tuple(tuple(self.num[i][j] for j in idx) for i in idx), self.den
            )
        return SqMatrix([[self._field_rows[i][j] for j in idx] for i in idx], self.field)

    def denominator_lcm(self) -> int:
        """lcm of entry denominators (power-basis coordinates for Q(alpha))."""
        if self.field is None:
            return self.den
        return math.lcm(1, *(c.denominator for r in self._field_rows for x in r for c in x.coords))


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


def _det_elimination(m: SqMatrix):
    """Plain Gaussian elimination determinant over a number field."""
    n = m.n
    a = [list(row) for row in m.rows]
    det = m.field.one
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return m.field.zero
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        p = a[col][col]
        det = det * p
        pinv = m.field.one / p
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * pinv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _inverse_elimination(m: SqMatrix) -> SqMatrix:
    """Gauss-Jordan inverse over a number field."""
    n = m.n
    zero, one = m.field.zero, m.field.one
    a = [list(row) for row in m.rows]
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pinv = one / a[col][col]
        a[col] = [x * pinv for x in a[col]]
        inv[col] = [x * pinv for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return SqMatrix(inv, m.field)


# -- characteristic polynomial -------------------------------------------


def charpoly(m: SqMatrix) -> Poly:
    """Monic characteristic polynomial det(xI - m), exact, over Q.

    Division-free Berkowitz on the integer rows A = den m; since
    det(xI - A) = den^n det((x/den) I - m), the coefficient of x^k is
    rescaled as c_k(m) = c_k(A) / den^(n-k).  The result is kept on m (which
    is immutable), so every analysis of the same matrix shares one
    computation.
    """
    if m.field is not None:
        raise DimensionMismatch("charpoly is defined over Q; embed_regular first")
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


def embed_regular(m: SqMatrix) -> SqMatrix:
    """Replace each Q(alpha) entry by its d x d regular representation.

    The output is an (n*d) x (n*d) rational matrix whose characteristic
    polynomial is the product of all embeddings of charpoly(m); requires
    det(m) = 1 so the output is again in SL.
    """
    if m.det() != 1:
        raise DeterminantNotOne(det=m.det())
    if m.field is None:
        return m
    d = m.field.degree
    n = m.n
    big = [[Fraction(0)] * (n * d) for _ in range(n * d)]
    for i in range(n):
        for j in range(n):
            block = m._field_rows[i][j].regular_matrix()
            for bi in range(d):
                for bj in range(d):
                    big[i * d + bi][j * d + bj] = block[bi][bj]
    return SqMatrix(big)


# -- kernels ----------------------------------------------------------------


def kernel_basis(m: SqMatrix) -> list[list[Fraction]]:
    """Exact null-space basis of a rational matrix.

    Fraction-free Bareiss forward elimination on the integer rows num (the
    denominator does not change the kernel), then rational
    back-substitution; one basis vector per free column, deterministic
    order.
    """
    if m.field is not None:
        raise DimensionMismatch("kernel_basis is defined over Q")
    n = m.n
    a = [list(r) for r in m.num]

    pivots: list[tuple[int, int]] = []  # (row, col)
    prev = 1
    piv_row = 0
    for col in range(n):
        sel = None
        for r in range(piv_row, n):
            if a[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        a[piv_row], a[sel] = a[sel], a[piv_row]
        for r in range(piv_row + 1, n):
            for c in range(col + 1, n):
                num = a[r][c] * a[piv_row][col] - a[r][col] * a[piv_row][c]
                q, rem = divmod(num, prev)
                assert rem == 0, "Bareiss division not exact"
                a[r][c] = q
            a[r][col] = 0
        prev = a[piv_row][col]
        pivots.append((piv_row, col))
        piv_row += 1
        if piv_row == n:
            break
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, c in reversed(pivots):
            s = Fraction(0)
            for j in range(c + 1, n):
                if a[r][j]:
                    s += Fraction(a[r][j]) * vec[j]
            vec[c] = -s / a[r][c]
        basis.append(vec)
    return basis


def poly_at_matrix(p: Poly, m: SqMatrix) -> SqMatrix:
    """Exact Horner evaluation of p at a matrix."""
    n = m.n
    acc = SqMatrix.identity(n, m.field).scale(0)
    for c in reversed(p.coeffs):
        acc = acc * m + SqMatrix.identity(n, m.field).scale(c)
    return acc


# -- element predicates ------------------------------------------------------


def is_unipotent(m: SqMatrix) -> bool:
    """True iff charpoly(m) = (x - 1)^n exactly."""
    return charpoly(m) == Poly([-1, 1]) ** m.n


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


def finite_order(m: SqMatrix, bound: int | None = None) -> int | None:
    """Smallest k <= bound with m^k = I, else None; default bound from the
    Euler-totient degree bound on roots of unity."""
    if bound is None:
        bound = order_bound(m.n)
    power = m
    for k in range(1, bound + 1):
        if power.is_identity():
            return k
        power = power * m
    return None


# -- simultaneous block decomposition ---------------------------------------


@dataclass(frozen=True)
class BlockDecomposition:
    """conjugator C (det 1) with C^-1 g C block-diagonal for every input g.

    blocks[l] is (size, per-generator block matrices); block_charpolys[l][k]
    is a power of a single Q-irreducible for every generator k.
    """

    conjugator: SqMatrix
    blocks: tuple[tuple[int, tuple[SqMatrix, ...]], ...]
    block_charpolys: tuple[tuple[Poly, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(size for size, _ in self.blocks)

    def reassemble(self, k: int) -> SqMatrix:
        """C * diag(blocks of generator k) * C^-1."""
        n = self.conjugator.n
        den = math.lcm(1, *(mats[k].den for _, mats in self.blocks))
        big = [[0] * n for _ in range(n)]
        off = 0
        for size, mats in self.blocks:
            b = mats[k]
            s = den // b.den
            for i, row in enumerate(b.num):
                big[off + i][off : off + size] = [s * x for x in row]
            off += size
        return SqMatrix._over(tuple(map(tuple, big)), den).conjugate_by(self.conjugator)


def _find_split(gens: list[SqMatrix]) -> tuple[SqMatrix, list[tuple[Poly, int]]] | None:
    """First generator whose charpoly has >= 2 coprime irreducible-power
    parts, with that factorization; None if every generator is primary."""
    for g in gens:
        factors = factor_q(charpoly(g))
        if len(factors) >= 2:
            return g, factors
    return None


def _columns_to_matrix(cols: list[list[Fraction]]) -> SqMatrix:
    n = len(cols)
    return SqMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


def _split_recursive(gens: list[SqMatrix]) -> list[tuple[list[list[Fraction]], list[SqMatrix]]]:
    """Return [(basis columns in the ambient space, restricted generators)]
    with every restricted generator primary (single irreducible factor)."""
    n = gens[0].n
    split = _find_split(gens)
    if split is None:
        identity_cols = [[Fraction(1 if i == j else 0) for i in range(n)] for j in range(n)]
        return [(identity_cols, gens)]
    g, factors = split
    subspaces: list[list[list[Fraction]]] = []
    for q, e in factors:
        power = poly_at_matrix(q, g) ** e
        subspaces.append(kernel_basis(power))
    assert sum(len(b) for b in subspaces) == n, "primary components do not span"
    cols = [v for basis in subspaces for v in basis]
    c_level = _columns_to_matrix(cols)
    c_inv = c_level.inverse()
    out: list[tuple[list[list[Fraction]], list[SqMatrix]]] = []
    offset = 0
    transformed = [c_inv * h * c_level for h in gens]
    for basis in subspaces:
        size = len(basis)
        idx = list(range(offset, offset + size))
        sub_gens = []
        for t in transformed:
            # commuting generators preserve each primary component, so the
            # off-block entries must vanish identically
            for i in idx:
                for j in range(n):
                    if j not in idx and t.num[i][j] != 0:
                        raise AssertionError("generator does not preserve a primary component")
            sub_gens.append(t.submatrix(idx))
        for sub_cols, sub_g in _split_recursive(sub_gens):
            # lift the nested basis back through this level's columns
            lifted = []
            for v in sub_cols:
                w = [Fraction(0)] * n
                for local_i, coef in enumerate(v):
                    if coef:
                        col = cols[offset + local_i]
                        for r in range(n):
                            w[r] += coef * col[r]
                lifted.append(w)
            out.append((lifted, sub_g))
        offset += size
    return out


def block_decompose(gens_named: list[tuple[str, SqMatrix]] | list[SqMatrix]) -> BlockDecomposition:
    """Simultaneous block decomposition of a pairwise-commuting family.

    Output blocks are sorted by (size, lexicographic block charpolys); the
    conjugator has determinant exactly 1 (a diagonal correction inside the
    first block absorbs the scaling).
    """
    if gens_named and isinstance(gens_named[0], tuple):
        names = [nm for nm, _ in gens_named]
        gens = [g for _, g in gens_named]
    else:
        names = [str(i) for i in range(len(gens_named))]
        gens = list(gens_named)
    if not gens:
        raise ValueError("empty generator list")
    n = gens[0].n
    for g in gens:
        if g.field is not None:
            raise DimensionMismatch("block_decompose is defined over Q; embed_regular first")
        if g.n != n:
            raise DimensionMismatch("generators of different dimensions")
    for (i, a), (j, b) in itertools.combinations(enumerate(gens), 2):
        if not a.commutes_with(b):
            raise NotCommuting(names[i], names[j], a * b - b * a)

    pieces = _split_recursive(gens)
    keyed = []
    for cols, sub_gens in pieces:
        cps = tuple(charpoly(sg) for sg in sub_gens)
        keyed.append((len(cols), tuple(cp.coeffs for cp in cps), cols, sub_gens, cps))
    keyed.sort(key=lambda t: (t[0], t[1]))

    all_cols = [v for _, _, cols, _, _ in keyed for v in cols]
    conj = _columns_to_matrix(all_cols)
    delta = conj.det()
    if delta != 1:
        # scale the first basis column; it lives inside the first block, so
        # block structure and block charpolys are unchanged
        fixed = [list(v) for v in all_cols]
        fixed[0] = [x / delta for x in fixed[0]]
        conj = _columns_to_matrix(fixed)
        assert conj.det() == 1
    c_inv = conj.inverse()
    blocks = []
    charpolys = []
    offset = 0
    transformed = [c_inv * g * conj for g in gens]
    for size, _, _, _, cps in keyed:
        idx = list(range(offset, offset + size))
        mats = tuple(t.submatrix(idx) for t in transformed)
        blocks.append((size, mats))
        charpolys.append(cps)
        offset += size
    for t in transformed:
        _assert_block_diagonal(t, [size for size, _ in blocks])
    decomp = BlockDecomposition(
        conjugator=conj,
        blocks=tuple(blocks),
        block_charpolys=tuple(charpolys),
    )
    for k, g in enumerate(gens):
        assert decomp.reassemble(k) == g
    return decomp


def _assert_block_diagonal(m: SqMatrix, sizes: list[int]):
    offset = 0
    spans = []
    for s in sizes:
        spans.append((offset, offset + s))
        offset += s
    for (a0, a1) in spans:
        for i in range(a0, a1):
            for j in range(m.n):
                if not (a0 <= j < a1) and m.num[i][j] != 0:
                    raise AssertionError("conjugated generator is not block diagonal")
