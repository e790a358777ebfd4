"""Exact square-matrix algebra over Q and Q(alpha).

Characteristic polynomials are computed by division-free Berkowitz on the
cleared-denominator integer matrix (the test suite cross-checks against
Faddeev-LeVerrier and determinant interpolation), kernels by
fraction-free Bareiss elimination, and commuting families are split into
blocks on which every generator's characteristic polynomial is a power of
a single Q-irreducible.
"""

from __future__ import annotations

import functools
import itertools
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


class SqMatrix:
    """Immutable square matrix; entries are Fractions (field=None) or
    FieldElements of a common number field."""

    __slots__ = ("n", "rows", "field")

    def __init__(self, rows, field: NumberField | None = None):
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix is not square")
        if field is None:
            for r in rows:
                for x in r:
                    if isinstance(x, FieldElement):
                        field = x.field
                        break
                if field is not None:
                    break
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "field", field)
        object.__setattr__(
            self, "rows", tuple(tuple(_as_scalar(x, field) for x in r) for r in rows)
        )

    def __setattr__(self, name, value):
        raise AttributeError("SqMatrix is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, n: int, field: NumberField | None = None) -> "SqMatrix":
        one, zero = (Fraction(1), Fraction(0)) if field is None else (field.one, field.zero)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], field)

    @classmethod
    def diagonal(cls, entries, field: NumberField | None = None) -> "SqMatrix":
        entries = list(entries)
        n = len(entries)
        zero = Fraction(0) if field is None else field.zero
        return cls(
            [[entries[i] if i == j else zero for j in range(n)] for i in range(n)], field
        )

    def _zero(self):
        return Fraction(0) if self.field is None else self.field.zero

    def _one(self):
        return Fraction(1) if self.field is None else self.field.one

    # -- basics ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SqMatrix)
            and self.n == other.n
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, self.field, self.rows))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def is_identity(self) -> bool:
        one, zero = self._one(), self._zero()
        return all(
            self.rows[i][j] == (one if i == j else zero)
            for i in range(self.n)
            for j in range(self.n)
        )

    def trace(self):
        t = self._zero()
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def __add__(self, other: "SqMatrix") -> "SqMatrix":
        self._check_compat(other)
        return SqMatrix(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ],
            self.field,
        )

    def __sub__(self, other: "SqMatrix") -> "SqMatrix":
        self._check_compat(other)
        return SqMatrix(
            [
                [self.rows[i][j] - other.rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ],
            self.field,
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
        return SqMatrix(
            [[c * self.rows[i][j] for j in range(self.n)] for i in range(self.n)],
            self.field,
        )

    def __mul__(self, other: "SqMatrix") -> "SqMatrix":
        self._check_compat(other)
        n = self.n
        zero = self._zero()
        bt = list(zip(*other.rows))
        out = []
        for i in range(n):
            row_i = self.rows[i]
            out_row = []
            for j in range(n):
                col_j = bt[j]
                acc = zero
                for k in range(n):
                    a = row_i[k]
                    if a != 0:
                        acc = acc + a * col_j[k]
                out_row.append(acc)
            out.append(out_row)
        return SqMatrix(out, self.field)

    def __pow__(self, k: int) -> "SqMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = SqMatrix.identity(self.n, self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def commutes_with(self, other: "SqMatrix") -> bool:
        return self * other == other * self

    def __repr__(self):
        return f"SqMatrix({[[str(x) for x in row] for row in self.rows]})"

    # -- elimination-based kernels: det, inverse, solve -------------------

    def det(self):
        """Exact determinant (Bareiss over Q, ordinary elimination over Q(alpha))."""
        if self.field is None:
            return _det_bareiss(self.rows)
        return _det_elimination(self)

    def inverse(self) -> "SqMatrix":
        """Exact inverse by Gauss-Jordan elimination."""
        n = self.n
        zero, one = self._zero(), self._one()
        a = [list(row) for row in self.rows]
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
            p = a[col][col]
            pinv = (one / p) if self.field is not None else Fraction(1) / p
            a[col] = [x * pinv for x in a[col]]
            inv[col] = [x * pinv for x in inv[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return SqMatrix(inv, self.field)

    def conjugate_by(self, c: "SqMatrix") -> "SqMatrix":
        """c * self * c^-1."""
        return c * self * c.inverse()

    def submatrix(self, idx: list[int]) -> "SqMatrix":
        return SqMatrix(
            [[self.rows[i][j] for j in idx] for i in idx], self.field
        )

    def denominator_lcm(self) -> int:
        """lcm of entry denominators (power-basis coordinates for Q(alpha))."""
        from math import lcm

        result = 1
        for row in self.rows:
            for x in row:
                if isinstance(x, FieldElement):
                    for c in x.coords:
                        result = lcm(result, c.denominator)
                else:
                    result = lcm(result, x.denominator)
        return result


def _det_bareiss(rows) -> Fraction:
    """Fraction-free Bareiss determinant after clearing denominators."""
    from math import lcm

    n = len(rows)
    if n == 0:
        return Fraction(1)
    denom = 1
    for row in rows:
        for x in row:
            denom = lcm(denom, x.denominator)
    a = [[int(x * denom) for x in row] for row in rows]
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
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], denom**n)


def _det_elimination(m: SqMatrix):
    """Plain Gaussian elimination determinant over a number field."""
    n = m.n
    a = [list(row) for row in m.rows]
    det = m._one()
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return m._zero()
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        p = a[col][col]
        det = det * p
        pinv = m._one() / p
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * pinv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


# -- characteristic polynomial -------------------------------------------


def charpoly(m: SqMatrix) -> Poly:
    """Monic characteristic polynomial det(xI - m), exact, over Q.

    Division-free Berkowitz on the integer matrix A = D m, D the lcm of the
    entry denominators; since det(xI - A) = D^n det((x/D) I - m), the
    coefficient of x^k is rescaled as c_k(m) = c_k(A) / D^(n-k).
    """
    if m.field is not None:
        raise DimensionMismatch("charpoly is defined over Q; embed_regular first")
    n = m.n
    d = m.denominator_lcm()
    a = [[x.numerator * (d // x.denominator) for x in row] for row in m.rows]
    p = _berkowitz(a)
    return Poly([Fraction(p[n - k], d ** (n - k)) for k in range(n + 1)])


def _berkowitz(a: list[list[int]]) -> list[int]:
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
            block = m.rows[i][j].regular_matrix()
            for bi in range(d):
                for bj in range(d):
                    big[i * d + bi][j * d + bj] = block[bi][bj]
    return SqMatrix(big)


# -- kernels ----------------------------------------------------------------


def kernel_basis(m: SqMatrix) -> list[list[Fraction]]:
    """Exact null-space basis of a rational matrix.

    Fraction-free Bareiss forward elimination on the cleared-denominator
    integer matrix, then rational back-substitution; one basis vector per
    free column, deterministic order.
    """
    if m.field is not None:
        raise DimensionMismatch("kernel_basis is defined over Q")
    from math import lcm

    n = m.n
    denom = 1
    for row in m.rows:
        for x in row:
            denom = lcm(denom, x.denominator)
    a = [[int(x * denom) for x in row] for row in m.rows]

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
    return _is_zero(poly_at_matrix(p, m))


def _is_zero(m: SqMatrix) -> bool:
    return all(x == 0 for row in m.rows for x in row)


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
        big = [[Fraction(0)] * n for _ in range(n)]
        off = 0
        for size, mats in self.blocks:
            b = mats[k]
            for i in range(size):
                for j in range(size):
                    big[off + i][off + j] = b.rows[i][j]
            off += size
        return SqMatrix(big).conjugate_by(self.conjugator)


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
                    if j not in idx and t.rows[i][j] != 0:
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
                if not (a0 <= j < a1) and m.rows[i][j] != 0:
                    raise AssertionError("conjugated generator is not block diagonal")
