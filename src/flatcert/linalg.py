"""Exact square-matrix algebra over Q.

A matrix is stored as integer rows ``num`` over one common denominator
``den`` > 0, normalized so that gcd(den, every entry) = 1.  The form is
canonical, so equality and hashing compare integers, and products, powers,
inverses and determinants run on integers with one gcd normalization per
result.  Inverses and determinants use fraction-free Bareiss elimination
(Bareiss, Math. Comp. 1968); characteristic polynomials use division-free
Berkowitz on ``num`` (the test suite cross-checks against Faddeev-LeVerrier
and determinant interpolation) and are kept on the matrix after the first
call; kernels come from Bareiss forward elimination.  A matrix over
Q(alpha) is only ever a grid of regular_matrix blocks, one per entry:
embed_regular decides its determinant in the field by elimination over
the commuting blocks, and tiles the blocks into one rational matrix.
Commuting families are checked pairwise (verify_commuting) and split into
blocks on which every generator's characteristic polynomial is a power of
a single Q-irreducible.
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
from .exact.numberfield import NumberField
from .exact.poly import Poly, factor_q

__all__ = [
    "SqMatrix",
    "charpoly",
    "embed_regular",
    "regular_matrix",
    "kernel_basis",
    "is_unipotent",
    "is_diagonalizable",
    "finite_order",
    "order_bound",
    "CommutationWitness",
    "verify_commuting",
    "BlockDecomposition",
    "block_decompose",
    "poly_at_matrix",
]


@functools.cache
def _identity_num(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class SqMatrix:
    """Immutable square rational matrix.

    The entries are num[i][j] / den: integer rows over one denominator
    den > 0 with gcd(den, every entry) = 1.  ``rows`` is the Fraction view;
    the characteristic polynomial is kept in a slot once computed.
    """

    __slots__ = ("n", "num", "den", "_charpoly")

    def __init__(self, rows):
        entries = [[Fraction(x) for x in r] for r in rows]
        n = len(entries)
        if any(len(r) != n for r in entries):
            raise DimensionMismatch("matrix is not square")
        den = math.lcm(1, *(x.denominator for r in entries for x in r))
        num = tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in entries)
        # den is the lcm of reduced denominators, so (num, den) is normalized
        self._set(num, den)

    def _set(self, num, den):
        """Fill every slot once; the charpoly slot starts empty."""
        for name, value in zip(self.__slots__, (len(num), num, den, None)):
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
        """Exact determinant: Bareiss on num, over den^n."""
        return Fraction(_det_bareiss(self.num), self.den**self.n)

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


def regular_matrix(coords, field: NumberField) -> SqMatrix:
    """The d x d rational matrix of multiplication by the element of
    Q(alpha) with power-basis coordinates coords (at most d of them).

    It is sum_i coords[i] C^i for C the companion matrix of the minpoly:
    column j holds the coordinates of the element times alpha^j, so the
    first column is coords itself.  These matrices form a field isomorphic
    to Q(alpha); they commute, and every nonzero one is invertible.
    """
    d, m = field.degree, field.minpoly.coeffs
    col = [Fraction(c) for c in coords] + [Fraction(0)] * (d - len(coords))
    cols = [col]
    for _ in range(d - 1):
        # times alpha: shift up, and reduce alpha^d = -(m_0 + ... + m_(d-1) alpha^(d-1))
        top = col[-1]
        col = [-top * m[0]] + [c - top * mi for c, mi in zip(col, m[1:d])]
        cols.append(col)
    return SqMatrix(list(zip(*cols)))


def embed_regular(rows, field: NumberField | None = None) -> SqMatrix:
    """The rational SL matrix of a det-1 entry grid.

    Over Q (field None) the entries are rationals and the result is
    SqMatrix(rows).  Over Q(alpha) they are regular_matrix blocks, and the
    output is the (n*d) x (n*d) rational matrix they tile, whose
    characteristic polynomial is the product of all embeddings of the field
    charpoly.  det = 1 is checked exactly before embedding, in the field,
    by _block_det: the embedded determinant is only the norm of the field
    determinant, which can be 1 when det is not.
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
    return SqMatrix._over(
        tuple(
            tuple(x * (den // b.den) for b in brow for x in b.num[i])
            for brow in rows
            for i in range(d)
        ),
        den,
    )


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


# -- kernels ----------------------------------------------------------------


def kernel_basis(m: SqMatrix) -> list[list[Fraction]]:
    """Exact null-space basis of a rational matrix.

    Fraction-free Bareiss forward elimination on the integer rows num (the
    denominator does not change the kernel), then rational
    back-substitution; one basis vector per free column, deterministic
    order.
    """
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
    acc = SqMatrix.identity(n).scale(0)
    for c in reversed(p.coeffs):
        acc = acc * m + SqMatrix.identity(n).scale(c)
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


# -- commuting families ------------------------------------------------------


@dataclass(frozen=True)
class CommutationWitness:
    """A pair that does not commute, with its group commutator ab(ba)^-1."""

    i: str
    j: str
    commutator: SqMatrix


def verify_commuting(named_gens: list[tuple[str, SqMatrix]]) -> CommutationWitness | None:
    """Exact pairwise commutation check; None when all pairs commute."""
    for (ni, a), (nj, b) in itertools.combinations(named_gens, 2):
        ab, ba = a * b, b * a
        if ab != ba:
            return CommutationWitness(ni, nj, ab * ba.inverse())
    return None


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


def block_decompose(gens_named: list[tuple[str, SqMatrix]]) -> BlockDecomposition:
    """Simultaneous block decomposition of a pairwise-commuting family of
    (name, matrix) pairs.

    Output blocks are sorted by (size, lexicographic block charpolys); the
    conjugator has determinant exactly 1 (a diagonal correction inside the
    first block absorbs the scaling).
    """
    gens = [g for _, g in gens_named]
    if not gens:
        raise ValueError("empty generator list")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise DimensionMismatch("generators of different dimensions")
    witness = verify_commuting(gens_named)
    if witness is not None:
        raise NotCommuting(witness.i, witness.j, witness.commutator)

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
