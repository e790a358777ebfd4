"""Commuting families over Q: the exact pairwise commutation check,
rational kernels, and the simultaneous block decomposition of a commuting
family into primary components.

Only flat, decompose and graph run this code, so it is kept out of linalg,
which every command loads; linalg re-exports these names lazily.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, NotCommuting
from .exact.poly import Poly, factor_q
from .linalg import SqMatrix, charpoly, poly_at_matrix

__all__ = [
    "kernel_basis",
    "CommutationWitness",
    "verify_commuting",
    "BlockDecomposition",
    "block_decompose",
]


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
