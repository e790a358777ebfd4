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
    denominator does not change the kernel), then integer
    back-substitution; one basis vector per free column, 1 there and 0 at
    the other free columns, deterministic order.
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
        # by Cramer's rule the last pivot (the minor on the pivot rows and
        # columns) clears every denominator of the vector with 1 at fc, so
        # this integer back-substitution divides exactly
        vec = [0] * n
        vec[fc] = prev
        for r, c in reversed(pivots):
            vec[c] = -sum(a[r][j] * vec[j] for j in range(c + 1, n)) // a[r][c]
        basis.append([Fraction(x, prev) for x in vec])
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


def _columns_to_matrix(cols: list[list[Fraction]]) -> SqMatrix:
    n = len(cols)
    return SqMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


def _primary_pieces(gens: list[SqMatrix]) -> list[tuple[list[list[Fraction]], tuple[Poly, ...]]]:
    """[(basis columns in the ambient space, irreducible factor of each
    generator)] for the pieces on which every generator is primary.

    One pass over the generators: generator k splits every current piece
    into the kernels of q(g_k)^e, one per factor (q, e) of its restricted
    charpoly.  Commuting generators preserve those kernels, so a generator
    primary on a piece stays primary, with the same factor, on each subpiece.
    """
    n = gens[0].n
    identity = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    # (ambient columns, restricted generators, factors of the generators so far)
    pieces = [(identity, gens, ())]
    for k in range(len(gens)):
        split = []
        for cols, sub, qs in pieces:
            factors = factor_q(charpoly(sub[k]))
            if len(factors) == 1:
                split.append((cols, sub, qs + (factors[0][0],)))
                continue
            kernels = [kernel_basis(poly_at_matrix(q, sub[k]) ** e) for q, e in factors]
            sizes = [len(b) for b in kernels]
            assert sum(sizes) == len(cols), "primary components do not span"
            local = _columns_to_matrix([v for b in kernels for v in b])
            local_inv = local.inverse()
            transformed = [local_inv * h * local for h in sub]
            for t in transformed:
                _assert_block_diagonal(t, sizes)
            offset = 0
            for (q, _), basis in zip(factors, kernels):
                idx = list(range(offset, offset + len(basis)))
                lifted = []
                for v in basis:
                    terms = [(c, col) for c, col in zip(v, cols) if c]
                    lifted.append([sum(c * col[r] for c, col in terms) for r in range(n)])
                split.append((lifted, [t.submatrix(idx) for t in transformed], qs + (q,)))
                offset += len(basis)
        pieces = split
    return [(cols, qs) for cols, _, qs in pieces]


def block_decompose(gens_named: list[tuple[str, SqMatrix]]) -> BlockDecomposition:
    """Simultaneous block decomposition of a pairwise-commuting family of
    (name, matrix) pairs.

    Output blocks are sorted by (size, lexicographic block charpolys); the
    conjugator has determinant exactly 1 (a diagonal correction inside the
    first block absorbs the scaling).  Generator k is primary with factor q
    on a block of size s, so its block charpoly is q^(s / deg q).
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

    pieces = []
    for cols, qs in _primary_pieces(gens):
        size = len(cols)
        pieces.append((size, tuple(q ** (size // q.degree) for q in qs), cols))
    pieces.sort(key=lambda p: (p[0], tuple(cp.coeffs for cp in p[1])))

    all_cols = [v for _, _, cols in pieces for v in cols]
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
    sizes = [size for size, _, _ in pieces]
    transformed = [c_inv * g * conj for g in gens]
    for t in transformed:
        _assert_block_diagonal(t, sizes)
    blocks = []
    offset = 0
    for size in sizes:
        idx = list(range(offset, offset + size))
        blocks.append((size, tuple(t.submatrix(idx) for t in transformed)))
        offset += size
    decomp = BlockDecomposition(
        conjugator=conj,
        blocks=tuple(blocks),
        block_charpolys=tuple(cps for _, cps, _ in pieces),
    )
    for k, g in enumerate(gens):
        assert decomp.reassemble(k) == g
    return decomp


def _assert_block_diagonal(m: SqMatrix, sizes: list[int]):
    """Commuting generators preserve each primary component, so every entry
    off the diagonal blocks must vanish identically."""
    offset = 0
    for s in sizes:
        for row in m.num[offset : offset + s]:
            if any(row[:offset]) or any(row[offset + s :]):
                raise AssertionError("generator is not block diagonal")
        offset += s
