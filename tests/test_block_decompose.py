"""Simultaneous block decomposition of commuting families."""

import random
from fractions import Fraction as F

import pytest

import flatcert.blocks
from flatcert import Poly, SqMatrix, charpoly, factor_q
from flatcert.errors import NotCommuting
from flatcert.linalg import block_decompose

from conftest import unimodular


def test_single_diagonal_splits_to_lines():
    d = block_decompose([("a", SqMatrix.diagonal([2, F(1, 2)]))])
    assert d.sizes == (1, 1)
    assert d.conjugator == SqMatrix.identity(2)
    assert d.conjugator.det() == 1


def test_unipotent_stays_single_block():
    d = block_decompose([("a", SqMatrix([[1, 1], [0, 1]]))])
    assert d.sizes == (2,)
    assert d.block_charpolys[0][0] == Poly([-1, 1]) ** 2


def test_equal_eigenvalues_group_together():
    g1 = SqMatrix.diagonal([2, 2, F(1, 4)])
    g2 = SqMatrix.diagonal([5, 5, F(1, 25)])
    d = block_decompose([("a", g1), ("b", g2)])
    assert sorted(d.sizes) == [1, 2]


def test_noncommuting_rejected():
    a = SqMatrix([[1, 1], [0, 1]])
    b = SqMatrix([[1, 0], [1, 1]])
    with pytest.raises(NotCommuting) as exc:
        block_decompose([("a", a), ("b", b)])
    assert {exc.value.i, exc.value.j} == {"a", "b"}
    assert not exc.value.commutator.is_identity()
    assert exc.value.commutator == a * b * (b * a).inverse()  # the group commutator


def _random_commuting_family(rng: random.Random):
    """Conjugated direct sum of parts; inside a part the generators are
    polynomials in a shared nilpotent, so they commute."""
    sizes = rng.choice([[2], [3], [1, 2], [2, 2], [1, 1, 2], [2, 3]])
    n = sum(sizes)
    n_gens = rng.randint(1, 3)
    lams = [F(2), F(1, 2), F(3), F(-1), F(5, 2), F(1)]
    gens_blocks = []
    for _ in range(n_gens):
        blocks = []
        for s in sizes:
            lam = rng.choice(lams)
            rows = [[lam if i == j else F(0) for j in range(s)] for i in range(s)]
            c = F(rng.randint(-2, 2))
            for i in range(s - 1):
                rows[i][i + 1] = c
            blocks.append(rows)
        big = [[F(0)] * n for _ in range(n)]
        off = 0
        for rows in blocks:
            s = len(rows)
            for i in range(s):
                for j in range(s):
                    big[off + i][off + j] = rows[i][j]
            off += s
        gens_blocks.append(SqMatrix(big))
    conj = unimodular(rng, n)
    return [(f"g{k}", g.conjugate_by(conj)) for k, g in enumerate(gens_blocks)]


def test_random_families_decompose_exactly():
    rng = random.Random(71)
    for _ in range(20):
        family = _random_commuting_family(rng)
        d = block_decompose(family)
        assert d.conjugator.det() == 1
        for k, (_, g) in enumerate(family):
            assert d.reassemble(k) == g
        for per_gen in d.block_charpolys:
            for cp in per_gen:
                assert len(factor_q(cp)) == 1
        # the split's block charpolys are those of the blocks themselves
        for (_, mats), per_gen in zip(d.blocks, d.block_charpolys):
            assert list(per_gen) == [charpoly(m) for m in mats]
        # product over blocks of block charpolys equals the full charpoly
        for k, (_, g) in enumerate(family):
            prod = Poly([1])
            for per_gen in d.block_charpolys:
                prod = prod * per_gen[k]
            assert prod == charpoly(g)


def test_blocks_sorted_by_size_then_charpoly():
    g = SqMatrix.diagonal([3, F(1, 2), 2, F(1, 3)])
    d = block_decompose([("a", g)])
    assert d.sizes == (1, 1, 1, 1)
    cps = [per_gen[0] for per_gen in d.block_charpolys]
    keys = [(cp.degree, cp.coeffs) for cp in cps]
    assert keys == sorted(keys)


def test_each_generator_factors_once_per_piece(monkeypatch):
    # a splits the space in two and b splits each half again: one factor_q
    # call for a on the whole space and one for b on each half
    calls = []

    def counting(p):
        calls.append(p)
        return factor_q(p)

    monkeypatch.setattr(flatcert.blocks, "factor_q", counting)
    a = SqMatrix.diagonal([2, 2, F(1, 2), F(1, 2)])
    b = SqMatrix.diagonal([3, F(1, 3), 3, F(1, 3)])
    conj = unimodular(random.Random(3), 4)
    d = block_decompose([("a", a.conjugate_by(conj)), ("b", b.conjugate_by(conj))])
    assert d.sizes == (1, 1, 1, 1)
    assert len(calls) == 3
