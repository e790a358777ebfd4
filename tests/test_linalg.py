"""Exact matrix algebra: charpoly against two oracles, embedding, kernels,
predicates, word evaluation."""

import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcert import (
    Poly,
    SqMatrix,
    charpoly,
    embed_regular,
    finite_order,
    is_diagonalizable,
    is_unipotent,
    kernel_basis,
    make_field,
    word_eval,
)
from flatcert.errors import DeterminantNotOne, UnknownGenerator
from flatcert.exact.roots import complex_roots
from flatcert.linalg import _det_bareiss, regular_matrix

from conftest import (
    charpoly_faddeev_leverrier,
    charpoly_interpolation,
    det1_corpus,
    det_grid,
    expand_roots,
    identity_grid,
    inverse_grid,
    mul_grid,
    unimodular,
)


def test_charpoly_examples():
    assert charpoly(SqMatrix.identity(2)) == Poly([-1, 1]) ** 2
    assert charpoly(SqMatrix.diagonal([2, F(1, 2)])) == Poly([1, F(-5, 2), 1])
    # trace 3, det 1
    assert charpoly(SqMatrix([[2, 1], [1, 1]])) == Poly([1, -3, 1])


def test_charpoly_empty_and_scalar():
    assert charpoly(SqMatrix([])) == Poly([1])
    assert charpoly(SqMatrix([[F(-3, 7)]])) == Poly([F(3, 7), 1])
    assert charpoly(SqMatrix([[0]])) == Poly([0, 1])


_ENTRIES = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 6, 9, 12]))


@st.composite
def _rational_matrices(draw):
    n = draw(st.integers(0, 8))
    return SqMatrix([[draw(_ENTRIES) for _ in range(n)] for _ in range(n)])


@settings(max_examples=60, deadline=None)
@given(_rational_matrices())
def test_charpoly_matches_both_oracles(m):
    cp = charpoly(m)
    assert cp == charpoly_faddeev_leverrier(m)
    assert cp == charpoly_interpolation(m)


def _assert_canonical(m: SqMatrix):
    """Integer row tuples over one positive denominator, gcd 1 overall."""
    assert isinstance(m.num, tuple) and all(isinstance(r, tuple) for r in m.num)
    assert all(type(x) is int for r in m.num for x in r)
    assert type(m.den) is int and m.den > 0
    assert math.gcd(m.den, *(x for r in m.num for x in r)) == 1
    assert m == SqMatrix(m.rows) and hash(m) == hash(SqMatrix(m.rows))


def _grid_power(rows, k: int):
    base = inverse_grid(rows) if k < 0 else rows
    out = identity_grid(len(rows))
    for _ in range(abs(k)):
        out = mul_grid(out, base)
    return out


def _grid(rows):
    return tuple(tuple(F(x) for x in r) for r in rows)


@st.composite
def _grid_cases(draw):
    """Two Fraction grids with mixed denominators, n in 0..6; the first may
    be the identity, singular or a scalar 1/c (whose integer rows are those
    of the identity), and the second may equal the first."""
    n = draw(st.integers(0, 6))
    a = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    b = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["random", "identity", "scalar", "singular", "equal"]))
    if shape == "identity":
        a = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    elif shape == "scalar":
        c = draw(st.integers(2, 5))
        a = [[F(int(i == j), c) for j in range(n)] for i in range(n)]
        b = identity_grid(n)
    elif shape == "singular" and n:
        a[-1] = [sum(col[:-1], F(0)) for col in zip(*a)]
    elif shape == "equal":
        # same entries, given as ints where integral
        b = [[int(x) if x.denominator == 1 else x for x in r] for r in a]
    return a, b, draw(st.integers(-3, 3))


@settings(max_examples=120, deadline=None)
@given(_grid_cases())
def test_integer_rows_match_fraction_grid_oracles(case):
    a_rows, b_rows, k = case
    a, b = SqMatrix(a_rows), SqMatrix(b_rows)
    n = a.n
    for m in (a, b):
        _assert_canonical(m)
    assert a.rows == _grid(a_rows) and b.rows == _grid(b_rows)

    prod = a * b
    _assert_canonical(prod)
    assert prod.rows == _grid(mul_grid(a_rows, b_rows))

    d = det_grid(a_rows)
    assert a.det() == d
    if d:
        inv = a.inverse()
        _assert_canonical(inv)
        assert inv.rows == _grid(inverse_grid(a_rows))
        assert (a * inv).is_identity()
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        k = abs(k)
    power = a**k
    _assert_canonical(power)
    assert power.rows == _grid(_grid_power(a_rows, k))

    assert a.is_identity() == (_grid(a_rows) == _grid(identity_grid(n)))
    assert (a == b) == (_grid(a_rows) == _grid(b_rows))
    if a == b:
        assert hash(a) == hash(b)


def test_charpoly_two_methods_agree():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        m = SqMatrix([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        assert charpoly(m) == charpoly_interpolation(m)


def test_charpoly_conjugation_invariant():
    rng = random.Random(13)
    for m in det1_corpus(101, 30, sizes=(2, 3)):
        c = unimodular(rng, m.n)
        assert charpoly(m.conjugate_by(c)) == charpoly(m)


def test_charpoly_triangular_is_diagonal_product():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        rows = [
            [
                F(rng.randint(-3, 3), rng.randint(1, 2)) if j > i else F(0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        for i in range(n):
            rows[i][i] = F(rng.choice([1, 2, 3, -1]), rng.choice([1, 2]))
        m = SqMatrix(rows)
        expected = Poly([1])
        for i in range(n):
            expected = expected * Poly([-rows[i][i], 1])
        assert charpoly(m) == expected


def test_embed_regular_examples():
    # over Q the embedding is the identity operation
    m = [[1, 1], [0, 1]]
    assert embed_regular(m) == SqMatrix(m)
    f = make_field(Poly([-2, 0, 1]))
    r2, zero, one = regular_matrix([0, 1], f), regular_matrix([], f), regular_matrix([1], f)
    big = embed_regular([[r2, zero], [zero, r2.inverse()]], f)
    assert big.n == 4
    assert big.det() == 1
    cp = charpoly(big)
    assert cp == Poly([1, 0, F(-5, 2), 0, 1])
    values = sorted(abs(z) for z, _ in expand_roots(complex_roots(cp)))
    import math

    expect = sorted([math.sqrt(2), math.sqrt(2), 1 / math.sqrt(2), 1 / math.sqrt(2)])
    for got, want in zip(values, expect):
        assert abs(got - want) < 1e-9
    ident = embed_regular([[one, zero], [zero, one]], f)
    assert ident == SqMatrix.identity(4)


# (field, traces of 1, alpha, alpha^2, ...): the traces are the power sums
# of the minimal polynomial's roots, from Newton's identities
_TRACED_FIELDS = [
    (make_field(Poly([-2, 0, 1])), (2, 0)),  # sqrt2
    (make_field(Poly([2, -1, 0, 1])), (3, 0, 2)),  # x^3 - x + 2
]


@st.composite
def _det1_grid_pairs(draw):
    """A field and two det-1 grids [[x, y], [z, (1 + yz)/x]] of regular
    blocks over it."""
    f, traces = draw(st.sampled_from(_TRACED_FIELDS))
    coords = st.lists(st.integers(-3, 3), min_size=f.degree, max_size=f.degree)
    one = SqMatrix.identity(f.degree)
    grids = []
    for _ in range(2):
        x = regular_matrix(draw(coords.filter(any)), f)
        y, z = regular_matrix(draw(coords), f), regular_matrix(draw(coords), f)
        grids.append([[x, y], [z, (y * z + one) * x.inverse()]])
    return f, traces, grids


@settings(max_examples=60, deadline=None)
@given(_det1_grid_pairs())
def test_embed_regular_is_a_ring_map(case):
    f, traces, (a, b) = case

    def mul(p, q):
        return [[p[i][0] * q[0][j] + p[i][1] * q[1][j] for j in range(2)] for i in range(2)]

    def inv(p):  # det 1: the adjugate
        return [[p[1][1], p[0][1].scale(-1)], [p[1][0].scale(-1), p[0][0]]]

    big_a, big_b = embed_regular(a, f), embed_regular(b, f)
    # the det 1 an embedded matrix is born with is the one elimination finds
    assert big_a.det() == 1 and _det_bareiss(big_a.num) == big_a.den**big_a.n
    assert embed_regular(mul(a, b), f) == big_a * big_b
    assert embed_regular(inv(a), f) == big_a.inverse()
    tr = a[0][0] + a[1][1]  # the first column holds its coordinates
    assert big_a.trace() == sum(tr[i, 0] * t for i, t in enumerate(traces))


def test_embed_regular_rejects_det_not_one():
    f = make_field(Poly([-2, 0, 1]))
    r2, zero, one = regular_matrix([0, 1], f), regular_matrix([], f), regular_matrix([1], f)
    with pytest.raises(DeterminantNotOne):
        embed_regular([[r2, zero], [zero, one]], f)


def test_embed_regular_rejects_det_of_norm_one():
    # 3 + 2 sqrt2 is a unit of norm 1: the embedded determinant is 1, so
    # only the determinant in the field tells that det != 1
    f = make_field(Poly([-2, 0, 1]))
    unit, zero, one = regular_matrix([3, 2], f), regular_matrix([], f), regular_matrix([1], f)
    assert unit.det() == 1
    with pytest.raises(DeterminantNotOne) as exc:
        embed_regular([[unit, zero], [zero, one]], f)
    assert str(exc.value.det) == "[3, 2]"


def test_embed_charpoly_is_product_of_embeddings():
    # sigma flips the sign of sqrt2: the embedded charpoly factors as
    # sigma_1(chi) * sigma_2(chi), checked on diagonal examples
    f = make_field(Poly([-2, 0, 1]))
    rng = random.Random(59)
    for _ in range(10):
        a = F(rng.randint(1, 3))
        b = F(rng.randint(0, 2))
        if not (a or b):
            continue
        lam, zero = regular_matrix([a, b], f), regular_matrix([], f)
        cp = charpoly(embed_regular([[lam, zero], [zero, lam.inverse()]], f))
        # build sigma_j(chi) numerically and compare root multisets
        import math

        r2 = math.sqrt(2)
        roots = []
        for s in (r2, -r2):
            lam_s = float(a) + float(b) * s
            roots.extend([lam_s, 1.0 / lam_s])
        got = sorted(z.real for z, _ in expand_roots(complex_roots(cp)))
        assert all(abs(z.imag) < 1e-9 for z, _ in expand_roots(complex_roots(cp)))
        for g, e in zip(got, sorted(roots)):
            assert abs(g - e) < 1e-8


def test_kernel_basis_examples():
    zero = SqMatrix([[0, 0], [0, 0]])
    assert kernel_basis(zero) == [[1, 0], [0, 1]]
    ones = SqMatrix([[1, 1], [1, 1]])
    basis = kernel_basis(ones)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != [0, 0]
    invertible = SqMatrix([[2, 1], [1, 1]])
    assert kernel_basis(invertible) == []


def test_kernel_vectors_annihilate():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.choice([3, 4, 5])
        rank = rng.randint(0, n - 1)
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rank)]
        # pad with dependent rows (one coefficient vector per row)
        full = list(rows)
        for _ in range(n - rank):
            if rank:
                cs = [rng.randint(-2, 2) for _ in range(rank)]
                full.append(
                    [sum(c * rows[k][j] for k, c in enumerate(cs)) for j in range(n)]
                )
            else:
                full.append([F(0)] * n)
        m = SqMatrix(full)
        basis = kernel_basis(m)
        assert len(basis) >= n - rank
        for v in basis:
            img = [sum(m.rows[i][j] * v[j] for j in range(n)) for i in range(n)]
            assert all(x == 0 for x in img)


def test_kernel_basis_matches_sympy_nullspace():
    # sympy normalizes as kernel_basis does: 1 at the vector's free column
    # and 0 at the other free columns, so the vectors must agree exactly
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(2, 6)
        rank = rng.randint(0, n - 1)

        def rand():
            return F(rng.randint(-4, 4), rng.randint(1, 3))

        left = [[rand() for _ in range(rank)] for _ in range(n)]
        right = [[rand() for _ in range(n)] for _ in range(rank)]
        rows = [[sum((r[k] * right[k][j] for k in range(rank)), F(0)) for j in range(n)]
                for r in left]
        oracle = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                               for r in rows])
        expect = [[F(int(x.p), int(x.q)) for x in v] for v in oracle.nullspace()]
        assert kernel_basis(SqMatrix(rows)) == expect

def test_is_unipotent():
    assert is_unipotent(SqMatrix([[1, 1], [0, 1]]))
    assert is_unipotent(SqMatrix.identity(3))
    assert not is_unipotent(SqMatrix.diagonal([2, F(1, 2)]))


def test_is_diagonalizable():
    assert not is_diagonalizable(SqMatrix([[1, 1], [0, 1]]))
    assert is_diagonalizable(SqMatrix.diagonal([2, F(1, 2)]))
    # companion matrix of x^2 + 1: squarefree charpoly annihilates
    assert is_diagonalizable(SqMatrix([[0, -1], [1, 0]]))


def test_unipotent_nontrivial_never_diagonalizable():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.choice([2, 3])
        rows = [[F(1) if i == j else (F(rng.randint(-2, 2)) if j > i else F(0)) for j in range(n)] for i in range(n)]
        m = SqMatrix(rows)
        if m.is_identity():
            assert is_diagonalizable(m)
        else:
            assert is_unipotent(m) and not is_diagonalizable(m)


def test_finite_order():
    assert finite_order(SqMatrix.identity(2)) == 1
    assert finite_order(SqMatrix([[0, -1], [1, 0]])) == 4
    # trace 3 > 2 forbids finite order in SL_2
    assert finite_order(SqMatrix([[2, 1], [1, 1]])) is None


def test_word_eval_examples():
    a = SqMatrix([[1, 1], [0, 1]])
    b = SqMatrix([[1, 0], [1, 1]])
    gens = {"a": a, "b": b}
    assert word_eval("a", gens) == a
    assert word_eval("a*a^-1", gens).is_identity()
    # hand multiplication: a^2 = [[1,2],[0,1]], then a^2 b = [[3,2],[1,1]]
    assert word_eval("a^2*b", gens) == SqMatrix([[3, 2], [1, 1]])
    with pytest.raises(UnknownGenerator):
        word_eval("c", gens)


def test_word_eval_inverse_words():
    rng = random.Random(67)
    a = SqMatrix([[1, 1], [0, 1]])
    b = SqMatrix([[1, 0], [1, 1]])
    gens = {"a": a, "b": b}
    for _ in range(20):
        letters = [rng.choice(["a", "b"]) + rng.choice(["", "^-1", "^2"]) for _ in range(rng.randint(1, 8))]
        w = "*".join(letters)
        inv = "*".join(
            l.replace("^-1", "") if "^-1" in l else (l.replace("^2", "^-2") if "^2" in l else l + "^-1")
            for l in reversed(letters)
        )
        assert word_eval(f"({w})*({inv})", gens).is_identity()
