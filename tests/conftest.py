"""Shared corpus builders; everything seeded so runs are reproducible."""

import math
import random
from fractions import Fraction as F

import numpy as np
import sympy

from flatcert import Poly, SqMatrix, charpoly
from flatcert.exact import RootCluster, complex_roots, cyclotomic_index
from flatcert.linalg import order_bound

DET1_ENTRIES = [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)]


def random_det1(rng: random.Random, sizes=(2, 3, 4), entries=DET1_ENTRIES) -> SqMatrix:
    while True:
        n = rng.choice(sizes)
        m = SqMatrix([[rng.choice(entries) for _ in range(n)] for _ in range(n)])
        if m.det() == 1:
            return m


def is_unipotent(m: SqMatrix) -> bool:
    """True iff charpoly(m) = (x - 1)^n exactly: the oracle for a unipotent
    image, which the program decides through its cyclotomic split."""
    return charpoly(m) == Poly([-1, 1]) ** m.n


def det1_corpus(seed: int, count: int, sizes=(2, 3, 4)) -> list[SqMatrix]:
    rng = random.Random(seed)
    return [random_det1(rng, sizes) for _ in range(count)]


def unimodular(rng: random.Random, n: int, steps: int = 6) -> SqMatrix:
    """Product of integer elementary row additions: det exactly 1."""
    rows = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            rows[i][k] += c * rows[j][k]
    return SqMatrix(rows)


def unimodular_2x2(rng: random.Random, steps: int = 4) -> tuple[tuple[int, int], tuple[int, int]]:
    u = [[1, 0], [0, 1]]
    for _ in range(steps):
        c = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.5:
            u[0][0] += c * u[1][0]
            u[0][1] += c * u[1][1]
        else:
            u[1][0] += c * u[0][0]
            u[1][1] += c * u[0][1]
    return ((u[0][0], u[0][1]), (u[1][0], u[1][1]))


def random_diag_23(rng: random.Random, n: int, exp_range=(-1, 1)) -> SqMatrix:
    """Diagonal det-1 matrix with entries 2^a 3^b; the last entry closes the
    product, so its exponents stay within (n-1) times the per-entry range."""
    lo, hi = exp_range
    diag = []
    ta = tb = 0
    for _ in range(n - 1):
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        ta += a
        tb += b
        diag.append(F(2) ** a * F(3) ** b)
    diag.append(F(2) ** (-ta) * F(3) ** (-tb))
    return SqMatrix.diagonal(diag)


# -- Poly sums and scalar multiples, which the program never forms ----------


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a.coeffs), len(b.coeffs))
    return Poly([a[i] + b[i] for i in range(n)])


def poly_scale(p: Poly, c) -> Poly:
    return Poly([x * c for x in p.coeffs])


def expand_roots(clusters: list[RootCluster]) -> list[tuple[complex, float]]:
    """Flatten root clusters to a multiset of (approximation, bound) pairs."""
    out = []
    for c in clusters:
        out.extend([(c.value, c.bound)] * c.multiplicity)
    return out


# -- Fraction-grid oracles, independent of SqMatrix's integer rows ---------
# Matrices here are lists of Fraction rows: the storage SqMatrix used before
# it kept integer rows over one denominator.


def identity_grid(n: int) -> list[list[F]]:
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def mul_grid(a, b) -> list[list[F]]:
    """Schoolbook product over Fraction, skipping zero left entries."""
    n = len(a)
    bt = list(zip(*b))
    out = []
    for i in range(n):
        row_i = a[i]
        out_row = []
        for j in range(n):
            col_j = bt[j]
            acc = F(0)
            for k in range(n):
                if row_i[k] != 0:
                    acc = acc + row_i[k] * col_j[k]
            out_row.append(acc)
        out.append(out_row)
    return out


def inverse_grid(rows) -> list[list[F]]:
    """Gauss-Jordan inverse over Fraction; ZeroDivisionError if singular."""
    n = len(rows)
    a = [[F(x) for x in row] for row in rows]
    inv = identity_grid(n)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pinv = F(1) / a[col][col]
        a[col] = [x * pinv for x in a[col]]
        inv[col] = [x * pinv for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def det_grid(rows) -> F:
    """Bareiss determinant after clearing the denominators of a Fraction
    grid."""
    n = len(rows)
    if n == 0:
        return F(1)
    denom = math.lcm(1, *(F(x).denominator for row in rows for x in row))
    a = [[int(F(x) * denom) for x in row] for row in rows]
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
                return F(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return F(sign * a[n - 1][n - 1], denom**n)


# -- characteristic polynomial oracles, independent of flatcert.charpoly ----


def charpoly_faddeev_leverrier(m: SqMatrix) -> Poly:
    """det(xI - m) by Faddeev-LeVerrier over Fraction grids: M_0 = I,
    c_{n-k} = -tr(m M_{k-1}) / k, M_k = m M_{k-1} + c_{n-k} I."""
    n = m.n
    rows = [list(r) for r in m.rows]
    coeffs = [F(0)] * (n + 1)
    coeffs[n] = F(1)
    mk = identity_grid(n)
    for k in range(1, n + 1):
        mmk = mul_grid(rows, mk)
        c = -sum(mmk[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        if k < n:
            mk = [[x + c if i == j else x for j, x in enumerate(r)] for i, r in enumerate(mmk)]
    return Poly(coeffs)


def charpoly_interpolation(m: SqMatrix) -> Poly:
    """det(xI - m) by exact determinants det(kI - m) at k = 0..n and
    Lagrange interpolation."""
    n = m.n
    xs = list(range(n + 1))
    ys = [
        det_grid([[(k if i == j else 0) - x for j, x in enumerate(r)] for i, r in enumerate(m.rows)])
        for k in xs
    ]
    result = Poly()
    for i, xi in enumerate(xs):
        term = Poly([1])
        denom = F(1)
        for j, xj in enumerate(xs):
            if i != j:
                term = term * Poly([-xj, 1])
                denom *= xi - xj
        result = poly_add(result, poly_scale(term, ys[i] / denom))
    return result


# -- factorization oracle over Q, by sympy ----------------------------------
# sympy is a test dependency only; factor_q is flatcert's own
# Berlekamp-Zassenhaus, and the oracles below factor with sympy instead, so
# that they do not rest on the code they check.


def to_sympy(p: Poly) -> sympy.Poly:
    x = sympy.Symbol("x")
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x, domain="QQ"
    )


def from_sympy(f: sympy.Poly) -> Poly:
    return Poly([F(c.numerator, c.denominator) for c in reversed(f.all_coeffs())])


def sympy_factor(p: Poly) -> list[tuple[Poly, int]]:
    """factor_q's contract by sympy's factor_list: [(monic irreducible
    factor over Q, multiplicity)], sorted by (degree, coefficient tuple)."""
    out = [(from_sympy(f).monic(), int(m)) for f, m in to_sympy(p).factor_list()[1]]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q by sympy, independent of flatcert's integer
    remainder sequences."""
    return from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))).monic()


# -- quasi-unipotent order oracle, by factorization over Q -----------------


def quasi_unipotent_order_factor(cp: Poly, n: int) -> int | None:
    """lcm of the cyclotomic indices of the irreducible factors of cp (by
    sympy_factor), or None if some factor is not cyclotomic."""
    bound = order_bound(n)
    k0 = 1
    for q, _ in sympy_factor(cp):
        k = cyclotomic_index(q, bound)
        if k is None:
            return None
        k0 = math.lcm(k0, k)
    return k0


# -- archimedean drift oracle, by factorization over Q ---------------------


def arch_drift_factor(cp: Poly, tol: float) -> list[float]:
    """Sorted log-moduli of the roots of cp, split by sympy_factor:
    cyclotomic factors give exact 0.0 coordinates and the others go to
    complex_roots one factor at a time."""
    bound = order_bound(cp.degree)
    arch: list[float] = []
    for q, e in sympy_factor(cp):
        if cyclotomic_index(q, bound) is not None:
            arch.extend([0.0] * (q.degree * e))
            continue
        for cluster in complex_roots(q, tol):
            arch.extend([math.log(abs(cluster.value))] * (cluster.multiplicity * e))
    arch.sort(reverse=True)
    return arch


# -- gluing covariance oracle: the Gram transport G' = U^T G U ---------------


def congruence(g, u):
    """U^T G U for a 2x2 integer U; entries may be Fraction or float."""
    out = [[0, 0], [0, 0]]
    for i in range(2):
        for j in range(2):
            acc = 0
            for k in range(2):
                for l in range(2):
                    acc = acc + u[k][i] * g[k][l] * u[l][j]
            out[i][j] = acc
    return out


def gram_close(second, transported_nonarch, transported_arch) -> tuple[bool, float]:
    """(exact equality of the non-archimedean parts, worst relative error
    of the archimedean parts, relative to max(1, |a|, |b|))."""
    r = second.rank
    exact = all(
        second.nonarch[i][j] == transported_nonarch[i][j] for i in range(r) for j in range(r)
    )
    worst = 0.0
    for i in range(r):
        for j in range(r):
            a, b = second.arch[i][j], transported_arch[i][j]
            scale = max(1.0, abs(a), abs(b))
            worst = max(worst, abs(a - b) / scale)
    return exact, worst


# -- numpy oracle for the Gram decisions of flats ----------------------------
# Reference float decisions by eigvalsh and det, which the exact integer
# eliminations of flats are checked against; numpy is a test dependency only.


def numpy_lattice_decision(combined, pd_epsilon: float) -> tuple[bool, float, float, float]:
    """(Lattice?, smallest eigenvalue, trace, covolume) by eigvalsh, trace
    and sqrt(det) of the float combined Gram."""
    g = np.array(combined, dtype=float)
    trace = float(np.trace(g))
    min_eig = float(np.linalg.eigvalsh(g)[0])
    covolume = math.sqrt(max(float(np.linalg.det(g)), 0.0))
    return trace > 0 and min_eig > pd_epsilon * trace, min_eig, trace, covolume


def numpy_eigvalsh(combined) -> list[float]:
    """Ascending eigenvalues by eigvalsh."""
    return [float(x) for x in np.linalg.eigvalsh(np.array(combined, dtype=float))]
