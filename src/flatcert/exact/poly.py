"""Dense univariate polynomials over Q with exact Fraction coefficients.

Coefficients are stored lowest degree first, matching the wire format used
by the CLI.  Everything here is immutable and exact; the only floating
point in the package lives in the root isolator and in archimedean drift.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import NotIrreducible, NotMonic

__all__ = [
    "Poly",
    "poly_gcd",
    "squarefree_part",
    "squarefree_decomposition",
    "factor_q",
    "cyclotomic",
    "cyclotomic_index",
]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


class Poly:
    """Polynomial over Q; ``Poly([a0, a1, ...])`` is a0 + a1*x + ..."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @classmethod
    def x_power(cls, k: int, coeff=1) -> "Poly":
        return cls([0] * k + [coeff])

    @classmethod
    def x_minus(cls, a) -> "Poly":
        return cls([-_frac(a), 1])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact division with remainder over Q."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        if len(rem) <= d:
            return Poly(), Poly(rem)
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] / lead
            quot[i - d] = c
            if c:
                for j in range(d + 1):
                    rem[i - d + j] -= c * other.coeffs[j]
        return Poly(quot), Poly(rem[:d])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero()

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return Poly([c / self.coeffs[-1] for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation; works for Fraction, float and complex points."""
        acc = None
        for c in reversed(self.coeffs):
            if acc is None:
                acc = c if not isinstance(x, complex) else complex(c)
            else:
                acc = acc * x + (c if not isinstance(x, complex) else complex(c))
        if acc is None:
            return 0 * x
        return acc

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    def integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), made monic.

    Annihilates a matrix iff the matrix is diagonalizable over C when p is
    its characteristic polynomial.
    """
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: returns [(q, m)] with p = lead * prod q^m, q monic
    squarefree and pairwise coprime."""
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    out = []
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    w = p // g
    m = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        factor = w // y
        if factor.degree > 0:
            out.append((factor.monic(), m))
        w = y
        g = g // y
        m += 1
    assert g.degree == 0, "multiplicity parts not exhausted"
    return out


def factor_q(p: Poly) -> list[tuple[Poly, int]]:
    """Irreducible factorization over Q as [(monic factor, multiplicity)].

    Backed by sympy's rational factorizer (squarefree split, modular
    factorization, Hensel lifting); factors are re-normalized to monic and
    ordered by (degree, coefficient tuple) so output is deterministic.
    make_field and block_decompose factor; the drift only rarely does.
    sympy is imported here, on first use, as it takes a third of a second.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    import sympy

    x = sympy.Symbol("x")
    sp = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
        x,
        domain="QQ",
    )
    _, factors = sp.factor_list()
    out = []
    for f, mult in factors:
        coeffs = [Fraction(c.numerator, c.denominator) for c in reversed(f.all_coeffs())]
        out.append((Poly(coeffs).monic(), int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


_cyclotomic_cache: dict[int, Poly] = {}


def cyclotomic(k: int) -> Poly:
    """k-th cyclotomic polynomial, computed by exact division of x^k - 1."""
    if k < 1:
        raise ValueError("cyclotomic index must be positive")
    cached = _cyclotomic_cache.get(k)
    if cached is not None:
        return cached
    num = Poly([-1] + [0] * (k - 1) + [1])  # x^k - 1
    for d in range(1, k):
        if k % d == 0:
            num = num // cyclotomic(d)
    _cyclotomic_cache[k] = num
    return num


def cyclotomic_index(q: Poly, bound: int) -> int | None:
    """Return k <= bound with q == cyclotomic(k), or None.

    Used to decide the root-of-unity (quasi-unipotent) branch exactly: a
    monic irreducible integer polynomial has all roots on the unit circle
    iff it is cyclotomic.
    """
    for k in range(1, bound + 1):
        phi = cyclotomic(k)
        if phi.degree == q.degree and phi == q:
            return k
    return None
