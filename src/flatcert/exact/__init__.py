"""Exact scalar substrate: rationals, number fields, polynomials,
factorization, root isolation, Newton polygons, integer factorization."""

from .integers import euler_phi, is_prime, padic_valuation, prime_factors
from .newton import newton_slopes
from .numberfield import make_field
from .poly import (
    Poly,
    cyclotomic,
    cyclotomic_index,
    factor_q,
    squarefree_decomposition,
    squarefree_part,
)
from .roots import RootCluster, complex_roots

__all__ = [
    "Poly",
    "squarefree_part",
    "squarefree_decomposition",
    "factor_q",
    "cyclotomic",
    "cyclotomic_index",
    "make_field",
    "newton_slopes",
    "RootCluster",
    "complex_roots",
    "prime_factors",
    "is_prime",
    "padic_valuation",
    "euler_phi",
]
