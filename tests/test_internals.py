"""Exact PSD check, LLL reduction, null-vector normalization, the serial
pmap, the names each module exports, and the layering of the exact
package."""

import ast
import importlib
import pkgutil
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import flatcert

from flatcert.flats import _integer_form, _lll, _pivots, _primitive
from flatcert.linalg import SqMatrix
from flatcert.parallel import pmap


def _psd_exact(rows) -> bool:
    return _pivots(_integer_form(rows)[0]) is not None


def test_psd_exact():
    assert _psd_exact(((F(2), F(0)), (F(0), F(2))))
    assert _psd_exact(((F(0), F(0)), (F(0), F(0))))
    # rank-1 PSD
    assert _psd_exact(((F(1), F(2)), (F(2), F(4))))
    # indefinite
    assert not _psd_exact(((F(1), F(2)), (F(2), F(1))))
    assert not _psd_exact(((F(-1), F(0)), (F(0), F(1))))
    # zero pivot with nonzero row is not PSD
    assert not _psd_exact(((F(0), F(1)), (F(1), F(0))))
    # rational entries are cleared to one integer matrix
    assert _psd_exact(((F(1, 3), F(1, 2)), (F(1, 2), F(3, 4))))
    assert not _psd_exact(((F(1, 3), F(1, 2)), (F(1, 2), F(2, 3))))


def test_pivots_are_leading_minors():
    assert _pivots([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == [2, 3, 4]
    # a zero pivot with a zero row is kept as 0 and dropped from later minors
    assert _pivots([[1, 0, 1], [0, 0, 0], [1, 0, 2]]) == [1, 0, 1]
    assert _pivots([[1, 0, 1], [0, 0, 0], [1, 0, 0]]) is None
    # float entries are exact integers over a power of two
    assert _integer_form(((0.5, 0.25), (0.25, 1.0))) == ([[2, 1], [1, 4]], 4)


def test_lll_returns_a_reduced_basis():
    """On random positive definite integer forms B^T B + I: a basis of Z^r
    (determinant +-1), size reduced (|mu| <= 1/2) and Lovasz reduced with
    delta = 3/4, by Gram-Schmidt computed here from scratch."""
    rng = random.Random(151)
    for _ in range(200):
        r = rng.randint(1, 4)
        b = [[rng.randint(-30, 30) for _ in range(r)] for _ in range(r)]
        form = [[sum(row[i] * row[j] for row in b) + (i == j) for j in range(r)] for i in range(r)]
        basis = _lll(form)
        assert SqMatrix(basis).det() in (1, -1)
        dots = [[sum(x * f * y for x, row in zip(u, form) for f, y in zip(row, v)) for v in basis]
                for u in basis]
        mu = [[F(0)] * r for _ in range(r)]
        norms = []
        for i in range(r):
            for j in range(i):
                dot = dots[i][j] - sum(mu[j][l] * mu[i][l] * norms[l] for l in range(j))
                mu[i][j] = dot / norms[j]
                assert abs(mu[i][j]) <= F(1, 2)
            norms.append(F(dots[i][i]) - sum(mu[i][l] ** 2 * norms[l] for l in range(i)))
            if i:
                assert norms[i] >= (F(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]


def test_primitive():
    assert _primitive([F(2, 3), F(-1, 3)]) == (2, -1)
    assert _primitive([F(0), F(0)]) is None
    assert _primitive([F(-4), F(2)]) == (2, -1)


def test_pmap_orders_results():
    assert pmap(lambda x: x * x, range(10)) == [x * x for x in range(10)]


def test_pmap_propagates_errors():
    def boom(x):
        if x == 3:
            raise ValueError("boom")
        return x

    import pytest

    with pytest.raises(ValueError):
        pmap(boom, range(6))


def test_every_exported_name_resolves():
    modules = [flatcert] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(flatcert.__path__, "flatcert.")
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert len(modules) > 10 and missing == []


def test_exact_imports_only_exact_errors_and_stdlib():
    """flatcert.exact is the bottom layer: linalg imports it, never the
    other way round, so a cycle shows here rather than at import time."""
    exact = Path(flatcert.__file__).parent / "exact"
    outside = []
    for path in sorted(exact.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level:
                base = ["flatcert", "exact"][: 3 - node.level]
                if node.module:
                    targets = [".".join(base + [node.module])]
                else:
                    targets = [".".join(base + [alias.name]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {t}"
                for t in targets
                if not (
                    t.split(".")[0] in sys.stdlib_module_names
                    or t == "flatcert.errors"
                    or t == "flatcert.exact"
                    or t.startswith("flatcert.exact.")
                )
            ]
    assert outside == []
