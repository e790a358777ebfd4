"""Exact PSD check, null-vector rationalization, the serial pmap."""

from fractions import Fraction as F

from flatcert.flats import _primitive, _psd_exact, _rationalize
from flatcert.parallel import pmap


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


def test_primitive_and_rationalize():
    assert _primitive([F(2, 3), F(-1, 3)]) == (2, -1)
    assert _primitive([F(0), F(0)]) is None
    assert _primitive([F(-4), F(2)]) == (2, -1)
    import numpy as np

    v = np.array([0.89442719, -0.4472136])  # (2,-1)/sqrt(5)
    assert _rationalize(v) == (2, -1)


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
