"""Word grammar: parsing, rendering round-trip, errors, the power budget."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcert import SqMatrix, parse_word, render_word, word_eval
from flatcert.errors import BudgetExceeded, ParseError
from flatcert.words import POWER_BITS_LIMIT, Name, Power, Product, _power_bits


def test_parse_examples():
    assert parse_word("a*b^-2") == Product((Name("a"), Power(Name("b"), -2)))
    assert parse_word("(a*b)^3") == Power(Product((Name("a"), Name("b"))), 3)
    with pytest.raises(ParseError) as exc:
        parse_word("a**b")
    assert exc.value.position == 2


def test_parse_details():
    assert parse_word("a") == Name("a")
    assert parse_word("a^0") == Power(Name("a"), 0)
    assert parse_word("a * b") == Product((Name("a"), Name("b")))
    assert parse_word("x_1^12") == Power(Name("x_1"), 12)
    for bad in ("", "*a", "a^", "(a", "a)b", "A"):
        with pytest.raises(ParseError):
            parse_word(bad)


def test_exponent_binds_tighter_than_product():
    assert parse_word("a*b^2") == Product((Name("a"), Power(Name("b"), 2)))
    assert parse_word("a^2*b") == Product((Power(Name("a"), 2), Name("b")))


_names = st.sampled_from(["a", "b", "c2", "x_y"]).map(Name)
_exprs = st.deferred(
    lambda: st.one_of(
        _names,
        st.tuples(_exprs, st.integers(-9, 9)).map(lambda t: Power(*t)),
        st.lists(_exprs, min_size=2, max_size=3).map(lambda fs: Product(tuple(fs))),
    )
)


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_render_parse_roundtrip(expr):
    assert parse_word(render_word(expr)) == expr


def test_exponent_past_the_int_string_limit_is_a_parse_error():
    # int() refuses decimal strings past sys.get_int_max_str_digits(); the
    # word parser used to let that ValueError escape as a traceback
    with pytest.raises(ParseError) as exc:
        parse_word("(a*b)^" + "9" * 5000)
    assert exc.value.position == 6
    assert exc.value.found == "5000 characters"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    st.integers(1, 6),
    st.integers(0, 40),
)
def test_power_bits_bounds_the_stored_size(entries, den, k):
    # _power_bits bounds the bits of m^k from above to within one bit per entry
    a, b, c, d = (F(x, den) for x in entries)
    m = SqMatrix([[a, b], [c, d]])
    p = m**k
    stored = sum(x.bit_length() for row in p.num for x in row) + p.den.bit_length()
    assert stored <= _power_bits(m, k) + m.n * m.n + 1


def test_power_budget_refuses_before_computing():
    h = SqMatrix([[2, 1], [1, 1]])
    a = SqMatrix.diagonal([F(2), F(1, 2)])
    gens = {"h": h, "a": a}
    assert word_eval("h^2000", gens) == h**2000
    assert word_eval("a^-3", gens) == a.inverse() ** 3
    for word in ("h^10000000", "h^-10000000", "a^99999999999999999999", "(h^1000)^10000"):
        with pytest.raises(BudgetExceeded) as exc:
            word_eval(word, gens)
        assert exc.value.estimate > exc.value.limit == POWER_BITS_LIMIT
    # a finite-order or identity base never grows, whatever the exponent
    r = SqMatrix([[0, -1], [1, 0]])
    assert word_eval("r^99999999999999999999", {"r": r}) == r**3
