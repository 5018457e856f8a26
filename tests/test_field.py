"""Exact arithmetic in Q(q): canonical forms, parsing, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelkit.errors import DivisionByZero, ParseError, PoleAtPoint
from hankelkit.field import (
    FieldElem,
    Polynomial,
    as_field,
    parse_field_expr,
    q,
    render,
    specialize,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def field_elems(draw):
    num = Polynomial(draw(st.lists(rationals, min_size=0, max_size=4)))
    den = Polynomial(draw(st.lists(rationals, min_size=1, max_size=3)))
    if den.is_zero:
        den = Polynomial([1, 1])
    return FieldElem(num, den)


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1
        assert p.coefficients == [1, 2]

    def test_zero_polynomial(self):
        assert Polynomial([]).is_zero
        assert Polynomial([0, 0]).is_zero

    def test_coefficients_are_fractions(self):
        p = Polynomial([Fraction(3, 4), 1])
        assert p.coefficients == [Fraction(3, 4), 1]

    def test_gcd_is_primitive_positive(self):
        a = Polynomial([-1, 0, 1])   # q^2 - 1
        b = Polynomial([2, 2])       # 2q + 2
        g = a.gcd(b)
        assert g.coefficients == [1, 1]

    def test_exact_division(self):
        a = Polynomial([-1, 0, 1])
        b = Polynomial([1, 1])
        assert (a // b).coefficients == [-1, 1]
        with pytest.raises(ValueError):
            Polynomial([1, 1, 1]) // b


class TestFieldArith:
    def test_telescoping_ratio_canonicalizes(self):
        x = (1 - q ** 2) / (1 - q)
        assert x + 0 == 1 + q

    def test_multiplicative_identity(self):
        x = (3 + q) / (1 - q ** 3)
        assert x * 1 == x

    def test_ratio_division(self):
        lhs = ((1 - q ** 3) / (1 - q)) / ((1 - q ** 2) / (1 - q))
        # independent route: multiply out both reduced ratios by hand
        assert lhs == (1 + q + q ** 2) / (1 + q)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            (1 + q) / (q - q)

    def test_canonical_denominator_is_primitive_integer(self):
        x = as_field(Fraction(1, 3)) / (as_field(Fraction(2, 5)) + q)
        assert x.den.content == 1
        assert all(c.denominator == 1 for c in x.den.coefficients)
        assert x.den.coefficients[-1] > 0

    def test_constants_hash_like_their_value(self):
        # equal objects must hash equal, so sets and dict keys mix them
        for value in (0, 1, -3, Fraction(1, 2), Fraction(-7, 4)):
            elem = as_field(value)
            assert elem == value
            assert hash(elem) == hash(value)
            assert len({elem, value}) == 1
        assert len({FieldElem(1), 1}) == 1
        assert {q: "x"}[as_field(q)] == "x"


class TestPow:
    def test_monomial(self):
        assert (q ** 3).num.coefficients == [0, 0, 0, 1]

    def test_zeroth_power(self):
        assert (1 + q) ** 0 == 1

    def test_negative_power(self):
        assert (1 / (1 + q)) ** (-2) == (1 + q) ** 2

    def test_zero_to_negative_power(self):
        with pytest.raises(DivisionByZero):
            (q - q) ** (-1)


class TestSpecialize:
    def test_q_integer_at_one(self):
        assert ((1 - q ** 3) / (1 - q)).specialize(1) == 3

    def test_simple(self):
        assert (1 + q).specialize(1) == 2

    def test_reduced_ratio(self):
        c1 = (1 - q) / (1 - q ** 4)
        assert c1.specialize(1) == Fraction(1, 4)

    def test_pole(self):
        with pytest.raises(PoleAtPoint):
            (1 / (1 - q)).specialize(1)

    def test_module_level_wrapper(self):
        assert specialize(q ** 2, Fraction(1, 2)) == Fraction(1, 4)


class TestParse:
    def test_monomial(self):
        assert parse_field_expr("q^2") == q ** 2

    def test_ratio(self):
        assert parse_field_expr("(1-q)/(1+q)") == (1 - q) / (1 + q)

    def test_rational_coefficient(self):
        assert parse_field_expr("3/4 * q + 1") == Fraction(3, 4) * q + 1

    def test_fraction_atom_binds_exponent(self):
        assert parse_field_expr("3/4^2") == Fraction(9, 16)

    def test_signed_exponent(self):
        assert parse_field_expr("q^-2") == 1 / q ** 2

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_field_expr("1 + %")
        assert err.value.position == 4

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_field_expr("(1+q")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_field_expr("1+q) ")

    def test_powers_up_to_degree_1000(self):
        assert parse_field_expr("q^1000") == q ** 1000
        assert parse_field_expr("(1+q)^1000").num.degree == 1000
        assert parse_field_expr("(q/(1+q^2))^-500").num.degree == 1000
        assert parse_field_expr("2^1000") == 2 ** 1000

    @pytest.mark.parametrize("text, position", [
        ("(q^1000)^1000", 9),
        ("q^1000000000", 2),
        ("2^1001", 2),
        ("2^-1001", 2),
        ("(q/(1+q^2))^ -501", 13),
    ])
    def test_power_bound_error_position(self, text, position):
        with pytest.raises(ParseError, match="power too large") as err:
            parse_field_expr(text)
        assert err.value.position == position


@settings(max_examples=80, deadline=None)
@given(field_elems(), field_elems(), field_elems())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    if not x.is_zero:
        assert x * (1 / x) == 1


@settings(max_examples=80, deadline=None)
@given(field_elems())
def test_canonical_idempotence(x):
    assert FieldElem(x.num, x.den) == x


@settings(max_examples=80, deadline=None)
@given(field_elems())
def test_render_parse_round_trip(x):
    assert parse_field_expr(render(x)) == x


@settings(max_examples=80, deadline=None)
@given(field_elems(), field_elems(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_specialize_is_ring_homomorphism(x, y, point):
    try:
        lhs = (x * y).specialize(point)
        vx = x.specialize(point)
        vy = y.specialize(point)
    except PoleAtPoint:
        return
    assert lhs == vx * vy
