"""Exact arithmetic in Q(q): canonical forms, parsing, rendering."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hankelkit.errors import DivisionByZero, ParseError, PoleAtPoint
from hankelkit.field import (
    F_ONE,
    F_ZERO,
    FieldElem,
    Polynomial,
    as_field,
    coeff_strings,
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


polynomials = st.lists(rationals, min_size=0, max_size=5).map(Polynomial)


def plain(p: Polynomial) -> FieldElem:
    """The same element as a FieldElem that is not a Polynomial."""
    x = FieldElem(p)
    assert type(x) is FieldElem
    return x


class TestPolynomialIsFieldElem:
    def test_subclass_without_slots(self):
        assert issubclass(Polynomial, FieldElem)
        assert Polynomial.__slots__ == ()

    @settings(max_examples=60, deadline=None)
    @given(field_elems())
    def test_num_and_den_are_field_elems(self, x):
        for p in (x.num, x.den):
            assert isinstance(p, FieldElem) and p.d == (1,)
        assert (x.num.p, x.num.r, x.num.n) == (x.p, x.r, x.n)
        assert (x.den.p, x.den.r, x.den.n) == (1, 1, x.d)
        assert x.num / x.den == x

    @settings(max_examples=80, deadline=None)
    @given(polynomials, polynomials, st.integers(-3, 4),
           st.fractions(min_value=-3, max_value=3, max_denominator=4))
    def test_inherited_operations_match_field_elem(self, p, r, e, point):
        fp, fr = plain(p), plain(r)
        assert p + r == fp + fr and p - r == fp - fr
        # independent route: coefficientwise sum of the public coefficients
        width = max(len(p.coefficients), len(r.coefficients))
        padded = [c + [0] * (width - len(c)) for c in (p.coefficients, r.coefficients)]
        assert p + r == Polynomial([a + b for a, b in zip(*padded)])
        if r:
            assert p / r == fp / fr
        if p or e >= 0:
            assert p ** e == fp ** e
        assert p.specialize(point) == fp.specialize(point)
        assert hash(p) == hash(fp) and str(p) == str(fp)

    @settings(max_examples=60, deadline=None)
    @given(polynomials, field_elems())
    def test_mixed_products_are_field_products(self, p, x):
        expected = plain(p) * x
        # x * p tries Polynomial.__rmul__ first, since Polynomial subclasses FieldElem
        for product in (x * p, p * x):
            assert product == expected and type(product) is FieldElem
        fp = plain(p)
        for product, expected in ((p * 3, fp * 3), (3 * p, fp * 3),
                                  (p * Fraction(-2, 3), fp * Fraction(-2, 3))):
            assert product == expected and type(product) is FieldElem

    @settings(max_examples=60, deadline=None)
    @given(polynomials, polynomials)
    def test_kernel_operations_stay_polynomials(self, p, r):
        product = p * r
        assert type(product) is Polynomial and product == plain(p) * plain(r)
        if r:
            quot = product // r
            assert type(quot) is Polynomial and quot == p
        g = p.gcd(r)
        assert type(g) is Polynomial and g.content == (1 if p or r else 0)

    # content and coeffs as the Polynomial with a Fraction content returned them
    A = Polynomial([Fraction(1, 2), Fraction(-3, 4), 1])
    B = Polynomial([-2, Fraction(-4, 3)])
    Z = Polynomial([])
    KERNEL_RESULTS = {
        "a * b": (lambda a, b, z: a * b, Fraction(-1, 6), (6, -5, 6, 8)),
        "b * a": (lambda a, b, z: b * a, Fraction(-1, 6), (6, -5, 6, 8)),
        "a b // b": (lambda a, b, z: (a * b) // b, Fraction(1, 4), (2, -3, 4)),
        "a b // a": (lambda a, b, z: (a * b) // a, Fraction(-2, 3), (3, 2)),
        "a b b // b b": (lambda a, b, z: (a * b * b) // (b * b), Fraction(1, 4), (2, -3, 4)),
        "0 * a": (lambda a, b, z: z * a, 0, ()),
        "a * 0": (lambda a, b, z: a * z, 0, ()),
        "0 // b": (lambda a, b, z: z // b, 0, ()),
        "gcd(a, b)": (lambda a, b, z: a.gcd(b), 1, (1,)),
        "gcd(a b, b b)": (lambda a, b, z: (a * b).gcd(b * b), 1, (3, 2)),
        "gcd(0, b)": (lambda a, b, z: z.gcd(b), 1, (3, 2)),
        "gcd(a, 0)": (lambda a, b, z: a.gcd(z), 1, (2, -3, 4)),
        "gcd(0, 0)": (lambda a, b, z: z.gcd(z), 0, ()),
    }

    @pytest.mark.parametrize("name", list(KERNEL_RESULTS))
    def test_kernel_results_pinned(self, name):
        result, content, coeffs = self.KERNEL_RESULTS[name]
        got = result(self.A, self.B, self.Z)
        assert type(got) is Polynomial
        assert got.content == content and got.coeffs == coeffs
        assert got.d == (1,) and got.r > 0 and math.gcd(got.p, got.r) == 1

    def test_kernel_division_errors(self):
        assert self.B.content < 0
        with pytest.raises(ValueError, match="inexact polynomial division"):
            self.A // self.B
        for dividend in (self.A, self.Z):
            with pytest.raises(DivisionByZero):
                dividend // self.Z


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
        assert hash(as_field(Fraction(-3, 4))) == hash(Fraction(-3, 4))
        assert as_field(5) == 5
        assert {Fraction(1, 2): "half"}[as_field(Fraction(1, 2))] == "half"
        # a Polynomial view compares and hashes as the element it denotes
        assert len({Polynomial([0, 1]), q}) == 1
        assert Polynomial([3]) == 3 and hash(Polynomial([3])) == hash(3)

    @pytest.mark.parametrize("text", ["-5/6", "(-3/4*q - 1) / (q + 2)", "-7/2*q^2 + 1"])
    def test_negative_content_keeps_positive_denominator(self, text):
        x = parse_field_expr(text)
        assert x.p < 0
        # an odd power of a negative content is negative: the sign moves to p
        for y, back in ((x.reciprocal(), x), (x ** -3, x ** 3)):
            assert y.p < 0 and y.r > 0 and math.gcd(y.p, y.r) == 1
            assert y * back == 1


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


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(F_ZERO), field_elems().map(lambda x: x / (1 + 2 * q - q * q))))
def test_power_is_repeated_multiplication(x):
    # the divisor cancels only against a numerator it divides
    assume(x.is_zero or x.den.degree > 0)
    for e in range(-5, 13):
        if x.is_zero and e < 0:
            with pytest.raises(DivisionByZero):
                x ** e
            continue
        factor = x if e >= 0 else 1 / x
        expected = F_ONE
        for _ in range(abs(e)):
            expected = expected * factor
        assert x ** e == expected
        if e >= 0:
            assert as_field(x.num) ** e == expected.num
            assert as_field(x.den) ** e == expected.den


@settings(max_examples=80, deadline=None)
@given(field_elems())
def test_canonical_idempotence(x):
    assert FieldElem(x.num, x.den) == x
    # field elements are arguments too, and the quotient is reduced
    assert FieldElem(x) == x and FieldElem(x * (1 + q), 1 + q) == x
    for zero in (F_ZERO, Polynomial([0]), 0):
        with pytest.raises(DivisionByZero, match="zero denominator in field element"):
            FieldElem(x, zero)
    with pytest.raises(TypeError):
        FieldElem(str(x))
    with pytest.raises(TypeError):
        FieldElem(x, "1")


@settings(max_examples=80, deadline=None)
@given(field_elems())
def test_render_parse_round_trip(x):
    assert parse_field_expr(render(x)) == x


def _oracle_render_poly(p: Polynomial) -> str:
    """The Fraction-per-coefficient rendering that the integer render replaced."""
    if p.is_zero:
        return "0"
    parts = []
    for deg in range(p.degree, -1, -1):
        c = p.content * p.coeffs[deg]
        if c == 0:
            continue
        size = abs(c)
        text = str(size)
        if deg:
            qpart = "q" if deg == 1 else f"q^{deg}"
            text = qpart if size == 1 else f"{text}*{qpart}"
        if not parts:
            parts.append(f"-{text}" if c < 0 else text)
        else:
            parts.append(f"- {text}" if c < 0 else f"+ {text}")
    return " ".join(parts)


def _oracle_render(x: FieldElem) -> str:
    if x.den == Polynomial([1]):
        return _oracle_render_poly(x.num)
    return f"({_oracle_render_poly(x.num)}) / ({_oracle_render_poly(x.den)})"


@settings(max_examples=120, deadline=None)
@given(field_elems())
@example(parse_field_expr("(3/4*q + 1) / (q + 2)"))
@example(parse_field_expr("-5/6"))
@example(parse_field_expr("(-6/35*q^3 + 10/21*q - 4) / (q^2 + 1)"))
@example(F_ZERO)
def test_integer_render_matches_fraction_render(x):
    assert str(x) == _oracle_render(x)
    assert str(x.num) == _oracle_render_poly(x.num)
    assert parse_field_expr(str(x)) == x
    for p in (x.num, x.den):
        assert coeff_strings(p) == ([str(c) for c in p.coefficients] or ["0"])


@settings(max_examples=80, deadline=None)
@given(field_elems())
def test_render_matches_sympy(x):
    """sympy reads render(x), with ^ as power, as the quotient of x's
    numerator and denominator coefficient lists."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

    v = sympy.Symbol("q")
    parsed = parse_expr(render(x), local_dict={"q": v},
                        transformations=standard_transformations + (convert_xor,))
    assert sympy.cancel(parsed - _to_sympy(sympy, x, v)) == 0


def _to_sympy(sympy, x, v):
    """x as the sympy quotient of its numerator and denominator in v."""
    num, den = (sum(sympy.Rational(c.numerator, c.denominator) * v ** k
                    for k, c in enumerate(p.coefficients)) for p in (x.num, x.den))
    return num / den


def _ascending(sympy, p, v):
    """Ascending Fraction coefficients of the sympy polynomial p in v; [] for 0."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(p, v).all_coeffs())]
    return coeffs if any(coeffs) else []


@settings(max_examples=60, deadline=None)
@given(field_elems(), field_elems())
def test_canonical_form_matches_sympy(x, y):
    """Each op returns primitive n and d with positive leading entries, and
    num and den equal sympy's cancel of the same expression, its denominator
    scaled to a primitive integer polynomial with positive leading coefficient."""
    sympy = pytest.importorskip("sympy")
    v = sympy.Symbol("q")
    sx, sy = _to_sympy(sympy, x, v), _to_sympy(sympy, y, v)
    cases = [(x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy), (x ** 3, sx ** 3)]
    if not y.is_zero:
        cases.append((x / y, sx / sy))
    if not x.is_zero:
        cases.append((x ** -2, sx ** -2))
    for result, expr in cases:
        assert type(result.p) is int and type(result.r) is int
        assert result.r > 0 and math.gcd(result.p, result.r) == 1
        if result.is_zero:
            assert (result.p, result.r, result.n, result.d) == (0, 1, (), (1,))
        for vec in (result.n, result.d) if result.n else (result.d,):
            assert all(type(c) is int for c in vec)
            assert vec[-1] > 0 and math.gcd(*vec) == 1
        num, den = (_ascending(sympy, p, v) for p in sympy.fraction(sympy.cancel(expr)))
        scale = Fraction(math.lcm(*(c.denominator for c in den)),
                         math.gcd(*(c.numerator for c in den)))
        if den[-1] < 0:
            scale = -scale
        assert result.num.coefficients == [c * scale for c in num]
        assert result.den.coefficients == [c * scale for c in den]


def _horner(p: Polynomial, point: Fraction) -> Fraction:
    """p(point) by Horner's rule on the public coefficients."""
    acc = Fraction(0)
    for c in reversed(p.coefficients):
        acc = acc * point + c
    return acc


@settings(max_examples=80, deadline=None)
@given(field_elems(), field_elems(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_specialize_is_ring_homomorphism(x, y, point):
    try:
        lhs = (x * y).specialize(point)
        vx = x.specialize(point)
        vy = y.specialize(point)
    except PoleAtPoint:
        assert 0 in (_horner(x.den, point), _horner(y.den, point))
        return
    assert lhs == vx * vy
    assert vx == _horner(x.num, point) / _horner(x.den, point)
