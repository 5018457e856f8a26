"""Stress tests for the polynomial gcd/division cores against a plain
Fraction-based Euclid oracle, covering short and long inputs, degree gaps,
and non-monic inputs; property tests of the integer-vector multiply and
exact division against schoolbook references, on both sides of their
packing cut-offs, and of the decimal long multiply and its guards; and of
the gcd's cofactors against a residue-list Euclid over GF(p) and against
sympy, and the Henrici addition built on them."""

import decimal
import importlib.util
import math
import random
import sys
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelkit import field
from hankelkit.field import (
    _DIV_KS2_MIN,
    _DIV_PACK_MIN,
    _MUL_PACK_MIN,
    FieldElem,
    Polynomial,
    _divexact_2adic,
    _gcd_cofactors,
    _mul_int,
    _pack,
    _primitive,
    _quotient_2adic,
    _try_div_exact,
    _unpack,
    as_field,
    q,
)
from hankelkit.qcalc import q_pochhammer


def monic_euclid_gcd(f, g):
    """Textbook Euclid over Q, returning the monic gcd coefficient list."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def rem(a, b):
        a = a[:]
        while trim(a) and len(a) >= len(b):
            coef = a[-1] / b[-1]
            off = len(a) - len(b)
            for i, bc in enumerate(b):
                a[off + i] -= coef * bc
            a.pop()
        return a

    f, g = trim(f), trim(g)
    while g:
        f, g = g, trim(rem(f, g))
    lead = f[-1]
    return [c / lead for c in f]


def normalized(p: Polynomial):
    """Monic coefficient list of a nonzero polynomial, for oracle comparison."""
    coeffs = p.coefficients
    lead = coeffs[-1]
    return [c / lead for c in coeffs]


def random_poly(rng, degree, lo=-4, hi=4):
    coeffs = [rng.randint(lo, hi) for _ in range(degree)]
    coeffs.append(rng.choice([c for c in range(lo, hi + 1) if c]))
    return Polynomial(coeffs)


def test_gcd_matches_euclid_oracle_small_degrees():
    rng = random.Random(2024)
    for _ in range(40):
        a = random_poly(rng, rng.randint(0, 6))
        b = random_poly(rng, rng.randint(0, 6))
        g = random_poly(rng, rng.randint(0, 5))
        lhs = (a * g).gcd(b * g)
        oracle = monic_euclid_gcd((a * g).coefficients, (b * g).coefficients)
        assert normalized(lhs) == oracle


def test_gcd_matches_euclid_oracle_large_degrees():
    # products of 40-60 coefficients
    rng = random.Random(7)
    for _ in range(8):
        a = random_poly(rng, rng.randint(25, 35))
        b = random_poly(rng, rng.randint(25, 35))
        g = random_poly(rng, rng.randint(15, 25))
        lhs = (a * g).gcd(b * g)
        oracle = monic_euclid_gcd((a * g).coefficients, (b * g).coefficients)
        assert normalized(lhs) == oracle


def test_gcd_large_degree_gap():
    # a degree gap of 77, non-monic divisor
    rng = random.Random(11)
    g = random_poly(rng, 6)
    big = random_poly(rng, 80) * g
    small = random_poly(rng, 3) * g
    lhs = big.gcd(small)
    oracle = monic_euclid_gcd(big.coefficients, small.coefficients)
    assert normalized(lhs) == oracle


def test_gcd_coprime_large():
    rng = random.Random(13)
    a = random_poly(rng, 50)
    b = random_poly(rng, 50) + Polynomial([1])
    g = a.gcd(b)
    oracle = monic_euclid_gcd(a.coefficients, b.coefficients)
    assert normalized(g) == oracle


def test_gcd_sparse_inputs_with_degree_skips():
    # sparse polynomials make pseudo-remainder degrees fall by more than one
    a = Polynomial([0, 0, 0, 0, 0, 1])          # q^5
    b = Polynomial([1, 0, 1])                   # q^2 + 1
    assert normalized(a.gcd(b)) == monic_euclid_gcd(a.coefficients, b.coefficients)
    c = Polynomial([2, 0, 0, 0, 0, 0, 0, 2])    # 2 q^7 + 2
    d = Polynomial([1, 0, 0, 1])                # q^3 + 1
    assert normalized(c.gcd(d)) == monic_euclid_gcd(c.coefficients, d.coefficients)


def test_gcd_rational_content():
    a = Polynomial([Fraction(1, 2), Fraction(3, 4)])
    b = Polynomial([Fraction(2, 3), 1])
    g = a.gcd(b)
    assert normalized(g) == monic_euclid_gcd(a.coefficients, b.coefficients)
    shared = Polynomial([Fraction(1, 5), 0, 1])
    lhs = (a * shared).gcd(b * shared)
    assert normalized(lhs) == monic_euclid_gcd(
        (a * shared).coefficients, (b * shared).coefficients
    )


def test_field_reduction_of_big_pochhammer_ratio():
    num = q_pochhammer(q, q, 20)
    den = q_pochhammer(q, q, 15)
    ratio = num / den
    expected = as_field(1)
    for j in range(15, 20):
        expected = expected * (1 - q ** (j + 1))
    assert ratio == expected


def test_field_reduction_with_shared_cyclotomic_factors():
    # (1 - q^12) and (1 - q^18) share 1 - q^6
    x = (1 - q ** 12) / (1 - q ** 18)
    lhs = x * ((1 - q ** 18) / (1 - q ** 12))
    assert lhs == 1
    num = FieldElem(Polynomial([1] * 12))   # [12]
    den = FieldElem(Polynomial([1] * 18))   # [18]
    y = num / den
    assert y * den == num


def test_large_power_round_trip():
    x = (1 + q) / (1 - 2 * q + q ** 3)
    assert (x ** 9) * (x ** -9) == 1
    assert x ** 9 == (x ** 3) ** 3


# ---------------------------------------------------------------------------
# integer-vector kernels against schoolbook references
# ---------------------------------------------------------------------------


def schoolbook_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def schoolbook_div(f, g):
    """Quotient of f by g over Z by long division over Q, or None."""
    if not f:
        return ()
    if len(f) < len(g):
        return None
    rem = [Fraction(c) for c in f]
    quot = [Fraction(0)] * (len(f) - len(g) + 1)
    for off in range(len(quot) - 1, -1, -1):
        c = rem[off + len(g) - 1] / g[-1]
        quot[off] = c
        for i, gc in enumerate(g):
            rem[off + i] -= c * gc
    if any(rem) or any(c.denominator != 1 for c in quot):
        return None
    return tuple(int(c) for c in quot)


_MAX_LEN = 2 * max(_MUL_PACK_MIN, _DIV_PACK_MIN) + 8


@st.composite
def int_vectors(draw, max_len=_MAX_LEN):
    """Trimmed signed vectors, sometimes with zero low coefficients."""
    bits = draw(st.integers(0, 160))
    span = 1 << bits
    low = draw(st.integers(0, 3)) * (draw(st.integers(0, 3)) == 0)
    body = draw(st.lists(st.integers(-span, span), min_size=0, max_size=max_len - low - 1))
    lead = draw(st.integers(1, span)) * draw(st.sampled_from((1, -1)))
    return (0,) * low + tuple(body) + (lead,)


@settings(max_examples=120, deadline=None)
@given(int_vectors(), int_vectors())
def test_mul_int_matches_schoolbook(a, b):
    assert _mul_int(a, b) == schoolbook_mul(a, b)


@settings(max_examples=120, deadline=None)
@given(int_vectors(), int_vectors())
def test_try_div_exact_recovers_quotient(g, h):
    assert _try_div_exact(schoolbook_mul(g, h), g) == h


@settings(max_examples=60, deadline=None)
@given(int_vectors(), int_vectors(), st.integers(1, 60), st.integers(1, 1 << 40))
def test_try_div_exact_even_constant_term(g, h, twos, odd):
    g = (odd << twos,) + g
    assert _try_div_exact(schoolbook_mul(g, h), g) == h


@settings(max_examples=120, deadline=None)
@given(int_vectors(), int_vectors(), st.data())
def test_try_div_exact_matches_schoolbook_on_perturbed(g, h, data):
    f = list(schoolbook_mul(g, h))
    pos = data.draw(st.integers(0, len(f) - 1))
    f[pos] += data.draw(st.integers(1, 1 << 50)) * data.draw(st.sampled_from((1, -1)))
    while f and not f[-1]:
        f.pop()
    f = tuple(f)
    assert _try_div_exact(f, g) == schoolbook_div(f, g)


def _random_vector(rng, length, bits):
    span = 1 << bits
    return tuple(rng.randint(-span, span) for _ in range(length - 1)) + (rng.randint(1, span),)


@pytest.mark.parametrize("cut", [_MUL_PACK_MIN, _DIV_PACK_MIN])
def test_kernels_across_cutoffs(cut):
    rng = random.Random(cut)
    for la in (cut - 1, cut, cut + 1):
        for lb in (cut - 1, cut, cut + 1, 4 * cut):
            for bits in (1, 64, 300):
                a = _random_vector(rng, la, bits)
                b = _random_vector(rng, lb, bits)
                prod = _mul_int(a, b)
                assert prod == schoolbook_mul(a, b)
                assert _try_div_exact(prod, a) == b
                assert _try_div_exact(prod, b) == a
                off = list(prod)
                off[la // 2] += 1
                assert _try_div_exact(tuple(off), b) is None


def test_try_div_exact_cheap_rejections():
    n = 2 * _DIV_PACK_MIN
    g = tuple(range(1, n + 1))
    h = tuple(range(2, n + 2))
    f = _mul_int(g, h)
    # leading coefficient not divisible
    assert _try_div_exact(f[:-1] + (f[-1] + 1,), g) is None
    # fewer zero low coefficients in f than in g, even where the rest of f
    # is a multiple of the rest of g
    assert _try_div_exact(f, (0,) + g) is None
    assert _try_div_exact((5,) + f, (0,) + g) is None
    # 2-adic valuation of the packed dividend below the divisor's
    even = tuple(2 * c for c in g)
    assert _try_div_exact((f[0] + 1,) + f[1:], even) is None


def test_try_div_exact_quotient_wider_than_dividend():
    # (1 + q)^k (1 - q)^(2k) / (1 + q)^k: the quotient's coefficients are
    # wider than the dividend's, and far wider than bits(f) - bits(g), which
    # sizes the packing slot; the certificate fails and the schoolbook loop
    # decides
    k = 2 * _DIV_PACK_MIN
    g = tuple(comb(k, j) for j in range(k + 1))
    h = tuple((-1) ** j * comb(2 * k, j) for j in range(2 * k + 1))
    f = _mul_int(g, h)
    bits = lambda v: max(map(int.bit_length, v))  # noqa: E731
    assert bits(h) > bits(f)
    assert bits(h) > bits(f) - bits(g) + 64
    assert _try_div_exact(f, g) == h
    assert _try_div_exact(f, h) == g
    assert _try_div_exact(f[:-1] + (f[-1] * 3,), g) is None


def guessed_width(f, g, n):
    """The slot width w that _quotient_2adic guesses for an n-coefficient quotient."""
    return 8 * ((max(field._bits(f) - field._bits(g), 0) + n.bit_length() + 16) // 8)


def _not_divisible(f, g):
    """f with one coefficient moved by 1, which g no longer divides."""
    off = list(f)
    off[len(off) // 2] += 1
    off = tuple(off)
    assert schoolbook_div(off, g) is None
    return off


@pytest.mark.parametrize("n", [64, 65, 200, 201])
@pytest.mark.parametrize("low", [0, 3])
def test_quotient_2adic_on_both_sides_of_the_ks2_cutoff(n, low):
    # n = 64, 65 pack the quotient in fewer bits than the cut-off and divide
    # once at 2^w; n = 200, 201 pass it and divide at +-2^(w/2)
    rng = random.Random(n + low)
    hbits = 20 if n < 100 else 60
    g = (0,) * low + _random_vector(rng, 40, 30)
    h = _random_vector(rng, n, hbits)
    f = schoolbook_mul(g, h)
    assert (guessed_width(f, g, n) * n >= _DIV_KS2_MIN) == (n > 100)
    assert _quotient_2adic(f, g, low, n) == h
    assert _try_div_exact(f, g) == schoolbook_div(f, g) == h
    off = _not_divisible(f, g)
    assert _try_div_exact(off, g) is None


@pytest.mark.parametrize("sign", [1, -1])
def test_quotient_2adic_divisor_with_a_root_at_half_the_slot(sign):
    # g(sign 2^(w/2)) = 0 at the guessed w: KS2 has no quotient at that point,
    # so the schoolbook loop decides
    rng = random.Random(sign)
    n = 70
    g2 = _random_vector(rng, 40, 10)
    h = _random_vector(rng, n, 100)
    for w in range(8, 400, 8):
        g = schoolbook_mul(g2, (-sign << (w // 2), 1))
        f = schoolbook_mul(g, h)
        if guessed_width(f, g, n) == w:
            break
    else:
        pytest.fail("no slot width puts a root of g at half the slot")
    assert w * n >= _DIV_KS2_MIN
    assert sum(c * (sign << (w // 2)) ** i for i, c in enumerate(g)) == 0
    assert _quotient_2adic(f, g, 0, n) == ()
    assert _try_div_exact(f, g) == h
    assert _try_div_exact(_not_divisible(f, g), g) is None


@pytest.mark.parametrize("n", [40, 41, 110, 111])
def test_quotient_2adic_digits_at_the_slot_edges(n):
    # g = q^11 (1 + q)^21 and h = c (1 - q)^21 + small terms, so f = g h is
    # c q^11 (1 - q^2)^21 plus small terms: bits(f) - bits(g) is far below
    # bits(h).  c = (2^(w-1) - 1) // C(21, 10), and the two middle digits
    # of h, +-c C(21, 10), are moved to +-(2^(w-1) - 1) at the guessed w.
    # n = 40, 41 divide at 2^w, n = 110, 111 at +-2^(w/2).
    a, low, w = 21, 11, 80
    edge = (1 << (w - 1)) - 1
    middle = comb(a, a // 2)
    rng = random.Random(n)
    g = (0,) * low + tuple(comb(a, j) for j in range(a + 1))
    h = [(edge // middle) * (-1) ** j * comb(a, j) for j in range(a + 1)]
    h += [rng.randint(-3, 3) for _ in range(n - a - 2)] + [1]
    h[a // 2] = edge
    h[a // 2 + 1] = -edge
    h = tuple(h)
    f = schoolbook_mul(g, h)
    assert guessed_width(f, g, n) == w
    assert (w * n >= _DIV_KS2_MIN) == (n > 100)
    assert _quotient_2adic(f, g, low, n) == h
    assert _try_div_exact(f, g) == h
    assert _try_div_exact(_not_divisible(f, g), g) is None


@pytest.mark.parametrize("k", [2, 3, 63, 64, 65, 1000])
def test_divexact_2adic_signed_lift(k):
    # every quotient in [-2^(k-1), 2^(k-1)) comes back exactly; the divisor
    # may be even, and a dividend of lower 2-adic valuation is rejected
    rng = random.Random(k)
    top = 1 << (k - 1)
    for quot in (0, 1, -1, top - 1, -top, rng.randrange(-top, top)):
        for divisor in (rng.randrange(1, 1 << 80) | 1, -(rng.randrange(1, 1 << 80) << 5), 1 << 7):
            assert _divexact_2adic(quot * divisor, divisor, k) == quot
    # 2^(k-1) is past the range, so it reads as its residue -2^(k-1)
    assert _divexact_2adic(top * 3, 3, k) == -top
    assert _divexact_2adic((1 << 5) + 1, 1 << 5, k) is None


@settings(max_examples=120, deadline=None)
@given(int_vectors(), int_vectors(), st.booleans(), st.sampled_from((0, math.inf)))
def test_try_div_exact_ks2_or_one_point_matches_schoolbook(g, h, perturb, cut):
    # the cut-off patched to 0 sends every packed division through KS2, and
    # to infinity through the one division at 2^w
    f = schoolbook_mul(g, h)
    if perturb and len(f) > 2:
        f = f[:len(f) // 2] + (f[len(f) // 2] + 1,) + f[len(f) // 2 + 1:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_DIV_KS2_MIN", cut)
        assert _try_div_exact(f, g) == schoolbook_div(f, g)


# ---------------------------------------------------------------------------
# word-sized pack and unpack, and packed sums of products
# ---------------------------------------------------------------------------

# lengths on both sides of the Horner leaf of 16 coefficients and of the word
# path's cut-off
_PACK_LENGTHS = st.sampled_from((0, 1, 2, 3, 15, 16, 17, field._WORDS_MIN - 2,
                                 field._WORDS_MIN - 1, field._WORDS_MIN, field._WORDS_MIN + 1,
                                 2 * field._WORDS_MIN + 3))


@st.composite
def slot_digits(draw):
    """(nbytes, digits): signed base-2^(8 nbytes) digits, some at the slot's edges."""
    nbytes = draw(st.integers(1, 17))
    half = 1 << (8 * nbytes - 1)
    digit = st.one_of(st.sampled_from((-half, half - 1, -1, 0)), st.integers(-half, half - 1))
    n = draw(_PACK_LENGTHS)
    return nbytes, draw(st.lists(digit, min_size=n, max_size=n))


def packed_value(coeffs, w):
    return sum(c << (w * i) for i, c in enumerate(coeffs))


def _without_words(fn, *args):
    """fn(*args) with the word path off, as on a big-endian host."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_WORDS", False)
        return fn(*args)


@settings(max_examples=300, deadline=None)
@given(slot_digits())
def test_pack_unpack_round_trip(case):
    nbytes, digits = case
    w = 8 * nbytes
    value = _pack(digits, w)
    assert value == packed_value(digits, w) == _without_words(_pack, digits, w)
    assert _unpack(value, nbytes, len(digits)) == digits
    assert _without_words(_unpack, value, nbytes, len(digits)) == digits


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 17), _PACK_LENGTHS, st.integers(1, 80), st.integers(0, 3), st.data())
def test_pack_carries_coefficients_wider_than_the_slot(nbytes, n, extra, lo, data):
    # up to 80 bits more than the slot: some fit a machine word, some not
    w = 8 * nbytes
    span = 1 << (w + extra - 1)
    coeffs = data.draw(st.lists(st.one_of(st.sampled_from((-span, span - 1)),
                                          st.integers(-span, span - 1)),
                                min_size=n + lo, max_size=n + lo))
    expected = packed_value(coeffs[lo:], w)
    assert _pack(coeffs, w, lo) == _without_words(_pack, coeffs, w, lo) == expected
    # digits read modulo 2^(w n), as the gcd reads a packed integer gcd
    digits = _unpack(expected, nbytes, n)
    assert digits == _without_words(_unpack, expected, nbytes, n)
    assert packed_value(digits, w) % (1 << (w * n)) == expected % (1 << (w * n))


@pytest.mark.parametrize("nbytes", range(1, 18))
def test_pack_at_the_slot_edges(nbytes):
    # the last digits that fit a slot, and the first that carry out of it
    w = 8 * nbytes
    fits = (-(1 << (w - 1)), (1 << (w - 1)) - 1)
    carries = (1 << (w - 1), -(1 << (w - 1)) - 1, 1 << w, -(1 << w) - 1, 1 << (w + 7))
    n = field._WORDS_MIN
    for edge in fits + carries:
        for coeffs in ([edge] * n, [edge, 0, -1] * n, [1] * (n - 1) + [edge]):
            assert _pack(coeffs, w) == packed_value(coeffs, w)
    for edge in fits:
        assert _unpack(_pack([edge] * n, w), nbytes, n) == [edge] * n


def signed_sum(terms):
    """sum(s a b for s, a, b in terms) by schoolbook products, trimmed."""
    out = [0] * max((len(a) + len(b) - 1 for _, a, b in terms if a and b), default=0)
    for s, a, b in terms:
        for i, c in enumerate(schoolbook_mul(a, b)):
            out[i] += s * c
    return field._trim(out)


@st.composite
def sum_operands(draw):
    """Integer vectors of 0-70 coefficients of up to 90 bits, times a common
    factor, so that they are often not primitive."""
    bits = draw(st.integers(1, 90))
    span = 1 << bits
    length = draw(st.sampled_from((0, 1, 2, 5, 17, 40, 70)))
    coeffs = draw(st.lists(st.integers(-span, span), min_size=length, max_size=length))
    factor = draw(st.integers(-50, 50)) or 1
    return field._trim([factor * c for c in coeffs])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, -1)), sum_operands(), sum_operands()),
                min_size=1, max_size=4), st.booleans())
def test_sum_of_products_matches_polynomial_expression(terms, cancel):
    if cancel:
        # the last term undone by the same product in the other order
        s, a, b = terms[-1]
        terms = terms + [(-s, b, a)]
    packed = {}
    got = field._sum_of_products(terms, packed)
    assert got == signed_sum(terms)
    # the table now holds the operands: a second call reads it back
    assert field._sum_of_products(terms, packed) == got
    if cancel and len(terms) == 2:
        assert got == ()


def test_sum_of_products_edge_cases():
    a, b = tuple(range(1, 60)), (3, -1, 4, -1, 5)
    packed = {}
    assert field._sum_of_products([(1, (), a), (-1, b, ())], packed) == ()
    assert field._sum_of_products([(1, a, b), (-1, b, a)], packed) == ()
    # the sum is neither made primitive nor given a positive leading entry
    assert field._sum_of_products([(-1, (2, 4), (3,))], packed) == (-6, -12)
    # leading coefficients that cancel are trimmed: (1 + 3q + 5q^2 + 3q^3) - 3q^3
    assert field._sum_of_products([(1, (1, 2, 3), (1, 1)), (-1, (0, 0, 3), (0, 1))],
                                  packed) == (1, 3, 5)
    # a slot width set by the widest term's coefficients, not its length
    wide = (1 << 400, -(1 << 399) + 1)
    terms = [(1, a, b), (-1, wide, wide), (1, a, (-3, 2))]
    assert field._sum_of_products(terms, packed) == signed_sum(terms)
    # coefficients near the slot's bound: up to 63 * 31 * 7 < 2^14 in each
    # product, and three times that, with its sign, needs 17 bits
    x, y = (31,) * 62 + (30,), (7,) * 62 + (6,)
    for s in (1, -1):
        assert field._sum_of_products([(s, x, y)] * 3, {}) \
            == tuple(3 * s * c for c in schoolbook_mul(x, y))


def test_sum_of_products_packs_once_without_the_table():
    a, b, c = tuple(range(1, 30)), (5, -2) * 20, (1, 1, -7)
    packed = {}
    got = field._sum_of_products([(1, a, b), (-1, c, a)], packed, b)
    assert got == signed_sum([(1, a, b), (-1, c, a)])
    assert {id(v) for v, _ in packed.values()} == {id(a), id(c)}
    # one entry per operand and slot width, each holding its vector
    assert all(key[0] == id(v) for key, (v, _) in packed.items())
    assert len(packed) == 2


# ---------------------------------------------------------------------------
# the long multiply through decimal (libmpdec)
# ---------------------------------------------------------------------------

needs_c_decimal = pytest.mark.skipif(
    field._MUL_DEC_MIN == math.inf, reason="the C _decimal module is not available"
)


def ks2_mul(a, b):
    return field._mul_packed(a, b, field._bits(a) + field._bits(b))


def decimal_mul(a, b):
    return field._mul_decimal(a, b, field._bits(a) + field._bits(b))


def _recorded(monkeypatch, name):
    """Replace field.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(field, name)

    def wrapper(a, b, bits):
        calls.append((len(a), len(b)))
        return inner(a, b, bits)

    monkeypatch.setattr(field, name, wrapper)
    return calls


def _vector_of_bits(rng, length, bits):
    """A vector whose widest coefficient has exactly `bits` bits."""
    span = (1 << (bits - 1)) - 1
    return tuple(rng.randint(-span, span) for _ in range(length - 1)) + (1 << (bits - 1),)


@st.composite
def shaped_vectors(draw):
    """int_vectors, sometimes made all negative or given extra zeros."""
    v = list(draw(int_vectors()))
    shape = draw(st.sampled_from(("signed", "negative", "zeros")))
    if shape == "negative":
        v = [-abs(c) for c in v]
    elif shape == "zeros" and len(v) > 1:
        for i in draw(st.lists(st.integers(0, len(v) - 2), max_size=len(v))):
            v[i] = 0
    return tuple(v)


@needs_c_decimal
@settings(max_examples=150, deadline=None)
@given(shaped_vectors(), shaped_vectors())
def test_mul_decimal_matches_schoolbook(a, b):
    expected = schoolbook_mul(a, b)
    assert decimal_mul(a, b) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_MUL_DEC_MIN", 0)
        assert _mul_int(a, b) == expected


@needs_c_decimal
@pytest.mark.parametrize("la, lb", [(1, 1), (1, 300), (2, 33), (31, 32), (32, 32), (33, 65),
                                    (64, 97), (17, 1000), (3, 2)])
@pytest.mark.parametrize("bits", [1, 40, 700])
def test_mul_decimal_lengths_around_the_leaf(la, lb, bits):
    rng = random.Random(la * 1009 + lb + bits)
    a = _random_vector(rng, la, bits)
    b = tuple(-abs(c) for c in _random_vector(rng, lb, bits))
    expected = schoolbook_mul(a, b)
    assert decimal_mul(a, b) == expected
    assert decimal_mul(b, a) == expected


@needs_c_decimal
def test_mul_decimal_at_the_largest_kernel_point(monkeypatch):
    # degree 1300 and 600-bit coefficients, the benchmark's largest product
    rng = random.Random(1300)
    a = _random_vector(rng, 1301, 600)
    b = _random_vector(rng, 1301, 600)
    calls = _recorded(monkeypatch, "_mul_decimal")
    assert _mul_int(a, b) == ks2_mul(a, b)
    assert calls == [(1301, 1301)]


@needs_c_decimal
@pytest.mark.parametrize("bits, path", [(99, "_mul_packed"), (100, "_mul_decimal")])
def test_mul_int_cutoff_picks_the_path(monkeypatch, bits, path):
    # len_max (bits a + bits b) is 198 000 at 99 bits and 200 000 at 100
    rng = random.Random(bits)
    a = _vector_of_bits(rng, 1000, bits)
    b = _vector_of_bits(rng, 400, bits)
    assert 1000 * 2 * 99 < field._MUL_DEC_MIN <= 1000 * 2 * 100
    other = decimal_mul if path == "_mul_packed" else ks2_mul
    calls = _recorded(monkeypatch, path)
    assert _mul_int(a, b) == other(a, b)
    assert calls == [(1000, 400)]


@needs_c_decimal
def test_mul_decimal_wide_slots_stay_on_ks2(monkeypatch):
    # slots of more than 640 digits could pass int_max_str_digits
    rng = random.Random(640)
    a = _vector_of_bits(rng, 20, 1100)
    b = _vector_of_bits(rng, 20, 1100)
    calls = _recorded(monkeypatch, "_mul_packed")
    assert decimal_mul(a, b) == schoolbook_mul(a, b)
    assert calls == [(20, 20)]


@needs_c_decimal
def test_mul_decimal_raises_when_inexact(monkeypatch):
    # the context traps rounding, so a loss of digits raises and never
    # comes back as coefficients
    rng = random.Random(7)
    a = _random_vector(rng, 40, 100)
    b = _random_vector(rng, 40, 100)
    monkeypatch.setattr(field._EXACT, "prec", 60)
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        decimal_mul(a, b)


def test_without_c_decimal_products_stay_on_ks2(monkeypatch):
    # a fresh copy of the module, imported while _decimal cannot be
    monkeypatch.setitem(sys.modules, "_decimal", None)
    spec = importlib.util.spec_from_file_location("hankelkit._field_without_c_decimal",
                                                  field.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module._MUL_DEC_MIN == math.inf
    calls = []
    packed = module._mul_packed
    monkeypatch.setattr(module, "_mul_packed",
                        lambda a, b, bits: calls.append(1) or packed(a, b, bits))
    rng = random.Random(3)
    a = _random_vector(rng, 1301, 600)
    b = _random_vector(rng, 401, 600)
    assert module._mul_int(a, b) == ks2_mul(a, b)
    assert calls == [1]


# ---------------------------------------------------------------------------
# the gcd and its cofactors
# ---------------------------------------------------------------------------

# primes 2^k - 1, k = 61, 89, 107, 127 and 521, for the residue-list Euclid
_PRIMES = (
    2305843009213693951,
    618970019642690137449562111,
    162259276829213363391578010288127,
    170141183460469231731687303715884105727,
    (1 << 521) - 1,
)


def list_gcd_mod(f, g, p):
    """Monic gcd of the images of f, g in GF(p)[q], by the textbook Euclid
    on residue lists."""

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a = trim([c % p for c in f])
    b = trim([c % p for c in g])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            off = len(a) - len(b)
            for i, bc in enumerate(b):
                a[off + i] = (a[off + i] - c * bc) % p
            trim(a)
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _primitive_vector(rng, length, bits):
    prim, _ = _primitive(_random_vector(rng, length, bits))
    return prim


def _coprime(f, g):
    """True when a prime p not dividing lc(f) gives a constant gcd of the
    images: the image gcd has at least the degree of the gcd over Q."""
    for p in (_PRIMES[0], 1_000_000_007, 998_244_353):
        if f[-1] % p and list_gcd_mod(f, g, p) == [1]:
            return True
    return False


def _check_cofactors(f, g):
    h, f_cof, g_cof = _gcd_cofactors(f, g)
    assert h[-1] > 0
    assert _mul_int(h, f_cof) == f
    assert _mul_int(h, g_cof) == g
    assert _coprime(f_cof, g_cof)
    assert _gcd_cofactors(g, f) == (h, g_cof, f_cof)
    return h


@pytest.mark.parametrize("p", _PRIMES)
@pytest.mark.parametrize(
    "lengths",
    # short and long vectors, with and without a long f against a short g
    [(5, 20, 20), (2, 36, 2), (8, 60, 60), (3, 79, 4)],
)
def test_gcd_mod_shapes(p, lengths):
    # the gcd's image in GF(p) is the gcd of the images, p being lucky
    rng = random.Random(len(str(p)) + sum(lengths))
    for bits in (8, 200, 700):
        h, u, v = (_random_vector(rng, n, bits) for n in lengths)
        f, g = _primitive(_mul_int(h, u))[0], _primitive(_mul_int(h, v))[0]
        common = _check_cofactors(f, g)
        lead = pow(common[-1], -1, p)
        assert [c * lead % p for c in common] == list_gcd_mod(f, g, p)


def test_wide_common_factor():
    # a 450-bit common factor of 37-coefficient cofactors
    rng = random.Random(450)
    h = _random_vector(rng, 7, 450)
    u = _random_vector(rng, 37, 10)
    v = _random_vector(rng, 37, 10)
    f, g = Polynomial(_mul_int(h, u)), Polynomial(_mul_int(h, v))
    assert _check_cofactors(f.coeffs, g.coeffs) == Polynomial(h).coeffs
    assert normalized(f.gcd(g)) == normalized(Polynomial(h))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 32), st.integers(1, 12), st.integers(1, 60),
       st.integers(1, 60), st.integers(1, 80))
def test_gcd_cofactors_property(seed, len_h, len_u, len_v, bits):
    rng = random.Random(seed)
    h = _primitive_vector(rng, len_h, bits)
    u = _primitive_vector(rng, len_u, bits)
    v = _primitive_vector(rng, len_v, bits)
    common = _check_cofactors(_mul_int(h, u), _mul_int(h, v))
    # h u and h v may share more than h, never less
    assert _try_div_exact(common, h) is not None


def test_gcd_cofactors_trivial_gcd_returns_inputs():
    f, g = (1, 0, 1), (1, 1)
    h, f_cof, g_cof = _gcd_cofactors(f, g)
    assert h == (1,) and f_cof is f and g_cof is g


def test_gcd_cofactors_very_wide_common_factor():
    # a 950-bit common factor of 38 coefficients, cofactors of 8 bits
    rng = random.Random(950)
    h = _primitive_vector(rng, 38, 950)
    u = _primitive_vector(rng, 4, 8)
    v = _primitive_vector(rng, 3, 8)
    f, g = _mul_int(h, u), _mul_int(h, v)
    assert _check_cofactors(f, g) == h


def test_gcd_cofactors_rejects_a_multiple_and_retries():
    # f = q (q + 1) and g = (q + 1)(q + 256): at the first slot width, 8
    # bits, u(256) = 256 and v(256) = 512 share 256, and the digits of the
    # integer gcd read back q^2 + q, which does not divide g
    f, g = (0, 1, 1), (256, 257, 1)
    x = gcd(_pack(f, 8), _pack(g, 8))
    assert _unpack(x, 1, x.bit_length() // 8 + 1) == [0, 1, 1]
    assert _gcd_cofactors(f, g) == ((1, 1), (0, 1), (256, 1))


def test_gcd_cofactors_common_root_at_a_power_of_two():
    # q - 256 vanishes at 2^8, so the first slot width must come from the
    # coefficients (9 bits here), not be a fixed small one
    f, g = _mul_int((-256, 1), (1, 1)), _mul_int((-256, 1), (2, 1))
    assert _gcd_cofactors(f, g) == ((-256, 1), (1, 1), (2, 1))


@st.composite
def gcd_inputs(draw):
    """(f, g) = (h u, h v) for primitive h, u, v of 1-80 coefficients of
    1-600 bits.  Sometimes u gains a factor q and v a factor q + 2^j, so
    that u(2^w) and v(2^w) share 2^min(j, w) and the first slot widths,
    about bits(h u) wide, read back a multiple of h."""
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    bits = draw(st.integers(1, 600))
    h, u, v = (_primitive_vector(rng, draw(st.integers(1, 80)), bits) for _ in range(3))
    if draw(st.booleans()):
        u = _mul_int(u, (0, 1))
        v = _mul_int(v, (1 << draw(st.integers(1, 2 * bits + 64)), 1))
    return _mul_int(h, u), _mul_int(h, v)


@settings(max_examples=80, deadline=None)
@given(gcd_inputs())
def test_gcd_cofactors_match_sympy(pair):
    sympy = pytest.importorskip("sympy")
    f, g = pair
    x = sympy.Symbol("q")
    expected = sympy.Poly(f[::-1], x, domain="ZZ").gcd(sympy.Poly(g[::-1], x, domain="ZZ"))
    h, f_cof, g_cof = _gcd_cofactors(f, g)
    assert h == tuple(int(c) for c in reversed(expected.all_coeffs()))
    assert _mul_int(h, f_cof) == f and _mul_int(h, g_cof) == g


@st.composite
def elem_pairs(draw):
    """Two reduced elements whose denominators share a random factor, or
    none; or x and w - x, whose sum w cancels part of the shared factor."""
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    bits = draw(st.integers(1, 40))

    def poly(length):
        return Polynomial(_random_vector(rng, length, bits))

    shared = poly(draw(st.integers(1, 25)))
    x = FieldElem(poly(draw(st.integers(1, 30))), poly(draw(st.integers(1, 25))) * shared)
    y = FieldElem(poly(draw(st.integers(1, 30))), poly(draw(st.integers(1, 25))) * shared)
    if draw(st.booleans()):
        w = y
        y = FieldElem(w.num * x.den - x.num * w.den, w.den * x.den)
    return x, y


@settings(max_examples=60, deadline=None)
@given(elem_pairs())
def test_henrici_addition_matches_reduced_sum(pair):
    x, y = pair
    expected = FieldElem(x.num * y.den + y.num * x.den, x.den * y.den)
    for total in (x + y, y + x):
        assert total.num == expected.num and total.den == expected.den
    assert x - x == 0 and (x + (-x)).den == Polynomial([1])


def test_henrici_addition_with_equal_denominators_reduces():
    # (1 + q) / (1 - q^2) and q / (1 - q^2) add to (1 + 2q) / (1 - q^2);
    # 1 / (1 - q) - q / (1 - q) cancels to 1
    den = Polynomial([1, 0, -1])
    assert FieldElem(Polynomial([0, 1]), den) + FieldElem(Polynomial([1, 1]), den) == (
        FieldElem(Polynomial([1, 2]), den)
    )
    one_minus_q = Polynomial([1, -1])
    assert FieldElem(1, one_minus_q) - FieldElem(Polynomial([0, 1]), one_minus_q) == 1


def test_field_elem_reduction_divides_once(monkeypatch):
    # the gcd certifies its candidate by dividing f h and g h by it, and
    # those two quotients are the reduced numerator and denominator
    calls = []
    try_div_exact = field._try_div_exact

    def counted(f, g):
        calls.append((f, g))
        return try_div_exact(f, g)

    rng = random.Random(41)
    f = Polynomial(_random_vector(rng, 30, 20))
    g = Polynomial(_random_vector(rng, 30, 20))
    h = Polynomial(_random_vector(rng, 20, 20))
    num, den = f * h, g * h
    assert len(num.coeffs) > 40 and len(den.coeffs) > 40
    monkeypatch.setattr(field, "_try_div_exact", counted)
    x = FieldElem(num, den)
    assert len(calls) == 2
    assert x == FieldElem(f, g) and x.den.degree == 29
