"""Stress tests for the polynomial gcd/division cores against a plain
Fraction-based Euclid oracle, covering the small (subresultant) and large
(modular-image) code paths, degree gaps, and non-monic inputs; property
tests of the integer-vector multiply and exact division against schoolbook
references, on both sides of their packing cut-offs; and of the packed
GF(p) Euclid against a residue-list Euclid; and of the gcd's cofactors and
the Henrici addition built on them."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankelkit import field
from hankelkit.field import (
    _DIV_PACK_MIN,
    _GCD_PRIMES,
    _MUL_PACK_MIN,
    FieldElem,
    Polynomial,
    _gcd_cofactors,
    _gcd_mod,
    _mul_int,
    _primitive,
    _try_div_exact,
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
    # degrees past the subresultant cutoff exercise the modular-image path
    rng = random.Random(7)
    for _ in range(8):
        a = random_poly(rng, rng.randint(25, 35))
        b = random_poly(rng, rng.randint(25, 35))
        g = random_poly(rng, rng.randint(15, 25))
        lhs = (a * g).gcd(b * g)
        oracle = monic_euclid_gcd((a * g).coefficients, (b * g).coefficients)
        assert normalized(lhs) == oracle


def test_gcd_large_degree_gap():
    # a degree gap of 77 on the modular path, non-monic divisor
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


# ---------------------------------------------------------------------------
# the packed GF(p) Euclid against a residue-list Euclid
# ---------------------------------------------------------------------------


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


@st.composite
def gcd_mod_inputs(draw):
    """(f, g, p): f = h u and g = h v over Z, with lengths of f on both sides
    of the subresultant cut-off (40) and degree gaps past 32; coefficients
    wider than p, some of them multiples of p (the image loses its lead)."""
    p = draw(st.sampled_from(_GCD_PRIMES))
    span = 1 << draw(st.integers(1, 600))
    multiple = st.sampled_from((p, -p, 3 * p))
    coeff = st.one_of(st.integers(-span, span), multiple)

    def vector(max_len):
        body = draw(st.lists(coeff, min_size=0, max_size=max_len - 1))
        return tuple(body) + (draw(st.one_of(st.integers(1, span), multiple)),)

    h, u, v = vector(12), vector(80), vector(12)
    f, g = _mul_int(h, u), _mul_int(h, v)
    # the gcd of two zero images is undefined
    assume(any(c % p for c in f + g))
    if draw(st.booleans()):
        f, g = g, f
    return f, g, p


@settings(max_examples=150, deadline=None)
@given(gcd_mod_inputs())
def test_gcd_mod_matches_list_euclid(args):
    f, g, p = args
    assert _gcd_mod(f, g, p) == list_gcd_mod(f, g, p)


@pytest.mark.parametrize("p", _GCD_PRIMES)
@pytest.mark.parametrize(
    "lengths",
    # f shorter and longer than 40 coefficients, with and without a gap past 32
    [(5, 20, 20), (2, 36, 2), (8, 60, 60), (3, 79, 4)],
)
def test_gcd_mod_shapes(p, lengths):
    rng = random.Random(len(str(p)) + sum(lengths))
    for bits in (8, 200, 700):
        h, u, v = (_random_vector(rng, n, bits) for n in lengths)
        f, g = _mul_int(h, u), _mul_int(h, v)
        assert _gcd_mod(f, g, p) == list_gcd_mod(f, g, p)
        assert _gcd_mod(g, f, p) == list_gcd_mod(f, g, p)


def test_gcd_primes_are_mersenne_primes():
    # the packed Euclid folds slots with 2^k = 1 modulo p
    sympy = pytest.importorskip("sympy")
    for p in _GCD_PRIMES:
        assert p & (p + 1) == 0
        assert sympy.isprime(p)


def test_wide_common_factor_lifts_without_subresultant(monkeypatch):
    # a 450-bit common factor needs more than the four smaller primes
    # (384 bits together); the fifth, 2^521 - 1, lifts it
    def refuse(f, g):
        raise AssertionError("subresultant fallback ran")

    rng = random.Random(450)
    h = _random_vector(rng, 7, 450)
    u = _random_vector(rng, 37, 10)
    v = _random_vector(rng, 37, 10)
    f, g = Polynomial(_mul_int(h, u)), Polynomial(_mul_int(h, v))
    assert len(f.coeffs) > 40
    monkeypatch.setattr(field, "_subresultant_gcd", refuse)
    assert normalized(f.gcd(g)) == normalized(Polynomial(h))


# ---------------------------------------------------------------------------
# gcd cofactors and Henrici addition
# ---------------------------------------------------------------------------


def _primitive_vector(rng, length, bits):
    prim, _ = _primitive(_random_vector(rng, length, bits))
    return prim


def _coprime(f, g):
    """True when a prime p not dividing lc(f) gives a constant gcd of the
    images: the image gcd has at least the degree of the gcd over Q."""
    for p in (_GCD_PRIMES[0], 1_000_000_007, 998_244_353):
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 32), st.integers(1, 12), st.integers(1, 60),
       st.integers(1, 60), st.integers(1, 80))
def test_gcd_cofactors_property(seed, len_h, len_u, len_v, bits):
    # lengths of f and g on both sides of the subresultant cut-off (40)
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


def test_gcd_cofactors_wide_common_factor_takes_subresultant(monkeypatch):
    # a 950-bit common factor is past what the five primes lift (~900 bits),
    # so the subresultant sequence decides and its cofactors are divided once
    calls = []
    subresultant = field._subresultant_gcd

    def counted(f, g):
        calls.append(len(f))
        return subresultant(f, g)

    monkeypatch.setattr(field, "_subresultant_gcd", counted)
    rng = random.Random(950)
    h = _primitive_vector(rng, 38, 950)
    u = _primitive_vector(rng, 4, 8)
    v = _primitive_vector(rng, 3, 8)
    f, g = _mul_int(h, u), _mul_int(h, v)
    assert len(f) > 40
    assert _check_cofactors(f, g) == h
    assert calls


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
    # the modular gcd certifies its candidate by dividing f h and g h by it,
    # and those two quotients are the reduced numerator and denominator
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
