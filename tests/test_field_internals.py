"""Stress tests for the polynomial gcd/division cores against a plain
Fraction-based Euclid oracle, covering short and long inputs, degree gaps,
and non-monic inputs; property tests of the integer-vector multiply and
exact division against schoolbook references, on both sides of their
packing cut-offs; and of the gcd's cofactors against a residue-list Euclid
over GF(p) and against sympy, and the Henrici addition built on them."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelkit import field
from hankelkit.field import (
    _DIV_PACK_MIN,
    _MUL_PACK_MIN,
    FieldElem,
    Polynomial,
    _gcd_cofactors,
    _mul_int,
    _pack,
    _primitive,
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
