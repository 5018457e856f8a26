"""Exact arithmetic for Q, Q[q] and the rational function field Q(q).

Everything here is exact, and no floating point appears anywhere in the
package.  A *primitive vector* is an integer coefficient tuple (ascending
degree, trailing coefficient nonzero, positive leading entry, gcd 1).  A
FieldElem is p n / (r d): two coprime ints p and r > 0 and two coprime
primitive vectors n and d, so by Gauss's lemma each element of Q(q) has
exactly one such form (Knuth, TAOCP vol. 2, 4.6.1).  FieldElem is the
package's only arithmetic type.  A Polynomial, as ``num`` and ``den``
return it, is the FieldElem with d = (1,): a subclass with no slots of its
own, whose arithmetic, equality and rendering are FieldElem's, except that
the product, the exact quotient and the gcd of two Polynomials, which the
benchmark's kernel rows time, stay Polynomials.  Products of primitive
vectors stay primitive, so the hot paths (convolution, exact division, gcd,
rendering) run on plain Python ints.

Long vectors are multiplied by Kronecker substitution (Harvey, JSC 2009):
a vector is packed into one int as its value at a power of 2, the ints are
multiplied by CPython's big-int multiply, and the product's coefficients are
read back as signed base-2^w digits (a bias of 2^(w-1) in every slot makes
the digits nonnegative for ``to_bytes``).  The slot width w, a whole number
of bytes, is bits(a) + bits(b) + bit_length(min length) + 1, enough for any
coefficient of the product with its sign.  Harvey's two-point variant (KS2)
multiplies the values at 2^(w/2) and -2^(w/2), whose sum and difference hold
the even and the odd coefficients in w-bit slots: two multiplies of half
the length.  At (degree 1300, 600 bits) that took 171 ms and a peak of
1.5 MB of new memory, against 279 ms and 2.5 MB for one product at 2^w.

The longest products are multiplied by the C ``decimal`` module instead:
libmpdec multiplies large operands with a number-theoretic transform
(Pollard, Math. Comp. 25, 1971), in n log n steps where CPython's
Karatsuba takes n^1.58.  ``_mul_decimal`` runs KS2 at 10^(d/2) and
-10^(d/2), with d the least even number of digits such that 10^d >
2^(bits(a) + bits(b) + bit_length(min length) + 2): a slot then holds
twice any coefficient of the product with its sign, since the sum and
the difference of the two products hold the even and the odd
coefficients doubled.  A vector is packed from leaf strings of at most
``_DEC_LEAF`` coefficients, each printed with a bias of 10^d/2 so that it
takes exactly d digits, joined by halves with ``scaleb`` and ``add``.  The
product is read back by splits at 10^(d k) rounded to nearest, which leave
each low part equal to its own k digits, down to leaf strings, where the
bias is added back.  Every operation runs in one context of precision
``MAX_PREC`` that traps ``Inexact``, ``Rounded`` and ``InvalidOperation``,
so a lost digit raises instead of returning a wrong coefficient.  Slots
of more than 640 digits stay on KS2, since ``str`` and ``int`` may refuse
them under the interpreter's limit on integer string conversion.  Without
the C module the cut-off is infinite, since ``_pydecimal`` is far slower.

The cut-off ``_MUL_DEC_MIN`` = 200 000 is on max(len a, len b) (bits(a) +
bits(b)), which sizes the packed operands.  A sweep of products of two
vectors of equal (length, bits), best of 9 alternated runs (Python 3.11,
one core), KS2 against decimal in ms: (1301, 600) 192 / 75; (1501, 260)
63 / 33; (601, 200) 8.8 / 7.2; (1301, 80) 10.5 / 9.3; (1701, 60) 7.7 /
7.3; (601, 170) 6.0 / 5.9; (901, 100) 8.5 / 8.4; (1301, 100) 13.5 / 15.1;
(301, 300) 4.7 / 5.5; (801, 100) 7.6 / 8.5; (601, 130) 6.4 / 7.5; (401,
100) 2.9 / 4.5.  Between sizes of 1.5 and 3 * 10^5 the two paths are
within 20 % of each other either way; below that decimal loses by up to
1.6x, and above it gains up to 2.6x.  Its extra cost is the string
conversions, one per coefficient.  That sweep predates the word path of
``_pack`` and ``_unpack`` below: since it, the 72 products past the
cut-off in the n = 13 Bareiss determinant of ``c:q^2,q,q^2`` (62
certificates of its exact divisions, 7 products of its clearing lcms and 3
in its mirrored columns; operands of 26-2977 coefficients, bits(a) +
bits(b) of 132-446) took 0.63-0.69 s through decimal against 0.55-0.57 s
on KS2 (best of 5 replays, 3 rounds, Python 3.11).  Leaves of 16 to 128
coefficients differed by less than the noise between sweeps, 32 was
within 7 % of the fastest at (1301, 600), (601, 200) and (1301, 100), and
8 was slower.  The traced peak of new memory at (1301, 600) is 1.54 MB
against 1.48 MB for KS2, and 0.22 against 0.23 MB at (601, 200).

A signed sum of products of integer vectors, as every Bareiss update is,
runs one KS2 for the whole sum (``_sum_of_products``): each term's two
half-length products are added into two ints with the term's sign, and
the sum is read back once, at the slot width of its largest term plus
bit_length(#terms) bits.  The vectors carry their own contents, so the
sum takes no multipliers, and it has no decimal route: a term past
``_MUL_DEC_MIN`` stays on KS2.  Packing and reading back cost per
coefficient, and at Bareiss's sizes they cost more than the multiplies:
on a (107, 43-bit) product KS2 took 188 us, of which the two big-int
multiplies were 36 us (best of 9, Python 3.11, one core).  So a sum of
three products reads back one vector, not three, and a caller's table
packs each operand that recurs once per slot width.

Long exact divisions are 2-adic (Jebelean, JSC 1993), not ``divmod`` on the
packed ints: CPython's big-int division is quadratic, and at (degree 1300,
600 bits) a packed ``divmod`` took over 6 s against 1.4-2.0 s for the
schoolbook loop and 0.5 s for the 2-adic path (Python 3.11, one core).  With
F = f(2^w) and G = g(2^w), the quotient h(2^w) = F / G is F G^-1 modulo
2^(w len h) once the powers of 2 are divided out of G, and a Newton
iteration gives G^-1 with multiplies only; the quotient is found in two
halves, so G^-1 is needed to half the precision.  Quotient coefficients
have no cheap bound, so w is a guess from bits(f) - bits(g); the result is
returned only when g h == f (the certificate), and otherwise the schoolbook
loop decides.  Lead coefficients that do not divide, missing zero low
coefficients and a 2-adic valuation of F below G's reject at once.

Long quotients are divided by KS2, as products are: H+ = h(2^(w/2)) and
H- = h(-2^(w/2)) are exact quotients of the values of f and g there, ints
half as long as F, and (H+ + H-)/2 and (H+ - H-)/2^(w/2 + 1) hold the even
and the odd coefficients at 2^w, as after a product.  With n = len h and
every |h_i| < 2^(w-1), |H+-| < 2^(w-1) 2 2^((w/2)(n-1)) = 2^(k-1) for k =
(w/2)(n + 1) + 1, so the residue modulo 2^k in [-2^(k-1), 2^(k-1)) is the
quotient itself.  A
divisor with a root at 2^(w/2) or -2^(w/2) has no quotient there, and the
schoolbook loop decides.  Under Karatsuba the Newton inverse and the
masked products of two quotients of half the length cost about 2/3 of one.
The exact division at (1300, 600), certificate included, took 190 ms
against 280 ms for one quotient at 2^w, and 14.4 against 18.2 ms at (600,
200) (best of 9, interleaved in one process, Python 3.11).  The cut-off
``_DIV_KS2_MIN`` = 8192 is on w n, the bits of the packed quotient: below
it the cost is Python's, two Newton loops and four packs in place of one
and two.  In a sweep of quotients of 64-384 coefficients of 8-80 bits by
divisors of as many 20-bit coefficients (best of 15, 3 rounds), KS2 took
0.95-1.34 times the one-point time up to w n = 8192 (above 1 at 8 of 10
points), 0.88-0.96 times from 9216 to 13 824 bits and 0.76-0.86 times
above.  In a replay of the ``_quotient_2adic`` calls of one repetition of
each benchmark workload (two seeds, best of 31, interleaved), the 140
calls past the cut-off took 414 ms against 596 ms at 2^w, and the 1058
below it 78.7 ms, against 77.9 ms before the quotient at 2^w moved into
the integer helper it now shares with KS2.

Below the cut-offs the schoolbook loops win.  A sweep over lengths 4-600 and
coefficient sizes 1-600 bits put the multiply's crossover at a shorter
length of 12-16 (16 at 600 bits), hence ``_MUL_PACK_MIN`` = 16.  The 2-adic
division wins once divisor and quotient both have 24-32 coefficients of up
to 30 bits; at 200 bits it needs 64, and between 32 and 64 it loses up to
1.5x to the loop.  The q-moment determinants have small coefficients, hence
``_DIV_PACK_MIN`` = 32.  It was swept again on the 824 calls left in one
``roundtrip-verify`` repetition once the gcd took its cofactors from the
packed quotient (seed 3, best of 15, interleaved, Python 3.11): cut-offs
of 8, 16, 24, 32, 48, 64 and none took 35.6, 34.7, 36.6, 36.9, 40.2, 44.2
and 58.8 ms (seed 4: 36.9, 36.3, 37.7, 39.2, 41.1, 45.0 and 61.5).  The
gain at 16 is 29 calls of a long quotient (37-201 coefficients) over a
divisor of 16-31 coefficients of at most 23 bits, 4.9 against 9.4 ms,
while a quotient and a divisor of 16 coefficients each took 66 against
35 us at 8 bits and 155 against 71 us at 200 bits on the 2-adic path.
The 287 calls of one ``det-kernels`` repetition took 318-327 ms at every
cut-off from 8 to 64.  So 32 stays.

``_pack`` splits a vector in halves down to runs of 16 coefficients, which
it folds by Horner's rule: a fold of the whole vector shifts an ever longer
int and is quadratic, while runs of one coefficient pay a call per slot.
At 600 coefficients of 200 bits (w = 416, best of 25 in the quietest of 4
rounds) one pack took 222 us with runs of 16,
against 431 us with runs of 1, 228 us with runs of 8, 280 us with runs of
32, 446 us with runs of 64 and 4.7 ms with no split.  Runs of 16 were the
fastest or within 12 % of it at 40, 100 and 600 coefficients; at 1300
coefficients (w = 1216) runs of 4-24 differed by less than the noise
between sweeps (Python 3.11, one core).

Vectors of at least ``_WORDS_MIN`` coefficients are converted through
machine words instead, on little-endian hosts, in a few calls into C.
``_pack`` reads the vector into one ``array("q")``, which refuses a
coefficient wider than 64 bits, copies the low bytes of each word into its
slot by strided byte-slice copies, and turns the two's-complement slots
into the value with one XOR and one subtraction of a bias.  A slot
narrower than a word takes the word only when the bytes cut off repeat its
sign, so a vector packed with carries, as the gcd and the 2-adic quotient
pack theirs, stays on Horner's rule.  ``_unpack`` adds the bias and XORs
it back, so that each slot holds its digit in two's complement, calls
``to_bytes`` once, widens each slot to 8 or 16 bytes (the sign bytes come
from a 256-entry ``translate`` table) and reads every digit with one
``memoryview`` cast; a 16-byte slot is read as an unsigned low word and a
signed high word.  Wider slots keep one ``from_bytes`` per slot.  The
(107, 43-bit) product above then took 137 us.  Per call (best of 9) the
word path unpacks faster from 16-24 coefficients at slots of up to 8
bytes, but only from about 96 at 12 bytes, where each digit is two words
joined in Python; in a replay of the benchmark's pack and unpack calls,
cut-offs of 32, 48 and 64 coefficients were within the noise of each
other.  Over ten alternating pairs of ``det-kernels`` runs (55 s each, 2
cores, Python 3.11) the word path cut the median ``wall_s`` from 1.271 to
1.227 s, lower in all ten pairs.  The 16-byte read pays at Bareiss's
sizes: the 319 unpacks of 9-16-byte slots (163-457 coefficients) in one n
= 10 ``det_bareiss`` took 16.8 ms through it against 23.7 ms by
``from_bytes`` (replayed, best of 31), and without it the ``det-kernels``
median read 1.128 against 1.120 s, lower in 3 of ten pairs.

Gcds are heuristic (GCDHEU: Char, Geddes and Gonnet, JSC 1989) and
certified.  For primitive f = h u and g = h v with h their gcd, the integer
gcd of F = f(2^w) and G = g(2^w) is h(2^w) k with k = gcd(u(2^w),
v(2^w)); its signed base-2^w digits are read back by ``_unpack``.  If 2^w >
2 min(|f|, |g|) + 2 (max norms) and the primitive part h of those digits
divides both f and g, it is the gcd (Geddes, Czapor and Labahn, Algorithms
for Computer Algebra, 1992, 7.7).  The certificate is the two cofactors
f/h and g/h, and the gcd returns them.  The slot width w = 8
floor((min(bits f, bits g) + 18) / 8), 8 bits less for long inputs
(below), meets that bound, and w doubles whenever a cofactor does not
exist.  The loop ends: k divides the resultant res(u, v), which is nonzero
and does not depend on w, so once 2^w > 2 |res(u, v)| |h| the digits are
exactly k h.  Replaying the 64 245 gcd calls of one ``verify
all`` and one n = 10 determinant per engine, 10 356 packed their inputs
(the rest had a constant input); 171 of those needed more than one slot
width, and none more than three.

Each cofactor is read off the packed ints the gcd has already built
(``_cofactor``).  With H = h(2^w), the integer gcd divided by the content
of its digits, take U, r = divmod(F, H).  If r != 0, h does not divide f,
since f = h u gives F = H u(2^w).  If r = 0, U is read back as the n = len
f - len h + 1 signed digits of u, and u is f/h, with no vector division, when
U.bit_length() < w n - 1, so that the digits hold U exactly; bits(h) +
bits(u) + bit_length(min(len h, n)) < w, so that every coefficient of h u
is below 2^(w-1); and bits(f) < w - 1.  Then h u - f vanishes at 2^w and
every coefficient of it is below 2^w in absolute value, so it is 0.  In
any other case ``_try_div_exact`` decides, and it decides every quotient
of w n >= ``_DIV_KS2_MIN`` bits, since CPython's divmod is quadratic.  The
gcd and its cofactors are unique, so the route changes no result.

The slot width stays sized by the smaller input: sized by max(bits f,
bits g), at the margin of 18 below, ``det --seq c:q^1000,q,q^1000 --n 5``
took 5.8 s against 0.85 s, spent in ``math.gcd``.  The margin of 18 bits
over min(bits f, bits g) is measured on the 11 341 gcds with two
nonconstant inputs of one ``roundtrip-verify`` repetition (seed 3; best of
7, interleaved in one process, Python 3.11), which two exact divisions per
gcd certified in 343 ms.  With one margin for every gcd: at 10 bits, 2 944
cofactors failed the slot fit and fell back to ``_try_div_exact``, and the
gcds took 336 ms; at 18, 262 of 11 685 fell back, for 259 ms; at 26, 37,
for 256 ms.  The gcds of one ``det-kernels`` repetition took 147, 143, 127
and 123 ms in the same order.  The 8 bits past the margin of 10 serve only
cofactors short enough for divmod, and they cost ``math.gcd``, which is
quadratic, most on small coefficients.  So inputs whose shorter length
times w reaches ``_DIV_KS2_MIN`` keep the margin of 10.  With 18 bits for
every gcd, ``det --seq c:q^1000,q,q^1000 --n 4``, whose gcds pack 1-bit
coefficients at 16 bits against 8, took 9.5 s against 7.3 s at 10 bits;
with the rule it took 6.9 s, and the replayed gcds of the two workloads
took 243 against 326 ms (268 cofactors fell back) and 114 against 135 ms.

The gcd returns the cofactors its certificate computed, (h, f/h, g/h), so
no caller divides by a gcd it has just computed.  Addition is Henrici's
(JACM 1956; Knuth, TAOCP vol. 2, 4.5.1): for reduced a/b and c/d with
g = gcd(b, d), b = b' g and d = d' g, the sum is (a d' + c b') / (b' d),
and its numerator is coprime to b' d', so it is reduced against g alone,
and not at all when g = 1.  In one repetition of the benchmark's
``roundtrip-verify`` workload (Python 3.11, one core) the two cut the exact
divisions from 43 364 to 27 584 and the time inside FieldElem additions
from 2.83 to 2.02 s; the median repetition over ten runs went from 6.59 to
5.58 s.

Contents are ints, not ``Fraction``s.  A product cancels the two contents
across each other with two ``math.gcd`` calls and builds no object, and
``render`` prints coefficient k as p (k/g) / (r/g) with g = gcd(k, r); when
r = 1 neither needs a gcd.  Over ten alternating pairs of ``roundtrip-verify``
runs the median repetition went from 2.16 to 1.73 s, all of it in the
``verify all`` part (reference seconds, Python 3.11, one core).
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction

from .errors import DivisionByZero, ParseError, PoleAtPoint

# ---------------------------------------------------------------------------
# integer coefficient vectors (ascending, no trailing zeros)
# ---------------------------------------------------------------------------

_MUL_PACK_MIN = 16
_DIV_PACK_MIN = 32
_DIV_KS2_MIN = 8192
_DEC_LEAF = 32
_WORDS_MIN = 48

try:
    from _decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal,
                          Inexact, InvalidOperation, Rounded)
except ImportError:
    # the pure-Python decimal multiplies far slower than CPython's ints
    _MUL_DEC_MIN = math.inf
else:
    _MUL_DEC_MIN = 200_000
    # every result is exact, and any rounding raises
    _EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, rounding=ROUND_HALF_EVEN,
                     traps=[Inexact, Rounded, InvalidOperation])


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _add_int(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _bits(coeffs):
    return max(map(int.bit_length, coeffs))


# long vectors are converted through machine words (module docstring), in
# the host's byte order
_WORDS = sys.byteorder == "little"
# the sign byte of a two's-complement slot whose top byte is b
_SIGN = bytes(255 if b >= 128 else 0 for b in range(256))


def _widen(data, src, dst, n):
    """The n little-endian two's-complement slots of src bytes in data,
    sign-extended to slots of dst >= src bytes."""
    if src == dst:
        return data
    out = bytearray(dst * n)
    for j in range(src):
        out[j::dst] = data[j::src]
    sign = data[src - 1::src].translate(_SIGN)
    for j in range(src, dst):
        out[j::dst] = sign
    return out


def _pack(coeffs, w, lo=0):
    """sum(coeffs[lo + i] * 2^(w i)); coefficients may be signed and wider
    than w bits (their excess carries into the next slots)."""
    n = len(coeffs) - lo
    if _WORDS and n >= _WORDS_MIN and not w & 7:
        try:
            words = array("q", coeffs[lo:] if lo else coeffs).tobytes()
        except OverflowError:
            words = b""
        nbytes = w >> 3
        # the low bytes of each word that go into its slot
        size = min(nbytes, 8)
        sign = words[size - 1::8].translate(_SIGN)
        # every coefficient fits its slot: the bytes left out repeat its sign
        if words and all(words[j::8] == sign for j in range(size, 8)):
            # each slot holds its coefficient in two's complement in its low
            # size bytes; flipping their top bit adds the bias that makes the
            # coefficient nonnegative, and subtracting the bias leaves the value
            bias = int.from_bytes((bytes(size - 1) + b"\x80" + bytes(nbytes - size)) * n,
                                  "little")
            data = bytearray(nbytes * n)
            for j in range(size):
                data[j::nbytes] = words[j::8]
            return (int.from_bytes(data, "little") ^ bias) - bias
    return _pack_horner(coeffs, w, lo, len(coeffs))


def _pack_horner(coeffs, w, lo, hi):
    """sum(coeffs[lo + i] * 2^(w i)) for i < hi - lo, by halves down to
    runs of 16 coefficients folded by Horner's rule."""
    if hi - lo <= 16:
        acc = 0
        for i in range(hi - 1, lo - 1, -1):
            acc = (acc << w) + coeffs[i]
        return acc
    mid = (lo + hi) // 2
    high = _pack_horner(coeffs, w, mid, hi)
    return (high << (w * (mid - lo))) + _pack_horner(coeffs, w, lo, mid)


def _unpack(value, nbytes, n):
    """The n signed base-2^(8 nbytes) digits of value modulo 2^(8 nbytes n),
    each assumed to lie in [-2^(8 nbytes - 1), 2^(8 nbytes - 1))."""
    size = nbytes * n
    # a bias of 2^(8 nbytes - 1) in every slot makes the digits nonnegative
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
    value = (value + bias) & ((1 << (8 * size)) - 1)
    if _WORDS and nbytes <= 16 and n >= _WORDS_MIN:
        # XOR-ing the bias back leaves each digit in two's complement
        data = (value ^ bias).to_bytes(size, "little")
        if nbytes <= 8:
            return memoryview(_widen(data, nbytes, 8, n)).cast("q").tolist()
        # a 16-byte slot is read as an unsigned low word and a signed high word
        view = memoryview(_widen(data, nbytes, 16, n))
        return [hi << 64 | lo for lo, hi in zip(view.cast("Q")[0::2].tolist(),
                                                 view.cast("q")[1::2].tolist())]
    data = value.to_bytes(size, "little")
    del value
    half = 1 << (8 * nbytes - 1)
    from_bytes = int.from_bytes
    return [from_bytes(data[i:i + nbytes], "little") - half for i in range(0, size, nbytes)]


def _pack_pm(coeffs, w, lo=0):
    """The values at 2^(w/2) and at -2^(w/2) of the vector read from index
    lo on."""
    even = _pack(coeffs[lo::2], w)
    odd = _pack(coeffs[lo + 1::2], w) << (w // 2)
    return even + odd, even - odd


def _unpack_pm(plus, minus, nbytes, n):
    """The n coefficients of a vector v from P = v(2^(w/2)) and M =
    v(-2^(w/2)), w = 8 nbytes, each coefficient fitting a w-bit slot with
    its sign: (P + M) / 2 holds the even coefficients at 2^w, and (P - M) /
    2^(w/2 + 1) the odd ones."""
    out = [0] * n
    odd = (plus - minus) >> (4 * nbytes + 1)
    out[0::2] = _unpack((plus + minus) >> 1, nbytes, (n + 1) // 2)
    out[1::2] = _unpack(odd, nbytes, n // 2)
    return out


def _mul_packed(a, b, bits):
    """a * b by KS2; bits is _bits(a) + _bits(b)."""
    # a slot of w bits holds every coefficient of the product with its sign
    nbytes = (bits + min(len(a), len(b)).bit_length() + 8) // 8
    return tuple(_ks2(((1, a, b),), nbytes, len(a) + len(b) - 1, _pack_pm))


def _ks2(terms, nbytes, length, pair):
    """The length coefficients of sum(s a b for s, a, b in terms), for signs
    s = 1 or -1 and integer vectors a and b, from the sum's values at
    2^(w/2) and -2^(w/2), w = 8 nbytes (Harvey's KS2): two multiplies per
    term of ints half as long as the one product at 2^w.  Every coefficient
    of the sum must fit a w-bit slot with its sign; pair(v, w) is
    _pack_pm(v, w)."""
    w = 8 * nbytes
    plus = minus = 0
    for s, a, b in terms:
        a_plus, a_minus = pair(a, w)
        b_plus, b_minus = pair(b, w)
        # these ints are the peak memory of a long product: free each early
        prod = a_plus * b_plus
        del a_plus, b_plus
        plus = plus + prod if s > 0 else plus - prod
        prod = a_minus * b_minus
        del a_minus, b_minus
        minus = minus + prod if s > 0 else minus - prod
        del prod
    return _unpack_pm(plus, minus, nbytes, length)


class _DecimalSlots:
    """Base-10^d slots (d even) in exact ``Decimal``s; a slot holds a digit
    in (-10^d/2, 10^d/2) and is written with a bias of 10^d/2 added, so that
    it prints as exactly d digits."""

    __slots__ = ("d", "half", "_biases")

    def __init__(self, d):
        self.d = d
        self.half = 5 * 10 ** (d - 1)
        self._biases = {}

    def bias(self, k):
        """10^d/2 in each of k slots (a leaf has one of few lengths)."""
        b = self._biases.get(k)
        if b is None:
            b = self._biases[k] = Decimal(str(self.half) * k)
        return b

    def pack(self, coeffs, lo=0, hi=None):
        """sum(coeffs[lo + i] * 10^(d i)) from leaf strings of at most
        ``_DEC_LEAF`` coefficients, joined by halves as ``_pack`` does."""
        if hi is None:
            hi = len(coeffs)
        if hi - lo <= _DEC_LEAF:
            if lo == hi:
                return Decimal(0)
            half = self.half
            text = "".join([str(c + half) for c in reversed(coeffs[lo:hi])])
            return _EXACT.subtract(Decimal(text), self.bias(hi - lo))
        mid = (lo + hi) // 2
        return _EXACT.add(self.pack(coeffs, lo, mid),
                          self.pack(coeffs, mid, hi).scaleb(self.d * (mid - lo), _EXACT))

    def unpack_halves(self, value, n, out):
        """Append to out the n digits of value, halved (each is even), lowest
        first.  A split at 10^(d k) rounds to nearest, so its low part is
        exactly the k lowest digits: their sum is below 10^(d k)/2."""
        d = self.d
        if n <= _DEC_LEAF:
            if n:
                # with the bias every digit is nonnegative, and the string
                # holds them in fixed-width runs
                text = str(_EXACT.add(value, self.bias(n))).zfill(d * n)
                half = self.half
                out += [(int(text[i - d:i]) - half) >> 1 for i in range(d * n, 0, -d)]
            return
        k = n // 2
        high = value.scaleb(-d * k, _EXACT).to_integral_value(ROUND_HALF_EVEN, _EXACT)
        low = _EXACT.subtract(value, high.scaleb(d * k, _EXACT))
        del value
        self.unpack_halves(low, k, out)
        del low
        self.unpack_halves(high, n - k, out)


def _mul_decimal(a, b, bits):
    """a * b by KS2 at 10^(d/2) and -10^(d/2), multiplied by libmpdec's
    number-theoretic transform (module docstring); bits is _bits(a) +
    _bits(b)."""
    # a slot of d digits holds twice any coefficient of the product with its
    # sign: 10^d > 2^(bits + bit_length(min length) + 2) > 4 |c|
    d = (bits + min(len(a), len(b)).bit_length() + 2) * 30103 // 100000 + 1
    d += d & 1
    if d > 640:
        # str() and int() of more digits may pass the interpreter's limit on
        # integer string conversion, which is never below 640 digits
        # (sys.int_info.str_digits_check_threshold)
        return _mul_packed(a, b, bits)
    slots = _DecimalSlots(d)
    h = d // 2

    def plus_minus(v):
        even = slots.pack(v[0::2])
        odd = slots.pack(v[1::2]).scaleb(h, _EXACT)
        return _EXACT.add(even, odd), _EXACT.subtract(even, odd)

    a_plus, a_minus = plus_minus(a)
    b_plus, b_minus = plus_minus(b)
    # as in _ks2, these are the peak memory: free each early
    plus = _EXACT.multiply(a_plus, b_plus)
    del a_plus, b_plus
    minus = _EXACT.multiply(a_minus, b_minus)
    del a_minus, b_minus
    n = len(a) + len(b) - 1
    out = [0] * n
    # plus - minus is 2 * 10^(d/2) times the odd coefficients at 10^d, and
    # plus + minus twice the even ones
    odd = _EXACT.subtract(plus, minus).scaleb(-h, _EXACT).to_integral_value(context=_EXACT)
    plus = _EXACT.add(plus, minus)
    del minus
    digits = []
    slots.unpack_halves(plus, (n + 1) // 2, digits)
    del plus
    out[0::2] = digits
    digits = []
    slots.unpack_halves(odd, n // 2, digits)
    out[1::2] = digits
    return tuple(out)


def _mul_int(a, b):
    if not a or not b:
        return ()
    # the denominator of every polynomial-valued field element is (1,)
    if a == (1,):
        return b
    if b == (1,):
        return a
    if min(len(a), len(b)) >= _MUL_PACK_MIN:
        bits = _bits(a) + _bits(b)
        if max(len(a), len(b)) * bits >= _MUL_DEC_MIN:
            return _mul_decimal(a, b, bits)
        return _mul_packed(a, b, bits)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _pow_int(a, e):
    """a^e for e >= 0 by repeated squaring; the square after the last bit
    of e is never needed, so it is skipped."""
    result = (1,)
    while e:
        if e & 1:
            result = _mul_int(result, a)
        e >>= 1
        if e:
            a = _mul_int(a, a)
    return result


def _primitive(coeffs):
    """Return (primitive vector with positive leading entry, signed content)."""
    coeffs = _trim(coeffs)
    if not coeffs:
        return (), 0
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
        if g == 1:
            break
    if coeffs[-1] < 0:
        g = -g
    if g == 1:
        return coeffs, 1
    return tuple(c // g for c in coeffs), g


def _inverse_2adic(g, k):
    """Inverse of the odd integer g modulo 2^k, by Newton iteration."""
    x = 1
    prec = 1
    while prec < k:
        step = min(prec, k - prec)
        mask = (1 << step) - 1
        # g x = 1 - 2^prec e; then x + 2^prec x e is right to 2 prec bits
        e = ((1 - (g & ((1 << (prec + step)) - 1)) * x) >> prec) & mask
        x += ((x * e) & mask) << prec
        prec += step
    return x


def _divexact_2adic(big_f, big_g, k):
    """The exact quotient F / G of ints, G != 0, as the signed int in
    [-2^(k-1), 2^(k-1)) congruent to it modulo 2^k (Jebelean), or None when
    the 2-adic valuation of F is below G's, so that G cannot divide F."""
    v = (big_g & -big_g).bit_length() - 1
    if big_f & ((1 << v) - 1):
        return None
    big_f >>= v
    big_g >>= v
    # F G^-1 mod 2^k, found in two halves so that G^-1 is only needed to
    # half the precision
    half = (k + 1) // 2
    inv = _inverse_2adic(big_g, half)
    lo = (big_f & ((1 << half) - 1)) * inv & ((1 << half) - 1)
    rest = (big_f - (big_g & ((1 << k) - 1)) * lo) >> half
    hi = (rest & ((1 << (k - half)) - 1)) * inv & ((1 << (k - half)) - 1)
    h = lo + (hi << half)
    return h - (1 << k) if h >> (k - 1) else h


def _quotient_2adic(f, g, low, n):
    """Candidate for the n coefficients of f / g, both read from index low
    on, g[low] != 0, from exact integer quotients of the vectors' values at
    a slot width w guessed from bits(f) - bits(g): h(2^w) = f(2^w) / g(2^w)
    when w n < ``_DIV_KS2_MIN``, else h(2^(w/2)) and h(-2^(w/2)) (KS2).
    None when one of those integer divisions is inexact, so g cannot divide
    f; () when a divisor value is 0."""
    nbytes = (max(_bits(f) - _bits(g), 0) + n.bit_length() + 16) // 8
    w = 8 * nbytes
    if w * n < _DIV_KS2_MIN:
        big_g = _pack(g, w, low)
        if not big_g:
            return ()
        quot = _divexact_2adic(_pack(f, w, low), big_g, w * n)
        return None if quot is None else tuple(_unpack(quot, nbytes, n))
    g_plus, g_minus = _pack_pm(g, w, low)
    if not g_plus or not g_minus:
        return ()
    f_plus, f_minus = _pack_pm(f, w, low)
    # with every |h_i| < 2^(w-1), |h(+-2^(w/2))| < 2^(w-1) 2 2^(w/2 (n-1)) =
    # 2^(k-1), so the signed lifts modulo 2^k are the values themselves
    k = w // 2 * (n + 1) + 1
    plus = _divexact_2adic(f_plus, g_plus, k)
    if plus is None:
        return None
    minus = _divexact_2adic(f_minus, g_minus, k)
    if minus is None:
        return None
    return tuple(_unpack_pm(plus, minus, nbytes, n))


def _try_div_exact(f, g):
    """Quotient of f by g when the division is exact over Z, else None."""
    if not g:
        raise DivisionByZero("polynomial division by zero")
    if not f:
        return ()
    if len(f) < len(g) or f[-1] % g[-1]:
        return None
    n = len(f) - len(g) + 1
    if min(n, len(g)) >= _DIV_PACK_MIN:
        low = 0
        while not g[low]:
            low += 1
        if any(f[:low]):
            return None
        quot = _quotient_2adic(f, g, low, n)
        if quot is None:
            return None
        # the slot width is a guess; only the product back certifies
        if quot and _mul_int(g[low:], quot) == f[low:]:
            return quot
    lg = g[-1]
    dg = len(g) - 1
    rem = list(f)
    quot = [0] * (len(f) - dg)
    for pos in range(len(f) - 1, dg - 1, -1):
        top = rem[pos]
        if top:
            c, r = divmod(top, lg)
            if r:
                return None
            off = pos - dg
            quot[off] = c
            for i in range(dg + 1):
                rem[off + i] -= c * g[i]
    if any(rem[:dg]):
        return None
    return tuple(quot)


def _cofactor(f, big_f, bits_f, h, big_h, bits_h, w):
    """f / h for primitive f and h with F = f(2^w) and H = h(2^w), or None
    when h does not divide f: from the packed quotient F / H when its digits
    fit their slots (module docstring), else by ``_try_div_exact``."""
    n = len(f) - len(h) + 1
    # CPython's divmod is quadratic: only short quotients take it
    if w * n < _DIV_KS2_MIN:
        big_u, rem = divmod(big_f, big_h)
        if rem:
            return None
        # |f| < 2^(w-2), and n signed digits hold U exactly
        if bits_f < w - 1 and big_u.bit_length() < w * n - 1:
            u = _unpack(big_u, w >> 3, n)
            # every coefficient of h u - f is below 2^w, and it vanishes at 2^w
            if bits_h + _bits(u) + min(len(h), n).bit_length() < w:
                return tuple(u)
    return _try_div_exact(f, h)


def _gcd_cofactors(f, g):
    """(h, f/h, g/h): h is the primitive gcd (positive leading entry) of the
    nonzero primitive vectors f, g; a trivial gcd returns f and g unchanged.
    Heuristic gcd at 2^w, certified by its cofactors (module docstring)."""
    if len(f) == 1 or len(g) == 1:
        return (1,), f, g
    bits_f, bits_g = _bits(f), _bits(g)
    # 2^w > 2 min(|f|, |g|) + 2, the bound the certificate needs, with 8 bits
    # more for the cofactors' digits to fit their slots, unless the inputs
    # are too long for their cofactors to be read off a packed divmod
    nbytes = (min(bits_f, bits_g) + 18) // 8
    if 8 * nbytes * min(len(f), len(g)) >= _DIV_KS2_MIN:
        nbytes -= 1
    while True:
        w = 8 * nbytes
        big_f, big_g = _pack(f, w), _pack(g, w)
        x = math.gcd(big_f, big_g)
        # x < 2^(w n - 1) for n = bit_length // w + 1: n signed digits hold x
        h, c = _primitive(_unpack(x, nbytes, x.bit_length() // w + 1))
        if len(h) == 1:
            return (1,), f, g
        big_h, bits_h = x // c, _bits(h)
        f_cof = _cofactor(f, big_f, bits_f, h, big_h, bits_h, w)
        if f_cof is not None:
            g_cof = _cofactor(g, big_g, bits_g, h, big_h, bits_h, w)
            if g_cof is not None:
                return h, f_cof, g_cof
        nbytes *= 2


# ---------------------------------------------------------------------------
# polynomials over Q
# ---------------------------------------------------------------------------


def _combine(xp, xr, a, yp, yr, b):
    """xp/xr a + yp/yr b for nonzero reduced contents and primitive a, b, as
    (p, r, primitive vector), (0, 1, ()) when zero: g/l (x' a + y' b) for
    g = gcd(xp, yp) and l = lcm(xr, yr), where g is coprime to l, so only
    the content of x' a + y' b is reduced against l."""
    g = math.gcd(xp, yp)
    lcm = math.lcm(xr, yr)
    xg = xp // g * (lcm // xr)
    yg = yp // g * (lcm // yr)
    prim, cont = _primitive(_add_int(tuple(xg * v for v in a), tuple(yg * v for v in b)))
    h = math.gcd(cont, lcm)
    return g * cont // h, lcm // h, prim


def _times(p1, r1, p2, r2):
    """p1/r1 times p2/r2, both in lowest terms with r1, r2 > 0, as (p, r) in
    lowest terms."""
    if r1 != 1 or r2 != 1:
        # each content is in lowest terms, so only the cross pairs can cancel
        g1, g2 = math.gcd(p1, r2), math.gcd(p2, r1)
        p1, r1, p2, r2 = p1 // g1, r1 // g2, p2 // g2, r2 // g1
    return p1 * p2, r1 * r2


def _sum_of_products(terms, packed, once=None):
    """sum(s a b for s, a, b in terms), for integer vectors a and b and signs
    s = 1 or -1, formed by one ``_ks2`` at the slot width of its largest
    term and read back once.

    ``packed`` is a table owned by the caller, (id(v), w) -> (v,
    _pack_pm(v, w)), so that an operand that recurs is packed once per slot
    width; each entry holds its vector, so that no id is reused while the
    table lives.  The operand ``once``, used in this sum only, is packed
    without the table."""
    terms = [(s, a, b) for s, a, b in terms if a and b]
    if not terms:
        return ()
    bound = length = 0
    for _, a, b in terms:
        short = min(len(a), len(b))
        # every coefficient of a b is below 2^bound in absolute value
        bound = max(bound, _bits(a) + _bits(b) + short.bit_length())
        length = max(length, len(a) + len(b) - 1)

    def pair(v, w):
        if v is once:
            return _pack_pm(v, w)
        entry = packed.get((id(v), w))
        if entry is None:
            entry = packed[id(v), w] = (v, _pack_pm(v, w))
        return entry[1]

    # a slot of w bits holds the sum's coefficients with their signs
    return _trim(_ks2(terms, (bound + len(terms).bit_length() + 8) // 8, length, pair))


# ---------------------------------------------------------------------------
# the fraction field Q(q)
# ---------------------------------------------------------------------------


def _horner(v, a, b):
    """b^(len v - 1) v(a/b), by Horner's rule on integers."""
    acc, scale = 0, 1
    for c in reversed(v):
        acc, scale = acc * a + c * scale, scale * b
    return acc


class FieldElem:
    """Element of Q(q), kept in canonical form p n / (r d).

    ``p`` and ``r`` are coprime ints with r > 0; ``n`` and ``d`` are
    coprime primitive vectors.  Zero is (0, 1, (), (1,)).  ``num`` and
    ``den`` are p/r n and d as Polynomials, the subclass whose elements have
    d = (1,).  Equality and hashing compare the four slots.  Every
    element is kept reduced: ``__init__`` reduces, and each ``_raw`` site
    builds a form that is coprime by construction.  Addition relies on this
    invariant to reduce against gcd(b, d) only.
    """

    __slots__ = ("p", "r", "n", "d")

    def __init__(self, num, den=1):
        den = as_field(den)
        if not den.n:
            raise DivisionByZero("zero denominator in field element")
        x = as_field(num) / den
        self.p, self.r, self.n, self.d = x.p, x.r, x.n, x.d

    @classmethod
    def _raw(cls, p, r, n, d):
        e = object.__new__(cls)
        e.p, e.r, e.n, e.d = p, r, n, d
        return e

    @classmethod
    def _ratio(cls, f, g):
        """f / g for integer vectors f and g, g nonzero."""
        (n, p), (d, r) = _primitive(f), _primitive(g)
        return cls._raw(p, 1, n, (1,)) / cls._raw(r, 1, d, (1,))

    @property
    def num(self) -> Polynomial:
        return Polynomial._raw(self.p, self.r, self.n, (1,))

    @property
    def den(self) -> Polynomial:
        return Polynomial._raw(1, 1, self.d, (1,))

    @property
    def is_zero(self) -> bool:
        return not self.n

    @property
    def is_constant(self) -> bool:
        return self.d == (1,) and len(self.n) <= 1

    def as_rational(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not a rational constant")
        return Fraction(self.p, self.r)

    def __bool__(self):
        return bool(self.n)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.n:
            return other
        if not other.n:
            return self
        # Henrici: for b = b' g, d = d' g with g = gcd(b, d), the sum is
        # (a d' + c b') / (b' d) and its numerator is coprime to b' d', so
        # only g can share a factor with it
        b, d = self.d, other.d
        if b == d:
            g, b_cof, d_cof = d, (1,), (1,)
            p, r, n = _combine(self.p, self.r, self.n, other.p, other.r, other.n)
        else:
            g, b_cof, d_cof = _gcd_cofactors(b, d)
            p, r, n = _combine(self.p, self.r, _mul_int(self.n, d_cof),
                               other.p, other.r, _mul_int(other.n, b_cof))
        if not n:
            return F_ZERO
        h, n, g_cof = _gcd_cofactors(n, g)
        if len(h) == 1:
            den = _mul_int(b_cof, d)
        else:
            den = _mul_int(_mul_int(b_cof, d_cof), g_cof)
        return FieldElem._raw(p, r, n, den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElem._raw(-self.p, self.r, self.n, self.d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.n or not other.n:
            return F_ZERO
        _, n1, d2 = _gcd_cofactors(self.n, other.d)
        _, n2, d1 = _gcd_cofactors(other.n, self.d)
        p, r = _times(self.p, self.r, other.p, other.r)
        return FieldElem._raw(p, r, _mul_int(n1, n2), _mul_int(d1, d2))

    __rmul__ = __mul__

    def reciprocal(self) -> "FieldElem":
        if not self.n:
            raise DivisionByZero("reciprocal of zero")
        sign = -1 if self.p < 0 else 1
        return FieldElem._raw(sign * self.r, sign * self.p, self.d, self.n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by zero field element")
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return F_ONE
        if e < 0:
            return self.reciprocal() ** (-e)
        # n and d are coprime, so are their powers, and so are p^e and r^e
        return FieldElem._raw(self.p ** e, self.r ** e, _pow_int(self.n, e), _pow_int(self.d, e))

    def specialize(self, point) -> Fraction:
        """Exact value at q = point; raises PoleAtPoint on a denominator root."""
        point = Fraction(point)
        a, b = point.numerator, point.denominator
        nv, dv = _horner(self.n, a, b), _horner(self.d, a, b)
        if dv == 0:
            raise PoleAtPoint(point)
        return Fraction(self.p * nv * b ** len(self.d), self.r * dv * b ** len(self.n))

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self.p == other.p and self.r == other.r
                and self.n == other.n and self.d == other.d)

    def __hash__(self):
        # a constant equals its Fraction (and int) value, so it hashes like it
        if self.is_constant:
            return hash(self.p) if self.r == 1 else hash(Fraction(self.p, self.r))
        return hash((self.p, self.r, self.n, self.d))

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"FieldElem({render(self)!r})"


F_ZERO = FieldElem._raw(0, 1, (), (1,))
F_ONE = FieldElem._raw(1, 1, (1,), (1,))


def _coerce(v):
    if isinstance(v, FieldElem):
        return v
    if isinstance(v, (int, Fraction)):
        return FieldElem._raw(v.numerator, v.denominator, (1,), (1,)) if v else F_ZERO
    return None


def as_field(v) -> FieldElem:
    """Coerce an int, Fraction or FieldElem (a Polynomial is one) into Q(q)."""
    e = _coerce(v)
    if e is None:
        raise TypeError(f"cannot interpret {v!r} as a field element")
    return e


#: the indeterminate, as a field element
q = FieldElem._raw(1, 1, (0, 1), (1,))


def specialize(x: FieldElem, point) -> Fraction:
    """Evaluate the reduced rational function x at q = point."""
    return as_field(x).specialize(point)


class Polynomial(FieldElem):
    """A polynomial over Q in the indeterminate q: the FieldElem with
    denominator (1,), as ``FieldElem.num`` and ``FieldElem.den`` return it.
    Equality, hashing, rendering, ``specialize`` and ``+``, ``-``, ``/`` and
    ``**`` are FieldElem's, and their results are FieldElems.  It adds the
    constructor from a coefficient list, the views ``content`` (p/r as a
    ``Fraction``), ``coeffs`` (the primitive vector n), ``degree`` and
    ``coefficients``, and the kernel entry points that the benchmark times:
    between two Polynomials ``*``, exact ``//`` and ``gcd`` return a
    Polynomial, and ``*`` by any other operand is FieldElem's."""

    __slots__ = ()

    def __init__(self, values=()):
        vals = [Fraction(v) for v in values]
        lcm = math.lcm(*(v.denominator for v in vals))
        # each prime of lcm divides some coefficient's denominator to its full
        # power, and so not that coefficient's scaled numerator: the content
        # is coprime to lcm
        self.n, self.p = _primitive([v.numerator * (lcm // v.denominator) for v in vals])
        self.r, self.d = lcm, (1,)

    @property
    def content(self) -> Fraction:
        return Fraction(self.p, self.r)

    @property
    def coeffs(self):
        return self.n

    @property
    def degree(self) -> int:
        return len(self.n) - 1

    @property
    def coefficients(self):
        """Ascending Fraction coefficients (the canonical public view)."""
        return [Fraction(self.p * c, self.r) for c in self.n]

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return FieldElem.__mul__(self, other)
        p, r = _times(self.p, self.r, other.p, other.r)
        return Polynomial._raw(p, r, _mul_int(self.n, other.n), (1,))

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """Exact division; raises ValueError when the remainder is nonzero."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        quot = _try_div_exact(self.n, other.n)
        if quot is None:
            raise ValueError("inexact polynomial division")
        sign = -1 if other.p < 0 else 1
        p, r = _times(self.p, self.r, sign * other.r, sign * other.p)
        return Polynomial._raw(p, r, quot, (1,))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Primitive gcd with positive leading coefficient (content 1)."""
        if self.n and other.n:
            h = _gcd_cofactors(self.n, other.n)[0]
        else:
            h = self.n or other.n
        return Polynomial._raw(1 if h else 0, 1, h, (1,))

    def __repr__(self):
        return f"Polynomial({self.coefficients!r})"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _ratio_str(p, r, k) -> str:
    """p k / r in lowest terms, as "a" or "a/b": with gcd(p, r) = 1 and
    g = gcd(k, r) it is p (k/g) / (r/g), and r = 1 needs no gcd."""
    if r == 1:
        return str(p * k)
    g = math.gcd(k, r)
    return str(p * (k // g)) if g == r else f"{p * (k // g)}/{r // g}"


def _render_poly(p, r, coeffs) -> str:
    """p/r times the vector, highest degree first; gcd(p, r) = 1, r > 0."""
    if not coeffs:
        return "0"
    parts = []
    size = abs(p)
    for deg in range(len(coeffs) - 1, -1, -1):
        k = coeffs[deg]
        if not k:
            continue
        term = _ratio_str(size, r, abs(k))
        if deg:
            qpart = "q" if deg == 1 else f"q^{deg}"
            term = qpart if term == "1" else f"{term}*{qpart}"
        if (p < 0) != (k < 0):
            parts.append(f"- {term}" if parts else f"-{term}")
        else:
            parts.append(f"+ {term}" if parts else term)
    return " ".join(parts)


def render(x: FieldElem) -> str:
    """Canonical pretty form; re-parses to an equal element."""
    if x.d == (1,):
        return _render_poly(x.p, x.r, x.n)
    return f"({_render_poly(x.p, x.r, x.n)}) / ({_render_poly(1, 1, x.d)})"


def coeff_strings(p: Polynomial):
    """Dense ascending coefficient strings ("p" or "p/q"), for JSON output."""
    if not p.n:
        return ["0"]
    return [_ratio_str(p.p, p.r, k) for k in p.n]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive-descent parser for the CLI expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' signed-int)?
    atom   := nat ('/' nat)? | 'q' | '(' expr ')' | '-' factor

    Whitespace is insignificant.  The '/' between arbitrary factors extends
    the minimal grammar so that rendered canonical forms re-parse.

    Each '(' or unary '-' nests a few Python frames deeper; past
    ``MAX_DEPTH`` levels the parser raises ParseError, well before Python's
    recursion limit.  The cost of a power grows with the degree of its
    result, so the parser also rejects b^e once |e| max(1, degree of b)
    exceeds ``MAX_POWER_DEGREE``, the degree of b being the larger of its
    numerator's and denominator's.
    """

    MAX_DEPTH = 100
    MAX_POWER_DEGREE = 1000

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def fail(self, message):
        raise ParseError(message, self.pos)

    def parse(self) -> FieldElem:
        value = self.expr()
        self._skip()
        if self.pos != len(self.text):
            self.fail(f"unexpected character {self.text[self.pos]!r}")
        return value

    def expr(self) -> FieldElem:
        value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> FieldElem:
        value = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                value = value * self.factor()
            elif ch == "/":
                self.pos += 1
                divisor = self.factor()
                if divisor.is_zero:
                    raise DivisionByZero("division by zero in expression")
                value = value / divisor
            else:
                return value

    def factor(self) -> FieldElem:
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            self._skip()
            start = self.pos
            e = self.signed_int()
            degree = max(len(value.n), len(value.d), 2) - 1
            if abs(e) * degree > self.MAX_POWER_DEGREE:
                self.pos = start
                self.fail(f"power too large: |exponent| x max(1, degree of base) "
                          f"exceeds {self.MAX_POWER_DEGREE}")
            if value.is_zero and e < 0:
                raise DivisionByZero("zero raised to a negative power")
            value = value ** e
        return value

    def signed_int(self) -> int:
        self._skip()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self._digits()
        if digits is None:
            self.fail("expected an integer exponent")
        return int(self.text[start:self.pos])

    def _digits(self):
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            return None
        return int(self.text[start:self.pos])

    def nested(self, parse):
        if self.depth >= self.MAX_DEPTH:
            self.fail(f"nesting deeper than {self.MAX_DEPTH} levels")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def atom(self) -> FieldElem:
        ch = self.peek()
        if ch == "q":
            self.pos += 1
            return q
        if ch == "(":
            self.pos += 1
            value = self.nested(self.expr)
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return value
        if ch == "-":
            self.pos += 1
            return -self.nested(self.factor)
        if ch.isdigit():
            numer = self._digits()
            save = self.pos
            if self.peek() == "/":
                self.pos += 1
                denom = self._digits()
                if denom is not None:
                    if denom == 0:
                        raise DivisionByZero("zero denominator in literal")
                    return as_field(Fraction(numer, denom))
                self.pos = save
            return as_field(numer)
        self.fail("expected a number, 'q', '(' or '-'")


def parse_field_expr(text: str) -> FieldElem:
    """Parse an exact expression over Q(q); raises ParseError with position."""
    return _Parser(text).parse()
