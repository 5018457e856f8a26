"""Exact arithmetic for Q, Q[q] and the rational function field Q(q).

Everything here is exact: rationals are ``fractions.Fraction``, polynomials
keep Fraction coefficients, and a FieldElem is a reduced ratio of two
polynomials.  No floating point appears anywhere in the package.

A polynomial is stored as a rational *content* times a primitive integer
coefficient vector (ascending degree, trailing coefficient nonzero, positive
leading entry).  Products of primitive vectors stay primitive, so the hot
paths (convolution, exact division, gcd) run on plain Python ints.

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

Long exact divisions are 2-adic (Jebelean, JSC 1993), not ``divmod`` on the
packed ints: CPython's big-int division is quadratic, and at (degree 1300,
600 bits) a packed ``divmod`` took over 6 s against 1.4-2.0 s for the
schoolbook loop and 0.5 s for the 2-adic path (Python 3.11, one core).  With
F = f(2^w) and G = g(2^w), the quotient h(2^w) = F / G is F G^-1 modulo
2^(w len h) once the powers of 2 are divided out of G, and a Newton
iteration gives G^-1 with multiplies only.  Quotient coefficients have no
cheap bound, so w is a guess from bits(f) - bits(g); the result is returned
only when g h == f (the certificate), and otherwise the schoolbook loop
decides.  Lead coefficients that do not divide, missing zero low
coefficients and a 2-adic valuation of F below G's reject at once.

Below the cut-offs the schoolbook loops win.  A sweep over lengths 4-600 and
coefficient sizes 1-600 bits put the multiply's crossover at a shorter
length of 12-16 (16 at 600 bits), hence ``_MUL_PACK_MIN`` = 16.  The 2-adic
division wins once divisor and quotient both have 24-32 coefficients of up
to 30 bits; at 200 bits it needs 64, and between 32 and 64 it loses up to
1.5x to the loop.  The q-moment determinants have small coefficients, hence
``_DIV_PACK_MIN`` = 32.

Gcds are heuristic (GCDHEU: Char, Geddes and Gonnet, JSC 1989) and
certified.  For primitive f = h u and g = h v with h their gcd, the integer
gcd of f(2^w) and g(2^w) is h(2^w) k with k = gcd(u(2^w), v(2^w)); its
signed base-2^w digits are read back by ``_unpack``.  If 2^w > 2 min(|f|,
|g|) + 2 (max norms) and the primitive part of those digits divides both f
and g, it is the gcd (Geddes, Czapor and Labahn, Algorithms for Computer
Algebra, 1992, 7.7); the two exact divisions are the certificate, and their
quotients are the cofactors.  The slot width w = 8 ceil((min(bits f, bits
g) + 3) / 8) meets that bound, and w doubles whenever the certificate
fails.  The loop ends: k divides the resultant res(u, v), which is nonzero
and does not depend on w, so once 2^w > 2 |res(u, v)| |h| the digits are
exactly k h.  Replaying the 147 983 gcd calls of one ``verify all`` and one
n = 10 determinant per engine, 24 065 packed their inputs (the rest had a
constant input); 903 of those needed more than one slot width, and none
more than four.

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
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionByZero, ParseError, PoleAtPoint

# ---------------------------------------------------------------------------
# integer coefficient vectors (ascending, no trailing zeros)
# ---------------------------------------------------------------------------

_MUL_PACK_MIN = 16
_DIV_PACK_MIN = 32


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


def _pack(coeffs, w, lo=0, hi=None):
    """sum(coeffs[lo + i] * 2^(w i)); coefficients may be signed and wider
    than w bits (their excess carries into the next slots)."""
    if hi is None:
        hi = len(coeffs)
    if hi - lo <= 16:
        acc = 0
        for i in range(hi - 1, lo - 1, -1):
            acc = (acc << w) + coeffs[i]
        return acc
    mid = (lo + hi) // 2
    return (_pack(coeffs, w, mid, hi) << (w * (mid - lo))) + _pack(coeffs, w, lo, mid)


def _unpack(value, nbytes, n):
    """The n signed base-2^(8 nbytes) digits of value modulo 2^(8 nbytes n),
    each assumed to lie in [-2^(8 nbytes - 1), 2^(8 nbytes - 1))."""
    size = nbytes * n
    # a bias of 2^(8 nbytes - 1) in every slot makes the digits nonnegative
    value += int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
    data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    del value
    half = 1 << (8 * nbytes - 1)
    from_bytes = int.from_bytes
    return [from_bytes(data[i:i + nbytes], "little") - half for i in range(0, size, nbytes)]


def _pack_pm(coeffs, w):
    """The vector's values at 2^(w/2) and at -2^(w/2)."""
    even = _pack(coeffs[0::2], w)
    odd = _pack(coeffs[1::2], w) << (w // 2)
    return even + odd, even - odd


def _mul_packed(a, b):
    """a * b from the product's values at 2^(w/2) and -2^(w/2) (Harvey's
    KS2): two multiplies of ints half as long as the one product at 2^w."""
    # a slot of w bits holds every coefficient of the product with its sign
    nbytes = (_bits(a) + _bits(b) + min(len(a), len(b)).bit_length() + 8) // 8
    w = 8 * nbytes
    a_plus, a_minus = _pack_pm(a, w)
    b_plus, b_minus = _pack_pm(b, w)
    # these ints are the peak memory of a long product: free each early
    plus = a_plus * b_plus
    del a_plus, b_plus
    minus = a_minus * b_minus
    del a_minus, b_minus
    n = len(a) + len(b) - 1
    out = [0] * n
    odd = (plus - minus) >> (w // 2 + 1)
    plus = (plus + minus) >> 1
    del minus
    out[0::2] = _unpack(plus, nbytes, (n + 1) // 2)
    del plus
    out[1::2] = _unpack(odd, nbytes, n // 2)
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
        return _mul_packed(a, b)
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


def _quotient_2adic(f, g, low, n):
    """Candidate for the n coefficients of f / g, both read from index low
    on, g[low] != 0: the digits of the exact quotient H = F / G, with F and G
    the vectors packed at a slot width guessed from bits(f) - bits(g).
    None when G does not divide F, so g cannot divide f; () when G = 0."""
    nbytes = (max(_bits(f) - _bits(g), 0) + n.bit_length() + 16) // 8
    w = 8 * nbytes
    big_g = _pack(g, w, low)
    if not big_g:
        return ()
    v = (big_g & -big_g).bit_length() - 1
    big_f = _pack(f, w, low)
    if big_f & ((1 << v) - 1):
        return None
    big_f >>= v
    big_g >>= v
    # H = F G^-1 mod 2^k, found in two halves so that G^-1 is only needed
    # to half the precision
    k = w * n
    half = (k + 1) // 2
    inv = _inverse_2adic(big_g, half)
    lo = (big_f & ((1 << half) - 1)) * inv & ((1 << half) - 1)
    rest = (big_f - (big_g & ((1 << k) - 1)) * lo) >> half
    hi = (rest & ((1 << (k - half)) - 1)) * inv & ((1 << (k - half)) - 1)
    return tuple(_unpack(lo + (hi << half), nbytes, n))


def _try_div_exact(f, g):
    """Quotient of f by g when the division is exact over Z, else None."""
    if not f:
        return ()
    if not g:
        raise DivisionByZero("polynomial division by zero")
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


def _gcd_cofactors(f, g):
    """(h, f/h, g/h): h is the primitive gcd (positive leading entry) of the
    nonzero primitive vectors f, g; a trivial gcd returns f and g unchanged.
    Heuristic gcd at 2^w, certified by exact division (module docstring)."""
    if len(f) == 1 or len(g) == 1:
        return (1,), f, g
    # 2^w > 2 min(|f|, |g|) + 2, the bound the certificate needs
    nbytes = (min(_bits(f), _bits(g)) + 10) // 8
    while True:
        w = 8 * nbytes
        x = math.gcd(_pack(f, w), _pack(g, w))
        # x < 2^(w n - 1) for n = bit_length // w + 1: n signed digits hold x
        h, _ = _primitive(_unpack(x, nbytes, x.bit_length() // w + 1))
        if len(h) == 1:
            return (1,), f, g
        f_cof = _try_div_exact(f, h)
        if f_cof is not None:
            g_cof = _try_div_exact(g, h)
            if g_cof is not None:
                return h, f_cof, g_cof
        nbytes *= 2


# ---------------------------------------------------------------------------
# polynomials over Q
# ---------------------------------------------------------------------------


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    num = math.gcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


class Polynomial:
    """Univariate polynomial over Q in the indeterminate q."""

    __slots__ = ("content", "coeffs")

    def __init__(self, values=()):
        vals = [Fraction(v) for v in values]
        while vals and vals[-1] == 0:
            vals.pop()
        if not vals:
            self.content = Fraction(0)
            self.coeffs = ()
            return
        den_lcm = 1
        for v in vals:
            den_lcm = den_lcm * v.denominator // math.gcd(den_lcm, v.denominator)
        ints = [int(v * den_lcm) for v in vals]
        prim, cont = _primitive(ints)
        self.content = Fraction(cont, den_lcm)
        self.coeffs = prim

    @classmethod
    def _make(cls, content, coeffs):
        p = object.__new__(cls)
        if not coeffs:
            p.content = Fraction(0)
            p.coeffs = ()
        else:
            p.content = content if isinstance(content, Fraction) else Fraction(content)
            p.coeffs = coeffs
        return p

    @classmethod
    def constant(cls, value) -> "Polynomial":
        v = Fraction(value)
        if v == 0:
            return P_ZERO
        return cls._make(v, (1,))

    @classmethod
    def monomial(cls, coeff, degree) -> "Polynomial":
        c = Fraction(coeff)
        if c == 0:
            return P_ZERO
        return cls._make(c, (0,) * degree + (1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def coefficients(self):
        """Ascending Fraction coefficients (the canonical public view)."""
        return [self.content * c for c in self.coeffs]

    def __call__(self, point) -> Fraction:
        point = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return self.content * acc

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        g = _frac_gcd(self.content, other.content)
        a = int(self.content / g)
        b = int(other.content / g)
        raw = _add_int(tuple(a * c for c in self.coeffs), tuple(b * c for c in other.coeffs))
        prim, cont = _primitive(raw)
        return Polynomial._make(g * cont, prim)

    def __neg__(self):
        if self.is_zero:
            return self
        return Polynomial._make(-self.content, self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return P_ZERO
        return Polynomial._make(
            self.content * other.content, _mul_int(self.coeffs, other.coeffs)
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        return Polynomial._make(self.content ** e, _pow_int(self.coeffs, e))

    def __floordiv__(self, other):
        """Exact division; raises ValueError when the remainder is nonzero."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        if self.is_zero:
            return P_ZERO
        quot = _try_div_exact(self.coeffs, other.coeffs)
        if quot is None:
            raise ValueError("inexact polynomial division")
        return Polynomial._make(self.content / other.content, quot)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Primitive gcd with positive leading coefficient (content 1)."""
        if self.is_zero:
            return Polynomial._make(Fraction(1), other.coeffs)
        if other.is_zero:
            return Polynomial._make(Fraction(1), self.coeffs)
        return Polynomial._make(Fraction(1), _gcd_cofactors(self.coeffs, other.coeffs)[0])

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.content == other.content and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.content, self.coeffs))

    def __str__(self):
        return _render_poly(self)

    def __repr__(self):
        return f"Polynomial({self.coefficients!r})"


P_ZERO = Polynomial._make(Fraction(0), ())
P_ONE = Polynomial._make(Fraction(1), (1,))


def _as_poly(v) -> Polynomial:
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return Polynomial.constant(v)
    raise TypeError(f"cannot interpret {v!r} as a polynomial")


# ---------------------------------------------------------------------------
# the fraction field Q(q)
# ---------------------------------------------------------------------------


class FieldElem:
    """Element of Q(q), kept in canonical form.

    num/den are coprime over Q[q], den has integer coefficients with content 1
    and positive leading coefficient; equality and hashing are componentwise.
    Every element is kept reduced: ``__init__`` reduces, and each ``_raw``
    site builds a pair that is coprime by construction.  Addition relies on
    this invariant to reduce against gcd(b, d) only.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = P_ONE if den is None else _as_poly(den)
        if den.is_zero:
            raise DivisionByZero("zero denominator in field element")
        if num.is_zero:
            self.num = P_ZERO
            self.den = P_ONE
            return
        _, ncoef, dcoef = _gcd_cofactors(num.coeffs, den.coeffs)
        self.num = Polynomial._make(num.content / den.content, ncoef)
        self.den = Polynomial._make(Fraction(1), dcoef)

    @classmethod
    def _raw(cls, num, den):
        e = object.__new__(cls)
        e.num = num
        e.den = den
        return e

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.den == P_ONE and self.num.degree <= 0

    def as_rational(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not a rational constant")
        return self.num.content if self.num.coeffs else Fraction(0)

    def __bool__(self):
        return not self.num.is_zero

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # Henrici: for b = b' g, d = d' g with g = gcd(b, d), the sum is
        # (a d' + c b') / (b' d) and its numerator is coprime to b' d', so
        # only g can share a factor with it
        a, c = self.num, other.num
        b, d = self.den.coeffs, other.den.coeffs
        if b == d:
            g, b_cof, d_cof = d, (1,), (1,)
            num = a + c
        else:
            g, b_cof, d_cof = _gcd_cofactors(b, d)
            num = (Polynomial._make(a.content, _mul_int(a.coeffs, d_cof))
                   + Polynomial._make(c.content, _mul_int(c.coeffs, b_cof)))
        if num.is_zero:
            return F_ZERO
        h, ncoef, g_cof = _gcd_cofactors(num.coeffs, g)
        if len(h) == 1:
            den = _mul_int(b_cof, d)
        else:
            den = _mul_int(_mul_int(b_cof, d_cof), g_cof)
        return FieldElem._raw(Polynomial._make(num.content, ncoef),
                              Polynomial._make(Fraction(1), den))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem._raw(-self.num, self.den)

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
        if self.is_zero or other.is_zero:
            return F_ZERO
        n1, n2 = self.num, other.num
        _, n1c, d2c = _gcd_cofactors(n1.coeffs, other.den.coeffs)
        _, n2c, d1c = _gcd_cofactors(n2.coeffs, self.den.coeffs)
        num = Polynomial._make(n1.content * n2.content, _mul_int(n1c, n2c))
        den = Polynomial._make(Fraction(1), _mul_int(d1c, d2c))
        return FieldElem._raw(num, den)

    __rmul__ = __mul__

    def reciprocal(self) -> "FieldElem":
        if self.is_zero:
            raise DivisionByZero("reciprocal of zero")
        num = Polynomial._make(1 / self.num.content, self.den.coeffs)
        den = Polynomial._make(Fraction(1), self.num.coeffs)
        return FieldElem._raw(num, den)

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
        # num and den are coprime, so are their powers
        return FieldElem._raw(
            self.num ** e, Polynomial._make(Fraction(1), _pow_int(self.den.coeffs, e))
        )

    def specialize(self, point) -> Fraction:
        """Exact value at q = point; raises PoleAtPoint on a denominator root."""
        point = Fraction(point)
        dv = self.den(point)
        if dv == 0:
            raise PoleAtPoint(point)
        return self.num(point) / dv

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its Fraction (and int) value, so it hashes like it
        if len(self.num.coeffs) <= 1 and self.den.coeffs == (1,):
            return hash(self.num.content)
        return hash((self.num.content, self.num.coeffs, self.den.coeffs))

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"FieldElem({render(self)!r})"


F_ZERO = FieldElem._raw(P_ZERO, P_ONE)
F_ONE = FieldElem._raw(P_ONE, P_ONE)


def _coerce(v):
    if isinstance(v, FieldElem):
        return v
    if isinstance(v, (int, Fraction)):
        return FieldElem(Polynomial.constant(v))
    if isinstance(v, Polynomial):
        return FieldElem(v)
    return None


def as_field(v) -> FieldElem:
    """Coerce an int, Fraction, Polynomial or FieldElem into Q(q)."""
    e = _coerce(v)
    if e is None:
        raise TypeError(f"cannot interpret {v!r} as a field element")
    return e


#: the indeterminate, as a field element
q = FieldElem._raw(Polynomial._make(Fraction(1), (0, 1)), P_ONE)


def specialize(x: FieldElem, point) -> Fraction:
    """Evaluate the reduced rational function x at q = point."""
    return as_field(x).specialize(point)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_frac(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _render_term(coeff: Fraction, deg: int) -> str:
    c = abs(coeff)
    if deg == 0:
        return _render_frac(c)
    qpart = "q" if deg == 1 else f"q^{deg}"
    if c == 1:
        return qpart
    return f"{_render_frac(c)}*{qpart}"


def _render_poly(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for deg in range(p.degree, -1, -1):
        c = p.content * p.coeffs[deg] if deg < len(p.coeffs) else 0
        if c == 0:
            continue
        term = _render_term(c, deg)
        if not parts:
            parts.append(f"-{term}" if c < 0 else term)
        else:
            parts.append(f"- {term}" if c < 0 else f"+ {term}")
    return " ".join(parts)


def render(x: FieldElem) -> str:
    """Canonical pretty form; re-parses to an equal element."""
    if x.den == P_ONE:
        return _render_poly(x.num)
    return f"({_render_poly(x.num)}) / ({_render_poly(x.den)})"


def coeff_strings(p: Polynomial):
    """Dense ascending coefficient strings ("p" or "p/q"), for JSON output."""
    if p.is_zero:
        return ["0"]
    return [_render_frac(c) for c in p.coefficients]


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
            degree = max(value.num.degree, value.den.degree, 1)
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
