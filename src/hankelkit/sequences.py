"""Moment-sequence generators.

A moment sequence is an immutable description that can produce its n-th term
as an exact FieldElem.  Terms are computed incrementally (one new factor per
step for the product families) and cached on the instance.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleInSequence
from .field import F_ONE, FieldElem, as_field, parse_field_expr, q


class MomentSeq:
    """Base class; subclasses implement _compute(n) for n == len(cache).

    ``shifts`` is the sum of the index shifts of the shift: specs in this one.
    """

    shifts = 0

    def __init__(self):
        self._cache: list[FieldElem] = []

    def term(self, n: int) -> FieldElem:
        if n < 0:
            raise ValueError("term index must be nonnegative")
        while len(self._cache) <= n:
            self._cache.append(self._compute(len(self._cache)))
        return self._cache[n]

    def terms_upto(self, count: int) -> list[FieldElem]:
        return [self.term(i) for i in range(count)]

    def build(self, count: int):
        """Build c(0), ..., c(count - 1), yielding every term computed on the
        way in the order it is computed: (k, c(k)) for a term of this
        sequence, (None, t) for one of an inner sequence that is not also a
        term of this one."""
        for k in range(count):
            yield k, self.term(k)

    def _compute(self, n: int) -> FieldElem:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()}>"


class PochRatioSeq(MomentSeq):
    """c(n) = (b; base)_n / (a; base)_n for field elements a, b and base."""

    def __init__(self, a, b, base):
        super().__init__()
        self.a = as_field(a)
        self.b = as_field(b)
        self.base = as_field(base)
        self._label = None

    def _compute(self, n: int) -> FieldElem:
        if n == 0:
            return F_ONE
        den_factor = F_ONE - self.base ** (n - 1) * self.a
        if den_factor.is_zero:
            raise PoleInSequence(n, f"(a; base)_{n} vanishes for a = {self.a}")
        num_factor = F_ONE - self.base ** (n - 1) * self.b
        return self.term(n - 1) * num_factor / den_factor

    def spec_string(self) -> str:
        if self._label:
            return self._label
        return f"c:{self.a},{self.b},{self.base}"


class RisingRatioSeq(MomentSeq):
    """u(n) = prod_{j<n} (b + j*c) / prod_{j<n} (a + j*c) over Q."""

    def __init__(self, a, b, c):
        super().__init__()
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)

    def _compute(self, n: int) -> FieldElem:
        if n == 0:
            return F_ONE
        j = n - 1
        den = self.a + j * self.c
        if den == 0:
            raise PoleInSequence(n, f"a + {j}c = 0 for (a, c) = ({self.a}, {self.c})")
        return self.term(n - 1) * as_field(Fraction(self.b + j * self.c) / den)

    def spec_string(self) -> str:
        return f"u:{self.a},{self.b},{self.c}"


class CatalanSeq(MomentSeq):
    """1, 1, 2, 5, 14, ... the Catalan numbers."""

    def _compute(self, n: int) -> FieldElem:
        if n == 0:
            return F_ONE
        prev = self.term(n - 1).as_rational()
        return as_field(prev * 2 * (2 * n - 1) / (n + 1))

    def spec_string(self) -> str:
        return "catalan"


class CentralBinomialSeq(MomentSeq):
    """1, 2, 6, 20, ... the central binomial coefficients C(2n, n)."""

    def _compute(self, n: int) -> FieldElem:
        if n == 0:
            return F_ONE
        prev = self.term(n - 1).as_rational()
        return as_field(prev * 2 * (2 * n - 1) / n)

    def spec_string(self) -> str:
        return "central-binomial"


def andrews_q_catalan() -> PochRatioSeq:
    """The q-Catalan moments (q; q^2)_n / (q^4; q^2)_n, via the product form."""
    seq = PochRatioSeq(q ** 4, q, q ** 2)
    seq._label = "andrews"
    return seq


class ShiftedSeq(MomentSeq):
    """term(n) = inner.term(n + shift)."""

    def __init__(self, inner: MomentSeq, shift: int):
        super().__init__()
        if shift < 0:
            raise ValueError("shift must be nonnegative")
        self.inner = inner
        self.shift = shift
        self.shifts = inner.shifts + shift

    def _compute(self, n: int) -> FieldElem:
        return self.inner.term(n + self.shift)

    def build(self, count: int):
        for k, t in self.inner.build(count + self.shift):
            yield (None if k is None or k < self.shift else k - self.shift), t

    def spec_string(self) -> str:
        return f"shift:{self.shift}:{self.inner.spec_string()}"


class ScaledSeq(MomentSeq):
    """term(n) = x^n * inner.term(n)."""

    def __init__(self, inner: MomentSeq, x):
        super().__init__()
        self.inner = inner
        self.x = as_field(x)
        self.shifts = inner.shifts

    def _compute(self, n: int) -> FieldElem:
        return self.x ** n * self.inner.term(n)

    def build(self, count: int):
        for k, t in self.inner.build(count):
            yield None, t
            if k is not None:
                yield k, self.term(k)

    def spec_string(self) -> str:
        return f"scale:{self.x}:{self.inner.spec_string()}"


class ExplicitSeq(MomentSeq):
    """A finite, user-supplied moment list."""

    def __init__(self, values):
        super().__init__()
        self.values = [as_field(v) for v in values]

    def _compute(self, n: int) -> FieldElem:
        if n >= len(self.values):
            raise PoleInSequence(n, f"explicit sequence has only {len(self.values)} terms")
        return self.values[n]

    def spec_string(self) -> str:
        return "explicit:" + ",".join(str(v) for v in self.values)


def parse_sequence_spec(text: str) -> MomentSeq:
    """Parse the CLI mini-syntax for sequences.

    catalan | central-binomial | andrews | c:<a>,<b>,<Q> | u:<a>,<b>,<c>
    | shift:<m>:<inner> | scale:<x>:<inner> | explicit:<v0>,<v1>,...
    """
    text = text.strip()
    if text == "catalan":
        return CatalanSeq()
    if text == "central-binomial":
        return CentralBinomialSeq()
    if text == "andrews":
        return andrews_q_catalan()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"unknown sequence spec {text!r}")
    if head == "c":
        parts = rest.split(",")
        if len(parts) != 3:
            raise ValueError("c: wants three comma-separated expressions a,b,Q")
        a, b, base = (parse_field_expr(p) for p in parts)
        return PochRatioSeq(a, b, base)
    if head == "u":
        parts = rest.split(",")
        if len(parts) != 3:
            raise ValueError("u: wants three comma-separated rationals a,b,c")
        vals = [parse_field_expr(p).as_rational() for p in parts]
        return RisingRatioSeq(*vals)
    if head == "shift":
        m_text, sep2, inner = rest.partition(":")
        if not sep2:
            raise ValueError("shift: wants shift:<m>:<inner>")
        return ShiftedSeq(parse_sequence_spec(inner), int(m_text))
    if head == "scale":
        x_text, sep2, inner = rest.partition(":")
        if not sep2:
            raise ValueError("scale: wants scale:<x>:<inner>")
        return ScaledSeq(parse_sequence_spec(inner), parse_field_expr(x_text))
    if head == "explicit":
        return ExplicitSeq([parse_field_expr(p) for p in rest.split(",")])
    raise ValueError(f"unknown sequence spec {text!r}")
