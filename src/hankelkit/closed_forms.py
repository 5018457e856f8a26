"""Closed-form evaluators for the Hankel determinant families.

The q-moment family c(n) = (b; base)_n / (a; base)_n comes with explicit
recurrence weights T, explicit triangle entries A and a product formula for
every shifted Hankel determinant d(n, m).  Its q -> 1 limit, the rising
factorial ratio u(n) = prod (b+jc) / prod (a+jc), has classical analogues of
all three.  On top of these sits a registry of named determinant formulas,
each paired with the terms c of the Hankel matrix c(i + j + m) whose
brute-force determinant it claims to evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial

from .errors import MissingParameter, PoleInFormula
from .field import F_ONE, F_ZERO, FieldElem, as_field, q
from .hankel import SquareMatrix, hankel_matrix
from .qcalc import bracket_falling, gauss_binomial, q_binomial, q_factorial, q_int, q_pochhammer
from .sequences import CatalanSeq, PochRatioSeq, andrews_q_catalan


@dataclass(frozen=True)
class QParams:
    """Parameter triple (a, b, base) of the q-moment family."""

    a: FieldElem
    b: FieldElem
    base: FieldElem

    def __post_init__(self):
        object.__setattr__(self, "a", as_field(self.a))
        object.__setattr__(self, "b", as_field(self.b))
        object.__setattr__(self, "base", as_field(self.base))

    def __str__(self):
        return f"(a={self.a}, b={self.b}, base={self.base})"


def _div(num: FieldElem, den: FieldElem) -> FieldElem:
    if den.is_zero:
        raise PoleInFormula("closed form hit a vanishing denominator")
    return num / den


def qmoment_c(n: int, a: FieldElem, b: FieldElem, base: FieldElem) -> FieldElem:
    """(b; base)_n / (a; base)_n."""
    return _div(q_pochhammer(as_field(b), as_field(base), n),
                q_pochhammer(as_field(a), as_field(base), n))


def qmoment_T(k: int, p: QParams) -> FieldElem:
    """Closed-form weight sequence of the q-moment family.

    The k = 0 value is returned in its cancelled form (1-b)/(1-a), which is
    the same rational function without the spurious 0/0 at a = base.
    """
    if k < 0:
        raise ValueError("weight index must be nonnegative")
    r, odd = divmod(k, 2)
    a, b, base = p.a, p.b, p.base
    if not odd:
        if r == 0:
            return _div(F_ONE - b, F_ONE - a)
        num = base ** r * (F_ONE - base ** r * b) * (F_ONE - base ** (r - 1) * a)
        den = (F_ONE - base ** (2 * r - 1) * a) * (F_ONE - base ** (2 * r) * a)
        return _div(num, den)
    num = base ** r * (F_ONE - base ** (r + 1)) * (b - base ** r * a)
    den = (F_ONE - base ** (2 * r + 1) * a) * (F_ONE - base ** (2 * r) * a)
    return _div(num, den)


def qmoment_A(row: int, col: int, p: QParams) -> FieldElem:
    """Closed-form zero-s triangle entry A(row, col); zero off the parity grid."""
    if col < 0 or col > row or (row - col) % 2:
        return F_ZERO
    n, k = row // 2, col // 2
    a, b, base = p.a, p.b, p.base
    binom = gauss_binomial(n, k, base)
    if row % 2 == 0:
        return binom * qmoment_c(n - k, base ** (2 * k) * a, base ** k * b, base)
    return binom * qmoment_c(n - k, base ** (2 * k + 1) * a, base ** (k + 1) * b, base)


def qmoment_det_factor(k: int, p: QParams) -> FieldElem:
    """The k-th factor d(k + 1, 0) / d(k, 0) of the unshifted q-moment
    determinant, k >= 1; base^(k(k-1)) sums to base^(2 C(n, 3)) over k < n."""
    a, b, base = p.a, p.b, p.base
    num = base ** (k * (k - 1)) * q_pochhammer(b, base, k) * q_pochhammer(base, base, k)
    for j in range(k):
        num = num * (b - base ** j * a)
    den = q_pochhammer(base ** (k - 1) * a, base, k) * q_pochhammer(a, base, 2 * k)
    return _div(num, den)


def qmoment_det_shift(n: int, m: int, p: QParams) -> FieldElem:
    """The shift part d(n, m) / d(n, 0) of the q-moment determinant."""
    a, b, base = p.a, p.b, p.base
    result = base ** (m * comb(n, 2))
    for j in range(m):
        result = result * _div(
            q_pochhammer(base ** j * b, base, n),
            q_pochhammer(base ** (n - 1 + j) * a, base, n),
        )
    return result


def qmoment_det(n: int, m: int, p: QParams) -> FieldElem:
    """Product formula for det(c(i+j+m))_{n x n} of the q-moment family:
    the factors k = 1, ..., n - 1 of d(n, 0), then the shift part."""
    if n < 1:
        raise ValueError("n must be positive")
    if m < 0:
        raise ValueError("m must be nonnegative")
    result = F_ONE
    for k in range(1, n):
        result = result * qmoment_det_factor(k, p)
    return result * qmoment_det_shift(n, m, p)


# ---------------------------------------------------------------------------
# classical (q -> 1) family
# ---------------------------------------------------------------------------


def rising_ratio(n: int, a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    """u(n) = prod_{j<n} (b + jc) / prod_{j<n} (a + jc)."""
    value = Fraction(1)
    for j in range(n):
        den = a + j * c
        if den == 0:
            raise PoleInFormula(f"a + {j}c = 0")
        value *= Fraction(b + j * c, 1) / den
    return value


def classical_T(k: int, a, b, c) -> Fraction:
    """Weight sequence of the rising-ratio family; k = 0 cancels to b/a."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if k < 0:
        raise ValueError("weight index must be nonnegative")
    r, odd = divmod(k, 2)
    if not odd:
        if r == 0:
            if a == 0:
                raise PoleInFormula("a = 0")
            return b / a
        den = (a + 2 * r * c) * (a + (2 * r - 1) * c)
        if den == 0:
            raise PoleInFormula("vanishing weight denominator")
        return (a + (r - 1) * c) * (b + r * c) / den
    den = (a + 2 * r * c) * (a + (2 * r + 1) * c)
    if den == 0:
        raise PoleInFormula("vanishing weight denominator")
    return (r + 1) * c * (a - b + r * c) / den


def classical_A(row: int, col: int, a, b, c) -> Fraction:
    """Zero-s triangle entry of the rising-ratio family; zero off parity."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if col < 0 or col > row or (row - col) % 2:
        return Fraction(0)
    n, k = row // 2, col // 2
    if row % 2 == 0:
        return comb(n, k) * rising_ratio(n - k, a + 2 * k * c, b + k * c, c)
    return comb(n, k) * rising_ratio(n - k, a + (2 * k + 1) * c, b + (k + 1) * c, c)


def classical_det(n: int, m: int, a, b, c) -> Fraction:
    """Product formula for det(u(i+j+m))_{n x n} of the rising-ratio family."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if n < 1:
        raise ValueError("n must be positive")
    result = Fraction(1)
    for k in range(1, n):
        num = Fraction(factorial(k)) * c ** k
        for j in range(k):
            num *= (b + j * c) * (a - b + j * c)
        den = Fraction(1)
        for j in range(k):
            den *= a + (j + k - 1) * c
        for j in range(2 * k):
            den *= a + j * c
        if den == 0:
            raise PoleInFormula("vanishing determinant denominator")
        result *= num / den
    for j in range(m):
        for i in range(n):
            den = a + (i + n + j - 1) * c
            if den == 0:
                raise PoleInFormula("vanishing shift denominator")
            result *= (b + (j + i) * c) / den
    return result


# ---------------------------------------------------------------------------
# formula registry
# ---------------------------------------------------------------------------


def _catalan_shift_value(n, m, x=None):
    value = Fraction(1)
    for j in range(1, m):
        for i in range(1, j + 1):
            value *= Fraction(2 * n + i + j, i + j)
    return as_field(value)


def _qpoch_rows_value(n, m, x=None):
    result = q ** (2 * comb(n, 3) + m * comb(n, 2)) * as_field(x) ** comb(n, 2)
    for k in range(n):
        result = result * q_pochhammer(as_field(x), q, k + m) * q_pochhammer(q, q, k)
    return result


def _qfactorial_value(n, m, x=None):
    result = q ** (2 * comb(n, 3) + (m + 1) * comb(n, 2))
    for k in range(n):
        result = result * q_factorial(k + m) * q_factorial(k)
    return result


def _bracket_falling_value(n, m, x=None):
    sign = -1 if comb(n, 2) % 2 else 1
    result = sign * q ** (2 * comb(n, 3) + m * comb(n, 2))
    for j in range(n):
        result = result * q_factorial(j) * bracket_falling(x, j + m)
    return result


def _carlitz_value(n, m, x=None):
    sign = -1 if comb(n, 2) % 2 else 1
    result = sign * q ** (n * (n - 1) ** 2 // 2)
    for k in range(n):
        num = q_binomial(m + k, 2 * k)
        # the k = 0 denominator factor is read as an empty product
        den = F_ONE if k == 0 else q_binomial(2 * k - 1, k)
        result = result * _div(num, den)
    return result


def _qhilbert_value(n, m, x=None):
    result = q ** (m * comb(n, 2) + n * (n - 1) * (2 * n - 1) // 6)
    for j in range(m):
        result = result * _div(q_factorial(j + n) ** 2, q_factorial(j) * q_factorial(2 * n + j))
    for j in range(n):
        result = result * _div(q_factorial(j) ** 3, q_factorial(n + j))
    return result


def _recip_bracket_value(n, m, x=None):
    _recip_bracket_shift(m)
    sign = -1 if comb(n, 2) % 2 else 1
    result = sign * q ** (n * (n - 1) ** 2 // 2)
    for j in range(n + m - 1):
        result = result * _div(q_int(j), q_int(n + j))
    return result


def _cbq0_value(n, m=0, x=None):
    result = q ** (n * (n - 1) * (4 * n - 5) // 6)
    den = F_ONE
    for j in range(1, 2 * n - 1):
        den = den * (F_ONE + q ** j) ** (2 * n - 1 - j)
    return _div(result, den)


def _cbqm_value(n, m, x=None):
    result = q ** (2 * m * comb(n, 2))
    for j in range(m):
        result = result * _div(F_ONE, q_pochhammer(-(q ** (j + 1)), q, 2 * n - 1))
        for i in range(1, j + 1):
            result = result * _div(q_int(2 * n + j + i - 1), q_int(j + i))
    return result * _cbq0_value(n)


def cbqm_expanded(n: int, m: int) -> FieldElem:
    """The unsimplified shift factor: Pochhammer-quotient form of CBqm."""
    result = q ** (2 * m * comb(n, 2))
    base = q ** 2
    for j in range(m):
        result = result * _div(
            q_pochhammer(q ** (2 * j + 1), base, n),
            q_pochhammer(q ** (2 * n + 2 * j), base, n),
        )
    return result * _cbq0_value(n)


def _central_binomial_value(n, m, x=None):
    value = Fraction(2) ** (n - 1 + m)
    for j in range(m):
        for i in range(1, j + 1):
            value *= Fraction(2 * n + j + i - 1, j + i)
    return as_field(value)


def _odd_binomial_value(n, m, x=None):
    return as_field(Fraction(1, 2 ** n)) * _central_binomial_value(n, m + 1)


def _andrews0_value(n, m=0, x=None):
    result = q ** (n * (n - 1) * (4 * n - 5) // 6)
    den = (F_ONE + q) ** (n - 1)
    for j in range(2 * n - 2):
        den = den * (F_ONE + q ** (j + 2)) ** (2 * n - 2 - j)
    return _div(result, den)


def _andrewsm_value(n, m, x=None):
    result = q ** (2 * m * comb(n, 2))
    for j in range(m):
        result = result * _div(F_ONE, q_pochhammer(-(q ** (j + 1)), q, 2 * n))
        for i in range(1, j + 1):
            result = result * _div(q_int(2 * n + j + i), q_int(j + i))
    return result * _andrews0_value(n)


def _recip_bracket_shift(m):
    """The matrix 1/[i + j + m] has the entry 1/[0] at m = 0, so neither it
    nor the formula claiming its determinant is defined there."""
    if m == 0:
        raise PoleInFormula("matrix entry 1/[0] is undefined at m = 0")


def _recip_bracket_entries(m, x):
    _recip_bracket_shift(m)
    return lambda k: _div(F_ONE, q_int(k))


@dataclass(frozen=True)
class Formula:
    """A named determinant formula.  ``value(n, m, x)`` claims the determinant
    of ``hankel_matrix(entries(m, x), n, m)``; ``entries`` gives the terms c
    as a MomentSeq or a function of the index."""

    tag: str
    value: object
    entries: object
    needs_x: bool = False
    shift_domain: str = "any"      # "any" or "zero": which m the formula covers
    as_printed_mismatch: bool = False


FORMULAS = {
    f.tag: f
    for f in (
        Formula("CatalanShift", _catalan_shift_value, lambda m, x: CatalanSeq()),
        Formula("QPochRows", _qpoch_rows_value,
                lambda m, x: partial(q_pochhammer, as_field(x), q), needs_x=True),
        Formula("QFactorial", _qfactorial_value, lambda m, x: q_factorial),
        Formula("BracketFalling", _bracket_falling_value,
                lambda m, x: partial(bracket_falling, x), needs_x=True),
        Formula("Carlitz", _carlitz_value, lambda m, x: lambda k: q_binomial(k, m)),
        Formula("QHilbert", _qhilbert_value, lambda m, x: lambda k: _div(F_ONE, q_int(k + 1))),
        Formula("RecipBracket", _recip_bracket_value, _recip_bracket_entries,
                as_printed_mismatch=True),
        Formula("CBq0", _cbq0_value, lambda m, x: PochRatioSeq(q ** 2, q, q ** 2),
                shift_domain="zero"),
        Formula("CBqm", _cbqm_value, lambda m, x: PochRatioSeq(q ** 2, q, q ** 2)),
        Formula("CentralBinomial", _central_binomial_value,
                lambda m, x: lambda k: as_field(comb(2 * k, k))),
        Formula("OddBinomialRel", _odd_binomial_value,
                lambda m, x: lambda k: as_field(comb(2 * k + 1, k))),
        Formula("Andrews0", _andrews0_value, lambda m, x: andrews_q_catalan(),
                shift_domain="zero"),
        Formula("Andrewsm", _andrewsm_value, lambda m, x: andrews_q_catalan()),
    )
}


def _formula(tag: str, n: int, m: int, x) -> Formula:
    """The registry entry for ``tag``, once (n, m, x) is checked against it."""
    try:
        formula = FORMULAS[tag]
    except KeyError:
        raise KeyError(f"unknown formula tag {tag!r}; known: {sorted(FORMULAS)}") from None
    if n < 1:
        raise ValueError("n must be positive")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if formula.shift_domain == "zero" and m != 0:
        raise ValueError(f"{tag} is the m = 0 determinant; use the m-shifted variant")
    if formula.needs_x and x is None:
        raise MissingParameter(f"{tag} needs --x")
    if not formula.needs_x and x is not None:
        raise ValueError(f"{tag} takes no --x")
    return formula


def closed_form(tag: str, n: int, m: int = 0, x=None) -> FieldElem:
    """Evaluate a registry formula at (n, m) and optional rational x."""
    return _formula(tag, n, m, x).value(n, m, x)


def oracle_terms(tag: str, n: int, m: int = 0, x=None):
    """The terms c of the defining matrix, a MomentSeq or a function of the index."""
    return _formula(tag, n, m, x).entries(m, x)


def oracle_matrix(tag: str, n: int, m: int = 0, x=None) -> SquareMatrix:
    """The defining matrix whose brute-force determinant the formula claims."""
    return hankel_matrix(oracle_terms(tag, n, m, x), n, m)
