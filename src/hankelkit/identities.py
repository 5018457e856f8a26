"""Summation identities as executable checks with exact residuals.

Each check returns an IdentityReport carrying both sides and the residual;
``holds`` is true exactly when the residual is the zero field element.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .closed_forms import QParams, qmoment_A, qmoment_T
from .errors import PoleInFormula
from .field import F_ONE, F_ZERO, FieldElem, as_field, q
from .qcalc import q_binomial, q_pochhammer
from .triangle import TSeq, Triangle, build_zero_s_triangle


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: str
    lhs: FieldElem
    rhs: FieldElem
    residual: FieldElem
    holds: bool

    @classmethod
    def of(cls, identity: str, params: str, lhs: FieldElem, rhs: FieldElem):
        residual = lhs - rhs
        return cls(identity, params, lhs, rhs, residual, residual.is_zero)

    def __str__(self):
        status = "holds" if self.holds else "FAILS"
        return f"{self.identity} [{self.params}]: {status} (residual {self.residual})"


def check_alt_sum(tri: Triangle, n: int) -> IdentityReport:
    """Alternating row sum: sum_k (-1)^k a(n, k) = [n = 0]."""
    lhs = F_ZERO
    for k in range(n + 1):
        term = tri.a(n, k)
        lhs = lhs - term if k % 2 else lhs + term
    rhs = F_ONE if n == 0 else F_ZERO
    return IdentityReport.of("alternating row sum", f"n={n}", lhs, rhs)


def check_row_sum(tri: Triangle, n: int) -> IdentityReport:
    """Row sum of the Catalan-parameter triangle: sum_k a(n, k) = C(2n, n)."""
    lhs = F_ZERO
    for k in range(n + 1):
        lhs = lhs + tri.a(n, k)
    rhs = as_field(comb(2 * n, n))
    return IdentityReport.of("row sum", f"n={n}", lhs, rhs)


def _weighted_terms(A_of, T_of, n: int):
    """Terms A(2n, 2k) * prod_{j<k} T(2j) for k = 0..n."""
    weight = F_ONE
    terms = []
    for k in range(n + 1):
        if k:
            weight = weight * T_of(2 * (k - 1))
        terms.append(A_of(2 * n, 2 * k) * weight)
    return terms


def check_weighted_alt_sum(T: TSeq, n: int) -> IdentityReport:
    """sum_k (-1)^k A(2n, 2k) prod_{j<k} T(2j) = [n = 0] for any weight sequence."""
    tri = build_zero_s_triangle(T, 2 * n)
    terms = _weighted_terms(lambda r, c: tri.a(r, c), T, n)
    lhs = F_ZERO
    for k, term in enumerate(terms):
        lhs = lhs - term if k % 2 else lhs + term
    rhs = F_ONE if n == 0 else F_ZERO
    return IdentityReport.of("weighted alternating sum", f"n={n}", lhs, rhs)


def _binomial_summand(a: FieldElem, n: int, k: int) -> FieldElem:
    """q^C(k,2) [n k] (1 - q^{2k} a) / (q^k a; q)_{n+1}, the k-th summand of
    both q-binomial sums before its sign."""
    den = q_pochhammer(q ** k * a, q, n + 1)
    if den.is_zero:
        raise PoleInFormula(f"(q^{k} a; q)_{n + 1} = 0")
    return q ** comb(k, 2) * q_binomial(n, k) * (F_ONE - q ** (2 * k) * a) / den


def check_binomial_alt_sum(a: FieldElem, n: int) -> IdentityReport:
    """sum_k (-1)^k q^C(k,2) [n k] (1 - q^{2k} a) / (q^k a; q)_{n+1} = [n = 0]."""
    a = as_field(a)
    lhs = F_ZERO
    for k in range(n + 1):
        term = _binomial_summand(a, n, k)
        lhs = lhs - term if k % 2 else lhs + term
    rhs = F_ONE if n == 0 else F_ZERO
    return IdentityReport.of("signed q-binomial sum", f"a={a}, n={n}", lhs, rhs)


def check_binomial_sum(a: FieldElem, n: int) -> IdentityReport:
    """sum_k q^C(k,2) [n k] (1 - q^{2k} a)/(q^k a; q)_{n+1} = (-1; q)_n/(qa; q^2)_n."""
    a = as_field(a)
    lhs = F_ZERO
    for k in range(n + 1):
        lhs = lhs + _binomial_summand(a, n, k)
    rhs_den = q_pochhammer(q * a, q ** 2, n)
    if rhs_den.is_zero:
        raise PoleInFormula(f"(qa; q^2)_{n} = 0")
    rhs = q_pochhammer(as_field(-1), q, n) / rhs_den
    return IdentityReport.of("q-binomial sum", f"a={a}, n={n}", lhs, rhs)


def _special_rhs(p: QParams, n: int):
    """Displayed right sides for the two named specializations, when they apply."""
    base = p.base
    if base != q * q:
        return None
    if p.a == q ** 4 and p.b == q:
        # 2/(1 + q^{2n}) times the even column-0 entry of the (q^2, q, q^2) family
        factor = as_field(2) / (F_ONE + q ** (2 * n))
        return factor * qmoment_A(2 * n, 0, QParams(q ** 2, q, q ** 2))
    if p.a == q ** 2 and p.b == q:
        value = F_ONE
        for j in range(n):
            value = value * (F_ONE + q ** (2 * j)) / (F_ONE + q ** (2 * j + 1))
        return value
    return None


def check_weighted_row_sum(p: QParams, n: int) -> IdentityReport:
    """sum_k A(2n, 2k) prod_{j<k} T(2j) = (b; Q)_n (-1; Q)_n / (a; Q^2)_n.

    For the two named parameter points the displayed closed forms of the
    right side are also required to agree with the general product.
    """
    terms = _weighted_terms(
        lambda r, c: qmoment_A(r, c, p), lambda k: qmoment_T(k, p), n
    )
    lhs = F_ZERO
    for term in terms:
        lhs = lhs + term
    base = p.base
    den = q_pochhammer(p.a, base * base, n)
    if den.is_zero:
        raise PoleInFormula(f"(a; Q^2)_{n} = 0")
    rhs = q_pochhammer(p.b, base, n) * q_pochhammer(as_field(-1), base, n) / den
    special = _special_rhs(p, n)
    residual = lhs - rhs
    holds = residual.is_zero and (special is None or (special - rhs).is_zero)
    return IdentityReport("weighted row sum", f"{p}, n={n}", lhs, rhs, residual, holds)


def binomial_alt_sum_term(a: FieldElem, n: int, k: int) -> FieldElem:
    """The k-th summand of the signed q-binomial sum (for term-level bridges)."""
    term = _binomial_summand(as_field(a), n, k)
    return -term if k % 2 else term
