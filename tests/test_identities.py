"""Executable summation identities with exact residuals."""

from fractions import Fraction
from math import comb

import pytest

from hankelkit.closed_forms import QParams, qmoment_A, qmoment_T
from hankelkit.errors import PoleInFormula
from hankelkit.field import F_ONE, as_field, q
from hankelkit.identities import (
    binomial_alt_sum_term,
    check_alt_sum,
    check_binomial_alt_sum,
    check_binomial_sum,
    check_row_sum,
    check_weighted_alt_sum,
    check_weighted_row_sum,
)
from hankelkit.qcalc import gauss_binomial, q_pochhammer
from hankelkit.triangle import JacobiParams, TSeq, build_triangle


def catalan_triangle(rows):
    return build_triangle(
        JacobiParams(lambda k: as_field(1 if k == 0 else 2), lambda k: as_field(1)), rows
    )


class TestTriangleSums:
    def test_alt_sum_base(self):
        tri = catalan_triangle(3)
        rep = check_alt_sum(tri, 0)
        assert rep.holds and rep.lhs == 1

    def test_alt_sum_row2(self):
        rep = check_alt_sum(catalan_triangle(3), 2)
        assert rep.holds  # 2 - 3 + 1

    def test_alt_sum_row3(self):
        rep = check_alt_sum(catalan_triangle(4), 3)
        assert rep.holds  # 5 - 9 + 5 - 1

    def test_alt_sum_full_range(self):
        tri = catalan_triangle(8)
        assert all(check_alt_sum(tri, n).holds for n in range(9))

    def test_row_sums(self):
        tri = catalan_triangle(8)
        for n in range(9):
            rep = check_row_sum(tri, n)
            assert rep.holds
            assert rep.rhs.as_rational() == comb(2 * n, n)

    def test_report_residual_consistency(self):
        rep = check_alt_sum(catalan_triangle(2), 1)
        assert rep.holds == rep.residual.is_zero


class TestWeightedAltSum:
    def test_constant_weights(self):
        for n in range(9):
            assert check_weighted_alt_sum(TSeq.constant(1), n).holds

    def test_base_case_any_weights(self):
        rep = check_weighted_alt_sum(TSeq.constant(Fraction(3, 7)), 0)
        assert rep.holds and rep.lhs == 1

    def test_q_family_weights(self):
        p = QParams(q ** 4, q, q ** 2)
        T = TSeq(lambda k: qmoment_T(k, p))
        for n in range(5):
            assert check_weighted_alt_sum(T, n).holds


class TestBinomialSums:
    def test_signed_sum_base(self):
        rep = check_binomial_alt_sum(q ** 3, 0)
        assert rep.holds and rep.lhs == 1

    def test_signed_sum_symbolic_n1(self):
        a = q ** 3
        assert binomial_alt_sum_term(a, 1, 0) == 1 / (F_ONE - q * a)
        assert binomial_alt_sum_term(a, 1, 1) == -(1 / (F_ONE - q * a))
        assert check_binomial_alt_sum(a, 1).holds

    def test_signed_sum_grid(self):
        for a in (q ** 3, as_field(Fraction(2, 3)), as_field(Fraction(1, 2)), as_field(3)):
            for n in range(6):
                assert check_binomial_alt_sum(a, n).holds

    def test_signed_sum_pole(self):
        with pytest.raises(PoleInFormula):
            check_binomial_alt_sum(as_field(1), 1)

    def test_companion_sum_base(self):
        rep = check_binomial_sum(q ** 2, 0)
        assert rep.holds and rep.lhs == 1

    def test_companion_sum_symbolic_n1(self):
        a = q ** 3
        rep = check_binomial_sum(a, 1)
        assert rep.holds
        assert rep.rhs == 2 / (F_ONE - q * a)

    def test_companion_sum_grid(self):
        for a in (q ** 3, q ** 2, as_field(Fraction(2, 3)), as_field(Fraction(1, 2)), as_field(3)):
            for n in range(6):
                assert check_binomial_sum(a, n).holds, (str(a), n)


class TestWeightedRowSum:
    def test_base_case(self):
        assert check_weighted_row_sum(QParams(q ** 3, q ** 2, q), 0).holds

    def test_generic_grid(self):
        for p in (
            QParams(q ** 4, q, q ** 2),
            QParams(q ** 2, q, q ** 2),
            QParams(q ** 2, q ** 3, q),
            QParams(q, q ** 4, q),
        ):
            for n in range(6):
                assert check_weighted_row_sum(p, n).holds, (str(p), n)

    def test_displayed_specialization_cb(self):
        rep = check_weighted_row_sum(QParams(q ** 2, q, q ** 2), 2)
        assert rep.holds
        assert rep.rhs == 2 * (1 + q ** 2) / ((1 + q) * (1 + q ** 3))

    def test_displayed_specialization_andrews(self):
        rep = check_weighted_row_sum(QParams(q ** 4, q, q ** 2), 1)
        assert rep.holds
        cb = QParams(q ** 2, q, q ** 2)
        assert rep.rhs == (2 / (1 + q ** 2)) * qmoment_A(2, 0, cb)
        assert qmoment_A(2, 0, cb) == 1 / (1 + q)


def weighted_alt_sum_term(p, n, k):
    """(-1)^k A(2n, 2k) prod_{j<k} T(2j) for the q-moment family."""
    weight = F_ONE
    for j in range(k):
        weight = weight * qmoment_T(2 * j, p)
    term = qmoment_A(2 * n, 2 * k, p) * weight
    return -term if k % 2 else term


class TestAltSumTermBridge:
    """The signed weighted sum rewrites termwise into the signed q-binomial
    sum at a -> a/base; both sums then reduce to the same statement."""

    @staticmethod
    def rewritten_term(p, n, k):
        a, b, base = p.a, p.b, p.base
        bn = q_pochhammer(b, base, n)
        binom = gauss_binomial(n, k, base)
        if k == 0:
            body = binom * bn / q_pochhammer(a, base, n)
        else:
            body = (
                base ** comb(k, 2)
                * binom
                * bn
                * (F_ONE - base ** (2 * k - 1) * a)
                / q_pochhammer(base ** (k - 1) * a, base, n + 1)
            )
        return -body if k % 2 else body

    def test_termwise_rewrite(self):
        for p in (QParams(q ** 4, q, q ** 2), QParams(q ** 2, q ** 3, q)):
            for n in range(5):
                for k in range(n + 1):
                    assert weighted_alt_sum_term(p, n, k) == self.rewritten_term(p, n, k), (
                        str(p),
                        n,
                        k,
                    )

    def test_substitution_links_to_binomial_sum(self):
        # base q only: the q-binomial sum is stated in the plain base
        p = QParams(q ** 2, q ** 3, q)
        for n in range(5):
            bn = q_pochhammer(p.b, p.base, n)
            for k in range(n + 1):
                shifted = binomial_alt_sum_term(p.a / p.base, n, k)
                assert self.rewritten_term(p, n, k) == bn * shifted, (n, k)
