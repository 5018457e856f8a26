"""Closed-form evaluators against brute-force determinants."""

from fractions import Fraction
from math import comb

import pytest

from hankelkit.closed_forms import (
    FORMULAS,
    QParams,
    cbqm_expanded,
    classical_A,
    classical_T,
    classical_det,
    closed_form,
    oracle_matrix,
    qmoment_A,
    qmoment_T,
    qmoment_det,
    rising_ratio,
)
from hankelkit.errors import MissingParameter, PoleInFormula
from hankelkit.field import as_field, q
from hankelkit.hankel import det_exact, hankel_matrix
from hankelkit.qcalc import bracket_falling, q_binomial, q_factorial, q_int, q_pochhammer
from hankelkit.sequences import PochRatioSeq, RisingRatioSeq
from hankelkit.triangle import TSeq, build_zero_s_triangle

CB_PARAMS = QParams(q ** 2, q, q ** 2)
ANDREWS_PARAMS = QParams(q ** 4, q, q ** 2)


class TestQMomentWeights:
    def test_weight_zero_cancels(self):
        # generic: (1-b)/(1-a), even when a equals the base
        assert qmoment_T(0, CB_PARAMS) == 1 / (1 + q)
        assert qmoment_T(0, ANDREWS_PARAMS) == (1 - q) / (1 - q ** 4)

    def test_central_binomial_weights(self):
        for k in range(1, 10):
            assert qmoment_T(k, CB_PARAMS) == q ** k / ((1 + q ** k) * (1 + q ** (k + 1))), k

    def test_triangle_entries(self):
        assert qmoment_A(0, 0, ANDREWS_PARAMS) == 1
        assert qmoment_A(3, 1, ANDREWS_PARAMS) == build_zero_s_triangle(
            TSeq(lambda k: qmoment_T(k, ANDREWS_PARAMS)), 3
        ).a(3, 1)

    def test_column_zero_is_the_moment(self):
        seq = PochRatioSeq(q ** 4, q, q ** 2)
        for n in range(6):
            assert qmoment_A(2 * n, 0, ANDREWS_PARAMS) == seq.term(n)

    def test_parity_zeros(self):
        assert qmoment_A(4, 1, CB_PARAMS).is_zero
        assert qmoment_A(5, 2, CB_PARAMS).is_zero
        assert qmoment_A(2, 4, CB_PARAMS).is_zero

    def test_entries_match_recurrence_triangle(self):
        for p in (ANDREWS_PARAMS, CB_PARAMS, QParams(q, q ** 3, q)):
            tri = build_zero_s_triangle(TSeq(lambda k: qmoment_T(k, p)), 10)
            for row in range(11):
                for col in range(row + 1):
                    assert tri.a(row, col) == qmoment_A(row, col, p), (str(p), row, col)


class TestQMomentDet:
    def test_dimension_one(self):
        assert qmoment_det(1, 0, ANDREWS_PARAMS) == 1

    def test_symbolic_two_by_two(self):
        for p in (QParams(q ** 4, q, q), QParams(q ** 2, q ** 5, q), ANDREWS_PARAMS):
            a, b, base = p.a, p.b, p.base
            expected = ((1 - b) * (1 - base) * (b - a)) / ((1 - a) ** 2 * (1 - base * a))
            assert qmoment_det(2, 0, p) == expected

    def test_against_oracle(self):
        for p in (ANDREWS_PARAMS, CB_PARAMS, QParams(q, q ** 2, q)):
            for n in range(1, 5):
                for m in range(0, 3):
                    H = hankel_matrix(PochRatioSeq(p.a, p.b, p.base), n, m)
                    assert qmoment_det(n, m, p) == det_exact(H), (str(p), n, m)

    def test_against_oracle_at_a_point_outside_the_sample_sets(self):
        p = QParams(q ** 3, q, q)
        for n in range(1, 4):
            for m in range(2):
                H = hankel_matrix(PochRatioSeq(p.a, p.b, p.base), n, m)
                assert qmoment_det(n, m, p) == det_exact(H), (n, m)

    def test_shift_one_factor(self):
        p = QParams(q ** 3, q ** 2, q)
        d0 = qmoment_det(3, 0, p)
        d1 = qmoment_det(3, 1, p)
        shift = q ** 3 * q_pochhammer(p.b, p.base, 3) / q_pochhammer(p.base ** 2 * p.a, p.base, 3)
        assert d1 == d0 * shift


class TestClassical:
    def test_weights_are_constant_quarter(self):
        for k in range(9):
            assert classical_T(k, 4, 1, 2) == Fraction(1, 4)

    def test_weight_zero_cancels(self):
        assert classical_T(0, 4, 1, 2) == Fraction(1, 4)
        assert classical_T(0, 2, 3, 2) == Fraction(3, 2)  # a = c still fine

    def test_triangle_entry_product_form(self):
        for n in range(6):
            for k in range(n + 1):
                lhs = classical_A(2 * n, 2 * k, 4, 1, 2)
                rhs = Fraction(1, 4 ** (n - k)) * Fraction(2 * k + 1, n + k + 1) * comb(2 * n, n - k)
                assert lhs == rhs

    def test_triangle_entry_base_case(self):
        assert classical_A(0, 0, 4, 1, 2) == 1

    @pytest.mark.parametrize("a, b, c", [(4, 1, 2), (3, 1, 1), (5, 2, 3)])
    def test_zero_s_recurrence_holds(self, a, b, c):
        # (3, 1, 1) and (5, 2, 3) have non-constant weights, unlike (4, 1, 2)
        for row in range(10):
            for col in range(row + 2):
                residual = (classical_A(row + 1, col, a, b, c)
                            - classical_A(row, col - 1, a, b, c)
                            - classical_T(col, a, b, c) * classical_A(row, col + 1, a, b, c))
                assert residual == 0, (row, col)
        for n in range(6):
            assert classical_A(2 * n, 0, a, b, c) == rising_ratio(n, a, b, c)
            assert classical_A(2 * n + 1, 0, a, b, c) == 0

    def test_det_two_by_two_symbolic(self):
        for (a, b, c) in ((4, 1, 2), (3, 1, 1), (5, 2, 3), (7, 3, 2)):
            a, b, c = Fraction(a), Fraction(b), Fraction(c)
            assert classical_det(2, 0, a, b, c) == c * b * (a - b) / (a ** 2 * (a + c))

    def test_det_one_by_one_is_shifted_moment(self):
        seq = RisingRatioSeq(5, 2, 3)
        for m in range(5):
            assert classical_det(1, m, 5, 2, 3) == seq.term(m).as_rational()

    def test_det_against_oracle(self):
        for (a, b, c) in ((4, 1, 2), (3, 1, 1), (5, 2, 3)):
            for n in range(1, 5):
                for m in range(0, 3):
                    H = hankel_matrix(RisingRatioSeq(a, b, c), n, m)
                    assert classical_det(n, m, a, b, c) == det_exact(H).as_rational()

    def test_catalan_scaled_det_is_t_product(self):
        for n in range(1, 7):
            assert classical_det(n, 0, 4, 1, 2) == Fraction(1, 16) ** comb(n, 2)

    def test_pole(self):
        with pytest.raises(PoleInFormula):
            classical_det(3, 0, -2, 1, 1)


class TestRegistry:
    def test_spot_values(self):
        assert closed_form("CatalanShift", 1, 3).as_rational() == 5
        assert closed_form("CatalanShift", 2, 2).as_rational() == 3
        assert closed_form("QFactorial", 2, 0) == q
        x = Fraction(9, 4)
        assert closed_form("BracketFalling", 2, 0, x) == as_field(-x)
        assert closed_form("QHilbert", 2, 0) == q / ((1 + q) ** 2 * (1 + q + q ** 2))
        assert closed_form("Carlitz", 2, 1) == -q
        assert closed_form("CentralBinomial", 3, 0).as_rational() == 4
        assert closed_form("CBq0", 2) == q / ((1 + q) ** 2 * (1 + q ** 2))
        assert closed_form("Andrews0", 2) == q / ((1 + q) * (1 + q ** 2) ** 2 * (1 + q ** 3))

    def test_every_formula_against_oracle(self):
        for tag, formula in FORMULAS.items():
            if formula.as_printed_mismatch:
                continue
            xs = (Fraction(2), Fraction(5, 2)) if formula.needs_x else (None,)
            for x in xs:
                for n in range(1, 4):
                    for m in range(0, 3):
                        if formula.shift_domain == "zero" and m:
                            continue
                        value = closed_form(tag, n, m, x)
                        oracle = det_exact(oracle_matrix(tag, n, m, x))
                        assert value == oracle, (tag, n, m, x)

    def test_carlitz_empty_product_convention(self):
        # dimension 1 forces the k = 0 factor to be read as 1
        for m in range(4):
            assert closed_form("Carlitz", 1, m) == det_exact(oracle_matrix("Carlitz", 1, m))

    def test_carlitz_vanishes_past_rank(self):
        assert closed_form("Carlitz", 3, 1).is_zero
        assert det_exact(oracle_matrix("Carlitz", 3, 1)).is_zero

    def test_cbqm_final_equals_expanded(self):
        for n in range(1, 5):
            for m in range(0, 4):
                assert cbqm_expanded(n, m) == closed_form("CBqm", n, m)

    def test_odd_binomial_relation(self):
        for n in range(1, 4):
            for m in range(0, 3):
                lhs = det_exact(oracle_matrix("OddBinomialRel", n, m))
                rhs = det_exact(oracle_matrix("CentralBinomial", n, m + 1))
                assert lhs == as_field(Fraction(1, 2 ** n)) * rhs
                assert closed_form("OddBinomialRel", n, m) == lhs

    def test_printed_reciprocal_bracket_mismatch(self):
        assert closed_form("RecipBracket", 1, 1).is_zero
        assert det_exact(oracle_matrix("RecipBracket", 1, 1)) == 1

    def test_reciprocal_bracket_oracle_is_shifted_hilbert(self):
        for n in range(1, 4):
            for m in range(1, 3):
                lhs = det_exact(oracle_matrix("RecipBracket", n, m))
                assert lhs == closed_form("QHilbert", n, m - 1)

    def test_missing_x(self):
        with pytest.raises(MissingParameter):
            closed_form("QPochRows", 2, 0)

    def test_unused_x_is_rejected(self):
        for tag, formula in FORMULAS.items():
            if not formula.needs_x:
                with pytest.raises(ValueError, match="takes no --x"):
                    closed_form(tag, 2, 0, Fraction(3))
                with pytest.raises(ValueError, match="takes no --x"):
                    oracle_matrix(tag, 2, 0, Fraction(3))

    def test_unknown_tag(self):
        with pytest.raises(KeyError):
            closed_form("NoSuchFormula", 1, 0)

    def test_zero_shift_domain(self):
        with pytest.raises(ValueError):
            closed_form("CBq0", 2, 1)
        with pytest.raises(ValueError):
            oracle_matrix("CBq0", 2, 1)

    def test_oracle_matrix_checks_its_arguments(self):
        for tag, formula in FORMULAS.items():
            x = Fraction(2) if formula.needs_x else None
            with pytest.raises(ValueError):
                oracle_matrix(tag, 0, 0, x)
            with pytest.raises(ValueError):
                oracle_matrix(tag, 1, -1, x)
            if formula.needs_x:
                with pytest.raises(MissingParameter):
                    oracle_matrix(tag, 2, 0)
        with pytest.raises(KeyError):
            oracle_matrix("NoSuchFormula", 1, 0)

    def test_oracle_matrix_entries(self):
        x = Fraction(5, 2)
        entries = {
            "CatalanShift": lambda k: comb(2 * k, k) // (k + 1),
            "QPochRows": lambda k: q_pochhammer(as_field(x), q, k),
            "QFactorial": q_factorial,
            "BracketFalling": lambda k: bracket_falling(x, k),
            "Carlitz": lambda k: q_binomial(k, 1),
            "QHilbert": lambda k: 1 / q_int(k + 1),
            "RecipBracket": lambda k: 1 / q_int(k),
            "CBq0": PochRatioSeq(q ** 2, q, q ** 2).term,
            "CBqm": PochRatioSeq(q ** 2, q, q ** 2).term,
            "CentralBinomial": lambda k: comb(2 * k, k),
            "OddBinomialRel": lambda k: comb(2 * k + 1, k),
            "Andrews0": PochRatioSeq(q ** 4, q, q ** 2).term,
            "Andrewsm": PochRatioSeq(q ** 4, q, q ** 2).term,
        }
        assert sorted(entries) == sorted(FORMULAS)
        for tag, c in entries.items():
            m = 0 if FORMULAS[tag].shift_domain == "zero" else 1
            M = oracle_matrix(tag, 3, m, x if FORMULAS[tag].needs_x else None)
            assert M.n == 3
            for i in range(3):
                for j in range(3):
                    assert M[i, j] == as_field(c(i + j + m)), (tag, i, j)
        with pytest.raises(PoleInFormula):
            oracle_matrix("RecipBracket", 2, 0)
        with pytest.raises(PoleInFormula):
            closed_form("RecipBracket", 2, 0)


class TestQToOneBridges:
    def test_q_catalan_family(self):
        for n in range(1, 5):
            for m in range(0, 4):
                scale = Fraction(4) ** (n * (n - 1) + n * m)
                lhs = scale * closed_form("Andrewsm", n, m).specialize(1)
                assert lhs == closed_form("CatalanShift", n, m).as_rational(), (n, m)

    def test_q_central_binomial_family(self):
        for n in range(1, 5):
            for m in range(0, 4):
                scale = Fraction(4) ** (n * (n - 1) + n * m)
                lhs = scale * closed_form("CBqm", n, m).specialize(1)
                assert lhs == closed_form("CentralBinomial", n, m).as_rational(), (n, m)
