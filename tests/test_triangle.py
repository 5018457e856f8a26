"""Recurrence engines: tables, contraction, rescaling, cross sums."""

import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from hankelkit.closed_forms import QParams, qmoment_T
from hankelkit.errors import PoleInFormula
from hankelkit.field import as_field, q
from hankelkit.sequences import PochRatioSeq
from hankelkit.triangle import (
    JacobiParams,
    TSeq,
    build_triangle,
    build_zero_s_triangle,
    contract,
    cross_sum,
    rescale,
)

OEIS_A053121 = [
    [1],
    [0, 1],
    [1, 0, 1],
    [0, 2, 0, 1],
    [2, 0, 3, 0, 1],
    [0, 5, 0, 4, 0, 1],
    [5, 0, 9, 0, 5, 0, 1],
    [0, 14, 0, 14, 0, 6, 0, 1],
]
OEIS_A039599 = [[1], [1, 1], [2, 3, 1], [5, 9, 5, 1], [14, 28, 20, 7, 1]]
OEIS_A094527 = [[1], [2, 1], [6, 4, 1], [20, 15, 6, 1], [70, 56, 28, 8, 1]]


def rational_rows(tri):
    return [[v.as_rational() for v in row] for row in tri.rows]


def catalan_params():
    return JacobiParams(lambda k: as_field(1 if k == 0 else 2), lambda k: as_field(1))


def central_binomial_params():
    return JacobiParams(lambda k: as_field(2), lambda k: as_field(2 if k == 0 else 1))


def test_catalan_triangle_rows():
    assert rational_rows(build_triangle(catalan_params(), 4)) == OEIS_A039599


def test_central_binomial_triangle_rows():
    assert rational_rows(build_triangle(central_binomial_params(), 4)) == OEIS_A094527


def test_zero_parameters_give_shift_triangle():
    jp = JacobiParams(lambda k: as_field(0), lambda k: as_field(0))
    tri = build_triangle(jp, 3)
    assert rational_rows(tri) == [[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]]


def test_ballot_table_rows():
    assert rational_rows(build_zero_s_triangle(TSeq.constant(1), 7)) == OEIS_A053121


def test_zero_weights_give_shift_triangle():
    tri = build_zero_s_triangle(TSeq.constant(0), 4)
    for n in range(5):
        for k in range(n + 1):
            assert tri.a(n, k) == (1 if k == n else 0)


def test_zero_s_parity_zeros():
    p = QParams(q ** 2, q, q ** 2)
    tri = build_zero_s_triangle(TSeq(lambda k: qmoment_T(k, p)), 8)
    for n in range(9):
        for k in range(n + 1):
            if (n - k) % 2 == 1:
                assert tri.a(n, k).is_zero, (n, k)


def test_zero_s_even_column_matches_moments():
    p = QParams(q ** 2, q, q ** 2)
    tri = build_zero_s_triangle(TSeq(lambda k: qmoment_T(k, p)), 10)
    seq = PochRatioSeq(q ** 2, q, q ** 2)
    for n in range(6):
        assert tri.a(2 * n, 0) == seq.term(n), n


def test_contract_constant_one():
    jp = contract(TSeq.constant(1))
    assert jp.s(0) == 1
    assert all(jp.s(n) == 2 for n in range(1, 6))
    assert all(jp.t(n) == 1 for n in range(6))


def test_contract_constant_quarter():
    jp = contract(TSeq.constant(Fraction(1, 4)))
    assert jp.s(0).as_rational() == Fraction(1, 4)
    assert all(jp.s(n).as_rational() == Fraction(1, 2) for n in range(1, 6))
    # t(0) = T(0)T(1) = 1/16 here; the 1/8 value belongs to the q-weights below
    assert all(jp.t(n).as_rational() == Fraction(1, 16) for n in range(6))


def test_contract_q_weights_specialize():
    p = QParams(q ** 2, q, q ** 2)
    jp = contract(TSeq(lambda k: qmoment_T(k, p)))
    assert jp.s(0).specialize(1) == Fraction(1, 2)
    assert all(jp.s(n).specialize(1) == Fraction(1, 2) for n in range(1, 6))
    assert jp.t(0).specialize(1) == Fraction(1, 8)
    assert all(jp.t(n).specialize(1) == Fraction(1, 16) for n in range(1, 6))


def test_rescale():
    jp = JacobiParams(
        lambda k: as_field(Fraction(1, 2)),
        lambda k: as_field(Fraction(1, 8) if k == 0 else Fraction(1, 16)),
    )
    scaled = rescale(jp, 4)
    assert scaled.s(3).as_rational() == 2
    assert scaled.t(0).as_rational() == 2
    assert scaled.t(4).as_rational() == 1
    ident = rescale(jp, 1)
    assert ident.s(2) == jp.s(2) and ident.t(2) == jp.t(2)
    dead = rescale(jp, 0)
    assert dead.s(1).is_zero and dead.t(1).is_zero


def test_rescale_moment_law():
    jp = catalan_params()
    x = as_field(Fraction(3, 2))
    plain = build_triangle(jp, 6).column0()
    scaled = build_triangle(rescale(jp, x), 6).column0()
    for n in range(7):
        assert scaled[n] == x ** n * plain[n]


def test_cross_sum_row_zero():
    tri = build_triangle(catalan_params(), 6)
    for m in range(6):
        assert cross_sum(tri, catalan_params(), 0, m) == tri.a(m, 0)


def test_cross_sum_catalan():
    jp = catalan_params()
    tri = build_triangle(jp, 4)
    assert cross_sum(tri, jp, 2, 2).as_rational() == 14


def test_cross_sum_central_binomial():
    jp = central_binomial_params()
    tri = build_triangle(jp, 4)
    assert cross_sum(tri, jp, 1, 2).as_rational() == 20


def test_cross_sum_reproduces_moments():
    # bilinear identity for a haphazard rational parameter set
    rng = random.Random(7)
    s = [as_field(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(9)]
    t = [as_field(Fraction(rng.randint(1, 4), rng.randint(1, 3))) for _ in range(9)]
    jp = JacobiParams(s, t)
    tri = build_triangle(jp, 8)
    for i in range(5):
        for j in range(5):
            if i + j <= 8:
                assert cross_sum(tri, jp, i, j) == tri.a(i + j, 0), (i, j)


def test_contraction_consistency():
    weights = [
        TSeq.constant(1),
        TSeq.constant(Fraction(1, 4)),
        TSeq(lambda k: qmoment_T(k, QParams(q ** 4, q, q ** 2))),
    ]
    for T in weights:
        full = build_zero_s_triangle(T, 16)
        packed = build_triangle(contract(T), 8)
        for n in range(9):
            for k in range(n + 1):
                assert packed.a(n, k) == full.a(2 * n, 2 * k), (n, k)


def choose(n, k):
    return comb(n, k) if 0 <= k <= n else 0


def test_catalan_closed_forms():
    tz = build_zero_s_triangle(TSeq.constant(1), 16)
    for n in range(9):
        for k in range(n + 1):
            expected = choose(2 * n, n - k) - choose(2 * n, n - k - 1)
            assert tz.a(2 * n, 2 * k).as_rational() == expected
    cb = build_triangle(central_binomial_params(), 8)
    for n in range(9):
        for k in range(n + 1):
            assert cb.a(n, k).as_rational() == comb(2 * n, n - k)


def test_out_of_range_reads_zero():
    tri = build_triangle(catalan_params(), 3)
    assert tri.a(2, -1).is_zero
    assert tri.a(2, 3).is_zero


def test_jacobi_params_length():
    # rows 0..n need s(0..n-1) and t(0..n-2)
    assert JacobiParams([1, 2, 3], [1, 1]).length == 3
    assert JacobiParams([1, 2, 3], [1]).length == 2
    assert JacobiParams([1, 2, 3], []).length == 1
    assert JacobiParams([1, 2], lambda k: 1).length == 2
    assert JacobiParams(lambda k: 1, [1, 1]).length == 3
    assert JacobiParams(lambda k: 1, lambda k: 1).length is None
    assert JacobiParams(lambda k: 1, lambda k: 1, length=4).length == 4


def test_zero_s_triangle_reads_the_weight_table_up_to_rows_minus_two():
    values = [q, 1 + q, 2, q ** 2, 3]
    tri = build_zero_s_triangle(TSeq(values), 6)
    assert tri.rows == build_zero_s_triangle(TSeq(lambda k: values[k]), 6).rows
    assert tri.a(6, 0) == values[0] * tri.a(5, 1)
    with pytest.raises(IndexError):
        build_zero_s_triangle(TSeq(values), 7)


def counting(fn):
    """fn with a Counter of the indices it is called at."""
    calls = Counter()

    def wrapped(k):
        calls[k] += 1
        return fn(k)

    return wrapped, calls


def test_contracted_triangle_reads_each_weight_once():
    # rows 0..17 read s(0..16) and t(0..15), so T(0..32); s and t share T(2k)
    # and T(2k + 1), and each row reads them again
    T, calls = counting(lambda k: as_field(k + 1))
    build_triangle(contract(TSeq(T)), 17)
    assert calls == Counter(range(33))


def test_callable_parameters_are_read_once_per_object():
    s, s_calls = counting(lambda k: as_field(k))
    t, t_calls = counting(lambda k: q + k)
    jp = JacobiParams(s, t)
    scaled = rescale(jp, 2)
    for _ in range(3):
        assert jp.s_list(4) == [as_field(k) for k in range(4)]
        assert scaled.t_list(3) == [4 * (q + k) for k in range(3)]
    assert s_calls == Counter(range(4)) and t_calls == Counter(range(3))
    # another object over the same callable keeps its own values
    JacobiParams(s, t).s(0)
    assert s_calls[0] == 2


def test_a_read_that_raises_raises_again():
    def pole_at_3(k):
        if k == 3:
            raise PoleInFormula("weight denominator vanishes at k = 3")
        return as_field(1)

    fn, calls = counting(pole_at_3)
    T = TSeq(fn)
    for _ in range(2):
        with pytest.raises(PoleInFormula):
            T(3)
    assert calls[3] == 2
    assert T(2) == as_field(1)
    with pytest.raises(PoleInFormula):
        build_zero_s_triangle(T, 5)
