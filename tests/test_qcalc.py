"""q-calculus primitives against independent recurrence oracles."""

import sys
from fractions import Fraction
from math import comb

import pytest

from hankelkit.errors import UnsupportedNegativeUpper
from hankelkit.field import F_ONE, as_field, q
from hankelkit.qcalc import (
    _MEMO_SIZE,
    bracket_falling,
    gauss_binomial,
    q_binomial,
    q_factorial,
    q_int,
    q_pochhammer,
)


def pascal_q_binomial(n, k):
    """Independent oracle: the q-Pascal recurrence, no Pochhammer ratios."""
    if k < 0 or k > n:
        return as_field(0)
    if n == 0:
        return as_field(1)
    return pascal_q_binomial(n - 1, k - 1) + q ** k * pascal_q_binomial(n - 1, k)


def test_q_int_values():
    assert q_int(0).is_zero
    assert q_int(1) == 1
    assert q_int(3) == 1 + q + q ** 2


def test_q_factorial_values():
    assert q_factorial(0) == 1
    assert q_factorial(2) == 1 + q
    # product of the first three q-integers, multiplied out
    assert q_factorial(3) == (1 + q) * (1 + q + q ** 2)
    assert q_factorial(3) == 1 + 2 * q + 2 * q ** 2 + q ** 3


def test_q_binomial_values():
    assert q_binomial(2, 1) == 1 + q
    assert q_binomial(5, 7).is_zero
    assert q_binomial(3, -1).is_zero
    assert q_binomial(4, 2) == 1 + q + 2 * q ** 2 + q ** 3 + q ** 4


def test_q_binomial_negative_upper_rejected():
    with pytest.raises(UnsupportedNegativeUpper):
        q_binomial(-1, 0)


def test_q_binomial_matches_pascal_oracle():
    for n in range(13):
        for k in range(n + 1):
            assert q_binomial(n, k) == pascal_q_binomial(n, k), (n, k)


def test_q_binomial_other_pascal_recurrence():
    for n in range(1, 13):
        for k in range(n + 1):
            assert q_binomial(n, k) == q ** (n - k) * q_binomial(n - 1, k - 1) + q_binomial(
                n - 1, k
            ), (n, k)


def test_q_binomial_is_polynomial():
    for n in range(9):
        for k in range(n + 1):
            assert q_binomial(n, k).den == as_field(1).den


def test_q_pochhammer_values():
    b = (2 - q) / (1 + q)
    assert q_pochhammer(b, q, 1) == 1 - b
    assert q_pochhammer(q ** 2, q, 0) == 1
    assert q_pochhammer(q, q ** 2, 2) == (1 - q) * (1 - q ** 3)


def test_q_pochhammer_shift_law():
    x = (1 + q) / (2 + q ** 2)
    base = q
    for m in range(9):
        for n in range(9):
            assert q_pochhammer(x, base, m + n) == q_pochhammer(x, base, m) * q_pochhammer(
                base ** m * x, base, n
            )
    base2 = q ** 2
    for m in range(5):
        for n in range(5):
            assert q_pochhammer(x, base2, m + n) == q_pochhammer(x, base2, m) * q_pochhammer(
                base2 ** m * x, base2, n
            )


def test_gauss_binomial_arbitrary_base():
    # base q^2 reduces to the plain binomial at q = 1 as well
    for n in range(7):
        for k in range(n + 1):
            assert gauss_binomial(n, k, q ** 2).specialize(1) == comb(n, k)


def test_specialize_bridges():
    for n in range(11):
        assert q_int(n).specialize(1) == n
    for n in range(11):
        for k in range(n + 1):
            assert q_binomial(n, k).specialize(1) == comb(n, k)


def test_bracket_falling_values():
    x = Fraction(7, 3)
    assert bracket_falling(x, 0) == 1
    assert bracket_falling(x, 2) == as_field(x) * (as_field(x) - 1)
    assert bracket_falling(Fraction(2), 3) == 2 * (1 - q)


def test_bracket_falling_pochhammer_identity():
    # <x>_n = (1+(q-1)x)^n / (q-1)^n * (1/(1+(q-1)x); q)_n for x != 1
    for x in (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-1, 2)):
        base_factor = F_ONE + (q - 1) * as_field(x)
        for n in range(7):
            rhs = (base_factor ** n / (q - 1) ** n) * q_pochhammer(1 / base_factor, q, n)
            assert bracket_falling(x, n) == rhs, (x, n)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize(
    "fn, head",
    [(q_factorial, ()), (q_pochhammer, (q, q)), (bracket_falling, (Fraction(1, 3),))],
)
def test_running_products_cold_equal_warm(fn, head):
    # a cold call must not recurse once per factor: with 50 frames to spare,
    # a length of 60 overflows the stack unless the table fills bottom-up
    n = 60
    fn.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        cold = fn(*head, n)
    finally:
        sys.setrecursionlimit(limit)
    fn.cache_clear()
    warm = [fn(*head, k) for k in range(n + 1)]
    assert cold == warm[-1]
    # the empty product is in every row: the call for 0 is a hit
    assert fn.cache_info()[:2] == (1, n)
    assert fn(*head, n) == cold and fn.cache_info()[:2] == (2, n)


@pytest.mark.parametrize("fn, args", [
    (q_int, lambda j: (j,)),
    (q_binomial, lambda j: (j, j + 1)),
    # keyed on a field element: each base is a new key
    (gauss_binomial, lambda j: (2, 1, as_field(j + 2))),
    # a running product bounds its rows: each x is a new head
    (q_pochhammer, lambda j: (as_field(j + 2), q, 1)),
])
def test_memo_tables_are_bounded(fn, args):
    fn.cache_clear()
    try:
        for j in range(_MEMO_SIZE + 100):
            fn(*args(j))
        info = fn.cache_info()
        assert info.maxsize == _MEMO_SIZE and info.currsize <= info.maxsize
        assert info.misses == _MEMO_SIZE + 100
    finally:
        fn.cache_clear()


def test_running_product_evicts_least_recently_used_head():
    heads = [(as_field(j + 2), q) for j in range(_MEMO_SIZE)]
    q_pochhammer.cache_clear()
    try:
        for head in heads:
            q_pochhammer(*head, 2)
        q_pochhammer(*heads[0], 1)  # a hit: heads[1] is now the oldest row
        q_pochhammer(as_field(-1), q, 2)
        assert q_pochhammer.cache_info()[:2] == (1, _MEMO_SIZE + 1)
        q_pochhammer(*heads[0], 2)
        assert q_pochhammer.cache_info()[:2] == (2, _MEMO_SIZE + 1)
        assert q_pochhammer(*heads[1], 2) == (1 - heads[1][0]) * (1 - q * heads[1][0])
        assert q_pochhammer.cache_info()[:2] == (2, _MEMO_SIZE + 2)
    finally:
        q_pochhammer.cache_clear()
