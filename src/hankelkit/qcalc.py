"""q-calculus primitives: q-integers, q-factorials, Gaussian binomials,
q-Pochhammer symbols with arbitrary base, and the bracket falling factorial.

All values are exact elements of Q(q).  Results are memoized per argument
tuple; every function is pure, so cached and uncached runs are identical.
``q_int``, ``q_binomial`` and ``gauss_binomial`` keep at most ``_MEMO_SIZE``
entries each, least recently used out first.
The running products (q-factorial, q-Pochhammer, bracket falling factorial)
fill their tables bottom-up without recursion, so a cold call of any length
returns what a warm one does.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial, update_wrapper

from .errors import UnsupportedNegativeUpper
from .field import F_ONE, F_ZERO, FieldElem, Polynomial, as_field, q

# one ``verify all`` fills 15, 51 and 70 entries of the bounded tables, and
# 21, 94 and 121 at n <= 7, m <= 4; a suite run evicts nothing
_MEMO_SIZE = 512

_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _RunningProduct:
    """f(*head, n) = factor(*head, 0) * ... * factor(*head, n - 1), memoized
    for every n like ``functools.lru_cache(maxsize=None)``, with the same
    ``cache_info`` and ``cache_clear``.  As a decorator it turns the factor,
    a function of (*head, j), into f, called with (*head, n).

    A miss extends the row of partial products for its head upward from the
    largest n already there, so no call recurses.
    """

    def __init__(self, factor, what):
        update_wrapper(self, factor)
        self._factor = factor
        self._what = what
        self._rows = {}
        self._hits = 0
        self._misses = 0
        # a row grows one product at a time, in order
        self._lock = threading.Lock()

    def __call__(self, *args):
        *head, n = args
        if n < 0:
            raise ValueError(f"{self.__name__} wants a nonnegative {self._what}")
        with self._lock:
            row = self._rows.setdefault(tuple(head), [F_ONE])
            if n < len(row):
                self._hits += 1
            else:
                self._misses += 1
                while len(row) <= n:
                    row.append(row[-1] * self._factor(*head, len(row) - 1))
            return row[n]

    def cache_info(self):
        with self._lock:
            size = sum(len(row) for row in self._rows.values())
            return _CacheInfo(self._hits, self._misses, None, size)

    def cache_clear(self):
        with self._lock:
            self._rows = {}
            self._hits = 0
            self._misses = 0


@lru_cache(maxsize=_MEMO_SIZE)
def q_int(n: int) -> FieldElem:
    """[n] = 1 + q + ... + q^(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("q_int wants a nonnegative index")
    if n == 0:
        return F_ZERO
    return FieldElem(Polynomial([1] * n))


@partial(_RunningProduct, what="index")
def q_factorial(j: int) -> FieldElem:
    """q_factorial(n) = [n]! = [1][2]...[n]; [0]! = 1."""
    return q_int(j + 1)


@partial(_RunningProduct, what="length")
def q_pochhammer(x: FieldElem, base: FieldElem, j: int) -> FieldElem:
    """q_pochhammer(x, base, n) = (x; base)_n = prod_{j=0}^{n-1} (1 - base^j * x);
    empty product for n = 0."""
    return F_ONE - as_field(base) ** j * as_field(x)


@lru_cache(maxsize=_MEMO_SIZE)
def q_binomial(n: int, k: int) -> FieldElem:
    """Gaussian binomial in base q: (q;q)_n / ((q;q)_k (q;q)_{n-k}).

    Zero for k < 0 or k > n.  A negative upper index is rejected; the one
    k = 0 convention a determinant formula needs is applied at its use site.
    """
    if n < 0:
        raise UnsupportedNegativeUpper(f"q_binomial upper index {n} < 0")
    if k < 0 or k > n:
        return F_ZERO
    return gauss_binomial(n, k, q)


@lru_cache(maxsize=_MEMO_SIZE)
def gauss_binomial(n: int, k: int, base: FieldElem) -> FieldElem:
    """Gaussian binomial with an arbitrary nonzero base element."""
    if n < 0:
        raise UnsupportedNegativeUpper(f"gauss_binomial upper index {n} < 0")
    if k < 0 or k > n:
        return F_ZERO
    k = min(k, n - k)
    base = as_field(base)
    num = F_ONE
    den = F_ONE
    for j in range(1, k + 1):
        num = num * (F_ONE - base ** (n - k + j))
        den = den * (F_ONE - base ** j)
    return num / den


@partial(_RunningProduct, what="length")
def bracket_falling(x: Fraction, j: int) -> FieldElem:
    """bracket_falling(x, n) = <x>_n = prod_{j=0}^{n-1} (x - [j]), with x a
    rational constant."""
    return as_field(Fraction(x)) - q_int(j)
