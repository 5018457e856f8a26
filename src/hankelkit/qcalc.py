"""q-calculus primitives: q-integers, q-factorials, Gaussian binomials,
q-Pochhammer symbols with arbitrary base, and the bracket falling factorial.

All values are exact elements of Q(q).  Results are memoized per argument
tuple; every function is pure, so cached and uncached runs are identical.
``q_int``, ``q_binomial`` and ``gauss_binomial`` keep at most ``_MEMO_SIZE``
entries each, and the running products (q-factorial, q-Pochhammer, bracket
falling factorial) at most ``_MEMO_SIZE`` rows, least recently used out
first.  The running products fill their rows bottom-up without recursion,
so a cold call of any length returns what a warm one does.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial, update_wrapper

from .errors import UnsupportedNegativeUpper
from .field import F_ONE, F_ZERO, FieldElem, as_field, q

# one ``verify all`` fills 15, 51 and 70 entries of q_int, q_binomial and
# gauss_binomial, and 21, 94 and 121 at n <= 7, m <= 4; it makes 111 rows of
# q_pochhammer (120 at seed 7, 144 at n <= 7, m <= 4) and at most 3 of the
# other running products; a suite run evicts nothing
_MEMO_SIZE = 512

_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _RunningProduct:
    """f(*head, n) = factor(*head, 0) * ... * factor(*head, n - 1), memoized
    like ``functools.lru_cache(maxsize=_MEMO_SIZE)``, with the same
    ``cache_info`` and ``cache_clear``, but in rows of partial products, one
    per head; the sizes count rows.  As a decorator it turns the factor, a
    function of (*head, j), into f, called with (*head, n).

    A miss extends the row for its head upward from the largest n already
    there, so no call recurses.
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
        head, n = args[:-1], args[-1]
        if n < 0:
            raise ValueError(f"{self.__name__} wants a nonnegative {self._what}")
        with self._lock:
            # reinserted, the row is the most recently used; the first goes
            row = self._rows[head] = self._rows.pop(head, None) or [F_ONE]
            if len(self._rows) > _MEMO_SIZE:
                del self._rows[next(iter(self._rows))]
            if n < len(row):
                self._hits += 1
            else:
                self._misses += 1
                while len(row) <= n:
                    row.append(row[-1] * self._factor(*head, len(row) - 1))
            return row[n]

    def cache_info(self):
        with self._lock:
            return _CacheInfo(self._hits, self._misses, _MEMO_SIZE, len(self._rows))

    def cache_clear(self):
        with self._lock:
            self._rows.clear()
            self._hits = 0
            self._misses = 0


@lru_cache(maxsize=_MEMO_SIZE)
def q_int(n: int) -> FieldElem:
    """[n] = 1 + q + ... + q^(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("q_int wants a nonnegative index")
    if n == 0:
        return F_ZERO
    return FieldElem._raw(1, 1, (1,) * n, (1,))


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
