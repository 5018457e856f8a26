"""Recurrence engines for the lower-triangular moment tables.

build_triangle runs the three-term recurrence
a(n, k) = a(n-1, k-1) + s(k) a(n-1, k) + t(k) a(n-1, k+1) driven by Jacobi
parameters (s, t); its column 0 is the moment sequence.  Each entry is one
multiply-add reduced once (``field._add_products``): three gcds, where two
products and two sums take eight.  The zero-s triangle
of a weight sequence T is the case (s, t) = (0, T): build_zero_s_triangle is
that call.  contract recovers the (s, t) of the even moments from T; rescale
maps the moment scaling x^n onto the parameters; cross_sum is the bilinear
product identity behind the Hankel factorization.
"""

from __future__ import annotations

import functools

from .field import F_ONE, F_ZERO, FieldElem, _add_products, as_field


def _lookup(values):
    """A table or a callable as (function of the index, table length or None).

    A callable is called at most once per index: the returned function
    caches each value, passed through as_field, on first read.  So the
    callable must be pure, its value a function of the index alone.  A read
    that raises stores nothing and raises again on the next read.
    """
    if callable(values):
        return functools.cache(lambda k: as_field(values(k))), None
    table = [as_field(v) for v in values]
    return table.__getitem__, len(table)


class JacobiParams:
    """The (s, t) coefficient pair of the three-term recurrence.

    Accepts finite tables (lists) or closed-form callables; ``length`` is the
    number of supported indices (None for unbounded callables).  A callable
    must be pure: each object calls it at most once per index (see _lookup).
    """

    def __init__(self, s, t, length=None):
        self._s, s_len = _lookup(s)
        self._t, t_len = _lookup(t)
        if length is None:
            # rows 0..n need s(0..n-1) and t(0..n-2)
            bounds = [b for b in (s_len, None if t_len is None else t_len + 1) if b is not None]
            length = min(bounds, default=None)
        self.length = length

    def s(self, k: int) -> FieldElem:
        return self._s(k)

    def t(self, k: int) -> FieldElem:
        return self._t(k)

    def s_list(self, count: int):
        return [self.s(k) for k in range(count)]

    def t_list(self, count: int):
        return [self.t(k) for k in range(count)]


class TSeq:
    """Weight sequence T(k) for the zero-s recurrence; table or callable.

    A callable must be pure: each TSeq calls it at most once per index (see
    _lookup).
    """

    def __init__(self, T):
        self._T, _ = _lookup(T)

    def __call__(self, k: int) -> FieldElem:
        return self._T(k)

    @classmethod
    def constant(cls, value) -> "TSeq":
        v = as_field(value)
        return cls(lambda k: v)


class Triangle:
    """Lower-triangular table with unit diagonal; rows[n] holds a(n, 0..n)."""

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def a(self, n: int, k: int) -> FieldElem:
        """Entry a(n, k); out-of-range column indices read as zero."""
        if k < 0 or k > n:
            return F_ZERO
        return self.rows[n][k]

    def column0(self, count=None):
        count = self.n_rows if count is None else count
        return [self.rows[n][0] for n in range(count)]


def build_triangle(jp: JacobiParams, n_max: int) -> Triangle:
    """Rows 0..n_max of a(n, k) from the (s, t) recurrence."""
    if jp.length is not None and jp.length < n_max:
        raise ValueError(f"JacobiParams covers {jp.length} indices, need {n_max}")
    rows = [[F_ONE]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = []
        # s/t factors whose multiplicand is a structural zero are skipped, so
        # finite parameter tables are never read past what the rows need
        for k in range(n + 1):
            v = prev[k - 1] if k else F_ZERO
            if k + 1 < n:
                v = _add_products(v, ((jp.s(k), prev[k]), (jp.t(k), prev[k + 1])))
            elif k < n:
                v = _add_products(v, ((jp.s(k), prev[k]),))
            row.append(v)
        rows.append(row)
    return Triangle(rows)


def build_zero_s_triangle(T: TSeq, n_max: int) -> Triangle:
    """Rows 0..n_max of the zero-s triangle: build_triangle with (s, t) = (0, T).

    A(n, 0) = T(0) A(n-1, 1) and A(n, k) = A(n-1, k-1) + T(k) A(n-1, k+1);
    entries of the wrong parity come out as structural zeros.
    """
    return build_triangle(JacobiParams(lambda k: F_ZERO, T), n_max)


def contract(T: TSeq) -> JacobiParams:
    """Jacobi parameters of the even subsequence of a zero-s table:
    s(0) = T(0), s(n) = T(2n-1) + T(2n), t(n) = T(2n) T(2n+1)."""

    def s(k):
        if k == 0:
            return T(0)
        return T(2 * k - 1) + T(2 * k)

    def t(k):
        return T(2 * k) * T(2 * k + 1)

    return JacobiParams(s, t)


def rescale(jp: JacobiParams, x) -> JacobiParams:
    """Parameters of the scaled moments x^n c(n): s'(k) = x s(k), t'(k) = x^2 t(k)."""
    x = as_field(x)
    x2 = x * x
    return JacobiParams(lambda k: x * jp.s(k), lambda k: x2 * jp.t(k), length=jp.length)


def cross_sum(tri: Triangle, jp: JacobiParams, n: int, m: int) -> FieldElem:
    """sum_k a(n, k) a(m, k) prod_{j<k} t(j); equals a(n+m, 0)."""
    total = F_ZERO
    weight = F_ONE
    for k in range(min(n, m) + 1):
        if k:
            weight = weight * jp.t(k - 1)
        total = total + tri.a(n, k) * tri.a(m, k) * weight
    return total
