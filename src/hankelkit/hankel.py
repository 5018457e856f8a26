"""Hankel matrices over Q(q): exact determinants, LDL^t factorization and
the inversion from moments back to Jacobi parameters.

One Gaussian elimination with row pivoting, ``_eliminate``, serves both
the ``division`` engine (the signed product of its pivots) and ``ldlt``
(multipliers A, pivots D).  On a symmetric matrix, as every Hankel matrix
is, it updates only the upper triangle until its first row swap.

The ``bareiss`` engine, the oracle of the other two with no algebra shared,
is fraction-free elimination (Bareiss, Math. Comp. 22, 1968) over Z[q], on
plain integer coefficient vectors.  Row i is multiplied by L_i, the lcm of
the denominators of rows 0..i (the row's own lcm when, as on the q-moment
matrices, they are nested).  An entry p n / (r d) (``field``) has the
denominator r d, an int times a primitive vector, and by Gauss's lemma
lcm(r1 d1, r2 d2) = lcm(r1, r2) lcm(d1, d2).  So L_i = r d: its integer
part r is the running lcm of the entries' integer denominators, and d that
of their denominator vectors.  d grows by the gcd cofactor of each entry's
vector against the lcm before it, and those cofactors also give d over
each entry's vector by products alone, with no division.  The cleared
entries, L_i / L_(i-1), the products L_0 ... L_k and every pivot are then
integer vectors, and every division is exact over Z[q]
(``field._try_div_exact``).  One reduction divides L_0 ... L_(n-1) back out
of the last pivot.  By Sylvester's identity, after step k - 1 a_ij is
L_0 ... L_(k-1) L_i times the minor of M on rows 0..k-1, i and columns
0..k-1, j, which is symmetric in i and j when M is, so a_ji = a_ij L_j / L_i.
Until its first row swap the engine updates only the upper triangle and
reads the pivot column off the pivot row, one product by L_i / L_k per row.

There it also takes two columns per pass, the two-step scheme of Bareiss's
paper ("Sylvester's identity and multistep integer-preserving Gaussian
elimination").  With every entry at level k (after step k - 1) and p the
pivot of step k - 1 (1 at k = 0), the pass at k forms

    x_j = (a_kk a_(k+1)j - a_(k+1)k a_kj) / p                 for j >= k + 1,
    y_j = (a_k(k+1) a_(k+1)j - a_kj a_(k+1)(k+1)) / p         for j >= k + 2,
    a_ij <- (c0 a_ij - a_i(k+1) x_j + a_ik y_j) / p           for k + 2 <= i <= j,

where x is row k + 1 at level k + 1 and c0 = x_(k+1) is the pivot of step
k + 1.  The numerator of the update is the 3 x 3 determinant of level-k
entries on rows k, k + 1, i and columns k, k + 1, j, expanded along its last
row; by Sylvester's identity that determinant is p^2 times a_ij at level
k + 2, and the 2 x 2 determinant in y_j is p times a minor of M's rows, so
every division is exact.  An entry costs 3 products and 1 exact division
per two columns against 4 and 2 for two single steps: 115 exact divisions
at n = 10, where one column per step takes 165 and the full square 285.  A
zero c0 (step k then runs alone and step k + 1 swaps), the last odd column
and every step after a swap go one column at a time.

Every update, of either kind, is one signed sum of products of integer
vectors (``field._sum_of_products``), divided by p: its terms are
multiplied by Kronecker substitution at one slot width, summed as packed
ints and read back once.  The operands that recur within a pass (the
pivot, c0, a_(k+1)k, the entries of rows k and k + 1, a_ik, a_i(k+1), x_j
and y_j) are packed once per slot width; the entry an update replaces is
used once and is not kept.
On c:q^2,q,q^2 with m = 1 at n = 10, the best of 4 in-process runs took
0.55-0.86 s one column per step and 0.44-0.57 s two columns per pass (8
alternating processes, 2 cores, Python 3.11, on a host shared with other
jobs).

``leading_minors`` reads every leading minor d(1), ..., d(n) off one
elimination, the way the paper's Lemma reads every Hankel determinant off
one factorisation, d(n) = prod t(k).  For ``division`` d(k + 1) is the
product of the first k + 1 pivots; for ``bareiss`` it is the step-k pivot
a_kk over L_0 ... L_k, the identity above at i = j = k.  Both hold until the
first zero pivot or row swap, whose order has minor 0; each larger order is
then the determinant of its own leading block.  The generator is lazy: d(k)
costs only the steps before pivot k, so the verify grids read each oracle
determinant at order n off one elimination of order n_max per matrix source
and shift.
"""

from __future__ import annotations

import math

from .errors import NotNormalized, SingularLeadingMinor
from .field import (F_ONE, F_ZERO, FieldElem, _gcd_cofactors, _mul_int, _sum_of_products,
                    _try_div_exact, as_field)
from .sequences import MomentSeq
from .triangle import JacobiParams


class SquareMatrix:
    """Dense immutable n x n matrix of field elements."""

    def __init__(self, entries):
        rows = tuple(tuple(as_field(v) for v in row) for row in entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix is not square")
        self.n = n
        self.entries = rows

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"SquareMatrix({[[str(v) for v in row] for row in self.entries]!r})"


class LdltFactors:
    """Unit lower triangular A and diagonal D with A diag(D) A^t = H."""

    def __init__(self, A: SquareMatrix, D):
        self.A = A
        self.D = list(D)


def hankel_matrix(seq, n: int, m: int = 0) -> SquareMatrix:
    """The n x n matrix with entries c(i + j + m), where c is the term of a
    MomentSeq or a function of the index; only c(m .. 2n - 2 + m) is read."""
    if n < 1:
        raise ValueError("hankel_matrix wants n >= 1")
    if m < 0:
        raise ValueError("hankel_matrix wants m >= 0")
    term = seq.term if isinstance(seq, MomentSeq) else seq
    terms = [term(k) for k in range(m, 2 * n - 1 + m)]
    return SquareMatrix([terms[i:i + n] for i in range(n)])


def _is_symmetric(rows) -> bool:
    return all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i))


def _eliminate(M: SquareMatrix):
    """Gaussian elimination with row pivoting, one column at a time.

    Yields (swapped, pivot, multipliers) per column: whether a row swap
    brought the pivot up, the pivot, and a[r][col] / pivot for each row r
    below it.  A zero pivot (nothing to pivot on) is yielded last.  While the
    matrix is symmetric and no swap has happened, the Schur complement stays
    symmetric: only its upper triangle is updated, and mirrored below.
    """
    n = M.n
    a = [list(row) for row in M.entries]
    symmetric = _is_symmetric(M.entries)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if not a[r][col].is_zero), None)
        if pivot_row is None:
            yield False, F_ZERO, []
            return
        swapped = pivot_row != col
        if swapped:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            symmetric = False
        pivot = a[col][col]
        multipliers = [a[r][col] / pivot for r in range(col + 1, n)]
        yield swapped, pivot, multipliers
        top = a[col]
        for r, ratio in enumerate(multipliers, col + 1):
            if ratio.is_zero:
                continue
            row = a[r]
            for c in range(r if symmetric else col + 1, n):
                row[c] = row[c] - ratio * top[c]
            if symmetric:
                for c in range(r + 1, n):
                    a[c][r] = row[c]


def det_division(M: SquareMatrix) -> FieldElem:
    """Determinant by field Gaussian elimination: the signed pivot product."""
    det = F_ONE
    for swapped, pivot, _ in _eliminate(M):
        det = det * pivot
        if swapped:
            det = -det
    return det


def _bareiss(M: SquareMatrix):
    """Fraction-free (Bareiss) elimination over Z[q] on the rows cleared by
    the running lcms L_i, every entry an integer vector.

    Yields (swapped, pivot, L_0 ... L_k) per step k, before the step updates
    the rows below: whether a row swap brought the pivot up, the pivot a_kk
    and the product of the clearing lcms so far.  A zero pivot (nothing to
    swap in) is yielded last.  Until the first swap a_kk / (L_0 ... L_k) is
    the leading minor of order k + 1.  While M is symmetric and unswapped, a
    step updates only the upper triangle and takes a_ik = a_ki L_i / L_k,
    and a pass takes steps k and k + 1 together, yielding the step-(k + 1)
    pivot as soon as it is known (module docstring).
    """
    n = M.n
    symmetric = _is_symmetric(M.entries)
    a, ext, dens = [], [], []  # ext[i] = L_i / L_(i-1), dens[i] = L_0 ... L_i
    r, d, den = 1, (1,), (1,)  # L_i = r d (module docstring)
    for row in M.entries:
        r_prev, cofs = r, []
        for v in row:
            cofs.append(_gcd_cofactors(d, v.d))
            r, d = math.lcm(r, v.r), _mul_int(d, cofs[-1][2])
        # d / v.d is the cofactor of the lcm before v times the factors that
        # the entries after v add, whose product is ext's vector at the end
        cleared, grow = [], (1,)
        for v, (_, d_cof, v_cof) in zip(reversed(row), reversed(cofs)):
            cleared.append(_mul_int((v.p * (r // v.r),), _mul_int(v.n, _mul_int(d_cof, grow))))
            grow = _mul_int(grow, v_cof)
        a.append(cleared[::-1])
        ext.append(_mul_int((r // r_prev,), grow))
        den = _mul_int((r,), _mul_int(den, d))
        dens.append(den)

    def mirror(j):
        """Column j below the diagonal from row j: a_ij = a_ji L_i / L_j."""
        ratio = (1,)
        for i in range(j + 1, n):
            ratio = _mul_int(ratio, ext[i])
            a[i][j] = _mul_int(a[j][i], ratio)

    prev, k = (1,), 0
    while k < n:
        # the operands that recur in this pass, packed once per slot width
        packed = {}

        def update(p1, p2, q1, q2, once=None):
            """(p1 p2 - q1 q2) / prev; once is an operand used only here."""
            return _try_div_exact(_sum_of_products(((1, p1, p2), (-1, q1, q2)), packed, once),
                                  prev)

        swapped = not a[k][k]
        if swapped:
            if symmetric:
                # leave the symmetric steps: fill in the whole active block
                symmetric = False
                for j in range(k, n):
                    mirror(j)
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                yield False, a[k][k], dens[k]
                return
            a[k], a[swap] = a[swap], a[k]
        pivot, top = a[k][k], a[k]
        yield swapped, pivot, dens[k]
        if symmetric:
            mirror(k)
        if symmetric and k + 2 < n:
            # steps k and k + 1 in one pass (module docstring)
            nxt, a10 = a[k + 1], a[k + 1][k]
            c0 = update(pivot, nxt[k + 1], a10, top[k + 1])
            if c0:
                yield False, c0, dens[k + 1]
                mirror(k + 1)
                a01, a11, s = top[k + 1], nxt[k + 1], k + 2
                x = [update(pivot, nxt[j], a10, top[j]) for j in range(s, n)]
                y = [update(a01, nxt[j], top[j], a11) for j in range(s, n)]
                for i in range(s, n):
                    row, ai0, ai1 = a[i], a[i][k], a[i][k + 1]
                    for j in range(i, n):
                        terms = (1, c0, row[j]), (-1, ai1, x[j - s]), (1, ai0, y[j - s])
                        row[j] = _try_div_exact(_sum_of_products(terms, packed, row[j]), prev)
                prev, k = c0, s
                continue
            # a zero minor: step k alone, then step k + 1 swaps
        for i in range(k + 1, n):
            row, aik = a[i], a[i][k]
            for j in range(i if symmetric else k + 1, n):
                row[j] = update(pivot, row[j], aik, top[j], row[j])
        prev, k = pivot, k + 1


def det_bareiss(M: SquareMatrix) -> FieldElem:
    """Determinant by fraction-free (Bareiss) elimination: the signed last
    pivot of ``_bareiss`` over L_0 ... L_(n-1)."""
    sign, pivot, den = 1, (1,), (1,)
    for swapped, pivot, den in _bareiss(M):
        if not pivot:
            return F_ZERO
        if swapped:
            sign = -sign
    return FieldElem._ratio(pivot, den) * sign


_ENGINES = {"bareiss": det_bareiss, "division": det_division}
ENGINES = tuple(_ENGINES)
# the faster engine on the benchmark (README, ``det``)
DEFAULT_ENGINE = "division"


def _engine(name: str):
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown determinant engine {name!r}") from None


def det_exact(M: SquareMatrix, engine: str = DEFAULT_ENGINE) -> FieldElem:
    """Exact determinant; ``engine`` is one of ``ENGINES``."""
    return _engine(engine)(M)


def leading_minors(M: SquareMatrix, engine: str = DEFAULT_ENGINE):
    """Lazily d(1), ..., d(n), the determinants of the leading k x k blocks
    of M, each by one more step of one elimination (module docstring).  At
    the first zero pivot or row swap that order's minor is 0, and each
    larger order is ``det_exact`` of its own block with the same engine."""
    det = _engine(engine)
    order = 0
    if engine == "division":
        minor = F_ONE
        for swapped, pivot, _ in _eliminate(M):
            if swapped or pivot.is_zero:
                break
            minor = minor * pivot
            order += 1
            yield minor
    else:
        for swapped, pivot, den in _bareiss(M):
            if swapped or not pivot:
                break
            order += 1
            yield FieldElem._ratio(pivot, den)
    if order < M.n:
        yield F_ZERO
    for k in range(order + 2, M.n + 1):
        yield det(SquareMatrix([row[:k] for row in M.entries[:k]]))


def ldlt(H: SquareMatrix) -> LdltFactors:
    """Factor the symmetric H = A diag(D) A^t, A unit lower triangular.

    Raises ValueError if H is not symmetric, and SingularLeadingMinor(j + 1)
    at the first column j that would need a row swap or has no pivot, which
    is exactly when the leading principal minor of order j + 1 is zero.
    """
    if not _is_symmetric(H.entries):
        raise ValueError("matrix is not symmetric")
    n = H.n
    A = [[F_ONE if i == j else F_ZERO for j in range(n)] for i in range(n)]
    D = []
    for j, (swapped, pivot, multipliers) in enumerate(_eliminate(H)):
        if swapped or pivot.is_zero:
            raise SingularLeadingMinor(j + 1)
        D.append(pivot)
        for i, ratio in enumerate(multipliers, j + 1):
            A[i][j] = ratio
    return LdltFactors(SquareMatrix(A), D)


def jacobi_from_moments(seq: MomentSeq, depth: int) -> JacobiParams:
    """Recover (s, t) from the first 2*depth - 1 moments.

    Runs LDL^t on the depth x depth moment matrix, reads t(k) = D[k+1]/D[k]
    and s(k) = A[k+1][k] - A[k][k-1]; both come back as tables of length
    depth - 1.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if seq.term(0) != F_ONE:
        raise NotNormalized(f"moment c(0) = {seq.term(0)} is not 1")
    H = hankel_matrix(seq, depth, 0)
    factors = ldlt(H)
    A, D = factors.A, factors.D
    t = [D[k + 1] / D[k] for k in range(depth - 1)]
    s = []
    for k in range(depth - 1):
        v = A[k + 1, k]
        if k > 0:
            v = v - A[k, k - 1]
        s.append(v)
    return JacobiParams(s, t)


def det_from_jacobi(jp: JacobiParams, n: int) -> FieldElem:
    """The n x n moment determinant as the t-product
    prod_{i=1}^{n-1} prod_{k=0}^{i-1} t(k)."""
    if n < 1:
        raise ValueError("n must be positive")
    det = F_ONE
    partial = F_ONE
    for i in range(1, n):
        partial = partial * jp.t(i - 1)
        det = det * partial
    return det
