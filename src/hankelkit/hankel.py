"""Hankel matrices over Q(q): exact determinants, LDL^t factorization and
the inversion from moments back to Jacobi parameters.

Two determinant engines are provided and must agree:

* ``division`` - Gaussian elimination over the field, with row pivoting and
  sign tracking;
* ``bareiss`` - fraction-free elimination on the polynomial matrix obtained
  by clearing each row to a common denominator, the cleared factors being
  divided back out at the end.
"""

from __future__ import annotations

from .errors import NotNormalized, SingularLeadingMinor
from .field import (F_ONE, F_ZERO, FieldElem, P_ONE, P_ZERO, Polynomial, _gcd_cofactors,
                    _mul_int, as_field)
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


def hankel_matrix(seq: MomentSeq, n: int, m: int = 0) -> SquareMatrix:
    """The n x n matrix with entries term(seq, i + j + m)."""
    if n < 1:
        raise ValueError("hankel_matrix wants n >= 1")
    if m < 0:
        raise ValueError("hankel_matrix wants m >= 0")
    terms = seq.terms_upto(2 * n - 1 + m)
    return SquareMatrix([[terms[i + j + m] for j in range(n)] for i in range(n)])


def det_division(M: SquareMatrix) -> FieldElem:
    """Determinant by field Gaussian elimination with row pivoting."""
    n = M.n
    a = [list(row) for row in M.entries]
    sign = 1
    det = F_ONE
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if not a[r][col].is_zero:
                pivot_row = r
                break
        if pivot_row is None:
            return F_ZERO
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            factor = a[r][col]
            if factor.is_zero:
                continue
            ratio = factor / pivot
            for c in range(col + 1, n):
                a[r][c] = a[r][c] - ratio * a[col][c]
            a[r][col] = F_ZERO
    return -det if sign < 0 else det


def _row_clearance(row):
    """Common-denominator clearance of one row.

    Returns (numerators, factor pieces): numerators are the entries times the
    row lcm, the pieces multiply to that lcm and are kept separate so the
    final reduction can divide them back out one by one.
    """
    lcm = (1,)
    pieces = []
    multipliers = []
    for v in row:
        # lcm / g extends to lcm / v.den once v.den / g joins the lcm; the
        # pieces found after v multiply it up to the row lcm over v.den
        _, lcm_cof, extra = _gcd_cofactors(lcm, v.den.coeffs)
        if len(extra) > 1:
            pieces.append(Polynomial._make(1, extra))
            lcm = _mul_int(lcm, extra)
        multipliers.append((lcm_cof, len(pieces)))
    tails = [P_ONE]
    for piece in reversed(pieces):
        tails.append(tails[-1] * piece)
    nums = []
    for v, (lcm_cof, seen) in zip(row, multipliers):
        nums.append(v.num * Polynomial._make(1, lcm_cof) * tails[len(pieces) - seen])
    return nums, pieces


def det_bareiss(M: SquareMatrix) -> FieldElem:
    """Determinant by fraction-free (Bareiss) elimination.

    Each row is first cleared to a common polynomial denominator; the cleared
    factors are divided back out of the fraction-free determinant.
    """
    n = M.n
    a = []
    pieces = []
    for row in M.entries:
        nums, row_pieces = _row_clearance(row)
        a.append(nums)
        pieces.extend(row_pieces)
    sign = 1
    prev = P_ONE
    for k in range(n - 1):
        if a[k][k].is_zero:
            swap = None
            for r in range(k + 1, n):
                if not a[r][k].is_zero:
                    swap = r
                    break
            if swap is None:
                return F_ZERO
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = P_ZERO
        prev = pivot
    det_poly = a[n - 1][n - 1]
    if sign < 0:
        det_poly = -det_poly
    if det_poly.is_zero:
        return F_ZERO
    # divide the clearance factors back out; whole pieces first, then one
    # exact reduction for whatever partial overlap remains
    leftover = P_ONE
    for piece in pieces:
        try:
            det_poly = det_poly // piece
        except ValueError:
            leftover = leftover * piece
    return FieldElem(det_poly, leftover)


_ENGINES = {"division": det_division, "bareiss": det_bareiss}


def det_exact(M: SquareMatrix, engine: str = "bareiss") -> FieldElem:
    """Exact determinant; ``engine`` selects 'bareiss' or 'division'."""
    try:
        fn = _ENGINES[engine]
    except KeyError:
        raise ValueError(f"unknown determinant engine {engine!r}") from None
    return fn(M)


def ldlt(H: SquareMatrix) -> LdltFactors:
    """Factor H = A diag(D) A^t with A unit lower triangular, no pivoting.

    Raises SingularLeadingMinor as soon as a pivot vanishes, which is exactly
    when some leading principal minor of H is zero.
    """
    n = H.n
    A = [[F_ZERO] * n for _ in range(n)]
    D = []
    for j in range(n):
        pivot = H[j, j]
        for k in range(j):
            pivot = pivot - A[j][k] * A[j][k] * D[k]
        if pivot.is_zero:
            raise SingularLeadingMinor(j + 1)
        A[j][j] = F_ONE
        D.append(pivot)
        for i in range(j + 1, n):
            v = H[i, j]
            for k in range(j):
                v = v - A[i][k] * A[j][k] * D[k]
            A[i][j] = v / pivot
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
