"""Determinant engines, LDL^t factorization and moment inversion."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankelkit import hankel
from hankelkit.closed_forms import oracle_matrix
from hankelkit.errors import NotNormalized, SingularLeadingMinor
from hankelkit.field import as_field, parse_field_expr, q
from hankelkit.hankel import (
    SquareMatrix,
    det_bareiss,
    det_division,
    det_exact,
    det_from_jacobi,
    hankel_matrix,
    jacobi_from_moments,
    ldlt,
    leading_minors,
)
from hankelkit.sequences import (
    CatalanSeq,
    CentralBinomialSeq,
    ExplicitSeq,
    PochRatioSeq,
    andrews_q_catalan,
    parse_sequence_spec,
)
from hankelkit.triangle import build_triangle


def rational_entries(M):
    return [[v.as_rational() for v in row] for row in M.entries]


def reconstruct(factors, n):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = as_field(0)
            for k in range(n):
                acc = acc + factors.A[i, k] * factors.A[j, k] * factors.D[k]
            row.append(acc)
        rows.append(row)
    return SquareMatrix(rows)


def test_hankel_matrix_values():
    assert rational_entries(hankel_matrix(CatalanSeq(), 2, 0)) == [[1, 1], [1, 2]]
    assert rational_entries(hankel_matrix(CatalanSeq(), 2, 2)) == [[2, 5], [5, 14]]
    assert rational_entries(hankel_matrix(CentralBinomialSeq(), 3, 0)) == [
        [1, 2, 6],
        [2, 6, 20],
        [6, 20, 70],
    ]



def test_hankel_matrix_of_a_function():
    read = []

    def term(k):
        read.append(k)
        return k * k

    assert rational_entries(hankel_matrix(term, 2, 3)) == [[9, 16], [16, 25]]
    assert read == [3, 4, 5]
    assert hankel_matrix(CatalanSeq().term, 3, 1) == hankel_matrix(CatalanSeq(), 3, 1)


def test_det_examples():
    assert det_exact(hankel_matrix(CatalanSeq(), 2, 0)) == 1
    assert det_exact(hankel_matrix(CatalanSeq(), 2, 2)).as_rational() == 3
    eye = SquareMatrix([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert det_bareiss(eye) == 1 and det_division(eye) == 1


def test_catalan_dets_both_engines():
    for n in range(1, 11):
        H = hankel_matrix(CatalanSeq(), n, 0)
        assert det_division(H) == 1
        assert det_bareiss(H) == 1


def test_singular_matrix_returns_zero():
    S = SquareMatrix([[1, 1], [1, 1]])
    assert det_bareiss(S).is_zero
    assert det_division(S).is_zero


def test_det_engine_selection():
    H = hankel_matrix(CentralBinomialSeq(), 3, 0)
    assert det_exact(H, "division") == det_exact(H, "bareiss")
    with pytest.raises(ValueError):
        det_exact(H, "cofactor")


def test_zero_column_matrix():
    M = SquareMatrix([[0, 1], [0, 2]])
    assert det_bareiss(M).is_zero and det_division(M).is_zero


def test_row_swap_sign():
    M = SquareMatrix([[0, 1], [1, 0]])
    assert det_bareiss(M).as_rational() == -1
    assert det_division(M).as_rational() == -1


def test_ldlt_catalan():
    f = ldlt(hankel_matrix(CatalanSeq(), 3, 0))
    assert [d.as_rational() for d in f.D] == [1, 1, 1]
    assert [[f.A[i, j].as_rational() for j in range(i + 1)] for i in range(3)] == [
        [1],
        [1, 1],
        [2, 3, 1],
    ]


def test_ldlt_identity():
    eye = SquareMatrix([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    f = ldlt(eye)
    assert all(d == 1 for d in f.D)
    assert f.A == eye


def test_ldlt_central_binomial():
    f = ldlt(hankel_matrix(CentralBinomialSeq(), 3, 0))
    assert [d.as_rational() for d in f.D] == [1, 2, 2]


def random_ldlt_input(rng, n):
    """A symmetric L diag(D) L^t with L unit lower triangular and D nonzero,
    so every leading minor is nonzero; entries over Q(q)."""
    def entry():
        return (as_field(rng.randint(-3, 3)) + as_field(rng.randint(-3, 3)) * q) / (
            1 + rng.randint(0, 2) * q)

    L = [[as_field(1) if i == j else entry() if j < i else as_field(0) for j in range(n)]
         for i in range(n)]
    D = [rng.choice((1, -2, 1 + q, q / (2 - q))) for _ in range(n)]
    return SquareMatrix(
        [[sum((L[i][k] * L[j][k] * D[k] for k in range(n)), as_field(0)) for j in range(n)]
         for i in range(n)])


def test_ldlt_reconstructs():
    rng = random.Random(5)
    cases = [hankel_matrix(seq, n, 0) for seq in (
        CatalanSeq(),
        CentralBinomialSeq(),
        PochRatioSeq(q ** 4, q, q ** 2),
        PochRatioSeq(q ** 2, q, q ** 2),
    ) for n in (2, 4, 6)]
    cases += [random_ldlt_input(rng, n) for n in (1, 2, 3, 4, 5) for _ in range(2)]
    for H in cases:
        assert reconstruct(ldlt(H), H.n) == H


def test_ldlt_singular_minor():
    with pytest.raises(SingularLeadingMinor) as err:
        ldlt(SquareMatrix([[1, 1], [1, 1]]))
    assert err.value.order == 2


def test_ldlt_rejects_a_non_symmetric_matrix():
    with pytest.raises(ValueError, match="not symmetric"):
        ldlt(SquareMatrix([[1, 2], [3, 4]]))
    with pytest.raises(ValueError, match="not symmetric"):
        ldlt(SquareMatrix([[1, 0, 0], [0, 1, 0], [0, q, 1]]))


def test_zero_leading_minor_after_an_update():
    # [[1, 1, 1], [1, 1, 2], [1, 2, 5]]: the first column's symmetric update
    # leaves a zero pivot in the second column, so elimination swaps there
    H = hankel_matrix(parse_sequence_spec("explicit:1,1,1,2,5"), 3, 0)
    assert det_division(H) == -1 and det_bareiss(H) == -1
    with pytest.raises(SingularLeadingMinor) as err:
        ldlt(H)
    assert err.value.order == 2


def test_jacobi_from_moments_catalan():
    jp = jacobi_from_moments(CatalanSeq(), 5)
    assert [v.as_rational() for v in jp.s_list(4)] == [1, 2, 2, 2]
    assert [v.as_rational() for v in jp.t_list(4)] == [1, 1, 1, 1]


def test_jacobi_from_moments_central_binomial():
    jp = jacobi_from_moments(CentralBinomialSeq(), 5)
    assert [v.as_rational() for v in jp.s_list(4)] == [2, 2, 2, 2]
    assert [v.as_rational() for v in jp.t_list(4)] == [2, 1, 1, 1]


def test_jacobi_from_moments_round_trip():
    seq = andrews_q_catalan()
    jp = jacobi_from_moments(seq, 3)
    rebuilt = build_triangle(jp, 2).column0(3)
    assert rebuilt == seq.terms_upto(3)


def test_jacobi_requires_normalized():
    with pytest.raises(NotNormalized):
        jacobi_from_moments(ExplicitSeq([2, 1, 1]), 2)


def test_det_from_jacobi_values():
    jp = jacobi_from_moments(CatalanSeq(), 8)
    for n in range(1, 9):
        assert det_from_jacobi(jp, n) == 1
    assert det_from_jacobi(jacobi_from_moments(CatalanSeq(), 1), 1) == 1
    jp2 = jacobi_from_moments(CentralBinomialSeq(), 5)
    assert det_from_jacobi(jp2, 3).as_rational() == 4


def test_lemma_route_equals_elimination():
    # the ldlt route runs _eliminate, so it is checked against Bareiss
    for seq_fn in (
        CatalanSeq,
        CentralBinomialSeq,
        lambda: PochRatioSeq(q ** 4, q, q ** 2),
        lambda: PochRatioSeq(q ** 2, q, q ** 2),
    ):
        for n in range(1, 7):
            direct = det_bareiss(hankel_matrix(seq_fn(), n, 0))
            via_params = det_from_jacobi(jacobi_from_moments(seq_fn(), n), n)
            assert direct == via_params, n


def test_moment_round_trip_depth8():
    for seq_fn in (
        CatalanSeq,
        CentralBinomialSeq,
        lambda: PochRatioSeq(q ** 4, q, q ** 2),
        lambda: PochRatioSeq(q ** 2, q, q ** 2),
    ):
        seq = seq_fn()
        moments = seq.terms_upto(15)
        jp = jacobi_from_moments(ExplicitSeq(moments), 8)
        assert build_triangle(jp, 7).column0(8) == moments[:8]


def test_engines_agree_on_random_matrices():
    rng = random.Random(99)
    for trial in range(18):
        n = trial % 6 + 1
        M = SquareMatrix(
            [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        assert det_division(M) == det_bareiss(M)
    dens = [as_field(1), 1 + q, 2 - q]
    for trial in range(10):
        n = trial % 3 + 2
        M = SquareMatrix(
            [
                [
                    (as_field(rng.randint(-3, 3)) + as_field(rng.randint(-3, 3)) * q)
                    / rng.choice(dens)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
        assert det_division(M) == det_bareiss(M)


def test_symmetric_bareiss_updates_only_the_upper_triangle(monkeypatch):
    """A symmetric matrix with no swap and no zero minor takes two columns
    per pass over the upper triangle.  The pass over the r = n - k - 2 rows
    below rows k and k + 1 makes 1 + 2r + r(r + 1)/2 exact divisions, and an
    even n ends with one step of 1: 62 at n = 8 and 115 at n = 10, where
    one column per step takes 84 and 165 and the full square 140 and 285."""
    calls = []
    divide = hankel._try_div_exact

    def counted(f, g):
        calls.append(g)
        return divide(f, g)

    for n, m, divisions in ((8, 0, 62), (10, 1, 115)):
        H = hankel_matrix(parse_sequence_spec("c:q^2,q,q^2"), n, m)
        expected = det_division(H)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(hankel, "_try_div_exact", counted)
            assert det_bareiss(H) == expected
        assert len(calls) == sum(1 + 2 * r + r * (r + 1) // 2
                                 for r in range(n - 2, -1, -2)) == divisions


def test_symmetric_bareiss_swaps_out_of_symmetric_steps():
    """The step-1 pivot c0 of the first two-column pass vanishes, so step 0
    runs alone and step 1 swaps; the clearing lcms 1, 1 + q and
    (1 + q)(2 - q) differ, so the mirrored lower triangle is scaled."""
    H = hankel_matrix(parse_sequence_spec("explicit:1,q,q^2,1/(1+q),1/(2-q)"), 3, 0)
    expected = parse_field_expr("(-q^8 - 2*q^7 - q^6 + 2*q^4 + 2*q^3 - 1) / (q^2 + 2*q + 1)")
    assert det_bareiss(H) == det_division(H) == expected


@pytest.mark.parametrize("spec, n, minors", [
    ("explicit:1,1,2,5,14,42,131,q,1/(1+q),q^2,3", 6, "1, 1, 1, 0, -q^2 + 834*q - 173889"),
    ("explicit:1,1,2,5,14,42,132,429,1430,4862,16795,q,1/(1+q)", 7,
     "1, 1, 1, 1, 1, 0, -q^2 + 117532*q - 3453442756"),
], ids=("d4-zero", "d6-zero"))
def test_two_step_bareiss_falls_back_after_a_completed_pass(spec, n, minors):
    """Catalan numbers up to the corner c(2k + 2) of d(k + 2), lowered by 1,
    so d(k + 2) = 0 for k = 2 and 4: after the earlier passes complete, c0
    of the pass at k vanishes, so step k runs alone and step k + 1 swaps."""
    H = hankel_matrix(parse_sequence_spec(spec), n, 0)
    expected = [parse_field_expr(v) for v in minors.split(", ")]
    got = list(leading_minors(H, "bareiss"))
    assert got[:len(expected)] == expected
    assert got == list(leading_minors(H, "division"))
    assert got == [det_division(_leading_block(H, k)) for k in range(1, n + 1)]


_Q_DENS = (as_field(1), 1 + q, 2 - q, as_field(3), 2 + 2 * q)


@st.composite
def symmetric_unnested(draw):
    """Symmetric matrices of order 2-5 over Q(q), often with zero entries,
    whose diagonal entry k alone has the denominator 1 + q^2: every row
    below k has a running lcm larger than its own lcm."""
    n = draw(st.integers(2, 5))
    small = st.integers(-2, 2)
    entry = st.one_of(st.just(as_field(0)), st.builds(
        lambda a, b, d: (as_field(a) + as_field(b) * q) / d, small, small,
        st.sampled_from(_Q_DENS)))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    k = draw(st.integers(0, n - 2))
    rows[k][k] = draw(st.integers(1, 3)) * q / (1 + q * q)
    return SquareMatrix([[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


@settings(max_examples=60, deadline=None)
@given(symmetric_unnested())
def test_symmetric_bareiss_matches_division_on_unnested_denominators(M):
    assert det_bareiss(M) == det_division(M)


@st.composite
def small_matrices(draw):
    """Matrices of order 1-4 over Q or Q(q), symmetric or not; entries are
    often zero or repeated, so zero leading minors and singular matrices
    come up."""
    n = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    if draw(st.booleans()):
        entry = st.builds(Fraction, small, st.integers(1, 3))
    else:
        entry = st.builds(lambda a, b, d: (as_field(a) + as_field(b) * q) / d,
                          small, small, st.sampled_from(_Q_DENS))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return SquareMatrix(rows)


def _to_sympy(sympy, K, v):
    """v as an element of sympy's field K = QQ(q)."""
    x = K.gens[0]
    num, den = (sum((K(sympy.Rational(c.numerator, c.denominator)) * x ** k
                     for k, c in enumerate(p.coefficients)), K.zero)
                for p in (v.num, v.den))
    return num / den


@settings(max_examples=80, deadline=None)
@given(small_matrices())
def test_det_engines_match_sympy(M):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    K = sympy.QQ.frac_field(sympy.Symbol("q"))
    expected = DomainMatrix([[_to_sympy(sympy, K, v) for v in row] for row in M.entries],
                            (M.n, M.n), K).det()
    division = det_division(M)
    assert division == det_bareiss(M)
    assert _to_sympy(sympy, K, division) == expected


def _with_zero_minor(draw, n, k=None):
    """A symmetric matrix of order n over Q(q) whose row k agrees with c
    times row 0 up to column k, so the leading minor of order k + 1 is zero;
    k is drawn after the entries when not given."""
    small = st.integers(-2, 2)
    entry = st.builds(lambda a, b, d: (as_field(a) + as_field(b) * q) / d,
                      small, small, st.sampled_from(_Q_DENS))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if k is None:
        k = draw(st.integers(1, n - 1))
    c = draw(st.sampled_from((as_field(1), -q, as_field(2) / (1 + q))))
    rows[0][k] = c * rows[0][0]
    for j in range(1, k + 1):
        rows[j][k] = c * rows[0][j]
    return SquareMatrix([[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


@st.composite
def symmetric_singular_leading(draw):
    """Symmetric matrices of order 2-7 whose leading minor of a drawn order
    is zero while the larger ones usually are not."""
    return _with_zero_minor(draw, draw(st.integers(2, 7)))


def _leading_block(M, k):
    return SquareMatrix([row[:k] for row in M.entries[:k]])


@settings(max_examples=60, deadline=None)
@given(st.one_of(symmetric_singular_leading(), symmetric_unnested(), small_matrices()),
       st.sampled_from(("bareiss", "division")))
def test_leading_minors_are_the_leading_block_determinants(M, engine):
    expected = [det_exact(_leading_block(M, k), engine) for k in range(1, M.n + 1)]
    assert list(leading_minors(M, engine)) == expected


@st.composite
def symmetric_zero_pass_pivot(draw):
    """Symmetric matrices of order 5-7 whose first zero leading minor has
    order 4 or 6: the pivot of step 3 or 5, which is c0 of Bareiss's
    two-column pass at k = 2 or 4, after one or two completed passes."""
    n, k = draw(st.sampled_from(((5, 3), (6, 3), (7, 3), (7, 5))))
    M = _with_zero_minor(draw, n, k)
    assume(all(not det_division(_leading_block(M, j)).is_zero for j in range(1, k + 1)))
    return M, k


@settings(max_examples=30, deadline=None)
@given(symmetric_zero_pass_pivot())
def test_zero_minor_at_a_later_pass_pivot(drawn):
    M, k = drawn
    expected = [det_division(_leading_block(M, j)) for j in range(1, M.n + 1)]
    assert expected[k].is_zero
    for engine in ("bareiss", "division"):
        assert list(leading_minors(M, engine)) == expected
        assert det_exact(M, engine) == expected[-1]


def test_leading_minors_past_a_zero_minor():
    """Carlitz at m = 1 has d(2) = -q and d(3) = 0: the elimination stops
    there and the larger orders take their own blocks."""
    H = oracle_matrix("Carlitz", 5, 1)
    for engine in ("bareiss", "division"):
        minors = list(leading_minors(H, engine))
        assert minors[1] == -q and minors[2].is_zero
        assert minors == [det_exact(_leading_block(H, k), engine) for k in range(1, 6)]


def test_leading_minors_advance_lazily(monkeypatch):
    """Reading d(1) and d(2) of an order-6 matrix costs one exact division:
    d(2) is the pivot c0 of the first two-column pass, yielded before the
    rest of the pass."""
    H = hankel_matrix(parse_sequence_spec("c:q^2,q,q^2"), 6, 1)
    calls = []
    divide = hankel._try_div_exact

    def counted(f, g):
        calls.append(g)
        return divide(f, g)

    monkeypatch.setattr(hankel, "_try_div_exact", counted)
    minors = leading_minors(H, "bareiss")
    assert [next(minors), next(minors)] == [det_exact(_leading_block(H, k)) for k in (1, 2)]
    assert len(calls) == 1


def test_leading_minors_unknown_engine():
    with pytest.raises(ValueError, match="unknown determinant engine"):
        next(leading_minors(hankel_matrix(CatalanSeq(), 2, 0), "gauss"))
