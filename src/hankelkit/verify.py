"""Suite runner for the closed-form-vs-oracle verification grids.

Every suite is a deterministic list of cases built purely from its SuiteSpec;
records come back in spec order, and a failing case never stops the rest of
the suite.  The reciprocal-bracket formula is carried as a set of
expected-failure cases: the report documents the mismatch instead of hiding
it, and an expected failure that unexpectedly holds is flagged as an anomaly.

One run computes each exact result its suites share once.  ``build_cases``
makes one table for the run (``_RunTable``) and hands it to every suite
builder; it holds the eliminations, keyed by (engine, matrix entries), the
closed forms, keyed by (tag, n, m, x), and per parameter point the weights
qmoment_T and the q-moment determinant's running product.  The first case
in the run to read a value pays for it in its ``wall_ms``; a read that
raises stores nothing.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from functools import cache, partial
from itertools import permutations
from math import comb, gcd

from .closed_forms import (
    FORMULAS,
    QParams,
    cbqm_expanded,
    classical_det,
    closed_form,
    oracle_matrix,
    qmoment_A,
    qmoment_det_factor,
    qmoment_det_shift,
    qmoment_T,
)
from .errors import HankelkitError, InsufficientSamples
from .field import F_ONE, FieldElem, as_field, q
from .hankel import (
    DEFAULT_ENGINE,
    ENGINES,
    SquareMatrix,
    det_bareiss,
    det_division,
    det_exact,
    hankel_matrix,
    jacobi_from_moments,
    leading_minors,
)
from .identities import (
    binomial_alt_sum_term,
    check_alt_sum,
    check_binomial_alt_sum,
    check_binomial_sum,
    check_row_sum,
    check_weighted_alt_sum,
    check_weighted_row_sum,
)
from .sequences import (
    CatalanSeq,
    CentralBinomialSeq,
    ExplicitSeq,
    PochRatioSeq,
    RisingRatioSeq,
)
from .triangle import JacobiParams, TSeq, build_triangle, build_zero_s_triangle


@dataclass(frozen=True)
class SuiteSpec:
    suite: str
    n_max: int = 5
    m_max: int = 3
    engine: str = DEFAULT_ENGINE
    seed: int = 0


@dataclass
class Case:
    check: str
    params: str
    n: int
    m: int
    run: object
    expected_failure: bool = False


@dataclass
class CaseRecord:
    check: str
    params: str
    n: int
    m: int
    expected: str
    actual: str
    holds: bool
    expected_failure: bool
    anomaly: bool
    wall_ms: float
    error: str = ""


# A record's (count key, text mark) by (holds, expected_failure); an
# expected failure that holds is an anomaly.
_OUTCOMES = {
    (True, False): ("passed", "PASS"),
    (False, False): ("failed", "FAIL"),
    (False, True): ("expected_failures", "XFAIL"),
    (True, True): ("anomalies", "ANOM"),
}


def _outcome(r: CaseRecord) -> tuple:
    return _OUTCOMES[r.holds, r.expected_failure]


@dataclass
class SuiteReport:
    suite: str
    spec: dict
    records: list
    counts: dict = field(default_factory=dict)

    def finalize(self):
        keys = [_outcome(r)[0] for r in self.records]
        self.counts = {"total": len(keys),
                       **{key: keys.count(key) for key, _ in _OUTCOMES.values()}}
        return self

    def summary(self) -> str:
        """The one-line count summary that closes the text report."""
        c = self.counts
        return (f"{c['total']} cases: {c['passed']} passed, {c['failed']} failed, "
                f"{c['expected_failures']} expected failures, {c['anomalies']} anomalies")

    @property
    def ok(self) -> bool:
        """True when every non-expected-failure case holds and nothing anomalous."""
        return self.counts["failed"] == 0 and self.counts["anomalies"] == 0


# ---------------------------------------------------------------------------
# deterministic parameter sampling
# ---------------------------------------------------------------------------


def _walk(pairs):
    """Pairs (i, j) ordered by (i + j, i)."""
    return sorted(pairs, key=lambda ij: (ij[0] + ij[1], ij[0]))


# the reduced fractions p/r != 1 with p, r <= 7
_RATIONALS = [Fraction(p, r) for p, r in _walk(permutations(range(1, 8), 2)) if gcd(p, r) == 1]


def sample_parameters(count: int, seed: int = 0):
    """Deterministic (a, b | q) samples away from the q-moment poles.

    Enumeration order is fixed: distinct a, b from the fractions p/r above,
    walking both (p, r) and the index pairs of (a, b) in _walk order.  The
    seed rotates the starting offset; only the returned samples are built.

    No candidate needs a pole screen.  The family's weights and determinants
    have denominators 1 - q^e a (e >= 0), and q^e a is a nonconstant
    monomial for e > 0, while 1 - a != 0 at e = 0 since a != 1.
    """
    if count < 1:
        raise ValueError("count must be positive")
    candidates = [(_RATIONALS[i], _RATIONALS[j], q)
                  for i, j in _walk(permutations(range(len(_RATIONALS)), 2))]
    if count > len(candidates):
        raise InsufficientSamples(
            f"only {len(candidates)} pole-free rational samples available, wanted {count}"
        )
    return [QParams(*candidates[(seed + k) % len(candidates)]) for k in range(count)]


def thm2_sample_set(seed: int = 0):
    """The documented determinant-grid samples: the flagship parameter points
    plus two rational pairs."""
    named = [
        QParams(q ** 4, q, q ** 2),
        QParams(q ** 2, q, q ** 2),
        QParams(q, q ** 2, q),
        QParams(q, q ** 3, q),
        QParams(q, q ** 4, q),
    ]
    return named + sample_parameters(2, seed=seed)


def thm1_sample_set(seed: int = 0):
    """Residual-grid samples: the named (a, b) pairs and two rational
    pairs, each under both bases q and q^2."""
    pairs = [(q ** 4, q), (q ** 2, q), (q, q ** 2), (q, q ** 3), (q, q ** 4)]
    pairs.extend((p.a, p.b) for p in sample_parameters(2, seed=seed))
    return [QParams(a, b, base) for base in (q, q * q) for a, b in pairs]


# ---------------------------------------------------------------------------
# case helpers
# ---------------------------------------------------------------------------


def _equality_case(check, params, n, m, expect_fn, actual_fn, xfail=False):
    def run():
        expected = expect_fn()
        actual = actual_fn()
        return str(expected), str(actual), expected == actual

    return Case(check, params, n, m, run, expected_failure=xfail)


def _report_case(check, params, n, m, report_fn):
    def run():
        rep = report_fn()
        return str(rep.rhs), str(rep.lhs), rep.holds

    return Case(check, params, n, m, run)


def _bool_case(check, params, n, m, fn):
    def run():
        ok = fn()
        return "holds", "holds" if ok else "fails", ok

    return Case(check, params, n, m, run)


def _grid(ns, ms, rows):
    """One case per row at each (n, m), n outermost.

    A row is (case helper, check, params, *fns); each fn takes (n, m) and is
    bound to the point with functools.partial, so no case sees a later loop
    value.  Rows of one grid interleave at every point.
    """
    return [
        helper(check, params, n, m, *(partial(fn, n, m) for fn in fns))
        for n in ns
        for m in ms
        for helper, check, params, *fns in rows
    ]


def _at_n(fn, *args):
    """fn(*args, n) as a function of the grid point (n, m)."""
    return lambda n, m: fn(*args, n)


def _const(value):
    return lambda n, m: value


class _RunTable:
    """The exact results that every suite of one ``verify`` run shares.

    ``build_cases`` makes one table and hands it to each suite builder; the
    cases' closures hold it, so it lives as long as the case list.  It
    shares four things, each under a key that fixes the value:

    - eliminations, under (engine, entries of the matrix eliminated), so two
      grids share one only when their matrices are equal entry for entry;
    - closed forms, under (tag, n, m, x);
    - the weights qmoment_T(k, p), as one TSeq per parameter point p;
    - the prefix products d(1, 0), d(2, 0), ... of the q-moment
      determinant, under the parameter point.

    Values are computed on first read, so the first case in the run to read
    one pays for it in its ``wall_ms``.  A read that raises stores nothing.
    """

    def __init__(self):
        self.eliminations = {}  # (engine, entries) -> (minors so far, the elimination)
        self.closed = {}        # (tag, n, m, x) -> closed_form(tag, n, m, x)
        self.weights_of = {}    # p -> TSeq of qmoment_T(k, p)
        self.qmoment = {}       # p -> [d(1, 0), d(2, 0), ...]

    def elimination(self, M, engine):
        """The shared ([d(1), ...] so far, ``leading_minors`` of M)."""
        key = engine, M.entries
        shared = self.eliminations.get(key)
        if shared is None:
            shared = self.eliminations[key] = ([], leading_minors(M, engine))
        return shared

    def closed_form(self, tag, n, m=0, x=None):
        """closed_form(tag, n, m, x), evaluated once per run."""
        key = tag, n, m, x
        value = self.closed.get(key)
        if value is None:
            value = self.closed[key] = closed_form(tag, n, m, x)
        return value

    def weights(self, p):
        """The TSeq k -> qmoment_T(k, p), one per point in the run."""
        T = self.weights_of.get(p)
        if T is None:
            T = self.weights_of[p] = TSeq(partial(qmoment_T, p=p))
        return T

    def qmoment_det(self, n, m, p):
        """qmoment_det(n, m, p): d(n, 0) from the point's prefix products,
        times the shift part.  The factors of d(n, 0) contain those of every
        smaller order, so a pole raises at the same factor as the direct
        call."""
        dets = self.qmoment.setdefault(p, [F_ONE])
        while len(dets) < n:
            dets.append(dets[-1] * qmoment_det_factor(len(dets), p))
        return dets[n - 1] * qmoment_det_shift(n, m, p)


class _Minors:
    """The oracle d(n, m) = det build(n, m) for n <= n_max, as a function of
    the grid point: one ``leading_minors`` elimination of build(n_max, m) per
    shift m, looked up in the run table under (engine, entries of that
    matrix).  So grids share an elimination only when their matrices are
    equal, and none reads one larger than its own.  The first read at m
    builds the matrix, and a read at order n advances the elimination only
    to its n-th pivot, so the first case in the run to read a minor pays
    for the steps up to it in its ``wall_ms``.  If the build raises (a term
    with a pole), each order builds its own matrix: only the orders that
    read the failing term fail, each with the error it raises alone."""

    def __init__(self, build, n_max, engine, run):
        self.build, self.n_max, self.engine, self.run = build, n_max, engine, run
        self.tables = {}  # m -> the shared (minors so far, the elimination), or () per order

    def __call__(self, n, m):
        table = self.tables.get(m)
        if table is None:
            try:
                M = self.build(self.n_max, m)
            except HankelkitError:  # a pole, which some lower orders may not read
                table = ()
            else:
                table = self.run.elimination(M, self.engine)
            self.tables[m] = table
        if not table:
            return det_exact(self.build(n, m), self.engine)
        values, minors = table
        while len(values) < n:
            values.append(next(minors))
        if n == self.n_max:
            minors.close()  # frees the eliminated matrix
        return values[n - 1]


def _hankel_det(engine, seq, n_max, run):
    """The oracle of hankel_matrix(seq(), n, m), one seq() for every m."""
    seq = cache(seq)
    return _Minors(lambda n, m: hankel_matrix(seq(), n, m), n_max, engine, run)


def _oracle_det(engine, tag, x, n_max, run):
    return _Minors(lambda n, m: oracle_matrix(tag, n, m, x), n_max, engine, run)


def _rows_of(tri):
    return [[v.as_rational() for v in row] for row in tri.rows]


# ---------------------------------------------------------------------------
# suite builders
# ---------------------------------------------------------------------------


def _suite_catalan_basics(spec: SuiteSpec, run: _RunTable):
    n_det = max(spec.n_max, 8)
    catalan_det = _hankel_det(spec.engine, CatalanSeq, 5, run)
    return (
        _grid(range(1, n_det + 1), (0,), [
            (_equality_case, f"catalan det ({engine})", "seq=catalan", _const(as_field(1)),
             _hankel_det(engine, CatalanSeq, n_det, run))
            for engine in ENGINES
        ])
        + _grid(range(1, 6), range(6), [
            (_equality_case, "catalan shifted det vs formula", "seq=catalan",
             catalan_det, partial(run.closed_form, "CatalanShift")),
        ])
        + _grid((2,), (2,), [
            (_equality_case, "spot det[[2,5],[5,14]]", "seq=catalan", _const(as_field(3)),
             catalan_det),
        ])
        + _grid((1,), (3,), [
            (_equality_case, "spot value C_3", "seq=catalan", _const(as_field(5)),
             partial(run.closed_form, "CatalanShift")),
        ])
    )


_A053121 = [
    [1],
    [0, 1],
    [1, 0, 1],
    [0, 2, 0, 1],
    [2, 0, 3, 0, 1],
    [0, 5, 0, 4, 0, 1],
    [5, 0, 9, 0, 5, 0, 1],
    [0, 14, 0, 14, 0, 6, 0, 1],
]
_A039599 = [[1], [1, 1], [2, 3, 1], [5, 9, 5, 1], [14, 28, 20, 7, 1]]
_A094527 = [[1], [2, 1], [6, 4, 1], [20, 15, 6, 1], [70, 56, 28, 8, 1]]


def _catalan_triangle(rows: int):
    return build_triangle(
        JacobiParams(lambda k: as_field(1 if k == 0 else 2), lambda k: as_field(1)), rows
    )


def _central_binomial_triangle(rows: int):
    return build_triangle(
        JacobiParams(lambda k: as_field(2), lambda k: as_field(2 if k == 0 else 1)), rows
    )


def _suite_tables(spec: SuiteSpec, run: _RunTable):
    return _grid((7,), (0,), [
        (_bool_case, "ballot table (8 rows)", "T=1, zero-s",
         lambda n, m: _rows_of(build_zero_s_triangle(TSeq.constant(1), n)) == _A053121),
    ]) + _grid((4,), (0,), [
        (_bool_case, "catalan triangle (5 rows)", "s=1,2,2,...; t=1",
         lambda n, m: _rows_of(_catalan_triangle(n)) == _A039599),
        (_bool_case, "central binomial triangle (5 rows)", "s=2; t=2,1,1,...",
         lambda n, m: _rows_of(_central_binomial_triangle(n)) == _A094527),
    ])


def _zero_s_residual(T: TSeq, A, row: int, col: int) -> FieldElem:
    """A(row + 1, col) - A(row, col - 1) - T(col) A(row, col + 1) for the
    closed-form weights T and triangle A of one parameter point: zero when
    the zero-s recurrence holds."""
    return A(row + 1, col) - A(row, col - 1) - T(col) * A(row, col + 1)


def _recurrence_holds(T: TSeq, A, odd: int, bound: int, n: int, m: int) -> bool:
    """The recurrence into row 2n + 2 - odd holds at every column of its
    parity up to 2 bound + odd."""
    return all(
        _zero_s_residual(T, A, 2 * n + 1 - odd, 2 * k + odd).is_zero for k in range(bound + 1)
    )


def _closed_A_matches_triangle(T: TSeq, A, n: int) -> bool:
    tri = build_zero_s_triangle(T, 2 * n)
    for row in range(2 * n + 1):
        for col in range(row + 1):
            if tri.a(row, col) != A(row, col):
                return False
    return True


def _suite_thm1_grid(spec: SuiteSpec, run: _RunTable):
    """Each parameter point shares one table of qmoment_T, the run's, and
    one of qmoment_A among its cases.  The tables fill as the cases read
    them, so a value's cost lands in the first case that needs it, and they
    are dropped with the case list."""
    bound = spec.n_max
    cases = []
    for p in thm1_sample_set(spec.seed):
        T, A = run.weights(p), cache(partial(qmoment_A, p=p))
        cases += _grid(range(bound + 1), (0,), [
            (_bool_case, "even-row recurrence residual", str(p),
             partial(_recurrence_holds, T, A, 0, bound)),
            (_bool_case, "odd-row recurrence residual", str(p),
             partial(_recurrence_holds, T, A, 1, bound)),
        ]) + _grid((bound,), (0,), [
            (_bool_case, "closed A equals recurrence triangle", str(p),
             _at_n(_closed_A_matches_triangle, T, A)),
        ])
    return cases


def _symbolic_det2(p: QParams, n: int, m: int) -> FieldElem:
    """The q-moment determinant at n = 2, m = 0, written out by hand."""
    return (F_ONE - p.b) * (F_ONE - p.base) * (p.b - p.a) / (
        (F_ONE - p.a) ** 2 * (F_ONE - p.base * p.a)
    )


def _suite_thm2_grid(spec: SuiteSpec, run: _RunTable):
    cases = []
    for p in thm2_sample_set(spec.seed):
        cases += _grid((2,), (0,), [
            (_equality_case, "symbolic 2x2 determinant", str(p),
             partial(_symbolic_det2, p), partial(run.qmoment_det, p=p)),
        ]) + _grid(range(1, spec.n_max + 1), range(spec.m_max + 1), [
            (_equality_case, "determinant formula vs oracle", str(p),
             _hankel_det(spec.engine, partial(PochRatioSeq, p.a, p.b, p.base), spec.n_max, run),
             partial(run.qmoment_det, p=p)),
        ])
    return cases


def _as_rational(det, n, m):
    return det(n, m).as_rational()


def _suite_classical_grid(spec: SuiteSpec, run: _RunTable):
    cases = []
    for a, b, c in [(4, 1, 2), (3, 1, 1), (5, 2, 3)]:
        cases += _grid(range(1, spec.n_max + 1), range(spec.m_max + 1), [
            (_equality_case, "classical determinant vs oracle", f"(a={a}, b={b}, c={c})",
             partial(_as_rational,
                     _hankel_det(spec.engine, partial(RisingRatioSeq, a, b, c), spec.n_max, run)),
             partial(classical_det, a=a, b=b, c=c)),
        ])
    return cases + _grid(range(1, 7), (0,), [
        (_equality_case, "catalan-scaled det is the t-product", "(a=4, b=1, c=2)",
         lambda n, m: Fraction(1, 16) ** comb(n, 2), partial(classical_det, a=4, b=1, c=2)),
    ])


_X_SAMPLES = (Fraction(2), Fraction(3), Fraction(5, 2))


def _odd_even_relation(odd, central, n, m):
    return odd(n, m) == as_field(Fraction(1, 2 ** n)) * central(n, m + 1)


def _suite_registry_grid(spec: SuiteSpec, run: _RunTable):
    ns, ms = range(1, spec.n_max + 1), range(spec.m_max + 1)
    cases, oracles = [], {}
    for tag in sorted(FORMULAS):
        formula = FORMULAS[tag]
        if formula.as_printed_mismatch:
            continue
        for x in _X_SAMPLES if formula.needs_x else (None,):
            oracles[tag, x] = oracle = _oracle_det(spec.engine, tag, x, spec.n_max, run)
            cases += _grid(ns, (0,) if formula.shift_domain == "zero" else ms, [
                (_equality_case, f"{tag} vs oracle", f"x={x}" if x is not None else "",
                 oracle, partial(run.closed_form, tag, x=x)),
            ])
    return cases + _grid(ns, ms, [
        (_bool_case, "odd/even binomial determinant relation", "",
         partial(_odd_even_relation, oracles["OddBinomialRel", None],
                 oracles["CentralBinomial", None])),
        (_equality_case, "CBqm final form equals expanded form", "",
         cbqm_expanded, partial(run.closed_form, "CBqm")),
    ]) + _grid((0,), (0,), [
        (_equality_case, "QFactorial spot", "",
         _const(q), lambda n, m: run.closed_form("QFactorial", 2, 0)),
        (_equality_case, "BracketFalling spot", "",
         _const(as_field(-2)), lambda n, m: run.closed_form("BracketFalling", 2, 0, 2)),
        (_equality_case, "Carlitz spot", "",
         _const(-q), lambda n, m: run.closed_form("Carlitz", 2, 1)),
        (_equality_case, "CentralBinomial spot", "",
         _const(as_field(4)), lambda n, m: run.closed_form("CentralBinomial", 3, 0)),
    ])


def _suite_eq36(spec: SuiteSpec, run: _RunTable):
    oracle = _oracle_det(spec.engine, "RecipBracket", None, spec.n_max, run)
    return _grid(range(1, spec.n_max + 1), range(1, spec.m_max + 1), [
        (partial(_equality_case, xfail=True), "reciprocal-bracket formula as printed", "",
         oracle, partial(run.closed_form, "RecipBracket")),
        (_equality_case, "oracle matches the q-Hilbert formula at (n, m-1)", "",
         oracle, lambda n, m: run.closed_form("QHilbert", n, m - 1)),
    ]) + _grid((1,), (1,), [
        (_bool_case, "spot (1,1): printed formula 0, oracle 1", "",
         lambda n, m: run.closed_form("RecipBracket", n, m).is_zero
         and oracle(n, m) == as_field(1)),
    ])


def _suite_identity_sums(spec: SuiteSpec, run: _RunTable):
    tri = _catalan_triangle(8)
    cases = _grid(range(9), (0,), [
        (_report_case, "alternating row sum", "catalan triangle", _at_n(check_alt_sum, tri)),
        (_report_case, "row sum = C(2n, n)", "catalan triangle", _at_n(check_row_sum, tri)),
        (_report_case, "weighted alternating sum", "T=1",
         _at_n(check_weighted_alt_sum, TSeq.constant(1))),
    ])
    ns = range(spec.n_max + 1)
    named = (QParams(q ** 4, q, q ** 2), QParams(q ** 2, q, q ** 2))
    for p in named:
        cases += _grid(ns, (0,), [
            (_report_case, "weighted alternating sum", str(p),
             _at_n(check_weighted_alt_sum, run.weights(p))),
        ])
    for a in (q ** 3, as_field(Fraction(2, 3)), as_field(Fraction(1, 2)), as_field(3)):
        cases += _grid(ns, (0,), [
            (_report_case, "signed q-binomial sum", f"a={a}", _at_n(check_binomial_alt_sum, a)),
            (_report_case, "q-binomial sum", f"a={a}", _at_n(check_binomial_sum, a)),
        ])
    for p in named + (QParams(q ** 2, q ** 3, q), QParams(q, q ** 4, q)):
        cases += _grid(ns, (0,), [
            (_report_case, "weighted row sum", str(p), _at_n(check_weighted_row_sum, p)),
        ])
    # the symbolic n = 1 term shapes of the two binomial sums
    a = q ** 3
    return cases + _grid((1,), (0,), [
        (_bool_case, "signed sum n=1 reduces to 1/(1-qa) - 1/(1-qa)", "a=q^3",
         lambda n, m: binomial_alt_sum_term(a, 1, 0) == 1 / (F_ONE - q * a)
         and binomial_alt_sum_term(a, 1, 1) == -(1 / (F_ONE - q * a))),
        (_bool_case, "companion sum n=1 gives 2/(1-qa)", "a=q^3",
         lambda n, m: check_binomial_sum(a, 1).rhs == 2 / (F_ONE - q * a)),
    ])


def _at_q_1(run, tag, n, m):
    """The tag's determinant at q = 1, rescaled by 4^(n(n-1) + nm)."""
    return Fraction(4) ** (n * (n - 1) + n * m) * run.closed_form(tag, n, m).specialize(1)


def _suite_q_to_1(spec: SuiteSpec, run: _RunTable):
    return _grid(range(1, spec.n_max + 1), range(spec.m_max + 1), [
        (_equality_case, "q-Catalan determinant at q=1 rescales to the Catalan formula",
         "(a=q^4, b=q, base=q^2)",
         lambda n, m: run.closed_form("CatalanShift", n, m).as_rational(),
         partial(_at_q_1, run, "Andrewsm")),
        (_equality_case,
         "q-central-binomial determinant at q=1 rescales to the classical formula",
         "(a=q^2, b=q, base=q^2)",
         lambda n, m: run.closed_form("CentralBinomial", n, m).as_rational(),
         partial(_at_q_1, run, "CBqm")),
    ])


def _random_rational(rng):
    den = rng.randint(1, 3)
    num = rng.randint(-3 * den, 3 * den)
    return Fraction(num, den)


def _round_trip(s_vals, t_vals, depth, m):
    """(s, t) -> moments -> (s, t) at the given depth."""
    jp = JacobiParams([as_field(v) for v in s_vals], [as_field(v) for v in t_vals])
    moments = build_triangle(jp, 2 * depth - 2).column0(2 * depth - 1)
    rec = jacobi_from_moments(ExplicitSeq(moments), depth)
    rebuilt = build_triangle(rec, depth - 1).column0(depth)
    ok = rebuilt == moments[:depth]
    ok = ok and rec.s_list(depth - 1) == [as_field(v) for v in s_vals[: depth - 1]]
    ok = ok and rec.t_list(depth - 1) == [as_field(v) for v in t_vals[: depth - 1]]
    return "round trip", "round trip" if ok else "mismatch", ok


def _recovered(seq, s, t, n, m):
    """jacobi_from_moments(seq(), n) gives the first n - 1 of s and t."""
    rec = jacobi_from_moments(seq(), n)
    return ([v.as_rational() for v in rec.s_list(n - 1)] == s
            and [v.as_rational() for v in rec.t_list(n - 1)] == t)


def _suite_jacobi_roundtrip(spec: SuiteSpec, run: _RunTable):
    rng = random.Random(spec.seed)
    depth = 8
    rows = []
    for idx in range(20):
        s_vals = [_random_rational(rng) for _ in range(2 * depth)]
        t_vals = []
        while len(t_vals) < 2 * depth:
            v = _random_rational(rng)
            if v != 0:
                t_vals.append(v)
        rows.append((Case, "moment/parameter round trip", f"sample {idx}",
                     partial(_round_trip, s_vals, t_vals)))
    return _grid((depth,), (0,), rows) + _grid((5,), (0,), [
        (_bool_case, "catalan parameters recovered", "seq=catalan",
         partial(_recovered, CatalanSeq, [1, 2, 2, 2], [1, 1, 1, 1])),
        (_bool_case, "central binomial parameters recovered", "seq=central-binomial",
         partial(_recovered, CentralBinomialSeq, [2, 2, 2, 2], [2, 1, 1, 1])),
    ])


def _random_rational_matrix(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)]


def _random_q_matrix(rng, n):
    dens = [F_ONE, F_ONE + q, as_field(2) - q, F_ONE + q + q * q]
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            num = as_field(rng.randint(-3, 3)) + as_field(rng.randint(-3, 3)) * q
            row.append(num / rng.choice(dens))
        rows.append(row)
    return rows


def _engines_agree(entries):
    M = SquareMatrix(entries)
    lhs = det_division(M)
    rhs = det_bareiss(M)
    return str(lhs), str(rhs), lhs == rhs


def _suite_engine_agreement(spec: SuiteSpec, run: _RunTable):
    rng = random.Random(spec.seed)
    cases = []
    for field_name, sampler in (("Q", _random_rational_matrix), ("Q(q)", _random_q_matrix)):
        for idx in range(25):
            n = idx % 5 + 1
            cases.append(Case(f"engine agreement over {field_name}", f"sample {idx}", n, 0,
                              partial(_engines_agree, sampler(rng, n))))
    return cases


_SUITE_BUILDERS = {
    "catalan-basics": _suite_catalan_basics,
    "tables": _suite_tables,
    "thm1-grid": _suite_thm1_grid,
    "thm2-grid": _suite_thm2_grid,
    "classical-grid": _suite_classical_grid,
    "registry-grid": _suite_registry_grid,
    "eq36-as-printed": _suite_eq36,
    "identity-sums": _suite_identity_sums,
    "q-to-1-bridges": _suite_q_to_1,
    "jacobi-roundtrip": _suite_jacobi_roundtrip,
    "engine-agreement": _suite_engine_agreement,
}

SUITES = tuple(sorted(_SUITE_BUILDERS))


def _run_case(case: Case) -> CaseRecord:
    start = time.perf_counter()
    try:
        expected, actual, holds = case.run()
        error = ""
    except Exception as exc:  # isolation: never let one case kill the suite
        expected, actual, holds, error = "", "", False, f"{type(exc).__name__}: {exc}"
    wall_ms = (time.perf_counter() - start) * 1000.0
    return CaseRecord(
        check=case.check,
        params=case.params,
        n=case.n,
        m=case.m,
        expected=expected,
        actual=actual,
        holds=holds,
        expected_failure=case.expected_failure,
        anomaly=case.expected_failure and holds,
        wall_ms=round(wall_ms, 3),
        error=error,
    )


def build_cases(spec: SuiteSpec):
    if spec.n_max < 1:
        raise ValueError("n_max must be at least 1")
    if spec.m_max < 0:
        raise ValueError("m_max must be nonnegative")
    if spec.engine not in ENGINES:
        raise ValueError(f"unknown determinant engine {spec.engine!r}")
    run = _RunTable()
    if spec.suite == "all":
        cases = []
        for name in SUITES:
            cases.extend(_SUITE_BUILDERS[name](spec, run))
        return cases
    try:
        builder = _SUITE_BUILDERS[spec.suite]
    except KeyError:
        raise KeyError(f"unknown suite {spec.suite!r}; known: {', '.join(SUITES)} or 'all'")
    return builder(spec, run)


def run_suite(spec: SuiteSpec) -> SuiteReport:
    """Execute a suite; records come back in deterministic spec order."""
    records = [_run_case(c) for c in build_cases(spec)]
    return SuiteReport(spec.suite, asdict(spec), records).finalize()


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _record_dicts(report: SuiteReport):
    names = [f.name for f in fields(CaseRecord)]
    for r in report.records:
        yield {name: getattr(r, name) for name in names}


def report_to_json(report: SuiteReport) -> str:
    payload = {
        "suite": report.suite,
        "spec": report.spec,
        "summary": report.counts,
        "records": list(_record_dicts(report)),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: SuiteReport) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["engine", "seed"] + [f.name for f in fields(CaseRecord)])
    run = [report.spec["engine"], report.spec["seed"]]
    writer.writerows(run + list(row.values()) for row in _record_dicts(report))
    return buf.getvalue()


def report_to_text(report: SuiteReport) -> str:
    lines = [f"suite {report.suite} (n<={report.spec['n_max']}, m<={report.spec['m_max']}, "
             f"engine={report.spec['engine']}, seed={report.spec['seed']})"]
    for r in report.records:
        mark = _outcome(r)[1]
        loc = f"n={r.n} m={r.m}"
        params = f" {r.params}" if r.params else ""
        extra = f"  [{r.error}]" if r.error else ""
        lines.append(f"[{mark:5s}] {r.check}{params} {loc} ({r.wall_ms:.1f} ms){extra}")
    lines.append(report.summary())
    return "\n".join(lines) + "\n"
