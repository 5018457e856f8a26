"""Suite runner: determinism, isolation, sampling, report formats."""

import csv
import hashlib
import io
import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from hankelkit.cli import SIZE_LIMITS
from hankelkit.closed_forms import QParams, qmoment_det
from hankelkit.errors import InsufficientSamples, PoleInFormula
from hankelkit import closed_forms, verify
from hankelkit.field import F_ONE, q
from hankelkit.hankel import ENGINES, det_exact, hankel_matrix, leading_minors
from hankelkit.sequences import ExplicitSeq
from hankelkit.verify import (
    SUITES,
    Case,
    SuiteSpec,
    _const,
    _equality_case,
    _grid,
    _hankel_det,
    _run_case,
    _RunTable,
    build_cases,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_suite,
    sample_parameters,
    thm1_sample_set,
    thm2_sample_set,
)


class TestSampleParameters:
    def test_screening_rejects_unit_a(self):
        # a = 1 zeroes (a; base)_1 and is never a candidate
        for p in sample_parameters(1122, seed=0):
            assert not (p.a - 1).is_zero

    def test_rational_samples_distinct_and_deterministic(self):
        first = sample_parameters(3, seed=1)
        second = sample_parameters(3, seed=1)
        assert [(str(p)) for p in first] == [(str(p)) for p in second]
        assert len({(p.a, p.b) for p in first}) == 3

    def test_seed_rotates(self):
        base = sample_parameters(2, seed=0)
        shifted = sample_parameters(1, seed=1)
        assert shifted[0] == base[1]

    @pytest.mark.parametrize("seed, expected", [
        (0, [("1/2", "2"), ("2", "1/2"), ("1/2", "1/3")]),
        (7, [("3", "1/2"), ("1/2", "1/4"), ("2", "3")]),
        (123, [("2/5", "1/4"), ("3/4", "3"), ("4/3", "1/3")]),
        (500, [("2/7", "2/5"), ("4/5", "1/6"), ("5/4", "5")]),
        (1121, [("7/6", "6/7"), ("1/2", "2"), ("2", "1/2")]),
    ])
    def test_rational_enumeration_pinned(self, seed, expected):
        # the rotation wraps at 1122 candidates
        got = sample_parameters(3, seed=seed)
        assert [(str(p.a), str(p.b)) for p in got] == expected
        assert all(p.base == q for p in got)
        with pytest.raises(InsufficientSamples, match="only 1122 "):
            sample_parameters(1123, seed=seed)

    @pytest.mark.parametrize("kind, total", [("q-power", 10), ("rational", 1122)])
    def test_every_candidate_is_pole_free(self, kind, total):
        # the q-moment weights and determinants have denominators 1 - base^e a;
        # check e up to 2 n_max + m_max + 2 at the CLI caps.  The q-power points
        # are the named ones of both sample sets.
        bound = 2 * SIZE_LIMITS["n_max"] + SIZE_LIMITS["m_max"] + 2
        if kind == "rational":
            points = sample_parameters(total)
        else:
            named = {str(p): p for p in thm2_sample_set() + thm1_sample_set()
                     if not p.a.is_constant}
            points = list(named.values())
        assert len(points) == total
        for p in points:
            power = F_ONE
            for e in range(bound + 1):
                assert not (F_ONE - power * p.a).is_zero, (str(p), e)
                power = power * p.base

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            sample_parameters(10 ** 6, seed=0)


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite(SuiteSpec("no-such-suite"))

    def test_spec_invariants_validated(self):
        with pytest.raises(ValueError):
            run_suite(SuiteSpec("tables", n_max=0))
        with pytest.raises(ValueError):
            run_suite(SuiteSpec("tables", m_max=-1))
        with pytest.raises(ValueError):
            run_suite(SuiteSpec("tables", engine="cofactor"))

    def test_all_known_suites_build(self):
        for name in SUITES:
            assert build_cases(SuiteSpec(name, n_max=2, m_max=1))

    def test_counts_sum(self):
        rep = run_suite(SuiteSpec("eq36-as-printed", n_max=2, m_max=2))
        c = rep.counts
        assert c["total"] == len(rep.records)
        assert c["passed"] + c["failed"] + c["expected_failures"] + c["anomalies"] == c["total"]

    def test_expected_failures_recorded_not_failed(self):
        rep = run_suite(SuiteSpec("eq36-as-printed", n_max=2, m_max=2))
        assert rep.ok
        assert rep.counts["expected_failures"] > 0
        xfail = [r for r in rep.records if r.expected_failure]
        assert all(not r.holds for r in xfail)

    def test_isolation_case_error_does_not_abort(self):
        def boom():
            raise RuntimeError("broken case")

        cases = [
            Case("bad", "", 1, 0, boom),
            Case("good", "", 1, 0, lambda: ("1", "1", True)),
        ]
        records = [_run_case(c) for c in cases]
        assert not records[0].holds
        assert "broken case" in records[0].error
        assert records[1].holds

    def test_anomaly_flag(self):
        holds = Case("surprising", "", 1, 0, lambda: ("1", "1", True), expected_failure=True)
        rec = _run_case(holds)
        assert rec.anomaly and rec.holds

    def test_determinism_modulo_wall_time(self):
        spec = SuiteSpec("tables", seed=3)
        first = report_to_json(untimed(run_suite(spec)))
        second = report_to_json(untimed(run_suite(spec)))
        assert first == second
        first_csv = report_to_csv(untimed(run_suite(spec)))
        second_csv = report_to_csv(untimed(run_suite(spec)))
        assert first_csv == second_csv

    def test_thm1_grid_does_not_depend_on_call_order(self):
        # the cases of one parameter point share tables that fill as they are read
        spec = SuiteSpec("thm1-grid", n_max=3)
        forward = timing_free(run_suite(spec).records)
        assert timing_free(run_suite(spec).records) == forward
        cases = build_cases(spec)
        assert timing_free([_run_case(c) for c in reversed(cases)][::-1]) == forward
        # the same cases again, now on filled tables
        assert timing_free([_run_case(c) for c in cases]) == forward


    @pytest.mark.parametrize("suite", ["thm2-grid", "registry-grid", "all"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_shared_minors_do_not_depend_on_call_order(self, suite, engine):
        # the oracle cases of one matrix source share one elimination per m, and
        # the suites of one run share eliminations, closed forms and q-moment
        # products through its table
        spec = SuiteSpec(suite, n_max=3, m_max=2, engine=engine)
        forward = timing_free(run_suite(spec).records)
        cases = build_cases(spec)
        order = list(range(len(cases)))
        random.Random(15).shuffle(order)
        shuffled = {i: _run_case(cases[i]) for i in order}
        assert timing_free([shuffled[i] for i in range(len(cases))]) == forward
        alone = [_run_case(build_cases(spec)[i]) for i in range(len(cases))]
        assert timing_free(alone) == forward

    def test_one_matrix_per_source_and_shift(self, monkeypatch):
        built = []

        def counted(seq, n, m):
            built.append((n, m))
            return hankel_matrix(seq, n, m)

        monkeypatch.setattr(verify, "hankel_matrix", counted)
        spec = SuiteSpec("thm2-grid", n_max=4, m_max=2)
        cases = build_cases(spec)
        assert built == []  # the case list builds nothing
        assert all(r.holds for r in map(_run_case, cases))
        assert sorted(built) == [(4, m) for m in range(3) for _ in range(7)]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pole_fails_only_the_orders_that_read_it(self, engine):
        """Seven terms: the order-4 matrix at m >= 1 reads term 7, so those
        shifts take one matrix per order, and only (4, 1) and (4, 2) fail,
        with the records of a fresh per-case matrix."""
        seq = partial(ExplicitSeq, [Fraction(1, k + 1) for k in range(7)])

        def records(oracle):
            other = next(e for e in ENGINES if e != engine)
            return timing_free(map(_run_case, _grid(range(1, 5), range(3), [
                (_equality_case, "pole", "", oracle,
                 lambda n, m: det_exact(hankel_matrix(seq(), n, m), other)),
            ])))

        shared = records(_hankel_det(engine, seq, 4, _RunTable()))
        assert shared == records(lambda n, m: det_exact(hankel_matrix(seq(), n, m), engine))
        assert [(r.n, r.m) for r in shared if not r.holds] == [(4, 1), (4, 2)]
        assert {r.error for r in shared if not r.holds} == {
            "PoleInSequence: explicit sequence has only 7 terms"}


class TestRunTable:
    """One table per run: each distinct elimination, closed form and
    q-moment product is computed once, and sharing changes no record."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_each_suite_alone_is_its_slice_of_all(self, engine):
        spec = SuiteSpec("all", n_max=3, m_max=2, engine=engine)
        whole = timing_free(run_suite(spec).records)
        start = 0
        for name in SUITES:
            alone = timing_free(run_suite(replace(spec, suite=name)).records)
            assert alone == whole[start:start + len(alone)], name
            start += len(alone)
        assert start == len(whole)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_computation_per_distinct_value(self, monkeypatch, engine, seed):
        eliminated, evaluated, factors = [], [], []
        monkeypatch.setattr(verify, "leading_minors", _logged(leading_minors, eliminated))
        monkeypatch.setattr(verify, "closed_form", _logged(closed_forms.closed_form, evaluated))
        factor = _logged(closed_forms.qmoment_det_factor, factors)
        monkeypatch.setattr(verify, "qmoment_det_factor", factor)
        monkeypatch.setattr(closed_forms, "qmoment_det_factor", factor)
        assert run_suite(SuiteSpec("all", engine=engine, seed=seed)).ok
        # 110, 456 and 287 with one computation per reader
        assert (len(eliminated), len(evaluated), len(factors)) == (90, 315, 28)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_one_weight_per_point_and_index(self, monkeypatch, seed):
        # thm1-grid and identity-sums both read qmoment_T at (q^4, q | q^2)
        # and (q^2, q | q^2)
        calls = []

        def logged(k, p):
            calls.append((k, p))
            return closed_forms.qmoment_T(k, p)

        monkeypatch.setattr(verify, "qmoment_T", logged)
        assert run_suite(SuiteSpec("all", seed=seed)).ok
        # 186 with one table per suite
        assert len(calls) == len(set(calls)) == 168
        assert len({p for _, p in calls}) == 14

    def test_a_closed_form_that_raises_is_not_stored(self, monkeypatch):
        evaluated = []
        monkeypatch.setattr(verify, "closed_form", _logged(closed_forms.closed_form, evaluated))
        run = _RunTable()
        records = [_run_case(c) for c in _grid((1, 2), (0,), [
            (_equality_case, f"reader {i}", "", _const(F_ONE),
             partial(run.closed_form, "RecipBracket"))
            for i in range(2)
        ])]
        assert [r.error for r in records] == [
            "PoleInFormula: matrix entry 1/[0] is undefined at m = 0"] * 4
        assert len(evaluated) == 4 and run.closed == {}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_grids_sharing_a_failing_build_each_fall_back(self, monkeypatch, engine):
        # the order-4 matrix at m >= 1 reads an eighth term of seven
        seq = partial(ExplicitSeq, [Fraction(1, k + 1) for k in range(7)])
        eliminated = []
        monkeypatch.setattr(verify, "leading_minors", _logged(leading_minors, eliminated))

        def records(*oracles):
            return timing_free(map(_run_case, _grid(range(1, 5), range(3), [
                (_equality_case, f"pole {i}", "", oracle,
                 lambda n, m: det_exact(hankel_matrix(seq(), n, m), engine))
                for i, oracle in enumerate(oracles)
            ])))

        run = _RunTable()
        shared = records(_hankel_det(engine, seq, 4, run), _hankel_det(engine, seq, 4, run))
        assert [M.n for M, _ in eliminated] == [4]  # m = 0, shared by both grids
        assert len(run.eliminations) == 1
        assert shared == records(_hankel_det(engine, seq, 4, _RunTable()),
                                 _hankel_det(engine, seq, 4, _RunTable()))
        assert [(r.check, r.n, r.m) for r in shared if not r.holds] == [
            ("pole 0", 4, 1), ("pole 1", 4, 1), ("pole 0", 4, 2), ("pole 1", 4, 2)]

    def test_q_moment_pole_raises_as_the_direct_call(self):
        # 1 - base^3 a vanishes: it divides the factors k >= 2 of d(n, 0), so
        # every d(n, m) with n >= 3, and the shift part of d(2, 2)
        p = QParams(q ** -3, q, q)
        points = [(n, m) for n in range(1, 6) for m in range(3)]
        random.Random(3).shuffle(points)
        run, poles = _RunTable(), []
        for n, m in points:
            try:
                expected = qmoment_det(n, m, p)
            except PoleInFormula as exc:
                poles.append((n, m))
                with pytest.raises(PoleInFormula, match=re.escape(str(exc))):
                    run.qmoment_det(n, m, p)
            else:
                assert run.qmoment_det(n, m, p) == expected
        assert sorted(poles) == [(2, 2)] + [(n, m) for n in range(3, 6) for m in range(3)]
        assert len(run.qmoment[p]) == 2  # d(1, 0) and d(2, 0): nothing past the pole


def _logged(fn, log):
    """fn, appending the arguments of each call to log."""
    def wrapper(*args):
        log.append(args)
        return fn(*args)
    return wrapper


def timing_free(records):
    return [replace(r, wall_ms=0.0) for r in records]


def untimed(report):
    """The report with every record's wall_ms zeroed, for byte comparisons."""
    return replace(report, records=timing_free(report.records))


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedSuites:
    """The spec order and every report byte, pinned by digest: a change to
    how the suites are built must not move a case or change a record."""

    def test_all_suite_case_keys(self):
        cases = build_cases(SuiteSpec("all"))
        keys = [(c.check, c.params, c.n, c.m, c.expected_failure) for c in cases]
        assert len(keys) == 1036
        assert sum(c.expected_failure for c in cases) == 15
        assert _sha256(repr(keys)) == (
            "3e8c13e609639592051d5ccda9b3a65985ffa8608dee3e8359828c67a4405475"
        )

    @pytest.mark.parametrize("engine, digest", [
        ("bareiss", "8cc352ddde82c6da7fb8b62f0fa558acad48f3f6e15e33394cd79b384cc823cf"),
        ("division", "34cdc81c560715c19ec3408b400cd83a4bf625160786e9a7b295632dcec13034"),
    ])
    def test_all_suite_report(self, engine, digest):
        report = run_suite(SuiteSpec("all", n_max=3, m_max=2, engine=engine))
        assert _sha256(report_to_json(untimed(report))) == digest


class TestReportFormats:
    def test_json_structure(self):
        rep = run_suite(SuiteSpec("tables"))
        payload = json.loads(report_to_json(rep))
        assert set(payload) == {"suite", "spec", "summary", "records"}
        record = payload["records"][0]
        assert set(record) == {
            "check", "params", "n", "m", "expected", "actual", "holds",
            "expected_failure", "anomaly", "wall_ms", "error",
        }

    def test_csv_row_count(self):
        rep = run_suite(SuiteSpec("tables"))
        lines = report_to_csv(rep).strip().splitlines()
        assert len(lines) == len(rep.records) + 1

    def test_csv_names_engine_and_seed(self):
        texts = {
            engine: report_to_csv(untimed(run_suite(SuiteSpec("tables", engine=engine, seed=5))))
            for engine in ("bareiss", "division")
        }
        assert texts["bareiss"] != texts["division"]
        rows = list(csv.reader(io.StringIO(texts["division"])))
        assert rows[0][:3] == ["engine", "seed", "check"]
        assert all(row[:2] == ["division", "5"] for row in rows[1:])

    def test_text_summary_line(self):
        rep = run_suite(SuiteSpec("tables"))
        text = report_to_text(rep)
        assert "3 cases: 3 passed" in text
        assert "[PASS " in text
