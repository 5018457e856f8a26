"""Suite runner: determinism, isolation, sampling, report formats."""

import csv
import hashlib
import io
import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from hankelkit.cli import SIZE_LIMITS
from hankelkit.errors import InsufficientSamples
from hankelkit import verify
from hankelkit.field import F_ONE, q
from hankelkit.hankel import ENGINES, det_exact, hankel_matrix
from hankelkit.sequences import ExplicitSeq
from hankelkit.verify import (
    SUITES,
    Case,
    SuiteSpec,
    _equality_case,
    _grid,
    _hankel_det,
    _run_case,
    build_cases,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_suite,
    sample_parameters,
)


class TestSampleParameters:
    def test_first_q_power_sample(self):
        samples = sample_parameters("q-power", 1, seed=0)
        assert samples[0].a == q ** 4
        assert samples[0].b == q
        assert samples[0].base == q * q

    def test_screening_rejects_unit_a(self):
        # a = 1 zeroes (a; base)_1 and is never a candidate
        for p in sample_parameters("q-power", 30, seed=0):
            assert not (p.a - 1).is_zero
        for p in sample_parameters("rational", 30, seed=0):
            assert not (p.a - 1).is_zero

    def test_rational_samples_distinct_and_deterministic(self):
        first = sample_parameters("rational", 3, seed=1)
        second = sample_parameters("rational", 3, seed=1)
        assert [(str(p)) for p in first] == [(str(p)) for p in second]
        assert len({(p.a, p.b) for p in first}) == 3

    def test_seed_rotates(self):
        base = sample_parameters("q-power", 2, seed=0)
        shifted = sample_parameters("q-power", 1, seed=1)
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
        got = sample_parameters("rational", 3, seed=seed)
        assert [(str(p.a), str(p.b)) for p in got] == expected
        assert all(p.base == q for p in got)
        with pytest.raises(InsufficientSamples, match="only 1122 "):
            sample_parameters("rational", 1123, seed=seed)

    @pytest.mark.parametrize("kind, total", [("q-power", 32), ("rational", 1122)])
    def test_every_candidate_is_pole_free(self, kind, total):
        # the q-moment weights and determinants have denominators 1 - base^e a;
        # check e up to 2 n_max + m_max + 2 at the CLI caps
        bound = 2 * SIZE_LIMITS["n_max"] + SIZE_LIMITS["m_max"] + 2
        for p in sample_parameters(kind, total):
            power = F_ONE
            for e in range(bound + 1):
                assert not (F_ONE - power * p.a).is_zero, (str(p), e)
                power = power * p.base

    def test_q_power_enumeration_pinned(self):
        got = sample_parameters("q-power", 32, seed=0)
        assert [(str(p.a), str(p.b), str(p.base)) for p in got[-3:]] == [
            ("q^6", "q^3", "q"), ("q^6", "q^4", "q"), ("q^6", "q^5", "q"),
        ]
        assert sample_parameters("q-power", 1, seed=32) == got[:1]

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            sample_parameters("q-power", 10 ** 6, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sample_parameters("complex", 1, seed=0)


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
        first = report_to_json(run_suite(spec), include_timings=False)
        second = report_to_json(run_suite(spec), include_timings=False)
        assert first == second
        first_csv = report_to_csv(run_suite(spec), include_timings=False)
        second_csv = report_to_csv(run_suite(spec), include_timings=False)
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


    @pytest.mark.parametrize("suite", ["thm2-grid", "registry-grid"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_shared_minors_do_not_depend_on_call_order(self, suite, engine):
        # the oracle cases of one matrix source share one elimination per m
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

        shared = records(_hankel_det(engine, seq, 4))
        assert shared == records(lambda n, m: det_exact(hankel_matrix(seq(), n, m), engine))
        assert [(r.n, r.m) for r in shared if not r.holds] == [(4, 1), (4, 2)]
        assert {r.error for r in shared if not r.holds} == {
            "PoleInSequence: explicit sequence has only 7 terms"}


def timing_free(records):
    return [replace(r, wall_ms=0.0) for r in records]


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
        assert _sha256(report_to_json(report, include_timings=False)) == digest


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
            engine: report_to_csv(run_suite(SuiteSpec("tables", engine=engine, seed=5)),
                                  include_timings=False)
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
