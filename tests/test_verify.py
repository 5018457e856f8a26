"""Suite runner: determinism, isolation, sampling, report formats."""

import csv
import hashlib
import io
import json
from fractions import Fraction

import pytest

from hankelkit.closed_forms import QParams
from hankelkit.errors import InsufficientSamples
from hankelkit.field import q
from hankelkit.verify import (
    SUITES,
    Case,
    SuiteSpec,
    _pole_free,
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
        # a = 1 zeroes (a; base)_1 and never survives the screen
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
        # values recorded from the general FieldElem screen; the rotation wraps
        # at 1122 screened candidates
        for n_max in (5, 8):
            got = sample_parameters("rational", 3, seed=seed, n_max=n_max)
            assert [(str(p.a), str(p.b)) for p in got] == expected
            assert all(p.base == q for p in got)
        with pytest.raises(InsufficientSamples, match="only 1122 "):
            sample_parameters("rational", 1123, seed=seed)

    def test_pole_screen(self):
        # for a constant a and base q only e = 0 can vanish, when a = 1
        assert not _pole_free(QParams(1, Fraction(1, 2), q), 5)
        assert _pole_free(QParams(Fraction(1, 2), 1, q), 5)
        assert _pole_free(QParams(0, 1, q), 5)
        # anything else takes the general screen: 1 - q^2 * q^-2 = 0
        assert not _pole_free(QParams(q ** -2, 1, q), 5)
        assert _pole_free(QParams(q ** -2, 1, q ** 3), 5)

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

    def test_sample_set_override(self):
        from hankelkit.closed_forms import QParams

        spec = SuiteSpec("thm2-grid", n_max=3, m_max=1, params=(QParams(q ** 3, q, q),))
        rep = run_suite(spec)
        assert rep.ok
        # one symbolic spot case plus the 3 x 2 grid for the single sample
        assert rep.counts["total"] == 7

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
