"""End-to-end CLI behavior: commands, formats, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelkit import cli
from hankelkit.cli import (BAREISS_SIZE_LIMIT, BIT_BUDGET, CLOSED_FORM_SIZE_LIMIT,
                           CROSS_CHECK_SIZE_LIMIT, DET_CROSS_CHECK_SIZE_LIMIT, DET_SIZE_LIMIT,
                           SIZE_LIMITS, VERIFY_BAREISS_SIZE_LIMIT, VERIFY_SIZE_LIMIT, _admit, main)
from hankelkit.field import FieldElem, coeff_strings, parse_field_expr, q
from hankelkit.sequences import parse_sequence_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangleCommand:
    def test_catalan_rows(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--seq", "catalan", "--rows", "5")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert rows == [
            ["1"],
            ["1", "1"],
            ["2", "3", "1"],
            ["5", "9", "5", "1"],
            ["14", "28", "20", "7", "1"],
        ]

    def test_central_binomial_rows(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--seq", "central-binomial", "--rows", "5")
        assert code == 0
        assert out.strip().splitlines()[-1].split() == ["70", "56", "28", "8", "1"]

    def test_ballot_rows(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--T", "1", "--rows", "8", "--zero-s")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert lines[7].split() == ["0", "14", "0", "14", "0", "6", "0", "1"]

    def test_st_tables(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--s", "1,2,2,2", "--t", "1,1,1", "--rows", "5"
        )
        assert code == 0
        assert out.strip().splitlines()[-1].split() == ["14", "28", "20", "7", "1"]

    def test_contracted_weights(self, capsys):
        # plain --T contracts to (s, t) before building
        code, out, _ = run_cli(capsys, "triangle", "--T", "1", "--rows", "5")
        assert code == 0
        assert out.strip().splitlines()[-1].split() == ["14", "28", "20", "7", "1"]

    def test_weight_table_contracts(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--T", "1,2,1,2,1,2,1", "--rows", "4")
        assert code == 0
        # s = (1, 3, 3), t = (2, 2) under the contraction
        assert out.strip().splitlines()[-1].split() == ["11", "17", "7", "1"]

    def test_weight_table_too_short(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--T", "1,2", "--rows", "5")
        assert code == 2 and "needs at least 7" in err
        code, _, err = run_cli(capsys, "triangle", "--T", "1,2", "--rows", "5", "--zero-s")
        assert code == 2 and "needs at least 3" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--seq", "catalan", "--rows", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["command"] == "triangle"
        assert payload["rows"][2][1] == {"num_coeffs": ["3"], "den_coeffs": ["1"]}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--T", "q", "--zero-s", "--rows", "4", "--format", "csv"
        )
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["1"], ["0", "1"], ["q", "0", "1"], ["0", "2*q", "0", "1"],
        ]

    def test_missing_source(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--rows", "4")
        assert code == 2 and "triangle needs" in err


class TestDetCommand:
    def test_catalan_det(self, capsys):
        code, out, _ = run_cli(capsys, "det", "--seq", "catalan", "--n", "6")
        assert code == 0 and out.strip() == "1"

    def test_shifted_det(self, capsys):
        code, out, _ = run_cli(capsys, "det", "--seq", "catalan", "--n", "2", "--m", "2")
        assert code == 0 and out.strip() == "3"

    def test_q_sequence_det(self, capsys):
        code, out, _ = run_cli(capsys, "det", "--seq", "c:q^2,q,q^2", "--n", "2")
        assert code == 0
        assert parse_field_expr(out.strip()) == q / ((1 + q) ** 2 * (1 + q ** 2))

    def test_lemma_route(self, capsys):
        code, out, _ = run_cli(capsys, "det", "--seq", "catalan", "--n", "5", "--via", "lemma")
        assert code == 0 and out.strip() == "1"

    def test_lemma_route_shifted(self, capsys):
        code, out, _ = run_cli(
            capsys, "det", "--seq", "catalan", "--n", "3", "--m", "2", "--via", "lemma"
        )
        assert code == 0 and out.strip() == "4"

    def test_lemma_route_normalizes_at_m_0(self, capsys):
        # c(0) = 2: the route divides by c(0) as by any c(m), det [[2, 3], [3, 5]] = 1
        for via in ("lemma", "oracle"):
            code, out, _ = run_cli(capsys, "det", "--seq", "explicit:2,3,5", "--n", "2",
                                   "--via", via)
            assert code == 0 and out.strip() == "1"

    def test_lemma_route_of_a_shift_spec(self, capsys):
        # the same matrix as a shift: spec at m = 0 and as the plain spec at m = 1
        for argv in (["--seq", "shift:1:explicit:7,2,3,5"],
                     ["--seq", "explicit:7,2,3,5", "--m", "1"]):
            code, out, _ = run_cli(capsys, "det", *argv, "--n", "2", "--via", "lemma",
                                   "--cross-check")
            assert code == 0 and out.splitlines() == ["1", "cross-check: 1", "matches: yes"]

    def test_cross_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "det", "--seq", "central-binomial", "--n", "3", "--cross-check"
        )
        assert code == 0
        assert "matches: yes" in out

    def test_csv_cross_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "det", "--seq", "catalan", "--n", "2", "--m", "2", "--via", "lemma",
            "--cross-check", "--format", "csv",
        )
        assert code == 0
        assert list(csv.reader(io.StringIO(out)))[:2] == [
            ["command", "seq", "n", "m", "via", "engine", "result", "oracle", "matches"],
            ["det", "catalan", "2", "2", "lemma", "division", "3", "3", "True"],
        ]

    @pytest.mark.parametrize("engine, digest", [
        ("bareiss", "f9f1c7948b7f56859ed9ea9f7608f7dc98d3aca11336174ba970a27c3bab16d6"),
        ("division", "46496392505aa85b81669d180756879f0fea493ea36f964b5e5949e272ebd7e3"),
    ])
    def test_benchmark_determinant_pinned(self, capsys, engine, digest):
        # the n = 10 determinant of the benchmark, byte for byte
        code, out, _ = run_cli(capsys, "det", "--seq", "c:q^2,q,q^2", "--n", "10", "--m", "1",
                               "--format", "json", "--engine", engine)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_engines_agree(self, capsys):
        _, out1, _ = run_cli(capsys, "det", "--seq", "andrews", "--n", "3", "--engine", "bareiss")
        _, out2, _ = run_cli(capsys, "det", "--seq", "andrews", "--n", "3", "--engine", "division")
        assert out1 == out2

    def test_singular_lemma_route(self, capsys):
        code, _, err = run_cli(
            capsys, "det", "--seq", "explicit:1,1,1,1", "--n", "2", "--via", "lemma"
        )
        assert code == 3 and "minor" in err

    def test_pole_exit(self, capsys):
        code, _, err = run_cli(capsys, "det", "--seq", "c:1,q,q", "--n", "2")
        assert code == 3

    @pytest.mark.parametrize("nest", ["({})", "-{}"])
    def test_deep_nesting_is_a_parse_error(self, capsys, nest):
        expr = "q"
        for _ in range(400):
            expr = nest.format(expr)
        code, _, err = run_cli(capsys, "det", "--seq", f"c:{expr},q,q^2", "--n", "2")
        assert code == 2 and "nesting deeper than" in err

    def test_huge_power_is_a_parse_error(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "det", "--seq", "c:(q^1000)^1000,q,q^2", "--n", "2")
        assert code == 2 and "power too large" in err
        assert time.perf_counter() - start < 1.0

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "det", "--seq", "catalan", "--n", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert set(payload) == {"command", "params", "result", "cross_check"}
        assert payload["result"] == {"num_coeffs": ["1"], "den_coeffs": ["1"]}
        assert payload["cross_check"] is None

    def test_json_cross_check_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "det", "--seq", "catalan", "--n", "2", "--format", "json", "--cross-check"
        )
        payload = json.loads(out)
        assert payload["cross_check"]["matches"] is True
        assert set(payload["cross_check"]) == {"oracle", "matches"}


class TestClosedFormCommand:
    def test_catalan_shift(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "CatalanShift", "--n", "2", "--m", "2")
        assert code == 0 and out.strip() == "3"

    def test_carlitz(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "Carlitz", "--n", "2", "--m", "1")
        assert code == 0 and out.strip() == "-q"

    def test_qhilbert(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "QHilbert", "--n", "2", "--m", "0")
        assert code == 0
        assert parse_field_expr(out.strip()) == q / ((1 + q) ** 2 * (1 + q + q ** 2))

    def test_recip_bracket_is_undefined_at_m_0(self, capsys):
        # its matrix holds 1/[0] there, so the printed formula's 0 is no answer
        for extra in ((), ("--cross-check",)):
            code, out, err = run_cli(capsys, "closed-form", "RecipBracket", "--n", "3",
                                     "--m", "0", *extra)
            assert code == 3 and out == ""
            assert "math error: matrix entry 1/[0] is undefined at m = 0" in err

    def test_x_parameter(self, capsys):
        code, out, _ = run_cli(
            capsys, "closed-form", "BracketFalling", "--n", "2", "--x", "5/2", "--cross-check"
        )
        assert code == 0
        assert out.splitlines()[0] == "-5/2"
        assert "matches: yes" in out

    def test_missing_x(self, capsys):
        code, _, err = run_cli(capsys, "closed-form", "QPochRows", "--n", "2")
        assert code == 2 and "--x" in err

    def test_unused_x_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, "closed-form", "Carlitz", "--n", "2", "--m", "1",
                                 "--x", "3", "--format", "json")
        assert code == 2 and out == ""
        assert "Carlitz takes no --x" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "closed-form", "CentralBinomial", "--n", "3", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "command"
        assert rows[1][0] == "closed-form"
        assert rows[1][-1] == "4"


class TestJacobiCommand:
    def test_catalan(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--seq", "catalan", "--depth", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s: 1, 2, 2, 2"
        assert lines[1] == "t: 1, 1, 1, 1"

    def test_central_binomial(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--seq", "central-binomial", "--depth", "5")
        lines = out.strip().splitlines()
        assert lines[0] == "s: 2, 2, 2, 2"
        assert lines[1] == "t: 2, 1, 1, 1"

    def test_explicit_matches_catalan(self, capsys):
        _, out1, _ = run_cli(
            capsys, "jacobi", "--seq", "explicit:1,1,2,5,14,42,132,429", "--depth", "4"
        )
        _, out2, _ = run_cli(capsys, "jacobi", "--seq", "catalan", "--depth", "4")
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "jacobi", "--seq", "central-binomial", "--depth", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "jacobi"
        assert payload["params"] == {"seq": "central-binomial", "depth": 3}
        assert [v["num_coeffs"] for v in payload["s"]] == [["2"], ["2"]]
        assert [v["num_coeffs"] for v in payload["t"]] == [["2"], ["1"]]
        assert all(v["den_coeffs"] == ["1"] for v in payload["s"] + payload["t"])

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "jacobi", "--seq", "catalan", "--depth", "4", "--format", "csv"
        )
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["k", "0", "1", "2"], ["s", "1", "2", "2"], ["t", "1", "1", "1"],
        ]

    def test_not_normalized(self, capsys):
        code, _, err = run_cli(capsys, "jacobi", "--seq", "explicit:2,1,1", "--depth", "2")
        assert code == 3 and "not 1" in err


class TestVerifyCommand:
    def test_tables_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "tables")
        assert code == 0
        assert "3 passed" in out

    def test_expected_failure_suite_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "eq36-as-printed", "--n-max", "2")
        assert code == 0
        assert "expected failures" in out

    def test_json_report_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "tables", "--format", "json", "--out", str(target)
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["suite"] == "tables"
        assert payload["summary"]["failed"] == 0
        assert f"report written to {target}" in out

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_report_path_exits_2_before_any_case(self, capsys, tmp_path,
                                                           monkeypatch, target):
        # a missing directory, or a directory in place of a file
        def no_cases(spec):
            raise AssertionError("a case ran")

        monkeypatch.setattr(cli, "run_suite", no_cases)
        path = tmp_path / target
        code, out, err = run_cli(capsys, "verify", "tables", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_refused_write_exits_2(self, capsys):
        # /dev/full opens, and refuses only the write itself
        code, _, err = run_cli(capsys, "verify", "tables", "--out", "/dev/full")
        assert code == 2
        assert err == "error: cannot write /dev/full: No space left on device\n"

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "tables", "--engine", "bareiss", "--seed", "3", "--format", "csv"
        )
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == ["engine", "seed", "check", "params", "n", "m", "expected", "actual",
                          "holds", "expected_failure", "anomaly", "wall_ms", "error"]
        assert [row[:3] for row in rows] == [
            ["bareiss", "3", "ballot table (8 rows)"],
            ["bareiss", "3", "catalan triangle (5 rows)"],
            ["bareiss", "3", "central binomial triangle (5 rows)"],
        ]
        assert all(row[8] == "True" and row[-1] == "" for row in rows)

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "no-such-suite"])
        assert err.value.code == 2


class TestSizeLimits:
    @pytest.mark.parametrize("name, argv", [
        ("n", ["det", "--seq", "c:q^2,q,q^2", "--m", "1", "--n"]),
        ("m", ["det", "--seq", "c:q^2,q,q^2", "--n", "10", "--m"]),
        ("n", ["closed-form", "Carlitz", "--n"]),
        ("depth", ["jacobi", "--seq", "c:q^2,q,q^2", "--depth"]),
        ("rows", ["triangle", "--seq", "c:q^2,q,q^2", "--rows"]),
        ("n_max", ["verify", "all", "--n-max"]),
        ("m_max", ["verify", "all", "--m-max"]),
    ])
    def test_limit_plus_one_exits_2_at_once(self, capsys, name, argv):
        limit = SIZE_LIMITS[name]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, str(limit + 1))
        assert code == 2 and out == ""
        assert f"{argv[-1]} {limit + 1} exceeds the limit {limit}" in err
        assert time.perf_counter() - start < 1.0

    def test_joint_verify_limit_exits_2_at_once(self, capsys):
        # each cap alone is accepted; together they exceed the joint limit
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "all", "--n-max", "10", "--m-max", "14")
        assert code == 2 and out == ""
        assert f"2 * --n-max + --m-max exceeds the limit {VERIFY_SIZE_LIMIT}" in err
        assert time.perf_counter() - start < 1.0

    def test_verify_bareiss_limit_exits_2_at_once(self, capsys):
        # (10, 3) passes the default engine's joint limit; with Bareiss it ran 60 s
        assert 2 * 10 + 3 <= VERIFY_SIZE_LIMIT
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "all", "--n-max", "10", "--m-max", "3",
                                 "--engine", "bareiss")
        assert code == 2 and out == ""
        assert (f"error: 2 * --n-max + --m-max exceeds the limit {VERIFY_BAREISS_SIZE_LIMIT} "
                "with --engine bareiss") in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv, weight, limit, rule", [
        (["det", "--seq", "c:q^2,q,q^2"], 2, DET_SIZE_LIMIT, "2 * --n + --m"),
        (["closed-form", "CBqm"], 1, CLOSED_FORM_SIZE_LIMIT, "--n + --m"),
    ])
    def test_joint_limit_plus_one_exits_2_at_once(self, capsys, argv, weight, limit, rule):
        # the largest --n its cap allows, and the --m that passes the joint limit by one
        n = SIZE_LIMITS["n"]
        m = limit + 1 - weight * n
        assert 0 <= m <= SIZE_LIMITS["m"]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--n", str(n), "--m", str(m))
        assert code == 2 and out == ""
        assert f"error: {rule} exceeds the limit {limit}" in err
        assert time.perf_counter() - start < 1.0

    def test_cross_check_takes_the_det_limit_at_once(self, capsys):
        # --n 22 --m 6 passes the closed-form limits, but its oracle is a det
        # of order 22 at shift 6, which det itself refuses
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "closed-form", "CBqm", "--n", "22", "--m", "6",
                                 "--cross-check")
        assert code == 2 and out == ""
        assert f"error: 2 * --n + --m exceeds the limit {DET_SIZE_LIMIT}" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("formula", ["CBqm", "Andrewsm", "QHilbert"])
    def test_cross_check_pair_limit_exits_2_at_once(self, capsys, formula):
        # one past the pair's limit at the largest --n; det alone would accept it
        m = CROSS_CHECK_SIZE_LIMIT + 1 - 2 * SIZE_LIMITS["n"]
        assert 2 * SIZE_LIMITS["n"] + m <= DET_SIZE_LIMIT
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "closed-form", formula, "--n", str(SIZE_LIMITS["n"]),
                                 "--m", str(m), "--cross-check")
        assert code == 2 and out == ""
        assert (f"error: 2 * --n + --m exceeds the limit {CROSS_CHECK_SIZE_LIMIT} "
                "with --cross-check") in err
        assert time.perf_counter() - start < 1.0

    def test_det_cross_check_pair_limit_exits_2_at_once(self, capsys):
        # det alone accepts (22, 2); with --cross-check it adds the Jacobi route
        assert 2 * 22 + 2 <= DET_SIZE_LIMIT
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "det", "--seq", "c:q^2,q,q^2", "--n", "22", "--m", "2",
                                 "--cross-check")
        assert code == 2 and out == ""
        assert (f"error: 2 * --n + --m exceeds the limit {DET_CROSS_CHECK_SIZE_LIMIT} "
                "with --cross-check") in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [
        ["det", "--seq", "c:q^2,q,q^2", "--n", "22", "--m", "2"],
        ["det", "--seq", "c:q^2,q,q^2", "--n", "15", "--m", "6", "--cross-check"],
        ["closed-form", "CBqm", "--n", "15", "--m", "6", "--cross-check"],
    ])
    def test_bareiss_limit_exits_2_at_once(self, capsys, argv):
        # each passes the limits of the default engine, which is faster
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--engine", "bareiss")
        assert code == 2 and out == ""
        assert (f"error: 3 * --n + --m exceeds the limit {BAREISS_SIZE_LIMIT} "
                "with --engine bareiss") in err
        assert time.perf_counter() - start < 1.0

    def test_bareiss_limit_spares_closed_form_without_cross_check(self, capsys):
        # the engine runs only for the cross-check, so the closed form alone is admitted
        code, out, _ = run_cli(capsys, "closed-form", "QFactorial", "--n", "16",
                               "--engine", "bareiss")
        assert code == 0 and out

    @pytest.mark.parametrize("argv", [
        ["det", "--seq", "c:q^1000,q,q^1000", "--n", "5"],
        ["jacobi", "--seq", "c:q^1000,q,q^1000", "--depth", "6"],
    ])
    def test_high_degree_commands_exit_2_at_once(self, capsys, argv):
        # each passes every limit on n and m, and ran for minutes before the
        # size budget; det passes the budget only at c(8), the last term of its
        # matrix, after about 0.9 s of building terms
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"passes the size budget of {BIT_BUDGET / 1e6:g} Mbit of coefficients" in err
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("argv", [
        ["det", "--n", "5"],
        ["det", "--n", "5", "--via", "lemma"],
        ["det", "--n", "5", "--cross-check"],
        ["det", "--n", "5", "--engine", "bareiss"],
        ["jacobi", "--depth", "5"],
        ["triangle", "--rows", "5"],
    ])
    def test_budget_edge_on_every_route(self, capsys, argv):
        # the order-5 matrix holds 20.7 Mbit on c:q^900,q,q^900
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--seq", "c:q^900,q,q^900")
        assert code == 2 and out == "" and "size budget" in err
        assert time.perf_counter() - start < 2.0

    def test_budget_edge_in_the_degree(self):
        # the order-5 matrix holds 18.5 Mbit on c:q^850,q,q^850, inside the
        # budget, and 20.7 Mbit on c:q^900,q,q^900, outside it; the point
        # inside is only admitted here, since running it takes about a minute
        _admit(parse_sequence_spec("c:q^850,q,q^850"), 5)
        with pytest.raises(ValueError, match="size budget"):
            _admit(parse_sequence_spec("c:q^900,q,q^900"), 5)

    def test_budget_edge_in_n_and_m(self):
        # c:q^30,q,q^30 holds 19.8 Mbit at (n, m) = (10, 0) and 18.4 at (2, 22)
        seq = parse_sequence_spec("c:q^30,q,q^30")
        _admit(seq, 10, 0)
        _admit(seq, 2, 22)
        for n, m in ((10, 1), (2, 23)):
            with pytest.raises(ValueError, match="size budget"):
                _admit(seq, n, m)

    def test_budget_admits_the_joint_limits_on_the_benchmark_family(self):
        # the budget bounds only what the limits on n and m miss: on
        # c:q^2,q,q^2 the largest matrices they admit lie on det's edge
        # 2 n + m = 46, up to 18.8 Mbit at (22, 2), and jacobi --depth 22
        seq = parse_sequence_spec("c:q^2,q,q^2")
        for n in range(6, SIZE_LIMITS["n"] + 1):
            _admit(seq, n, DET_SIZE_LIMIT - 2 * n)
        _admit(seq, SIZE_LIMITS["depth"])

    def test_cross_check_oracle_takes_the_budget(self, capsys):
        # with the budget cut to 0.3 Mbit, CBqm's oracle fits at (10, 1) (0.28 Mbit)
        # and not at (11, 1) (0.46 Mbit); the formula alone builds no matrix
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "BIT_BUDGET", 300_000)
            code, out, _ = run_cli(capsys, "closed-form", "CBqm", "--n", "10", "--m", "1",
                                   "--cross-check")
            assert code == 0 and "matches: yes" in out
            code, out, err = run_cli(capsys, "closed-form", "CBqm", "--n", "11", "--m", "1",
                                     "--cross-check")
            assert code == 2 and out == "" and "size budget" in err
            code, out, _ = run_cli(capsys, "closed-form", "CBqm", "--n", "11", "--m", "1")
            assert code == 0 and out

    def test_terms_below_the_matrix_are_charged(self, capsys):
        # c(35) alone would take minutes to build; the terms below it pass the
        # budget after about 2 s, whether the shift is --m or a shift: spec
        for argv in (["--seq", "c:q^1000,q,q^1000", "--m", "35"],
                     ["--seq", "shift:35:c:q^1000,q,q^1000"],
                     ["--seq", "scale:2:shift:35:c:q^1000,q,q^1000"]):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "det", *argv, "--n", "1")
            assert code == 2 and out == "" and "size budget" in err
            assert time.perf_counter() - start < 5.0

    def test_shifts_of_the_spec_take_the_m_cap(self, capsys):
        # shift:30 and --m 5 build the terms below c(35) either way
        code, out, _ = run_cli(capsys, "det", "--seq", "shift:30:catalan", "--n", "2",
                               "--m", "5")
        assert code == 0 and out.strip() == "159047565712116725864031283601069304"
        code, out, err = run_cli(capsys, "det", "--seq", "shift:30:catalan", "--n", "2",
                                 "--m", "6")
        assert code == 2 and out == ""
        assert f"--m and the shifts of the spec together exceed the limit {SIZE_LIMITS['m']}" \
            in err

    def test_benchmark_sizes_are_allowed(self):
        assert SIZE_LIMITS["n"] >= 10 and SIZE_LIMITS["m"] >= 1
        assert SIZE_LIMITS["depth"] >= 10 and SIZE_LIMITS["rows"] >= 18
        # verify all runs at its defaults, --n-max 5 --m-max 3
        assert SIZE_LIMITS["n_max"] >= 5 and SIZE_LIMITS["m_max"] >= 3
        assert VERIFY_SIZE_LIMIT >= 2 * 5 + 3
        # and CI runs it with --engine bareiss at the same defaults
        assert VERIFY_BAREISS_SIZE_LIMIT >= 2 * 5 + 3
        # det-kernels runs det at n = 10, m = 1 with each engine, and CI
        # cross-checks it with --engine bareiss
        assert DET_SIZE_LIMIT >= 2 * 10 + 1 and DET_CROSS_CHECK_SIZE_LIMIT >= 2 * 10 + 1
        assert BAREISS_SIZE_LIMIT >= 3 * 10 + 1
        # and the size budget admits them: det-kernels and roundtrip-verify on
        # either spec of their pool, and CI's n = 13 determinant
        for spec in ("c:q^2,q,q^2", "c:q^2,-q,q^2"):
            _admit(parse_sequence_spec(spec), 10, 1)
            _admit(parse_sequence_spec(spec), 10)
            _admit(parse_sequence_spec(spec), 18)
        _admit(parse_sequence_spec("c:q^2,q,q^2"), 13, 1)


_EXPRS = ("0", "1", "-1", "2", "1/2", "q", "-q", "q^2", "2*q", "q/(1+q)", "q^40", "q^1000")


@st.composite
def sequence_specs(draw, depth=2):
    kind = draw(st.sampled_from(("catalan", "c", "u", "explicit", "shift", "scale")
                                if depth else ("catalan", "c", "u", "explicit")))
    if kind == "catalan":
        return draw(st.sampled_from(("catalan", "central-binomial", "andrews")))
    if kind == "c":
        return "c:" + ",".join(draw(st.sampled_from(_EXPRS)) for _ in range(3))
    if kind == "u":
        return "u:" + ",".join(draw(st.sampled_from(("0", "1", "-1", "2", "1/2", "-3/2")))
                               for _ in range(3))
    if kind == "explicit":
        return "explicit:" + ",".join(draw(st.lists(st.sampled_from(_EXPRS), min_size=1,
                                                    max_size=9)))
    inner = draw(sequence_specs(depth - 1))
    if kind == "shift":
        return f"shift:{draw(st.integers(0, 6))}:{inner}"
    return f"scale:{draw(st.sampled_from(_EXPRS))}:{inner}"


@st.composite
def spec_commands(draw):
    seq = draw(sequence_specs())
    command = draw(st.sampled_from(("det", "jacobi", "triangle")))
    if command == "jacobi":
        return ["jacobi", "--seq", seq, "--depth", str(draw(st.integers(2, 6)))]
    if command == "triangle":
        return ["triangle", "--seq", seq, "--rows", str(draw(st.integers(1, 6)))]
    argv = ["det", "--seq", seq, "--n", str(draw(st.integers(1, 6))),
            "--m", str(draw(st.integers(0, 6))),
            "--via", draw(st.sampled_from(("oracle", "lemma"))),
            "--engine", draw(st.sampled_from(("bareiss", "division")))]
    return argv + (["--cross-check"] if draw(st.booleans()) else [])


@settings(max_examples=60, deadline=None)
@given(spec_commands())
def test_drawn_commands_end_cleanly(argv):
    """Every drawn spec command ends with exit 0, 2 or 3 and no traceback,
    in under 5 s.  The size budget is cut 200-fold, to 0.1 Mbit, so that
    every admitted command is quick at these orders: the charge does not
    price Bareiss on sparse high-degree entries, and at 0.45 Mbit
    det --engine bareiss --cross-check on c:-1,0,q^1000 at (n, m) = (4, 2)
    took 4-7 s (README "Size limits")."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "BIT_BUDGET", BIT_BUDGET // 200)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
        assert code in (0, 2, 3)
        assert time.perf_counter() - start < 5.0


class TestRenderRoundTrip:
    def test_outputs_reparse(self, capsys):
        for args in (
            ["det", "--seq", "c:q^2,q,q^2", "--n", "3"],
            ["det", "--seq", "andrews", "--n", "2", "--m", "1"],
            ["closed-form", "QFactorial", "--n", "3", "--m", "1"],
            ["closed-form", "Carlitz", "--n", "3", "--m", "2"],
        ):
            code, out, _ = run_cli(capsys, *args)
            assert code == 0
            parse_field_expr(out.strip())


# Every command in every format: each triangle input mode, det by each engine,
# by the lemma and with --cross-check, closed-form with and without --x and
# --cross-check, and jacobi.
OUTPUT_MATRIX = (
    ["triangle", "--seq", "c:q^2,q,q^2", "--rows", "4"],
    ["triangle", "--T", "q,1/(1+q),2,q^2,-1/3", "--rows", "4"],
    ["triangle", "--T", "q", "--zero-s", "--rows", "5"],
    ["triangle", "--s", "q,1/2,-q", "--t", "1/(1+q),q^2", "--rows", "4"],
    ["det", "--seq", "c:q^2,q,q^2", "--n", "3", "--m", "1"],
    ["det", "--seq", "c:q^2,q,q^2", "--n", "3", "--m", "1", "--engine", "bareiss"],
    ["det", "--seq", "c:q^2,q,q^2", "--n", "3", "--via", "lemma"],
    ["det", "--seq", "c:q^2,-q,q^2", "--n", "3", "--cross-check"],
    ["closed-form", "Carlitz", "--n", "3", "--m", "2"],
    ["closed-form", "BracketFalling", "--n", "3", "--x", "5/2", "--cross-check"],
    ["jacobi", "--seq", "c:q^2,q,q^2", "--depth", "4"],
)
FORMATS = ("pretty", "json", "csv")


def _coeffs(x):
    return {"num_coeffs": coeff_strings(x.num), "den_coeffs": coeff_strings(x.den)}


def _pretty_terms(line):
    """Split a line of space-separated rendered values: a space inside a
    value always stands next to a binary operator."""
    terms = []
    tokens = iter(line.split(" "))
    for token in tokens:
        if token in ("+", "-", "/"):
            terms[-1] += f" {token} {next(tokens)}"
        else:
            terms.append(token)
    return terms


def _values(command, out, fmt):
    """The field elements a command printed, in order, as JSON coefficient
    strings (CSV cells and pretty terms through parse_field_expr), and the
    cross-check verdict (None without one)."""
    if fmt == "json":
        payload = json.loads(out)
        if command == "triangle":
            return [v for row in payload["rows"] for v in row], None
        if command == "jacobi":
            return payload["s"] + payload["t"], None
        cross = payload["cross_check"]
        if cross is None:
            return [payload["result"]], None
        return [payload["result"], cross["oracle"]], cross["matches"]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        verdict = None
        if command == "triangle":
            cells = [cell for row in rows for cell in row]
        elif command == "jacobi":
            assert [row[0] for row in rows] == ["k", "s", "t"]
            assert rows[0][1:] == [str(k) for k in range(len(rows[1]) - 1)]
            cells = rows[1][1:] + rows[2][1:]
        else:
            header, row = rows
            cells = [row[header.index("result")]]
            if "oracle" in header:
                cells.append(row[header.index("oracle")])
                verdict = {"True": True, "False": False}[row[header.index("matches")]]
    else:
        lines = out.splitlines()
        verdict = None
        if command == "triangle":
            cells = [term for line in lines for term in _pretty_terms(line)]
        elif command == "jacobi":
            assert [line[:3] for line in lines] == ["s: ", "t: "]
            cells = [term for line in lines for term in line[3:].split(", ")]
        else:
            cells = [lines[0]]
            if len(lines) > 1:
                assert lines[1].startswith("cross-check: ") and len(lines) == 3
                cells.append(lines[1].removeprefix("cross-check: "))
                verdict = {"matches: yes": True, "matches: no": False}[lines[2]]
    return [_coeffs(parse_field_expr(cell)) for cell in cells], verdict


class TestOutputFormats:
    def test_output_matrix_pinned(self, capsys):
        # every command's output in every format, byte for byte
        digest = hashlib.sha256()
        for argv in OUTPUT_MATRIX:
            for fmt in FORMATS:
                code, out, _ = run_cli(capsys, *argv, "--format", fmt)
                assert code == 0, (argv, fmt)
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "39979d8e2819b51fe1febe4770443af2cb15bf7ef913ed161fc5c5b81e5fe6d6")

    def test_json_renders_no_value(self, capsys, monkeypatch):
        # only the asked format is rendered: JSON writes coefficient strings
        def refuse(self):
            raise AssertionError("a field element was rendered")

        monkeypatch.setattr(FieldElem, "__str__", refuse)
        for argv in OUTPUT_MATRIX:
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            assert code == 0 and json.loads(out)["command"] == argv[0]

    @pytest.mark.parametrize("argv", OUTPUT_MATRIX, ids=" ".join)
    def test_formats_denote_the_same_values(self, capsys, argv):
        values = {}
        for fmt in FORMATS:
            code, out, _ = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0
            values[fmt] = _values(argv[0], out, fmt)
        assert values["pretty"] == values["json"] == values["csv"]
        assert values["json"][0]

    @pytest.mark.parametrize("argv", [a for a in OUTPUT_MATRIX if a[0] in ("det", "closed-form")],
                             ids=" ".join)
    def test_csv_params_are_the_json_params(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        header, row = csv.reader(io.StringIO(out))
        params = payload["params"]  # sorted by key; the CSV keeps the command's order
        assert header[0] == "command" and row[0] == payload["command"]
        assert dict(zip(header[1:len(params) + 1], row[1:])) == {
            key: str(value) for key, value in params.items()}
