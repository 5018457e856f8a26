"""End-to-end CLI behavior: commands, formats, exit codes."""

import csv
import io
import json
import time

import pytest

from hankelkit.cli import main
from hankelkit.field import parse_field_expr, q


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

    def test_cross_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "det", "--seq", "central-binomial", "--n", "3", "--cross-check"
        )
        assert code == 0
        assert "matches: yes" in out

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

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "no-such-suite"])
        assert err.value.code == 2


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
