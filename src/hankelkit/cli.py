"""Command-line front end: triangles, determinants, closed forms, Jacobi
parameters and verification suites, with exact pretty/JSON/CSV output.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 mathematical error (pole, singular leading minor, division by zero).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .closed_forms import FORMULAS, closed_form, oracle_terms
from .errors import HankelkitError, MissingParameter, NotNormalized, ParseError
from .field import FieldElem, coeff_strings, parse_field_expr
from .hankel import (DEFAULT_ENGINE, ENGINES, det_exact, det_from_jacobi, hankel_matrix,
                     jacobi_from_moments)
from .sequences import ExplicitSeq, MomentSeq, parse_sequence_spec
from .triangle import JacobiParams, TSeq, Triangle, build_triangle, build_zero_s_triangle, contract
from .verify import SUITES, SuiteSpec, report_to_csv, report_to_json, report_to_text, run_suite

USAGE_ERROR = 2
MATH_ERROR = 3

# Upper limits of the size options, checked before any work.  Each is the
# largest value measured to finish in under 50 s with the default engine
# (2 cores, Python 3.11).  On c:q^2,q,q^2: det at m = 1 took 47 s at n = 22,
# det at n = 10 took 37 s at m = 35 (67 s at 40), jacobi took 37 s at
# depth 22 (119 s at 26), triangle --seq took 35 s at 22 rows (60 s at 24).
# The m cap also bounds --m plus the shifts of a shift: spec, whose terms
# below the matrix are built too.  verify all, the other bound at its
# default, took 48 s at --n-max 10 (73 s at 11) and 43 s at --m-max 14 (52 s at 15).
SIZE_LIMITS = {"n": 22, "m": 35, "depth": 22, "rows": 22, "n_max": 10, "m_max": 14}

# Jointly, verify all's time follows 2 n_max + m_max, as its grids read c(2n - 2 + m):
# at 23 it took 34-49 s for n_max 5-10, at 24 it took 53-67 s for n_max 7-10.
VERIFY_SIZE_LIMIT = 23
# With --engine bareiss the grids' determinants take longer, the more so the
# larger n_max: at 23 verify all took 28-48 s at n_max 5-8 and 60-68 s at
# 9-10; at 22 14-38 s for n_max 4-10.
VERIFY_BAREISS_SIZE_LIMIT = 22
# det's time follows 2 n + m too, as its matrix reads c(m .. 2n - 2 + m): on
# c:q^2,q,q^2 at 46 it took 23-35 s for n 16-22, at 47 58 s for n = 22.
# closed-form --cross-check takes the same limit: its oracle is such a det.
DET_SIZE_LIMIT = 46
# With --cross-check, closed-form adds that det to its own time.  At 46 CBqm took
# 53 s at n = 22 (Andrewsm 48, QHilbert 27); at 45 the three took at most 43 s.
CROSS_CHECK_SIZE_LIMIT = 45
# With --engine bareiss, det and closed-form --cross-check follow 3 n + m, as
# Bareiss grows faster in n than in m.  On c:q^2,q,q^2 at 50 det took 41.6-53.9 s
# at (16, 2) (4 whole-process runs, once Bareiss ran on integer vectors), so
# the limit is 49: det took 37.5-43.0 s at (16, 1) (4 runs) and 30.6-32.4 s
# at (15, 4), and with --cross-check at (16, 1) CBqm took 32.7 s and
# Andrewsm 34.9 s (one run each).
BAREISS_SIZE_LIMIT = 49
# det --cross-check adds the Jacobi route (jacobi_from_moments, det_from_jacobi)
# to the elimination, 103 s at (22, 2): at 44 the pair took 49-62 s for n 19-22,
# at 43 33-39 s for n 17-21, at 42 20-34 s for n 11-21.
DET_CROSS_CHECK_SIZE_LIMIT = 43
# closed-form's follows n + m: QHilbert grows with n, CBqm and Andrewsm with m.
# At 28 QHilbert took 34-43 s at n = 22; at 29 it took 37-53 s for n 20-22.
CLOSED_FORM_SIZE_LIMIT = 28

# The joint limits above see only n and m, not how large the entries are:
# with --seq c:q^1000,q,q^1000, det at n = 5 and jacobi at depth 6 ran for
# minutes.  So every moment matrix a command eliminates (det, its lemma route
# and cross-check, jacobi, triangle --seq, the closed-form oracle) must also
# fit a budget on its size in coefficient bits: the sum over its n^2
# positions of len x bit length of the numerator and denominator vectors of
# c(i + j + m), plus once each term the spec builds on the way.  The budget
# admits everything the joint limits admit on c:q^2,q,q^2, whose largest
# matrix, det at (n, m) = (22, 2), holds 18.8 Mbit (33.7 s), and refuses
# det --n 5 on c:q^1000,q,q^1000 (22.1 Mbit, over 90 s).  It does not see how
# far an elimination swells, which is why the joint limits stay.
BIT_BUDGET = 20_000_000


def _elem_json(x: FieldElem) -> dict:
    return {"num_coeffs": coeff_strings(x.num), "den_coeffs": coeff_strings(x.den)}


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_result(fmt: str, command: str, params: dict, fields: dict, rows, lines) -> None:
    """Print a command's result in the one format asked for.

    JSON is {"command", "params", **fields}, every FieldElem in it written as
    its coefficient strings; CSV is ``rows``, whose cells csv stringifies;
    pretty is ``lines``, each stringified.  Only the asked format is
    iterated, so a generator leaves the other formats' str() calls unmade.
    """
    if fmt == "json":
        payload = {"command": command, "params": params, **fields}
        _emit(json.dumps(payload, indent=2, sort_keys=True, default=_elem_json))
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        _emit(buf.getvalue())
    else:
        _emit("\n".join(map(str, lines)))


def _emit_value(fmt: str, command: str, params: dict, value: FieldElem, cross) -> None:
    """det and closed-form: one value, and with cross = (the other route's
    value, whether it matches) a cross-check."""
    header, row = ["command", *params, "result"], [command, *params.values(), value]
    if cross is not None:
        header += ["oracle", "matches"]
        row += cross

    def lines():
        yield value
        if cross is not None:
            yield f"cross-check: {cross[0]}"
            yield f"matches: {'yes' if cross[1] else 'no'}"

    check = None if cross is None else {"oracle": cross[0], "matches": cross[1]}
    _emit_result(fmt, command, params, {"result": value, "cross_check": check},
                 [header, row], lines())


def _cross_check_code(cross) -> int:
    """The exit code of det and closed-form: 1, a verification failure, when
    the cross-check ran and does not match."""
    return 1 if cross is not None and not cross[1] else 0


def _size(x: FieldElem) -> int:
    """len x bit length of the numerator and denominator vectors of x."""
    return sum(len(v) * max(map(int.bit_length, v)) for v in (x.n, x.d)) if x.n else 0


def _admit(seq, n: int, m: int = 0) -> None:
    """Build the terms of the order-n moment matrix at shift m in index
    order and raise ValueError at the first that takes the matrix past
    BIT_BUDGET, before any elimination.  ``seq`` is a MomentSeq, whose
    terms below m and those of its inner sequences count once, or a function
    of the index (a registry matrix), of which only c(m .. 2n - 2 + m) is
    built."""
    end = 2 * n - 1 + m
    if isinstance(seq, MomentSeq):
        if m + seq.shifts > SIZE_LIMITS["m"]:
            raise ValueError(f"--m and the shifts of the spec together exceed the limit "
                             f"{SIZE_LIMITS['m']}")
        terms = seq.build(end)
    else:
        terms = ((k, seq(k)) for k in range(m, end))
    spent = 0
    for k, term in terms:
        spent += (1 if k is None or k < m else min(k - m + 1, end - k)) * _size(term)
        if spent > BIT_BUDGET:
            raise ValueError(f"the order-{n} moment matrix at --m {m} passes the size budget "
                             f"of {BIT_BUDGET / 1e6:g} Mbit of coefficients")


def _parse_expr_list(text: str):
    return [parse_field_expr(part) for part in text.split(",")]


def _triangle_params(args) -> tuple[Triangle, dict]:
    rows = args.rows
    if rows < 1:
        raise ValueError("--rows must be at least 1")
    if args.seq:
        seq = parse_sequence_spec(args.seq)
        _admit(seq, rows)
        jp = jacobi_from_moments(seq, rows)
        return build_triangle(jp, rows - 1), {"seq": args.seq, "rows": rows}
    if args.T:
        values = _parse_expr_list(args.T)
        # the parity-split recurrence reads T(0..rows-3); contraction to
        # (s, t) reaches twice as far, up to T(2*rows-4)
        needed = max(rows - 2, 0) if args.zero_s else max(2 * rows - 3, 0)
        if len(values) == 1:
            T = TSeq.constant(values[0])
        else:
            if len(values) < needed:
                raise ValueError(f"--T table needs at least {needed} values for {rows} rows")
            T = TSeq(values)
        params = {"T": args.T, "rows": rows, "zero_s": bool(args.zero_s)}
        if args.zero_s:
            return build_zero_s_triangle(T, rows - 1), params
        return build_triangle(contract(T), rows - 1), params
    if args.s and args.t:
        s_vals = _parse_expr_list(args.s)
        t_vals = _parse_expr_list(args.t)
        if rows >= 2 and (len(s_vals) < rows - 1 or len(t_vals) < rows - 2):
            raise ValueError(f"--s needs {rows - 1} and --t needs {max(rows - 2, 0)} values")
        jp = JacobiParams(s_vals, t_vals)
        return build_triangle(jp, rows - 1), {"s": args.s, "t": args.t, "rows": rows}
    raise ValueError("triangle needs --seq, --T, or both --s and --t")


def cmd_triangle(args) -> int:
    tri, params = _triangle_params(args)
    _emit_result(args.format, "triangle", params, {"rows": tri.rows}, tri.rows,
                 (" ".join(map(str, row)) for row in tri.rows))
    return 0


def _det_by_jacobi(seq: MomentSeq, n: int, m: int) -> FieldElem:
    """Determinant through the Jacobi-parameter t-product of the sequence
    normalized through c(m), at every shift: d(n, m) = c(m)^n * det(shifted / c(m))."""
    cm = seq.term(m)
    if cm.is_zero:
        raise NotNormalized(f"cannot normalize the sequence: c({m}) = 0")
    shifted = ExplicitSeq([seq.term(m + k) / cm for k in range(2 * n - 1)])
    return cm ** n * det_from_jacobi(jacobi_from_moments(shifted, n), n)


def cmd_det(args) -> int:
    seq = parse_sequence_spec(args.seq)
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    params = {"seq": args.seq, "n": args.n, "m": args.m, "via": args.via,
              "engine": args.engine}
    _admit(seq, args.n, args.m)
    oracle_value = None
    lemma_value = None
    if args.via == "oracle" or args.cross_check:
        oracle_value = det_exact(hankel_matrix(seq, args.n, args.m), args.engine)
    if args.via == "lemma" or args.cross_check:
        lemma_value = _det_by_jacobi(seq, args.n, args.m)
    value = lemma_value if args.via == "lemma" else oracle_value
    cross = None
    if args.cross_check:
        other = lemma_value if args.via == "oracle" else oracle_value
        cross = (other, other == value)
    _emit_value(args.format, "det", params, value, cross)
    return _cross_check_code(cross)


def cmd_closed_form(args) -> int:
    x = parse_field_expr(args.x).as_rational() if args.x is not None else None
    params = {"formula": args.formula, "n": args.n, "m": args.m}
    if x is not None:
        params["x"] = str(x)
    if args.cross_check:
        terms = oracle_terms(args.formula, args.n, args.m, x)
        _admit(terms, args.n, args.m)
    value = closed_form(args.formula, args.n, args.m, x)
    cross = None
    if args.cross_check:
        oracle = det_exact(hankel_matrix(terms, args.n, args.m), args.engine)
        cross = (oracle, oracle == value)
    _emit_value(args.format, "closed-form", params, value, cross)
    return _cross_check_code(cross)


def cmd_jacobi(args) -> int:
    seq = parse_sequence_spec(args.seq)
    if args.depth < 2:
        raise ValueError("--depth must be at least 2")
    _admit(seq, args.depth)
    jp = jacobi_from_moments(seq, args.depth)
    s = jp.s_list(args.depth - 1)
    t = jp.t_list(args.depth - 1)
    params = {"seq": args.seq, "depth": args.depth}
    _emit_result(args.format, "jacobi", params, {"s": s, "t": t},
                 [["k", *range(args.depth - 1)], ["s", *s], ["t", *t]],
                 (f"{name}: {', '.join(map(str, v))}" for name, v in (("s", s), ("t", t))))
    return 0


def _write_report(path, text):
    """Write text to path; an OSError is a usage error (exit 2)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_verify(args) -> int:
    if args.out:
        # a path that cannot be opened for writing ends the command before any
        # case runs; a device that refuses the write itself fails at the end
        _write_report(args.out, "")
    spec = SuiteSpec(
        suite=args.suite,
        n_max=args.n_max,
        m_max=args.m_max,
        engine=args.engine,
        seed=args.seed,
    )
    report = run_suite(spec)
    if args.format == "json":
        text = report_to_json(report)
    elif args.format == "csv":
        text = report_to_csv(report)
    else:
        text = report_to_text(report)
    if args.out:
        _write_report(args.out, text)
        _emit(f"report written to {args.out}")
        _emit(report.summary())
    else:
        _emit(text)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelkit",
        description="Exact Hankel determinants of combinatorial moment sequences "
        "and their q-analogues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")

    p = sub.add_parser("triangle", help="build and print a moment triangle")
    p.add_argument("--seq", help="sequence spec (see README for the mini-syntax)")
    p.add_argument("--T", help="comma-separated weight values; one value means constant")
    p.add_argument("--zero-s", action="store_true", dest="zero_s",
                   help="run the parity-split recurrence driven by --T")
    p.add_argument("--s", help="comma-separated s table")
    p.add_argument("--t", help="comma-separated t table")
    p.add_argument("--rows", type=int, required=True, help="number of rows to print")
    add_format(p)
    p.set_defaults(fn=cmd_triangle)

    p = sub.add_parser("det", help="exact Hankel determinant of a sequence")
    p.add_argument("--seq", required=True)
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--m", type=int, default=0, help="index shift of the entries")
    p.add_argument("--via", choices=("oracle", "lemma"), default="oracle",
                   help="oracle = elimination engines, lemma = Jacobi t-product")
    p.add_argument("--engine", choices=ENGINES, default=DEFAULT_ENGINE)
    p.add_argument("--cross-check", action="store_true", dest="cross_check",
                   help="compute both routes and compare")
    add_format(p)
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("closed-form", help="evaluate a registry formula")
    p.add_argument("formula", choices=sorted(FORMULAS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--x", help="rational parameter for the x-dependent formulas")
    p.add_argument("--engine", choices=ENGINES, default=DEFAULT_ENGINE)
    p.add_argument("--cross-check", action="store_true", dest="cross_check",
                   help="also compute the brute-force determinant of the defining matrix")
    add_format(p)
    p.set_defaults(fn=cmd_closed_form)

    p = sub.add_parser("jacobi", help="recover (s, t) from moments")
    p.add_argument("--seq", required=True)
    p.add_argument("--depth", type=int, required=True,
                   help="consumes moments 0..2*depth-2, returns depth-1 parameters")
    add_format(p)
    p.set_defaults(fn=cmd_jacobi)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES + ("all",))
    p.add_argument("--n-max", type=int, default=5, dest="n_max")
    p.add_argument("--m-max", type=int, default=3, dest="m_max")
    p.add_argument("--engine", choices=ENGINES, default=DEFAULT_ENGINE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report to a file instead of stdout")
    add_format(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, limit in SIZE_LIMITS.items():
            if getattr(args, name, 0) > limit:
                raise ValueError(f"--{name.replace('_', '-')} {getattr(args, name)} "
                                 f"exceeds the limit {limit}")
        if args.command == "verify":
            if 2 * args.n_max + args.m_max > VERIFY_SIZE_LIMIT:
                raise ValueError(f"2 * --n-max + --m-max exceeds the limit {VERIFY_SIZE_LIMIT}")
            if args.engine == "bareiss" and 2 * args.n_max + args.m_max > VERIFY_BAREISS_SIZE_LIMIT:
                raise ValueError(f"2 * --n-max + --m-max exceeds the limit "
                                 f"{VERIFY_BAREISS_SIZE_LIMIT} with --engine bareiss")
        cross_check = getattr(args, "cross_check", False)
        eliminates = args.command == "det" or cross_check
        if eliminates and 2 * args.n + args.m > DET_SIZE_LIMIT:
            raise ValueError(f"2 * --n + --m exceeds the limit {DET_SIZE_LIMIT}")
        if cross_check:
            limit = (CROSS_CHECK_SIZE_LIMIT if args.command == "closed-form"
                     else DET_CROSS_CHECK_SIZE_LIMIT)
            if 2 * args.n + args.m > limit:
                raise ValueError(f"2 * --n + --m exceeds the limit {limit} with --cross-check")
        if eliminates and args.engine == "bareiss" and 3 * args.n + args.m > BAREISS_SIZE_LIMIT:
            raise ValueError(f"3 * --n + --m exceeds the limit {BAREISS_SIZE_LIMIT} "
                             "with --engine bareiss")
        if args.command == "closed-form" and args.n + args.m > CLOSED_FORM_SIZE_LIMIT:
            raise ValueError(f"--n + --m exceeds the limit {CLOSED_FORM_SIZE_LIMIT}")
        return args.fn(args)
    except (ParseError, MissingParameter, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except HankelkitError as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return MATH_ERROR


if __name__ == "__main__":
    sys.exit(main())
