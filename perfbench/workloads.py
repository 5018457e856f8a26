"""The benchmark's workloads.

Each workload is a pair of parts.  A part is a class with ``setup()``, which
builds the inputs of one repetition from the seed, and ``run(inputs, rep)``,
which does the work, times each library call on ``rep.clock`` (the reference
clock of refclock.py) and checks every output against an independent route.  Each part starts cold, the way a CLI invocation does:
new sequence objects and empty ``qcalc`` memo tables.

All calls go through module attributes (``hankel.det_exact``, not a name
imported here), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import random
import time

from hankelkit import cli, closed_forms, field, hankel, qcalc, sequences, triangle, verify

# The seed picks the q-moment point.  The second point is the image of the
# first under q -> -q, so both have the same degree growth and coefficient
# sizes, and the cost of a repetition does not depend on the seed.
QMOMENT_POOL = ("c:q^2,q,q^2", "c:q^2,-q,q^2")

_QCALC_FUNCS = tuple(
    getattr(qcalc, name)
    for name in ("q_int", "q_factorial", "q_pochhammer", "q_binomial",
                 "gauss_binomial", "bracket_falling")
)


class Memo:
    """Empties the qcalc memo tables and keeps their hit counts across clears."""

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def cold(self):
        self.hits, self.misses = self.totals()
        for fn in _QCALC_FUNCS:
            fn.cache_clear()

    def totals(self):
        infos = [fn.cache_info() for fn in _QCALC_FUNCS]
        return (self.hits + sum(i.hits for i in infos),
                self.misses + sum(i.misses for i in infos))


class Rep:
    """What one repetition measured and checked; times are in the seconds of
    ``clock``."""

    def __init__(self, clock):
        self.clock = clock
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.raw_wall_s = 0.0  # the same repetition on time.perf_counter
        self.calls = []  # (label, seconds)
        self.parts = {}  # part name -> seconds
        self.checks = 0
        self.failures = []

    def timed(self, label, fn, *args):
        start = self.clock()
        result = fn(*args)
        self.calls.append((label, self.clock() - start))
        return result

    def check(self, ok, what):
        self.checks += 1
        if not ok:
            self.failures.append(what)


def _qparams(seq):
    return closed_forms.QParams(seq.a, seq.b, seq.base)


def _elem_json(x):
    return {"num_coeffs": field.coeff_strings(x.num), "den_coeffs": field.coeff_strings(x.den)}


class QDet:
    """det(c(i+j+1)) at n = 10 three ways: the CLI with each engine, and the
    closed form."""

    name = "qdet"
    extra_setups = True

    def __init__(self, seed, memo, tiny=False):
        self.spec = QMOMENT_POOL[seed % len(QMOMENT_POOL)]
        self.memo = memo
        self.n = 4 if tiny else 10
        self.m = 1

    def setup(self):
        # what a det call does before eliminating: parse the spec, build the
        # moment matrix
        self.memo.cold()
        seq = sequences.parse_sequence_spec(self.spec)
        hankel.hankel_matrix(seq, self.n, self.m)
        return seq

    def _cli_det(self, engine):
        self.memo.cold()
        argv = ["det", "--seq", self.spec, "--n", str(self.n), "--m", str(self.m),
                "--engine", engine, "--format", "json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def run(self, seq, rep):
        p = _qparams(seq)
        results = {}
        for engine in ("bareiss", "division"):
            code, text = rep.timed(f"det_{engine}", self._cli_det, engine)
            rep.check(code == 0, f"det --engine {engine} exited {code}")
            results[engine] = json.loads(text)["result"] if code == 0 else None
        self.memo.cold()
        value = rep.timed("closed_form", closed_forms.qmoment_det, self.n, self.m, p)
        expected = _elem_json(value)
        for engine, result in results.items():
            rep.check(result == expected, f"det --engine {engine} != qmoment_det on {self.spec}")


class RoundTrip:
    """Moments -> (s, t) by LDL^t at depth 10, checked against the contracted
    closed-form weights and the determinant formula; then the triangle of the
    contracted parameters over 18 rows must give back the moments."""

    name = "roundtrip"
    extra_setups = True

    def __init__(self, seed, memo, tiny=False):
        self.spec = QMOMENT_POOL[seed % len(QMOMENT_POOL)]
        self.memo = memo
        self.depth = 4 if tiny else 10
        self.rows = 6 if tiny else 18

    def setup(self):
        self.memo.cold()
        seq = sequences.parse_sequence_spec(self.spec)
        return seq, _qparams(seq)

    def run(self, inputs, rep):
        seq, p = inputs
        depth = self.depth
        jp = rep.timed("jacobi", hankel.jacobi_from_moments, seq, depth)
        weights = triangle.TSeq(lambda k: closed_forms.qmoment_T(k, p))
        contracted = triangle.contract(weights)

        def oracle_lists():
            return contracted.s_list(depth - 1), contracted.t_list(depth - 1)

        s_ref, t_ref = rep.timed("contract", oracle_lists)
        for k in range(depth - 1):
            rep.check(jp.s(k) == s_ref[k], f"s({k}) differs from the contracted weights")
            rep.check(jp.t(k) == t_ref[k], f"t({k}) differs from the contracted weights")
        det = rep.timed("det_from_jacobi", hankel.det_from_jacobi, jp, depth)
        closed = rep.timed("closed_form", closed_forms.qmoment_det, depth, 0, p)
        rep.check(det == closed, f"det_from_jacobi != qmoment_det({depth}, 0)")
        tri = rep.timed("triangle", triangle.build_triangle, contracted, self.rows - 1)
        for k, value in enumerate(tri.column0()):
            rep.check(value == seq.term(k), f"triangle a({k}, 0) != c({k})")


# Counts of the default `all` suite; they do not depend on the seed.
ALL_SUITE_COUNTS = {"total": 1036, "failed": 0, "expected_failures": 15, "anomalies": 0}
# The tiny self-test runs one suite instead of all eleven.
TINY_SUITE = "eq36-as-printed"
TINY_SUITE_COUNTS = {"total": 31, "failed": 0, "expected_failures": 15, "anomalies": 0}


class VerifyAll:
    """The `all` verification suite with the default spec and the seed as
    SuiteSpec.seed.  Set-up is the suite time not spent in cases: building
    the case list, sampling parameters, and collecting the report."""

    name = "verify-all"
    extra_setups = False

    def __init__(self, seed, memo, tiny=False):
        self.spec = verify.SuiteSpec(TINY_SUITE if tiny else "all", seed=seed)
        self.counts = TINY_SUITE_COUNTS if tiny else ALL_SUITE_COUNTS
        self.memo = memo

    def setup(self):
        self.memo.cold()
        return self.spec

    def run(self, spec, rep):
        start, raw_start = rep.clock(), time.perf_counter()
        report = verify.run_suite(spec)
        elapsed = rep.clock() - start
        # the suite times its cases on perf_counter; convert at the suite's
        # average speed
        scale = elapsed / (time.perf_counter() - raw_start)
        case_s = 0.0
        for r in report.records:
            seconds = r.wall_ms / 1000.0 * scale
            case_s += seconds
            rep.calls.append(("case", seconds))
            as_expected = r.holds != r.expected_failure and not r.anomaly
            rep.check(as_expected, f"case {r.check} [{r.params}] n={r.n} m={r.m}: {r.error}")
        rep.setup_s += elapsed - case_s
        got = {key: report.counts[key] for key in self.counts}
        rep.check(got == self.counts, f"suite counts {got} != {self.counts}")


# (degree, coefficient bits) points from the ROADMAP; they bracket what the
# n = 10 elimination produces.
KERNEL_POINTS = ((100, 30), (600, 200), (1300, 600))
TINY_POINTS = ((10, 8), (20, 16), (30, 24))
# gcd input shapes, one per path of field._poly_gcd: (degree, bits) of the
# common factor h and of the cofactors u and v, and whether all three have
# leading coefficient 1; the inputs are h*u and h*v.
#   subresultant  - at most 40 coefficients;
#   modular       - more than 40 coefficients, GF(p) images that lift;
#   rational_rem  - a degree gap above 32, knocked down by a remainder step;
#                   unit leading coefficients, as in the q-moment denominators;
#   fallback      - a common factor of more bits (450) than the four fixed
#                   primes lift (~384), so the GF(p) route gives up and the
#                   subresultant sequence runs on large coefficients.
GCD_SHAPES = {
    "subresultant": ((8, 20), (30, 20), (30, 20), False),
    "modular": ((100, 30), (300, 30), (300, 30), False),
    "rational_rem": ((5, 30), (600, 30), (40, 30), True),
    "fallback": ((6, 450), (36, 10), (36, 10), False),
}
TINY_GCD_SHAPES = {
    "subresultant": ((2, 8), (6, 8), (6, 8), False),
    "modular": ((4, 8), (40, 8), (40, 8), False),
    "rational_rem": ((2, 8), (50, 8), (6, 8), True),
    "fallback": ((2, 450), (20, 4), (20, 4), False),
}
_EVAL_PRIME = (1 << 127) - 1


def _random_poly(rng, degree, bits, unit=False):
    span = 1 << bits
    coeffs = [rng.randint(-span, span) for _ in range(degree)]
    coeffs.append(1 if unit else rng.randint(1, span))
    return field.Polynomial(coeffs)


def _eval_mod(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % _EVAL_PRIME
    return acc


def _divides(d, f):
    try:
        f // d
    except ValueError:
        return False
    return True


class Kernels:
    """Polynomial multiply and exact division at fixed (degree, bits) points,
    and Polynomial.gcd on one input shape per gcd path."""

    name = "kernels"
    extra_setups = True

    def __init__(self, seed, memo, tiny=False):
        self.seed = seed
        self.points = TINY_POINTS if tiny else KERNEL_POINTS
        self.shapes = TINY_GCD_SHAPES if tiny else GCD_SHAPES
        self.memo = memo

    def setup(self):
        self.memo.cold()
        rng = random.Random(self.seed)
        pairs = [(_random_poly(rng, d, b), _random_poly(rng, d, b)) for d, b in self.points]
        gcds = {}
        for path, ((hd, hb), (ud, ub), (vd, vb), unit) in self.shapes.items():
            h = _random_poly(rng, hd, hb, unit)
            u = _random_poly(rng, ud, ub, unit)
            v = _random_poly(rng, vd, vb, unit)
            gcds[path] = (h * u, h * v, h)
        return pairs, gcds, rng.randrange(2, _EVAL_PRIME)

    def run(self, inputs, rep):
        pairs, gcds, x = inputs
        for (d, b), (f, g) in zip(KERNEL_POINTS, pairs):
            row = f"d{d}-b{b}"
            prod = rep.timed(f"mul.{row}", operator.mul, f, g)
            rep.check(
                prod.content == f.content * g.content
                and _eval_mod(prod.coeffs, x)
                == _eval_mod(f.coeffs, x) * _eval_mod(g.coeffs, x) % _EVAL_PRIME,
                f"mul {row}: product differs at a random point",
            )
            quot = rep.timed(f"divexact.{row}", operator.floordiv, prod, g)
            rep.check(quot == f, f"divexact {row}: the product does not divide back")
        for path, (f, g, h) in gcds.items():
            d = rep.timed(f"gcd.{path}", f.gcd, g)
            rep.check(
                _divides(d, f) and _divides(d, g) and _divides(h, d),
                f"gcd {path}: result does not divide both inputs or misses the common factor",
            )


class Workload:
    """The parts of a workload, run one after another in each repetition."""

    def __init__(self, parts, seed, memo, tiny=False):
        self.parts = [cls(seed, memo, tiny) for cls in parts]
        self.memo = memo
        self.extra_setups = all(part.extra_setups for part in self.parts)

    def setup(self):
        return [part.setup() for part in self.parts]

    def run(self, inputs, rep):
        for part, part_inputs in zip(self.parts, inputs):
            self.memo.cold()
            start = rep.clock()
            part.run(part_inputs, rep)
            rep.parts[part.name] = rep.clock() - start


# One repetition takes 12-23 s on a 2-core host.  Four workloads of one part
# each would leave too few repetitions per run (a budget of 3420 s for 4 + 22
# runs per workload allows about 20 s a run for four), so the parts run in
# pairs: the large-degree arithmetic, and the gcd-bound and tiny operations.
WORKLOADS = {
    "det-kernels": (QDet, Kernels),
    "roundtrip-verify": (RoundTrip, VerifyAll),
}
