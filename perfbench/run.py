"""hankelkit benchmark: one workload, measured for a fixed time.

Run from the repository root:

    python3 perfbench/run.py --workload det-kernels --seed 1 --seconds 55 --trace 0

The package is imported from ./src, with HANKELKIT_THREADS removed from the
environment, so everything runs on one thread of one process.  The run
repeats the workload, each repetition starting cold, for at most about
--seconds (always at least once), checks every output, and prints as its last
line one JSON object with the counts of checks attempted and failed and the
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The line before it holds the details (environment, per-call
and per-part times, failed fraction).  See NOTES.md.

Times are in reference seconds (refclock.py): wall time scaled by the
host's speed at the moment, as a fixed probe measures it, so that most of
the host's swings in speed cancel out.  The raw wall times of the
repetitions are in the details line.

The traced run first times one repetition without tracing, then wraps the
package's layers (see tracing.py); the difference of the two repetition
times is the tracing overhead.  Full results, with the environment, go to
perfbench/out/.

Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
package sources or arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refclock  # noqa: E402

# name -> unit; every workload reports all of them, in reference seconds.
# setup_s is the median import time plus the median set-up time of a
# repetition; wall_s is the median repetition.  Percentiles of single
# library calls are in the details line only: a few heavy calls decide them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

_CALLS_SELF = (
    "field.poly_mul", "field.poly_divexact", "field.poly_gcd",
    "field.elem_new", "field.elem_add", "field.elem_mul", "field.elem_div",
    "qcalc", "sequences.term", "verify.sample_parameters", "verify.case",
)
_SELF_ONLY = (
    "hankel.matrix", "hankel.det_bareiss", "hankel.det_division", "hankel.ldlt",
    "triangle.build", "closed_forms", "identities", "cli",
)
KERNEL_ROWS = tuple(
    f"{op}.d{d}-b{b}" for op in ("mul", "divexact") for d, b in ((100, 30), (600, 200), (1300, 600))
) + tuple(f"gcd.{path}" for path in ("subresultant", "modular", "rational_rem", "fallback"))

# name -> unit; every workload reports all of them, 0 where it does not
# reach a layer (kernel rows are timed on the kernels workload only).
PER_LAYER = {}
for _span in _CALLS_SELF:
    PER_LAYER[f"{_span}.calls"] = "count"
    PER_LAYER[f"{_span}.self_s"] = "s"
for _span in _SELF_ONLY:
    PER_LAYER[f"{_span}.self_s"] = "s"
PER_LAYER.update({
    "field.peak_degree": "degree",
    "field.peak_coeff_bits": "bits",
    "qcalc.hit_ratio": "ratio",
    "verify.build_cases_s": "s",
    "trace.overhead_s": "s",
})
for _row in KERNEL_ROWS:
    PER_LAYER[f"field.{_row}_ms"] = "ms"


def _commit(root):
    """The checked-out commit read from .git, or 'unknown' outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# Import time of the package in a fresh interpreter, printed by the child.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import hankelkit, hankelkit.cli; print(time.perf_counter() - start)"
)


def _import_samples(src, count, clock):
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src], capture_output=True,
                              text=True, check=True, timeout=120)
        samples.append(clock.scale(float(proc.stdout)))
    return samples


def _run_rep(wl, rep_cls, clock):
    rep = rep_cls(clock.now)
    raw_start = time.perf_counter()
    start = clock.now()
    inputs = wl.setup()
    rep.setup_s = clock.now() - start
    wl.run(inputs, rep)
    rep.wall_s = clock.now() - start
    rep.raw_wall_s = time.perf_counter() - raw_start
    return rep


def _layer_values(before, after, hits_misses, rep):
    """Per-layer values of one traced repetition from counter differences."""
    zero = (0, 0.0, 0.0)
    delta = {
        name: tuple(a - b for a, b in zip(after[name], before.get(name, zero)))
        for name in after
    }
    out = {}
    for span in _CALLS_SELF:
        calls, _, self_s = delta.get(span, zero)
        out[f"{span}.calls"] = calls
        out[f"{span}.self_s"] = self_s
    for span in _SELF_ONLY:
        out[f"{span}.self_s"] = delta.get(span, zero)[2]
    out["verify.build_cases_s"] = delta.get("verify.build_cases", zero)[1]
    hits, misses = hits_misses
    out["qcalc.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    rows = dict(rep.calls)
    for row in KERNEL_ROWS:
        out[f"field.{row}_ms"] = rows.get(row, 0.0) * 1000.0
    return out


def _percentiles_ms(rep):
    """(p50, p90, p99) of one repetition's call times, in ms."""
    times = [seconds for _, seconds in rep.calls]
    if len(times) == 1:
        return (times[0] * 1000.0,) * 3
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    return cuts[49] * 1000.0, cuts[89] * 1000.0, cuts[98] * 1000.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-test only")
    args = parser.parse_args(argv)

    threads_was_set = "HANKELKIT_THREADS" in os.environ
    os.environ.pop("HANKELKIT_THREADS", None)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hankelkit", "__init__.py")):
        print("error: no hankelkit sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    clock = refclock.RefClock()
    clock.start()
    try:
        return _measure(args, root, src, clock, threads_was_set)
    finally:
        clock.stop()


def _measure(args, root, src, clock, threads_was_set):
    start = clock.now()
    import hankelkit.cli  # the package __init__ imports every module
    import_s = clock.now() - start
    if not os.path.abspath(hankelkit.__file__).startswith(src + os.sep):
        print(f"error: hankelkit imported from {hankelkit.__file__}, not ./src", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    memo = workloads.Memo()
    wl = workloads.Workload(workloads.WORKLOADS[args.workload], args.seed, memo, tiny=args.tiny)

    reps = []
    untraced = None
    tracer = None
    layer_rows = []
    start = time.perf_counter()
    if args.trace:
        untraced = _run_rep(wl, workloads.Rep, clock)
        tracer = tracing.Tracer(clock.now)
        tracer.install()
    while True:
        if tracer is not None:
            tracer.rep = len(reps) + 1
            before = tracer.snapshot()
            hm_before = memo.totals()
        rep = _run_rep(wl, workloads.Rep, clock)
        if tracer is not None:
            hm_after = memo.totals()
            hits_misses = (hm_after[0] - hm_before[0], hm_after[1] - hm_before[1])
            layer_rows.append(_layer_values(before, tracer.snapshot(), hits_misses, rep))
        reps.append(rep)
        # start another repetition only if it should end within --seconds,
        # so that a run never lasts much longer than --seconds
        next_rep = statistics.median(r.raw_wall_s for r in reps)
        if time.perf_counter() - start + next_rep > args.seconds:
            break

    setups = [r.setup_s for r in reps]
    if wl.extra_setups and tracer is None:
        while len(setups) < 5:
            t0 = clock.now()
            wl.setup()
            setups.append(clock.now() - t0)

    all_reps = reps + ([untraced] if untraced is not None else [])
    attempted = sum(r.checks for r in all_reps)
    failures = [f for r in all_reps for f in r.failures]
    walls = [r.wall_s for r in reps]
    by_label = {}
    for r in reps:
        for label, seconds in r.calls:
            by_label.setdefault(label, []).append(seconds)

    p50, p90, p99 = (min(column) for column in zip(*(_percentiles_ms(r) for r in reps)))
    imports = [import_s]
    if tracer is None:
        imports += _import_samples(src, 4, clock)
        values = {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        values = {name: statistics.median_low(row[name] for row in layer_rows)
                  for name in layer_rows[0]}
        values["field.peak_degree"] = tracer.peak_degree
        values["field.peak_coeff_bits"] = tracer.peak_coeff_bits
        values["trace.overhead_s"] = statistics.median(walls) - untraced.wall_s
        units = PER_LAYER

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(root),
        "hankelkit_threads": "unset by the benchmark" if threads_was_set else "unset",
    }
    details = {
        "env": env,
        "repetitions": len(reps),
        "import_samples_s": imports,
        "setup_samples_s": setups,
        "part_medians_s": {name: statistics.median(r.parts[name] for r in reps)
                           for name in reps[0].parts},
        "call_medians_s": {k: statistics.median(v) for k, v in by_label.items()},
        "call_counts": {k: len(v) for k, v in by_label.items()},
        "call_ms_p50_p90_p99": [p50, p90, p99],
        "wall_samples_s": walls,
        "raw_wall_samples_s": [r.raw_wall_s for r in reps],
        "probes": len(clock.probes),
        "probe_ms_p25_p50_p75": [q * 1000.0 for q in statistics.quantiles(clock.probes, n=4)],
        "untraced_wall_s": untraced.wall_s if untraced is not None else None,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"),
                     {"env": env, "layers": tracer.snapshot()})

    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
