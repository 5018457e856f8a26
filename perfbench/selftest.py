"""Fast self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload named in BENCHMARK.json it runs perfbench/run.py with
--tiny, untraced and traced, and checks the result line: exactly the keys
correct/attempted/failed/metrics, every check passed, and every metric that
BENCHMARK.json names emitted with its unit (end-to-end metrics nonzero).  It
also checks that a directory holding only BENCHMARK.json and the benchmark
makes the run fail without a result line.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def _run(workload, trace, cwd="."):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if declared[0] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if declared[1] != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = _run(workload, trace)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                problems.append(f"{tag}: checks failed: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                problems.append(f"{tag}: metrics differ; missing {missing}, extra {extra}")
            for name, m in result["metrics"].items():
                value = m["value"]
                if not isinstance(value, (int, float)) or (trace == 0 and value <= 0):
                    problems.append(f"{tag}: {name} = {value!r}")

    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = _run(bench["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
