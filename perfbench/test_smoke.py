#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_smoke.py

Runs every workload in smoke mode (short window, reduced vc10k population)
with --trace 0 and --trace 1 through perfbench/run.py, from the root of the
source tree, and checks that each run exits 0, that every metric named in
BENCHMARK.json prints with its unit and a finite value, that every check
ran and passed (attempted >= 1, failed == 0, correct), that end-to-end
metrics are non-zero, and that the traced run wrote its spans.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(
        os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))),
        "perfbench")
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            before = len(failures)
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--smoke", "--seconds", "1", "--trace", str(trace), "--seed", "7"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if run.returncode != 0:
                failures.append(f"{tag}: exit {run.returncode}\n{run.stderr[-2000:]}")
                continue
            result = json.loads(run.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{tag}: checks failed: {run.stdout[-2000:]}")
            want = spec["per_layer" if trace else "end_to_end"]
            for m in want:
                got = result["metrics"].get(m["name"])
                if got is None:
                    failures.append(f"{tag}: {m['name']} missing")
                elif got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    failures.append(f"{tag}: {m['name']} = {got}")
                elif not trace and got["value"] <= 0:
                    failures.append(f"{tag}: {m['name']} is {got['value']}, expected > 0")
            if len(result["metrics"]) != len(want):
                failures.append(f"{tag}: {len(result['metrics'])} metrics, expected {len(want)}")
            if trace and not os.path.exists(os.path.join(build_dir, f"spans-{workload}-7.json")):
                failures.append(f"{tag}: no span file written")
            print(f"{'ok  ' if len(failures) == before else 'FAIL'} {tag}", flush=True)
    for f in failures:
        print("FAIL:", f)
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
