#!/usr/bin/env python3
"""Build and run the cmtos benchmark.

    python3 perfbench/run.py --workload pump_64k|city_churn|vc10k
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a source tree.  The first call configures and builds
perfbench/ (which compiles the tree's src/) into $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild incrementally.  The benchmark's stdout is
passed through; its last line is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 1 reports the per-layer metrics and
writes the benchmark's spans (Chrome trace-event JSON) into the build
directory.  Exits non-zero, printing no result, when the build or the run
fails or the metrics do not match BENCHMARK.json.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pump_64k", "city_churn", "vc10k")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        configured = any(os.path.exists(os.path.join(build_dir, f))
                         for f in ("build.ninja", "Makefile"))
        if not configured:
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "cmtos_perfbench")


def source_meta():
    """Git sha when the tree is a checkout, and a digest of src/ always."""
    sha = "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this tree's own repository counts, not one that encloses it.
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns the problems with the benchmark's result line (empty if none)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"unexpected keys {sorted(result)}"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value is not a finite number")
    want = expected_metrics(trace)
    if want is not None:
        got = [(n, m.get("unit")) for n, m in result["metrics"].items()]
        if sorted(got) != sorted(want):
            problems.append(f"metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"unexpected {sorted(set(got) - set(want))}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="default: 97, 1 or 20260807 per workload")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short run with a reduced vc10k population (for the smoke test)")
    args = ap.parse_args()

    build_dir = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                             "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--trace-out", os.path.join(build_dir, f"spans-{args.workload}-{seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        log(f"benchmark exited with status {run.returncode}")
        return 4
    problems = check_result(lines[-1], args.trace)
    if problems:
        sys.stderr.write(run.stdout)
        for p in problems:
            log(p)
        return 5
    print("source: " + json.dumps(source_meta()))
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
