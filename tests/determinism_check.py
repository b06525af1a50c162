#!/usr/bin/env python3
"""Sharded-runtime determinism regression check (DESIGN.md section 10).

Runs every scenario `soak --list` names, at its default seed, once at
--threads 1 and REPEATS times each at --threads 2/4/8, and asserts that the
log (stdout+stderr) and the metric snapshot (--json) of every run are
byte-identical to the --threads 1 run.  --threads 1 is the determinism
oracle: the executor classifies and orders rounds identically at every
worker count, so any divergence here is a cross-shard ordering bug, not
noise.  The repeats matter on multi-core hosts, where a race may lose only
some of the time.

Usage: determinism_check.py <soak-binary>
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = [2, 4, 8]
REPEATS = 3


def run_one(soak, scenario, threads, json_path):
    cmd = [soak, "--scenario", scenario, "--threads", str(threads), "--json", str(json_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(
            f"FAIL: {' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}{proc.stderr}"
        )
    snap = json_path.read_bytes()
    json.loads(snap)  # the snapshot must at least be valid JSON
    return proc.stdout + proc.stderr, snap


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    soak = sys.argv[1]
    scenarios = subprocess.run(
        [soak, "--list"], capture_output=True, text=True, check=True
    ).stdout.split()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        snap_path = Path(tmp) / "snapshot.json"
        for scenario in scenarios:
            ref = run_one(soak, scenario, 1, snap_path)
            for t in THREADS:
                for _ in range(REPEATS):
                    log, snap = run_one(soak, scenario, t, snap_path)
                    if log != ref[0]:
                        print(f"FAIL: {scenario}: log differs at --threads {t}")
                        failures += 1
                    if snap != ref[1]:
                        print(f"FAIL: {scenario}: metric snapshot differs at --threads {t}")
                        failures += 1
            print(f"ok: {scenario}: byte-identical at threads 1 and {THREADS} x{REPEATS}",
                  flush=True)
    if failures:
        raise SystemExit(f"{failures} determinism failure(s)")
    print(f"determinism check passed ({len(scenarios)} scenarios)")


if __name__ == "__main__":
    main()
