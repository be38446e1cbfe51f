#!/usr/bin/env python3
"""Self-test of the serving benchmark.

Runs every workload of BENCHMARK.json at a few requests, in both trace
modes, and checks that every declared metric is emitted as a number and
the run is judged correct. Then forces each correctness check to fail on
every workload and checks that the benchmark reports the failure and
exits non-zero.

    python3 liger_bench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUESTS = 40
# Forced violations, each with the check that must catch it.
FORCED = {"accounting": "accounting", "repeat": "repeat", "traced": "traced",
          "traced_counts": "traced", "failover": "failover"}


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "0.5", "--trace", str(trace), "--requests", str(REQUESTS), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, output = bench(name, trace)
            expect(code == 0 and result is not None and result["correct"],
                   f"{name} trace={trace} runs correct")
            if result is None:
                print(output)
                continue
            names = {m["name"] for m in declared}
            metrics = result["metrics"]
            expect(set(metrics) == names, f"{name} trace={trace} emits every declared metric")
            expect(all(isinstance(v["value"], (int, float)) for v in metrics.values()),
                   f"{name} trace={trace} metric values are numbers")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{name} trace={trace} attempted {result['attempted']}, failed 0")
        for forced, check in FORCED.items():
            for trace in ((0, 1) if check == "traced" else (0,)):
                code, result, output = bench(name, trace, "--force-fail", forced)
                expect(code != 0 and result is not None and not result["correct"]
                       and f"CHECK FAILED {check}" in output,
                       f"{name} trace={trace} forced {forced} violation is caught")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
