#!/usr/bin/env python3
"""Serving benchmark for the Liger simulator.

Builds the simulator and the benchmark runner from source, runs one
workload for about --seconds seconds of host time, checks the outputs
and prints one line per metric, then one JSON result object as the last
line of standard output.

    python3 liger_bench/run.py --workload oneshot_liger --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics from untraced runs; --trace 1
reports the per-layer metrics from one traced run plus the untraced runs
it is compared with. See README.md for the metrics and workloads.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "liger_bench_runner")
WORKLOAD_DIR = os.path.join(HERE, "workloads")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# Set-up is memoized per process, so each set-up sample is a process of
# its own. These processes only set up; they take milliseconds each, and
# are spread in groups over the run so the median spans its host time.
SETUP_ONLY_PROCESSES = 80
# Untraced timing is spread over a few processes so no single process
# layout decides the result.
TIMED_PROCESSES = 3
# A traced run costs several untraced runs (record forwarding plus JSON
# export); with --trace 1 a third of the budget goes to untraced runs.
TRACED_TIMED_SHARE = 1 / 3
PROCESS_TIMEOUT_S = 150
# Simulation host times are scaled to a host on which the runner's
# reference loop, timed before and after each simulation, takes this
# long. On a shared VM the host's speed can wander by up to 2x over
# minutes; the scaling removes the part of that the reference loop sees.
REF_NOMINAL_S = 0.05

CHECKS = ("accounting", "repeat", "traced", "failover")
# Forced violations for the self-test: one per check, plus a record-count
# mismatch between two counting or traced runs, which `traced` catches.
FORCED = CHECKS + ("traced_counts",)

# End-to-end metrics read straight from a simulation's observations.
E2E_SIM = ("sim_throughput_rps", "sim_goodput_rps", "sim_latency_p50_ms", "sim_ttft_avg_ms")


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to the benchmark")
    if not shutil.which("cmake"):
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)


def workload_names():
    return sorted(f[:-5] for f in os.listdir(WORKLOAD_DIR) if f.endswith(".json"))


def load_workload(name, requests):
    """Returns (config path, parsed document). With `requests` set, writes a
    shrunken copy with its fault times scaled to the shorter run."""
    path = os.path.join(WORKLOAD_DIR, name + ".json")
    if not os.path.isfile(path):
        raise BenchError(f"unknown workload {name!r}; known: {', '.join(workload_names())}")
    with open(path) as f:
        doc = json.load(f)
    if not requests:
        return path, doc
    scale = requests / doc["workload"]["requests"]
    doc["workload"]["requests"] = requests
    for event in doc.get("faults", {}).get("plan", []):
        event["t_ms"] = event["t_ms"] * scale
    os.makedirs(os.path.join(BUILD, "workloads"), exist_ok=True)
    small = os.path.join(BUILD, "workloads", f"{name}-r{requests}.json")
    with open(small, "w") as f:
        json.dump(doc, f)
    return small, doc


def run_process(config, seed, budget_s, *extra):
    cmd = [RUNNER, "--config", config, "--seed", str(seed), "--budget_s", repr(budget_s), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"runner failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def expects_failover(doc):
    return any(e.get("kind") == "fail_stop" for e in doc.get("faults", {}).get("plan", []))


def check(runs, reference_runs, doc, force):
    """Returns the list of failed checks. `runs` are the timed runs,
    `reference_runs` the counted or traced runs that must reproduce them
    and agree with each other on their record counts."""
    timed = [r["obs"] for r in runs]
    others = [r["obs"] for r in reference_runs]
    counts = [dict(r["records"]) for r in reference_runs]
    if force == "accounting":
        timed[0]["completed"] -= 1
    elif force == "repeat":
        timed[-1]["sim_latency_p50_ms"] = math.nextafter(timed[-1]["sim_latency_p50_ms"], math.inf)
    elif force == "traced":
        others[0]["sim_latency_p50_ms"] = math.nextafter(others[0]["sim_latency_p50_ms"], math.inf)
    elif force == "traced_counts":
        counts[-1]["gpu.compute_kernels"] += 1
    elif force == "failover":
        timed[0]["fault.failovers"] = 0

    failed = []
    if any(o["completed"] + o["shed"] != o["arrivals"] for o in timed + others):
        failed.append("accounting: completed + shed != arrivals")
    if any(o != timed[0] for o in timed[1:]):
        failed.append("repeat: timed runs of one seed disagree")
    if any(o != timed[0] for o in others):
        failed.append("traced: traced or counted run differs from the timed runs")
    if any(c != counts[0] for c in counts[1:]):
        failed.append("traced: record counts differ between the counting and traced runs")
    if (expects_failover(doc) or force == "failover") and any(
            o["fault.failovers"] < 1 or o["fault.completions_after_recovery"] < 1
            for o in timed + others):
        failed.append("failover: no failover, or no completion after recovery")
    return failed


def tail(obs):
    """p99 when at least 1000 requests completed, else p95, so at least
    ten samples lie beyond the percentile reported."""
    if obs["completed"] >= 1000:
        return obs["sim_latency_p99_ms"], "p99"
    return obs["sim_latency_p95_ms"], "p95"


def scaled_wall(run):
    return run["wall_s"] / run["ref_s"] * REF_NOMINAL_S


def host_time(runs):
    """Lower quartile of the runs' scaled host times. What the scaling
    leaves of a slow phase only ever adds time, so the fast quarter of a
    run reads the simulator's own cost best; a quartile, not the minimum,
    so no single lucky run decides it."""
    return quartiles([scaled_wall(r) for r in runs])[0]


def end_to_end(setups, procs):
    runs = [r for p in procs for r in p["runs"]]
    walls = [scaled_wall(r) for r in runs]
    records = procs[0]["count"]["records"]["records"]
    obs = runs[0]["obs"]
    tail_value, tail_name = tail(obs)
    timings = {
        "wall_s": walls,
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in procs],
    }
    metrics = {name: statistics.median(v) for name, v in timings.items()}
    metrics["wall_s"] = host_time(runs)
    metrics["kernels_per_s"] = records / metrics["wall_s"]
    for name in E2E_SIM:
        metrics[name] = obs[name]
    metrics["sim_latency_tail_ms"] = tail_value
    notes = {}
    for name, values in timings.items():
        q1, q3 = quartiles(values)
        notes[name] = "median %.6g q1 %.6g q3 %.6g n=%d" % (statistics.median(values), q1, q3,
                                                              len(values))
    notes["sim_latency_tail_ms"] = f"{tail_name} of {int(obs['completed'])} completions"
    # Unscaled host times, for reading the scaling.
    extra = {"host_wall_s": statistics.median(r["wall_s"] for r in runs),
             "ref_s": statistics.median(r["ref_s"] for r in runs),
             "failed_frac": obs["lost"] / obs["arrivals"]}
    if obs["sim_tpot_avg_ms"] > 0:  # generative workloads only
        extra["sim_tpot_avg_ms"] = obs["sim_tpot_avg_ms"]
    return metrics, notes, extra


def per_layer(setups, proc):
    runs = proc["runs"]
    traced = proc["traced"]
    obs = traced["obs"]
    recs = traced["records"]
    wall = statistics.median(r["wall_s"] for r in runs)
    metrics = {
        "config.load_s": statistics.median(s["config_load_s"] for s in setups),
        "profile.contention_s": statistics.median(s["contention_s"] for s in setups),
        "profile.contention_factor": proc["setup"]["contention_factor"],
        "sim.host_ns_per_kernel": host_time(runs) / recs["records"] * 1e9,
        "sim.barrier_wait_frac": statistics.median(
            r["barrier_wait_ms"] / 1e3 / (r["wall_s"] * proc["engine_threads"]) for r in runs),
        "trace.records": recs["records"],
        "trace.sink_s": traced["sink_s"],
        "trace.write_s": traced["write_s"],
        "trace.bytes_mb": traced["bytes_mb"],
        "trace.overhead_frac": traced["wall_s"] / wall - 1.0,
        "core.comm_hidden_frac": traced["comm_hidden_frac"],
    }
    for name in ("gpu.compute_kernels", "collective.comm_kernels", "interconnect.fabric_transfers",
                 "interconnect.fabric_gb"):
        metrics[name] = recs[name]
    for name, value in obs.items():
        if "." in name:
            metrics[name] = value
    notes = {"sim.host_ns_per_kernel": "from %d untraced runs, scaled like wall_s" % len(runs)}
    return metrics, notes


def declared_metrics():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: shrink the workload, and force one correctness
    # check to fail.
    parser.add_argument("--requests", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--force-fail", choices=FORCED, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    e2e_spec, layer_spec = declared_metrics()
    build()
    config, doc = load_workload(args.workload, args.requests)
    seed = args.seed % (1 << 31)

    def sample_setups(n):
        return [run_process(config, seed, 0, "--setup_only")["setup"] for _ in range(n)]

    if args.trace == 0:
        # The first and last processes also make a counting run, so two
        # processes must agree on the record counts; each process shares
        # what is left of the budget.
        group = SETUP_ONLY_PROCESSES // (TIMED_PROCESSES + 1)
        setups = sample_setups(SETUP_ONLY_PROCESSES - TIMED_PROCESSES * group)
        deadline = time.monotonic() + args.seconds
        procs = []
        for i in range(TIMED_PROCESSES):
            budget = max(0.0, deadline - time.monotonic()) / (TIMED_PROCESSES - i)
            counted = i in (0, TIMED_PROCESSES - 1)
            procs.append(run_process(config, seed, budget, *(["--count"] if counted else [])))
            setups += sample_setups(group)
        setups += [p["setup"] for p in procs]
        runs = [r for p in procs for r in p["runs"]]
        failed_checks = check(runs, [p["count"] for p in procs if "count" in p], doc,
                              args.force_fail)
        metrics, notes, extra = end_to_end([s["setup_s"] for s in setups], procs)
        spec = e2e_spec
    else:
        setups = sample_setups(SETUP_ONLY_PROCESSES)
        spans = os.path.join(BUILD, "spans", f"{args.workload}-seed{seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        proc = run_process(config, seed, args.seconds * TRACED_TIMED_SHARE, "--min_runs", "2",
                           "--count", "--traced", "--spans_out", spans)
        runs = proc["runs"]
        setups.append(proc["setup"])
        failed_checks = check(runs, [proc["count"], proc["traced"]], doc, args.force_fail)
        metrics, notes = per_layer(setups, proc)
        notes["trace.records"] = f"spans in {os.path.relpath(spans, ROOT)}"
        extra = {}
        spec = layer_spec
        procs = [proc]

    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise BenchError("metrics not produced: " + ", ".join(missing))
    for m in spec:
        note = notes.get(m["name"], "")
        print(f"{args.workload} {m['name']} {metrics[m['name']]!r} {m['unit']} {note}".rstrip())
    for name, value in extra.items():
        print(f"{args.workload} {name} {value!r}")
    for failure in failed_checks:
        print(f"{args.workload} CHECK FAILED {failure}")

    sims = [r for p in procs for r in p["runs"]] + [
        p[k] for p in procs for k in ("count", "traced") if p.get(k)]
    attempted = int(sum(s["obs"]["arrivals"] for s in sims))
    lost = int(sum(s["obs"]["lost"] for s in sims))
    correct = not failed_checks
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": lost if correct else attempted,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        print(f"liger_bench: {e}", file=sys.stderr)
        sys.exit(1)
