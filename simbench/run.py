#!/usr/bin/env python3
"""Simulator benchmark: one workload, untraced or traced.

    python3 simbench/run.py --workload cluster-ppbft --seed 1 --seconds 50 --trace 0

Builds the simulator from source (Release, into .bench_build/simbench),
runs the workload's scenarios for about --seconds of wall time, checks
the outputs and prints every metric with its unit. The last line of
standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": M, "metrics": {...}}

--trace 0 reports the end-to-end metrics (host CPU time of the simulator);
--trace 1 runs the same seeds untraced and traced and reports the
per-layer metrics. `--workload all` runs every workload in turn and
prints one JSON line each. The exit code is non-zero when an output
check fails. See README.md for the workloads, metrics and checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "simbench")

# Seeds per round. Every --seed expands to this many consecutive
# scenario seeds, so host-time metrics average over several topologies
# and one seed's luck does not decide the run.
SEEDS_PER_ROUND = {
    "cluster-ppbft": 2,
    "distribution-mz3": 3,
    "propagation-mz12": 10,
}

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "runtime.events": "count",
    "runtime.self_s": "s",
    "runtime.timer_s": "s",
    "runtime.timers": "count",
    "runtime.messages": "count",
    "runtime.wire_mb": "MB",
    "crypto.sha256_s": "s",
    "crypto.hashes": "count",
    "crypto.hashes_per_tx": "ratio",
    "crypto.verify_s": "s",
    "crypto.verifies": "count",
    "crypto.merkle_s": "s",
    "erasure.encode_s": "s",
    "erasure.encodes": "count",
    "erasure.decode_s": "s",
    "erasure.decodes": "count",
    "erasure.verify_s": "s",
    "bundle.mempool_s": "s",
    "bundle.mempool_adds": "count",
    "bundle.block_s": "s",
    "core.ledger_s": "s",
    "consensus.handler_s": "s",
    "consensus.messages": "count",
    "multizone.handler_s": "s",
    "multizone.stripe_msgs": "count",
    "multizone.subscribes": "count",
    "multizone.subscribe_accept_ratio": "ratio",
    "txpool.client_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# Layer self times; with runtime.self_s and trace.unattributed_s they
# must add up to the traced run_until time.
SELF_TIMES = [
    "runtime.self_s", "consensus.handler_s", "multizone.handler_s",
    "txpool.client_s", "crypto.sha256_s", "crypto.verify_s",
    "crypto.merkle_s", "erasure.encode_s", "erasure.decode_s",
    "erasure.verify_s", "bundle.mempool_s", "bundle.block_s",
    "core.ledger_s", "trace.unattributed_s",
]

# Summed over a round's scenarios as reported by the traced binary.
SUMMED_LAYERS = [k for k in PER_LAYER_UNITS if k not in (
    "runtime.events", "runtime.messages", "runtime.wire_mb",
    "crypto.hashes_per_tx", "multizone.subscribe_accept_ratio",
    "trace.overhead_s")] + ["multizone.accepts"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build both binaries (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"simbench: no simulator sources under {ROOT}/src")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "simbench", "simbench_traced"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True,
                             timeout=850)
        if res.returncode != 0:
            log(res.stdout)
            log(f"simbench: build step failed: {' '.join(cmd)}")
            sys.exit(2)


def run_binary(name, workload, seeds, seconds):
    """Runs one binary; returns (scenario records, peak RSS in KB)."""
    cmd = [os.path.join(BUILD_DIR, name), "--workload", workload,
           "--seeds", ",".join(str(s) for s in seeds),
           "--seconds", f"{seconds:.3f}"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=170)
    if res.returncode != 0:
        log(f"simbench: {' '.join(cmd)} exited with {res.returncode}")
        sys.exit(3)
    records, peak_kb = [], None
    for line in res.stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "round" in obj:
            records.append(obj)
        elif "peak_rss_kb" in obj:
            peak_kb = obj["peak_rss_kb"]
    if not records or peak_kb is None:
        log(f"simbench: {name} printed no result")
        sys.exit(3)
    return records, peak_kb


def by_round(records):
    rounds = {}
    for r in records:
        rounds.setdefault(r["round"], []).append(r)
    return [rounds[k] for k in sorted(rounds)]


def model_of(record):
    return (record["model"], record["model_text"], record["attempted"],
            record["failed"])


class Checker:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)

    def records(self, records, label):
        """Output checks of every scenario, and one seed's model outputs
        identical in every round."""
        first = {}
        for r in records:
            for name, ok in r["checks"].items():
                self.expect(ok, f"{label} seed {r['seed']}: {name}")
            key = r["seed"]
            if key in first:
                self.expect(model_of(r) == model_of(first[key]),
                            f"{label} seed {key}: model outputs differ "
                            f"between rounds")
            else:
                first[key] = r
        return first


def host_metrics(records, peak_kb):
    cpus, setups, rates = [], [], []
    for rnd in by_round(records):
        cpus.append(sum(r["cpu_s"] for r in rnd))
        setups.append(sum(r["setup_s"] for r in rnd))
        rates.append(sum(r["events"] for r in rnd) /
                     sum(r["run_s"] for r in rnd))
    return {
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median(rates),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def layer_metrics(traced, plain_cpu, check):
    """Per-layer metrics: sums over one round, median over rounds."""
    rounds = by_round(traced)
    per_round = []
    for rnd in rounds:
        m = {k: sum(r["layers"][k] for r in rnd) for k in SUMMED_LAYERS}
        run_until = sum(r["layers"]["trace.run_until_s"] for r in rnd)
        accounted = sum(m[k] for k in SELF_TIMES)
        check.expect(abs(accounted - run_until) <= 1e-6 * run_until + 1e-9,
                     f"layer self times {accounted:.6f} s do not add up to "
                     f"run_until {run_until:.6f} s")
        m["trace.cpu_s"] = sum(r["cpu_s"] for r in rnd)
        m["trace.run_until_s"] = run_until
        per_round.append(m)
    out = {k: statistics.median(m[k] for m in per_round)
           for k in per_round[0]}
    first = rounds[0]
    out["runtime.events"] = float(sum(r["events"] for r in first))
    out["runtime.messages"] = sum(r["model"]["messages"] for r in first)
    out["runtime.wire_mb"] = sum(r["model"]["wire_mb"] for r in first)
    offered = sum(r["model"]["offered_txs"] for r in first)
    out["crypto.hashes_per_tx"] = out["crypto.hashes"] / offered
    subs = out["multizone.subscribes"]
    out["multizone.subscribe_accept_ratio"] = (
        out.pop("multizone.accepts") / subs if subs else 0.0)
    out["trace.overhead_s"] = out.pop("trace.cpu_s") - plain_cpu
    return out


def run_workload(workload, seed, seconds, trace):
    k = SEEDS_PER_ROUND[workload]
    seeds = [seed * k + i for i in range(k)]
    check = Checker()
    print(f"workload {workload} seeds {seeds} trace {trace}")
    if trace:
        plain, _ = run_binary("simbench", workload, seeds, seconds / 2)
        traced, _ = run_binary("simbench_traced", workload, seeds,
                               seconds / 2)
        plain_first = check.records(plain, "untraced")
        traced_first = check.records(traced, "traced")
        for s in seeds:
            check.expect(model_of(plain_first[s]) == model_of(traced_first[s]),
                         f"seed {s}: traced and untraced model outputs differ")
        plain_cpu = host_metrics(plain, 0)["cpu_s"]
        metrics = layer_metrics(traced, plain_cpu, check)
        units = PER_LAYER_UNITS
        records = plain + traced
        run_until = metrics.pop("trace.run_until_s")
        print(f"unattributed share "
              f"{metrics['trace.unattributed_s'] / run_until:.4%}"
              f" of traced run_until {run_until:.3f} s")
    else:
        records, peak_kb = run_binary("simbench", workload, seeds, seconds)
        first = check.records(records, "untraced")
        metrics = host_metrics(records, peak_kb)
        units = END_TO_END_UNITS
        for s in seeds:
            print("model seed", s, json.dumps(first[s]["model"]),
                  json.dumps(first[s]["model_text"]))
    for name in units:
        print(f"metric {name} {metrics[name]:.6g} {units[name]}")
    for failure in check.failures:
        print(f"CHECK FAILED: {failure}")
    result = {
        "correct": not check.failures,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return result["correct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(SEEDS_PER_ROUND) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    build()
    names = sorted(SEEDS_PER_ROUND) if args.workload == "all" \
        else [args.workload]
    ok = True
    for name in names:
        ok = run_workload(name, args.seed, args.seconds, args.trace) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
