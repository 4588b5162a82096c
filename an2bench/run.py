#!/usr/bin/env python3
"""Build an2bench, run one workload, and print the benchmark's result line.

Run from the root of an an2sim checkout:

    python3 an2bench/run.py --workload iq16_pim_cbr --seed 1 --seconds 45 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics of one untraced run. With `--trace 1` the measured time
is split between an untraced run and a traced run of the same seed; the
metrics are the per-layer metrics of the traced run plus the tracing
overhead, and the two runs' simulated statistics must be identical.

Repeat mode runs workloads N times each, interleaved, with seeds
seed..seed+N-1, and prints the median and quartiles of every end-to-end
metric:

    python3 an2bench/run.py --repeat 10 --workload all --seconds 45

The program is built from the checkout's sources into .bench_build/an2bench
with CMake (Release); the first run builds it.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "an2bench")
BINARY = os.path.join(BUILD_DIR, "an2bench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")

WORKLOADS = ["iq1024_islip_warm", "iq16_pim_cbr", "lan_k16_par2", "lan_k8_serial"]

END_TO_END = [
    ("sim_slots_per_s", "slots/s"),
    ("cells_per_s", "cells/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_delay_mean_slots", "slots"),
    ("sim_delay_p99_slots", "slots"),
    ("sim_delivered_ratio", "ratio"),
]

# Every per-layer metric; a workload that does not exercise a layer
# reports its metrics as 0.
PER_LAYER = [
    ("queueing.accept_ns_per_cell", "ns"),
    ("queueing.buffered_cells_mean", "cells"),
    ("sim.slot_self_ns_per_slot", "ns"),
    ("sim.traffic_ns_per_slot", "ns"),
    ("sim.metrics_ns_per_slot", "ns"),
    ("matching.match_ns_per_slot", "ns"),
    ("matching.pairs_per_slot", "pairs"),
    ("matching.fill_ratio", "ratio"),
    ("cbr.accept_ns_per_slot", "ns"),
    ("cbr.cells_per_slot", "cells"),
    ("cbr.reservation_use_ratio", "ratio"),
    ("mem.rss_after_setup_mb", "MiB"),
    ("mem.rss_growth_mb", "MiB"),
    ("topo.build_s", "s"),
    ("topo.lan_construct_s", "s"),
    ("topo.place_s", "s"),
    ("topo.stats_ms_per_frame", "ms"),
    ("network.frame_ms_p50", "ms"),
    ("network.frame_ms_p90", "ms"),
    ("network.ns_per_switch_forward", "ns"),
    ("network.windows_per_frame", "count"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

MIN_COVERAGE = 0.95
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that leaves no result to report."""


def build():
    """Configure (once) and build the an2bench program; returns its build type."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no an2sim sources at %s; run from a full checkout"
                         % os.path.join(ROOT, "src"))
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, env=env, timeout=850)
        if proc.returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type not in OPTIMIZED_BUILD_TYPES:
        raise BenchError("refusing to report numbers from a %r build"
                         % (build_type or "unoptimised"))
    return build_type


def run_child(workload, seed, seconds, trace):
    """Run the program once; returns its parsed JSON report."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            TRACE_DIR, "%s-seed%d.tsv" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("%s exited with code %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed no report" % workload)
    return json.loads(lines[-1])


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over every file under src/, in path order."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance(args, build_type, child):
    prov = dict(child.get("provenance", {}))
    prov.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cmake_build_type": build_type,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    })
    return prov


def check_failures(child):
    return list(child["checks"]["failures"])


def single_run(args, build_type):
    if args.workload not in WORKLOADS:
        raise BenchError("unknown workload %r (one of %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    if args.trace:
        half = args.seconds / 2.0
        plain = run_child(args.workload, args.seed, half, False)
        traced = run_child(args.workload, args.seed, half, True)
        children = [plain, traced]
        failures = check_failures(plain) + check_failures(traced)
        attempted = sum(c["checks"]["attempted"] for c in children) + 2
        if traced["simulated"] != plain["simulated"]:
            failures.append("traced and untraced runs simulated differently")
        coverage = traced["per_layer"].get(
            "trace.coverage_ratio", {"value": 0.0})["value"]
        if coverage < MIN_COVERAGE:
            failures.append("layer self times cover %.3f of the traced time"
                            % coverage)
        layer = dict(traced["per_layer"])
        layer["trace.overhead_ratio"] = {
            "value": plain["end_to_end"]["sim_slots_per_s"]["value"] /
            traced["end_to_end"]["sim_slots_per_s"]["value"],
            "unit": "ratio"}
        metrics = {name: layer.get(name, {"value": 0.0, "unit": unit})
                   for name, unit in PER_LAYER}
        details = {"untraced": plain["info"], "traced": traced["info"],
                   "simulated": traced["simulated"]}
    else:
        child = run_child(args.workload, args.seed, args.seconds, False)
        children = [child]
        failures = check_failures(child)
        attempted = child["checks"]["attempted"]
        metrics = {name: child["end_to_end"][name] for name, _ in END_TO_END}
        details = {"info": child["info"], "simulated": child["simulated"]}

    print("provenance: " + json.dumps(provenance(args, build_type, children[-1])))
    print("details: " + json.dumps(details))
    for f in failures:
        print("check failed: " + f)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def repeat_runs(args):
    names = WORKLOADS if args.workload == "all" else args.workload.split(",")
    for w in names:
        if w not in WORKLOADS:
            raise BenchError("unknown workload %r" % w)
    values = {w: {m: [] for m, _ in END_TO_END} for w in names}
    failed = 0
    for rep in range(args.repeat):
        for w in names:  # interleaved, so slow phases of the host hit all
            child = run_child(w, args.seed + rep, args.seconds, False)
            failed += len(check_failures(child))
            for m, _ in END_TO_END:
                values[w][m].append(child["end_to_end"][m]["value"])
            print("%s seed %d: %s" % (w, args.seed + rep, json.dumps(
                {m: child["end_to_end"][m]["value"] for m, _ in END_TO_END})),
                file=sys.stderr)
    print("%-20s %-22s %14s %14s %14s %8s" % (
        "workload", "metric", "median", "q1", "q3", "iqr/med"))
    for w in names:
        for m, unit in END_TO_END:
            v = values[w][m]
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            print("%-20s %-22s %14.6g %14.6g %14.6g %8.4f" % (
                w, "%s (%s)" % (m, unit), med, q1, q3, spread))
    print("check failures: %d" % failed)
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s; repeat mode also takes a comma "
                        "list or 'all'" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times (seeds "
                        "seed..seed+N-1) and print quartiles")
    args = parser.parse_args()
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    try:
        build_type = build()
        if args.repeat > 0:
            return repeat_runs(args)
        single_run(args, build_type)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
