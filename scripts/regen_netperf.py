#!/usr/bin/env python3
"""Regenerate the committed BENCH_netperf.json LAN engine-speed record.

Usage:
    scripts/regen_netperf.py --before-bin PATH --after-bin PATH \
        [--out BENCH_netperf.json]

Runs two bench_network_scale binaries (one built from the commit *before*
the change being documented, one from *after*) over the full netscale
sweep on three engine shapes: the serial loop, and the sharded engine at
2 and 4 threads. (`--engine parallel --threads 1` is promoted to 2
threads, so the one-thread row is the serial engine.) Each shape runs
five times per binary, the two binaries interleaved run by run with the
first alternating, so a host that slows or speeds up during the script
weighs on both sides alike. Each row records:

  sweep_s        median wall seconds of the sweep, taken from the
                 "N runs in X s on T engine thread(s)" line that
                 bench_network_scale prints to stderr: it times
                 runNetSweep alone, without process start-up
  cells_per_s    simulated cells delivered (the sum of every cell's
                 `delivered` in the document) per median sweep second

Every run's an2.netsweep.v1 document must be byte-identical to the
committed BENCH_netscale.json, or the script fails and writes nothing:
the engine is a wall-clock choice, never a results choice, and no timing
enters the netsweep document. Seconds are wall-clock and
machine-dependent; compare ratios, not absolutes.
"""

import argparse
import filecmp
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ENGINES = [
    ("serial", ["--engine", "serial"]),
    ("parallel-2", ["--engine", "parallel", "--threads", "2"]),
    ("parallel-4", ["--engine", "parallel", "--threads", "4"]),
]

RUNS = 5  # per binary and engine shape

BASELINE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_netscale.json")

TIMING = re.compile(
    r"(\d+) runs in ([0-9.]+) s on (\d+) engine thread\(s\)")


class NetperfError(Exception):
    """A run that cannot be recorded."""


def delivered_cells(path):
    with open(path) as f:
        doc = json.load(f)
    return sum(cell["delivered"] for cell in doc["cells"])


def run_once(binary, flags):
    """One full netscale sweep; returns (seconds, threads, delivered)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "netscale.json")
        proc = subprocess.run([binary, *flags, "--json", out],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise NetperfError("%s %s exited with code %d:\n%s" % (
                binary, " ".join(flags), proc.returncode, proc.stderr))
        match = TIMING.search(proc.stderr)
        if match is None:
            raise NetperfError("%s %s printed no timing line" % (
                binary, " ".join(flags)))
        if not filecmp.cmp(out, BASELINE, shallow=False):
            raise NetperfError("%s %s: document differs from %s" % (
                binary, " ".join(flags), BASELINE))
        delivered = delivered_cells(out)
    return float(match.group(2)), int(match.group(3)), delivered


def row(name, runs):
    seconds = [s for s, _, _ in runs]
    _, threads, delivered = runs[-1]
    median = statistics.median(seconds)
    return {
        "engine": name,
        "engine_threads": threads,
        "runs": len(runs),
        "sweep_s": {"median": round(median, 3),
                    "min": min(seconds), "max": max(seconds)},
        "delivered_cells": delivered,
        "cells_per_s": round(delivered / median),
    }


def measure(before_bin, after_bin):
    """Rows for both binaries; runs interleave, alternating the first."""
    sides = [("before", before_bin), ("after", after_bin)]
    rows = {"before": [], "after": []}
    for name, flags in ENGINES:
        runs = {"before": [], "after": []}
        for rep in range(RUNS):
            for side, binary in (sides if rep % 2 == 0 else sides[::-1]):
                result = run_once(binary, flags)
                runs[side].append(result)
                print("  %-6s %-10s run %d: %.2f s on %d thread(s)" % (
                    side, name, rep + 1, result[0], result[1]), flush=True)
        for side in rows:
            rows[side].append(row(name, runs[side]))
    return rows["before"], rows["after"]


def speedups(before, after):
    ref = {r["engine"]: r["sweep_s"]["median"] for r in before}
    return {r["engine"]: round(ref[r["engine"]] / r["sweep_s"]["median"], 2)
            for r in after}


def main():
    parser = argparse.ArgumentParser(
        description="Regenerate BENCH_netperf.json from two "
                    "bench_network_scale binaries.")
    parser.add_argument("--before-bin", required=True,
                        help="bench_network_scale built before the change")
    parser.add_argument("--after-bin", required=True,
                        help="bench_network_scale built after the change")
    parser.add_argument("--out", default="BENCH_netperf.json")
    args = parser.parse_args()

    try:
        before, after = measure(args.before_bin, args.after_bin)
    except NetperfError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1

    doc = {
        "meta": {
            "schema": "an2.bench_netperf.v1",
            "description": (
                "LAN engine speed on the full netscale sweep (fat-tree "
                "k=16, 320 switches, 2048 hosts, loads 0.05 and 0.1, 10 "
                "frames): median sweep wall seconds and simulated cells "
                "delivered per sweep second, serial vs sharded engine, "
                "before and after the change. Every run reproduced the "
                "baseline document byte for byte. Wall-clock rates; "
                "machine-dependent -- compare ratios, not absolutes."),
            "produced_by": "scripts/regen_netperf.py",
            "baseline": os.path.basename(BASELINE),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "before": before,
        "after": after,
        "speedup": speedups(before, after),
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print("wrote %s" % args.out)
    for name, ratio in doc["speedup"].items():
        print("  %-10s %6.2fx" % (name, ratio))
    return 0


if __name__ == "__main__":
    sys.exit(main())
