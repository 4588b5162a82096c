#!/usr/bin/env python3
"""Regenerate the committed BENCH_hotpath.json before/after document.

Usage:
    scripts/regen_hotpath.py --before-bin PATH --after-bin PATH \
        [--out BENCH_hotpath.json]

Runs both bench_slot_loop binaries (one built from the commit *before*
the change being documented, one from *after*) over a fixed
size x load grid and assembles the an2.bench_hotpath.v1 document:

  before[]  cells from the before binary
  after[]   cells from the after binary
  speedup{} after/before mean slots/sec per (arch, size, load); a row
            whose arch exists only in the after binary (e.g. the
            "+warm" variants) is compared against its base arch with
            the +suffixes stripped, so "iSLIP(4)+warm 1024x1024@0.9"
            reads as warm-vs-seed on the same workload.

Large sizes get a reduced slot budget: the point of the 1024-port rows
is the cache-resident-vs-not regime change, not tight CIs. Rates are
wall-clock and machine-dependent by design; compare ratios.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# (size, load, slots, warmup, reps, arch substring filters; None = all)
GRID = [
    (16, 0.9, 200_000, 20_000, 3, [None]),
    (64, 0.9, 50_000, 5_000, 2, [None]),
    (256, 0.9, 20_000, 2_000, 2, [None]),
    (1024, 0.5, 20_000, 5_000, 1, ["iSLIP"]),
    (1024, 0.9, 20_000, 5_000, 1, ["iSLIP", "Greedy"]),
    (1024, 0.99, 20_000, 5_000, 1, ["iSLIP"]),
]


def run_grid(binary):
    cells = []
    for size, load, slots, warmup, reps, filters in GRID:
        for arch in filters:
            cmd = [binary, "--size", str(size), "--load", str(load),
                   "--slots", str(slots), "--warmup", str(warmup),
                   "--reps", str(reps)]
            if arch:
                cmd += ["--arch", arch]
            with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
                cmd += ["--json", tmp.name]
                print(f"  {os.path.basename(binary)}: "
                      f"{size}x{size}@{load:g}"
                      f"{' arch=' + arch if arch else ''}", flush=True)
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
                with open(tmp.name) as f:
                    doc = json.load(f)
            for c in doc["cells"]:
                key = (c["arch"], c["size"], c["load"])
                if key not in {(x["arch"], x["size"], x["load"])
                               for x in cells}:
                    cells.append(c)
    return cells


def base_arch(arch):
    return arch.split("+")[0]


def speedups(before, after):
    bmap = {(c["arch"], c["size"], c["load"]):
            c["slots_per_sec"]["mean"] for c in before}
    out = {}
    for c in after:
        key = (c["arch"], c["size"], c["load"])
        ref = bmap.get(key)
        if ref is None:
            ref = bmap.get((base_arch(c["arch"]), c["size"], c["load"]))
        if ref is None:
            continue
        label = f"{c['arch']} {c['size']}x{c['size']}@{c['load']:g}"
        out[label] = round(c["slots_per_sec"]["mean"] / ref, 2)
    return out


def main():
    parser = argparse.ArgumentParser(
        description="Regenerate BENCH_hotpath.json from two "
                    "bench_slot_loop binaries.")
    parser.add_argument("--before-bin", required=True,
                        help="bench_slot_loop built before the change")
    parser.add_argument("--after-bin", required=True,
                        help="bench_slot_loop built after the change")
    parser.add_argument("--out", default="BENCH_hotpath.json")
    args = parser.parse_args()

    print("before rows:")
    before = run_grid(args.before_bin)
    print("after rows:")
    after = run_grid(args.after_bin)

    doc = {
        "meta": {
            "schema": "an2.bench_hotpath.v1",
            "description": (
                "Committed hot-path baseline: whole-switch slots/sec on "
                "the uniform Bernoulli workload over a size x load grid, "
                "before and after the warm-start incremental matching + "
                "batched slot driver work. Warm rows are compared "
                "against the cold base architecture on the same "
                "workload. Wall-clock rates; machine-dependent -- "
                "compare ratios, not absolutes."),
            "produced_by": "scripts/regen_hotpath.py",
            "workload": {
                "schema": "an2.sweep.v1",
                "experiment": "slot_loop",
                "workload": "uniform",
                "grid": [
                    {"size": size, "load": load, "slots": slots,
                     "warmup": warmup, "replicates": reps}
                    for size, load, slots, warmup, reps, _ in GRID
                ],
                "base_seed": "2026",
            },
        },
        "before": before,
        "after": after,
        "speedup": speedups(before, after),
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}: {len(before)} before cells, "
          f"{len(after)} after cells")
    for label, ratio in doc["speedup"].items():
        print(f"  {label:40s} {ratio:5.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
