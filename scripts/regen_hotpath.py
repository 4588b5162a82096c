#!/usr/bin/env python3
"""Regenerate the committed BENCH_hotpath.json before/after document.

Usage:
    scripts/regen_hotpath.py --before-bin PATH --after-bin PATH \
        --change TEXT [--out BENCH_hotpath.json]

Runs two bench_slot_loop binaries (one built from the commit *before*
the change being documented, one from *after*) over a fixed
size x load grid and assembles the an2.bench_hotpath.v1 document:

  before[]  cells from the before binary
  after[]   cells from the after binary
  speedup{} after/before mean slots/sec per (arch, size, load); a row
            whose arch exists only in the after binary (e.g. the
            "+warm" variants) is compared against its base arch with
            the +suffixes stripped, so "iSLIP(4)+warm 1024x1024@0.9"
            reads as warm-vs-seed on the same workload.

`--change` names the change the document records; it lands in
meta.change. Each grid row runs on both binaries in turn, the first
alternating row by row, so a host that slows or speeds up during the
script weighs on both sides alike. A cell both binaries report must
have delivered the same number of cells on both, or the script fails
and writes nothing: a speed change that moves the simulation is not a
speed change.

Large sizes get a reduced slot budget: the point of the 1024-port rows
is the cache-resident-vs-not regime change, not tight CIs. Rates are
wall-clock and machine-dependent by design; compare ratios.
"""

import argparse
import json
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


class HotpathError(Exception):
    """A run that cannot be recorded."""


def run_row(binary, size, load, slots, warmup, reps, arch):
    """One grid row on one binary; returns its cells."""
    cmd = [binary, "--size", str(size), "--load", str(load),
           "--slots", str(slots), "--warmup", str(warmup),
           "--reps", str(reps)]
    if arch:
        cmd += ["--arch", arch]
    with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
        cmd += ["--json", tmp.name]
        print(f"  {binary}: {size}x{size}@{load:g}"
              f"{' arch=' + arch if arch else ''}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise HotpathError(f"{' '.join(cmd)} exited with code "
                               f"{proc.returncode}")
        with open(tmp.name) as f:
            return json.load(f)["cells"]


def key(cell):
    return (cell["arch"], cell["size"], cell["load"])


def measure(before_bin, after_bin):
    """Cells for both binaries; rows interleave, alternating the first."""
    sides = [("before", before_bin), ("after", after_bin)]
    cells = {"before": [], "after": []}
    row = 0
    for size, load, slots, warmup, reps, filters in GRID:
        for arch in filters:
            got = {}
            for side, binary in (sides if row % 2 == 0 else sides[::-1]):
                got[side] = run_row(binary, size, load, slots, warmup,
                                    reps, arch)
            row += 1
            delivered = {key(c): c["delivered"] for c in got["before"]}
            for c in got["after"]:
                if key(c) in delivered and \
                        delivered[key(c)] != c["delivered"]:
                    raise HotpathError(
                        "%s %dx%d@%g: before delivered %d cells, after %d"
                        % (c["arch"], c["size"], c["size"], c["load"],
                           delivered[key(c)], c["delivered"]))
            for side in cells:
                seen = {key(x) for x in cells[side]}
                cells[side] += [c for c in got[side] if key(c) not in seen]
    return cells["before"], cells["after"]


def base_arch(arch):
    return arch.split("+")[0]


def speedups(before, after):
    bmap = {key(c): c["slots_per_sec"]["mean"] for c in before}
    out = {}
    for c in after:
        ref = bmap.get(key(c))
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
    parser.add_argument("--change", required=True,
                        help="one line naming the change documented")
    parser.add_argument("--out", default="BENCH_hotpath.json")
    args = parser.parse_args()

    try:
        before, after = measure(args.before_bin, args.after_bin)
    except HotpathError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    doc = {
        "meta": {
            "schema": "an2.bench_hotpath.v1",
            "description": (
                "Hot-path record: whole-switch slots/sec on the uniform "
                "Bernoulli workload over a size x load grid, for "
                "bench_slot_loop built before and after the change in "
                "meta.change. The two binaries ran each grid row in "
                "turn, alternating which went first, and every cell "
                "both report delivered the same number of cells. Warm "
                "rows are compared against the cold base architecture "
                "on the same workload. Wall-clock rates; "
                "machine-dependent -- compare ratios, not absolutes."),
            "change": args.change,
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
