#!/usr/bin/env python3
"""Compare a bench run against its committed baseline.

Usage:
    scripts/check_bench.py RUN.json [--baseline FILE] [--threshold 0.30]

Two document kinds are understood, keyed on the run's schema field:

  an2.sweep.v1 (from `bench_slot_loop --json`) — wall-clock slots/sec
  per architecture vs the committed `BENCH_hotpath.json` (its `after`
  cells are the reference). Rates on shared CI runners are noisy, so
  a drop of more than `threshold` prints a WARNING.

  an2.netsweep.v1 (from `an2_sweep --experiment netscale --json`) —
  delivered/injected throughput per (topology, load) cell vs the
  committed `BENCH_netscale.json`. These numbers are *deterministic*
  (byte-identical across engine shard counts), so any drift at
  all is flagged: it means the simulation's behavior changed and the
  baseline should be regenerated deliberately.

The exit code is always 0: both checks warn rather than fail, keeping
CI green while making regressions visible in the log.
"""

import argparse
import json
import os
import sys


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def schema_of(doc):
    meta = doc.get("meta", {})
    return meta.get("schema", doc.get("schema", ""))


def hotpath_cells(doc, key=None):
    # Keyed by (arch, size, load): the baseline carries rows at several
    # switch sizes and loads. Old documents predate the size/load keys,
    # so default to the historical 16x16 @ 0.9 workload.
    cells = doc[key] if key else doc["cells"]
    return {(c["arch"], c.get("size", 16), c.get("load", 0.9)):
            c["slots_per_sec"]["mean"] for c in cells}


def hotpath_label(cell_key):
    arch, size, load = cell_key
    return f"{arch} {size}x{size}@{load:g}"


def netsweep_cells(doc):
    return {(c["topo"], c["load"]): c["throughput"]["mean"]
            for c in doc["cells"]}


def check_hotpath(run_doc, baseline_path, threshold):
    run = hotpath_cells(run_doc)
    baseline = hotpath_cells(load_doc(baseline_path), key="after")

    warned = False
    for cell in sorted(baseline):
        label = hotpath_label(cell)
        if cell not in run:
            print(f"  {label:34s}  (not in this run, skipped)")
            continue
        base, now = baseline[cell], run[cell]
        if base <= 0:
            # A zero/negative baseline cell is a broken baseline, not a
            # regression; dividing by it would crash the whole check.
            print(f"  {label:34s}  baseline {base:12,.0f}  "
                  f"run {now:12,.0f}  (baseline 0, no ratio)")
            continue
        ratio = now / base
        line = (f"  {label:34s}  baseline {base:12,.0f}  "
                f"run {now:12,.0f}  ({ratio:5.2f}x)")
        if ratio < 1.0 - threshold:
            print(f"WARNING: slots/sec regression >"
                  f"{threshold:.0%} vs committed baseline:")
            print(line)
            warned = True
        else:
            print(line)
    for cell in sorted(set(run) - set(baseline)):
        print(f"  {hotpath_label(cell):34s}  (no baseline, skipped)")

    if warned:
        print("\nPerf smoke saw a possible regression (non-fatal; CI "
              "runners are noisy).\nRerun locally with the full budget: "
              "./build/bench/bench_slot_loop --json out.json")
    else:
        print("\nPerf smoke OK: no architecture regressed beyond "
              f"{threshold:.0%} of the committed baseline.")


def check_netsweep(run_doc, baseline_path):
    run = netsweep_cells(run_doc)
    baseline = netsweep_cells(load_doc(baseline_path))

    drifted = False
    for key in sorted(baseline):
        topo, load = key
        label = f"{topo} @ {load:g}"
        if key not in run:
            print(f"  {label:36s}  (not in this run, skipped)")
            continue
        base, now = baseline[key], run[key]
        line = (f"  {label:36s}  baseline {base:.12g}  run {now:.12g}")
        if now != base:
            print(f"WARNING: deterministic throughput drifted vs "
                  f"committed baseline:")
            print(line)
            drifted = True
        else:
            print(line)
    for key in sorted(set(run) - set(baseline)):
        print(f"  {key[0]} @ {key[1]:g}  (no baseline, skipped)")

    if drifted:
        print("\nNetwork throughput is deterministic: any drift means "
              "the simulation changed.\nIf intentional, regenerate: "
              "./build/bench/an2_sweep --experiment netscale "
              "--json BENCH_netscale.json")
    else:
        print("\nNetwork-scale check OK: throughput matches the "
              "committed baseline exactly.")


def self_test():
    """Exercise the hot-path comparison on synthetic documents —
    including the zero-baseline cell that used to crash the whole check
    with a ZeroDivisionError. Unlike the warn-only comparisons this
    guards the checker itself, so it exits 1 on any failure."""
    import contextlib
    import io
    import tempfile

    def cell(arch, rate):
        return {"arch": arch, "size": 16, "load": 0.9,
                "slots_per_sec": {"mean": rate}}

    baseline = {"after": [cell("PIM(4)", 1_000_000.0),
                          cell("Broken", 0.0),
                          cell("Gone", 500_000.0)]}
    run = {"meta": {"schema": "an2.sweep.v1"},
           "cells": [cell("PIM(4)", 900_000.0),
                     cell("Broken", 750_000.0),
                     cell("CIOQ(S=2,strict)", 400_000.0)]}
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as f:
        json.dump(baseline, f)
        path = f.name
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            check_hotpath(run, path, 0.30)
    finally:
        os.unlink(path)
    text = out.getvalue()
    checks = [
        ("baseline 0, no ratio" in text,
         "zero baseline reported explicitly, not divided by"),
        ("0.90x" in text, "healthy cell still gets a ratio"),
        ("CIOQ(S=2,strict) 16x16@0.9" in text and
         "(no baseline, skipped)" in text,
         "arch with no committed baseline is skipped"),
        ("Gone 16x16@0.9" in text and
         "(not in this run, skipped)" in text,
         "baseline arch missing from the run is skipped"),
    ]
    ok = True
    for passed, what in checks:
        print(f"  {'ok' if passed else 'FAIL'}: {what}")
        ok = ok and passed
    print("check_bench self-test", "OK" if ok else "FAILED")
    return 0 if ok else 1


def main():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(
        description="Warn (never fail) on bench regressions.")
    parser.add_argument("run", nargs="?",
                        help="an2.sweep.v1 or an2.netsweep.v1 JSON")
    parser.add_argument(
        "--self-test", action="store_true",
        help="run the checker's own unit checks and exit (nonzero on "
             "failure)")
    parser.add_argument(
        "--baseline",
        help="committed baseline (default: repo BENCH_hotpath.json or "
             "BENCH_netscale.json, by the run's schema)")
    parser.add_argument(
        "--threshold", type=float, default=0.30,
        help="hot-path only: warn when slots/sec drops more than this "
             "fraction (0.30)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.run:
        parser.error("RUN.json required unless --self-test")

    run_doc = load_doc(args.run)
    schema = schema_of(run_doc)
    if schema == "an2.netsweep.v1":
        baseline = args.baseline or os.path.join(repo_root,
                                                 "BENCH_netscale.json")
        check_netsweep(run_doc, baseline)
    else:
        baseline = args.baseline or os.path.join(repo_root,
                                                 "BENCH_hotpath.json")
        check_hotpath(run_doc, baseline, args.threshold)
    return 0


if __name__ == "__main__":
    sys.exit(main())
