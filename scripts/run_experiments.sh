#!/usr/bin/env bash
# Build an2sim, run the full test suite, and regenerate every paper
# table/figure (writes test_output.txt and bench_output.txt at the repo
# root). The Figure 3-5 sweeps additionally emit machine-readable
# an2.sweep.v1 JSON, merged into BENCH_sweeps.json.
# Usage: scripts/run_experiments.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"
THREADS="$(nproc)"

# Prefer Ninja on first configure; an already-configured build dir keeps
# its generator (CMake refuses to switch generators in place).
if [ -f "$BUILD/CMakeCache.txt" ]; then
    cmake -B "$BUILD"
else
    cmake -B "$BUILD" -G Ninja
fi
cmake --build "$BUILD" -j"$THREADS"

ctest --test-dir "$BUILD" 2>&1 | tee test_output.txt

# Harness sweeps: parallel execution plus one JSON trace per experiment
# (deterministic — identical bytes for any THREADS value). netscale runs
# whole networks on the sharded engine; its JSON is likewise identical
# for any thread count and engine choice, and is checked against its own
# baseline, BENCH_netscale.json, rather than merged below.
SWEEPS=(fig3 fig4 fig5)
mkdir -p "$BUILD/sweeps"
for exp in "${SWEEPS[@]}" netscale; do
    "$BUILD/bench/an2_sweep" --experiment "$exp" --threads "$THREADS" \
        --json "$BUILD/sweeps/$exp.json"
done

# Deterministic network-scale throughput vs the committed baseline
# (warn-only; see scripts/check_bench.py).
python3 scripts/check_bench.py "$BUILD/sweeps/netscale.json"

# CIOQ speedup study (Cogill-Lall): greedy maximal matching at crossbar
# speedup S = 1/2/4 vs the ideal output-queued switch under the
# multi-class uniform workload. Written to its own committed document
# rather than merged into BENCH_sweeps.json, so that trajectory file
# stays byte-stable. The serial-vs-8-thread cmp guards the CIOQ arch's
# determinism the same way the chaos smoke guards the network engine.
"$BUILD/bench/an2_sweep" --experiment speedup --threads "$THREADS" \
    --json BENCH_speedup.json
"$BUILD/bench/an2_sweep" --experiment fig3 --arch "CIOQ(S=2,wrr)" \
    --slots 20000 --warmup 4000 --threads 1 \
    --json "$BUILD/sweeps/cioq_t1.json"
"$BUILD/bench/an2_sweep" --experiment fig3 --arch "CIOQ(S=2,wrr)" \
    --slots 20000 --warmup 4000 --threads 8 \
    --json "$BUILD/sweeps/cioq_t8.json"
cmp "$BUILD/sweeps/cioq_t1.json" "$BUILD/sweeps/cioq_t8.json"

# Telemetry smoke: an an2.metrics.v1 time series off the latdist
# observed point plus a fault-triggered an2.blackbox.v1 post-mortem,
# both hard-validated (scripts/check_metrics.py exits 1 on any
# structural violation).
"$BUILD/bench/an2_sweep" --experiment latdist --slots 4000 --warmup 400 \
    --loads 0.9 --metrics "$BUILD/sweeps/latdist_metrics.jsonl" \
    --metrics-prom "$BUILD/sweeps/latdist_metrics.prom" --json /dev/null
"$BUILD/bench/an2_sweep" --experiment fig3 --slots 6000 --warmup 500 \
    --loads 0.9 --faults 'out_down(3)@5000' \
    --blackbox "$BUILD/sweeps/blackbox_smoke.json" --json /dev/null
python3 scripts/check_metrics.py \
    --metrics "$BUILD/sweeps/latdist_metrics.jsonl" \
    --blackbox "$BUILD/sweeps/blackbox_smoke.json"

# Chaos smoke: seeded link/switch churn on the netscale fat-tree with
# CBR path restoration armed. The expanded fault plan and every
# restoration retry are deterministic, so the serial and 8-thread
# engines must produce identical bytes; a blackbox post-mortem on disk
# means an invariant tripped mid-churn.
chaos='chaos(7,2.5,link+switch+storm)'
rm -f "$BUILD/sweeps/chaos_blackbox.json"
"$BUILD/bench/an2_sweep" --experiment netscale --chaos "$chaos" \
    --frames 2 --loads 0.05 --engine serial \
    --blackbox "$BUILD/sweeps/chaos_blackbox.json" \
    --json "$BUILD/sweeps/chaos_serial.json"
"$BUILD/bench/an2_sweep" --experiment netscale --chaos "$chaos" \
    --frames 2 --loads 0.05 --threads 8 \
    --blackbox "$BUILD/sweeps/chaos_blackbox.json" \
    --json "$BUILD/sweeps/chaos_t8.json"
cmp "$BUILD/sweeps/chaos_serial.json" "$BUILD/sweeps/chaos_t8.json"
if [ -e "$BUILD/sweeps/chaos_blackbox.json" ]; then
    echo "chaos smoke dumped a post-mortem:" >&2
    cat "$BUILD/sweeps/chaos_blackbox.json" >&2
    exit 1
fi

# Merge the Figure 3-5 documents into one trajectory file (CI's
# build-test job rebuilds it the same way and cmps it).
if command -v jq > /dev/null; then
    jq -s '{schema: "an2.sweeps.v1", sweeps: .}' \
        $(for e in "${SWEEPS[@]}"; do echo "$BUILD/sweeps/$e.json"; done) \
        > BENCH_sweeps.json
    echo "Wrote BENCH_sweeps.json" \
         "($(jq '.sweeps | length' BENCH_sweeps.json) sweeps)"
else
    echo "jq not found; per-experiment JSON left in $BUILD/sweeps/"
fi

{
    for b in "$BUILD"/bench/bench_*; do
        [ -x "$b" ] && "$b"
    done
} 2>&1 | tee bench_output.txt

echo
echo "Done. See EXPERIMENTS.md for the paper-vs-measured index."
