#!/usr/bin/env bash
# Tier-1 verification, three times: a plain optimized build, an
# AddressSanitizer+UBSan build (UVOLT_SANITIZE=ON), and a
# ThreadSanitizer build (UVOLT_SANITIZE=thread) of the concurrent
# suites. The ASan pass exists for the resilience layer in particular —
# retry loops and crash recovery juggle buffers and board state in ways
# worth running under ASan every time. The TSan
# pass guards the fleet engine: the ThreadPool, the single-flight
# FvmCache, and parallel campaigns sharing chip models. The perf leg
# compares the checkout with its merge-base and its last re-anchor
# commit on this host, so it needs the git history.
#
# Usage: scripts/ci.sh [jobs]

set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

run_suite() {
    local build_dir="$1"
    shift
    cmake -B "$build_dir" -S . "$@"
    cmake --build "$build_dir" -j "$jobs"
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

echo "== tier 1: plain build =="
run_suite build

echo "== fatal() ratchet: call sites in src/ may only go down =="
# fatal() is kept for programmer-invariant violations; input a request,
# a file or a frame can carry gets a typed Errc instead. The committed
# count may only be lowered: a change that removes call sites lowers it
# here, one that adds a site fails this leg.
fatal_max=154
fatal_now=$(grep -rnE '(^|[^A-Za-z_])fatal\(' src |
    grep -cvE '^[^:]+:[0-9]+:[[:space:]]*(//|\*|/\*)' || true)
echo "fatal( call sites in src/: $fatal_now (ratchet $fatal_max)"
[ "$fatal_now" -le "$fatal_max" ]

echo "== perf gate: same-host A/B against the merge-base and the anchor =="
# Timings are only compared with timings taken on the same host in the
# same CI run. The base is the merge-base with main (HEAD~1 when HEAD
# is on main); the anchor is the last commit whose subject starts with
# "re-anchor", so a slowdown that creeps in below the per-commit
# tolerance still fails once it adds up. Each ref's tree is extracted
# with git archive under build/perf/<sha> and built there; the head
# side is the checkout's own build. Every binary runs from its own
# directory under build/perf, so nothing lands in the checkout's
# results/. Nine pairs per comparison, alternating which side runs
# first; scripts/check_regression.py gates the median over pairs of
# head/base min ns/iter per row.
perf_start=$SECONDS
python3 scripts/check_regression.py --selftest
perf_dir="$PWD/build/perf"
mkdir -p "$perf_dir"
head_sha=$(git rev-parse HEAD)
base_sha=$(git merge-base HEAD main 2>/dev/null || true)
if [ -z "$base_sha" ] || [ "$base_sha" = "$head_sha" ]; then
    base_sha=$(git rev-parse HEAD~1)
fi
anchor_sha=$(git log --format='%H %s' HEAD |
    awk '$2 ~ /^re-anchor/ { print $1; exit }')
refs=(base)
if [ -n "$anchor_sha" ] && [ "$anchor_sha" != "$head_sha" ] &&
    [ "$anchor_sha" != "$base_sha" ]; then
    refs+=(anchor)
fi
declare -A ref_sha=([base]="$base_sha" [anchor]="$anchor_sha")
echo "head $head_sha, base $base_sha, anchor ${anchor_sha:-none}"

# The extracted trees must not find the checkout's .git above them
# (that would stamp them with HEAD's SHA and rebuild them whenever
# HEAD moves).
export GIT_CEILING_DIRECTORIES="$perf_dir"
perf_tree() {
    local tree="$perf_dir/$1"
    if [ ! -d "$tree" ]; then
        rm -rf "$tree.tmp" && mkdir -p "$tree.tmp"
        git archive "$1" | tar -x -C "$tree.tmp"
        mv "$tree.tmp" "$tree"
    fi
    cmake -B "$tree/build" -S "$tree" > /dev/null
    cmake --build "$tree/build" -j "$jobs" --target bench_all ext_serve \
        > /dev/null
}
# run_side <bench dir> <run dir> <pair>: one bench_all + ext_serve run.
run_side() {
    mkdir -p "$2"
    (cd "$2" &&
        "$1/bench_all" --repeats 5 --min-time-ms 10 \
            --out "bench_$3.json" > "bench_$3.log" 2>&1 &&
        "$1/ext_serve" --out "serve_$3.json" --trace-out "" \
            --prom-out "" --blackbox-dir "" --ledger-dir "" \
            --profile-out "" --flame-out "" > "serve_$3.log")
}
for ref in "${refs[@]}"; do
    perf_tree "${ref_sha[$ref]}"
done
pairs=9
rm -rf "$perf_dir/runs"
for i in $(seq "$pairs"); do
    for ref in "${refs[@]}"; do
        other="$perf_dir/${ref_sha[$ref]}/build/bench"
        run_dir="$perf_dir/runs/$ref"
        if [ $((i % 2)) -eq 1 ]; then
            run_side "$PWD/build/bench" "$run_dir/head" "$i"
            run_side "$other" "$run_dir/$ref" "$i"
        else
            run_side "$other" "$run_dir/$ref" "$i"
            run_side "$PWD/build/bench" "$run_dir/head" "$i"
        fi
    done
done
perf_ok=1
for ref in "${refs[@]}"; do
    for doc in bench serve; do
        echo "-- head vs $ref (${ref_sha[$ref]:0:10}): $doc rows"
        run_dir="$perf_dir/runs/$ref"
        python3 scripts/check_regression.py \
            --base $(seq -f "$run_dir/$ref/${doc}_%g.json" "$pairs") \
            --head $(seq -f "$run_dir/head/${doc}_%g.json" "$pairs") ||
            perf_ok=0
    done
done

# End to end: the repository benchmark's gated workloads, five pairs
# each under the base tree and the checkout, compared against the
# BENCHMARK.json bounds. Both sides ran on this host, so a fingerprint
# mismatch ("rebaseline needed") is a failure, not a skipped verdict.
base_run="$perf_dir/$base_sha/perfbench/run.py"
e2e="$perf_dir/e2e"
rm -rf "$e2e" && mkdir -p "$e2e/base" "$e2e/head"
run_e2e() { # run_e2e <run.py> <side> <workload> <pair>
    python3 "$1" --workload "$3" --seconds 10 > /dev/null
    cp "$(dirname "$(dirname "$1")")/.bench_build/perfbench/results/$3-s1-t0.json" \
        "$e2e/$2/$3-$4.json"
}
if [ -f "$base_run" ]; then
    for workload in sweep_fleet sweep_harsh nn_eval; do
        for i in $(seq 5); do
            if [ $((i % 2)) -eq 1 ]; then
                run_e2e "$PWD/perfbench/run.py" head "$workload" "$i"
                run_e2e "$base_run" base "$workload" "$i"
            else
                run_e2e "$base_run" base "$workload" "$i"
                run_e2e "$PWD/perfbench/run.py" head "$workload" "$i"
            fi
        done
    done
    python3 perfbench/run.py --compare "$e2e/base" "$e2e/head" \
        | tee "$e2e/compare.txt" || perf_ok=0
    if grep -q 'rebaseline needed' "$e2e/compare.txt"; then
        perf_ok=0
    fi
else
    echo "note: base ${base_sha:0:10} has no perfbench; end-to-end skipped"
fi
unset GIT_CEILING_DIRECTORIES
echo "perf gate wall time: $((SECONDS - perf_start)) s"
if [ "$perf_ok" -ne 1 ]; then
    echo "perf gate: REGRESSION (see the tables above)" >&2
    exit 1
fi

echo "== observability gate: trace flows, prometheus, blackboxes =="
# A harsh closed-loop run with telemetry ON must leave behind (a) a
# Chrome trace where every request is one well-formed flow (exactly one
# start and finish, no orphan steps, every parent span present), (b) a
# Prometheus snapshot with cumulative histogram buckets, and (c) at
# least one flight-recorder blackbox from the scripted degradation
# storm. scripts/check_trace.py is the structural gate over all three.
obs_dir="build/obs"
rm -rf "$obs_dir" && mkdir -p "$obs_dir"
UVOLT_TELEMETRY=ON ./build/bench/ext_serve --noise --skip-identity \
    --requests 300 --clients 4 \
    --out "$obs_dir/BENCH_obs.json" \
    --trace-out "$obs_dir/trace.json" \
    --prom-out "$obs_dir/metrics.prom" \
    --blackbox-dir "$obs_dir" \
    --ledger-dir "$obs_dir/ledger" \
    --profile-out "" > /dev/null
python3 scripts/check_trace.py "$obs_dir/trace.json" --min-flows 100 \
    --prometheus "$obs_dir/metrics.prom" \
    --blackbox "$obs_dir/blackbox_degraded.json"

echo "== profiling leg: sampler artifacts, identity, overhead =="
# The span sampler rides a full ext_serve run at 2 kHz: phase 1 proves
# quiet-vs-storm bit-identity WITH the sampler attached (the binary
# exits nonzero on divergence — sampling must never perturb results),
# and the run leaves a real collapsed-stack profile + flame graph
# behind. Overhead is gated on the most stable aggregate the run
# exports (SV_ServeReqCost = load wall clock / completed): min of
# three sampled runs within 3 % of min of three unsampled runs.
# Single-run tail rows swing +-15 % on a shared machine; the
# min-of-3 floor is what converges (same statistic the bench
# framework gates on).
prof_dir="build/prof"
rm -rf "$prof_dir" && mkdir -p "$prof_dir"
for i in 1 2 3; do
    UVOLT_TELEMETRY=ON ./build/bench/ext_serve --skip-identity \
        --requests 400 --clients 4 \
        --out "$prof_dir/BENCH_off_$i.json" \
        --profile-out "" --flame-out "" \
        --trace-out "" --prom-out "" --blackbox-dir "" \
        --ledger-dir "" > /dev/null
    UVOLT_TELEMETRY=ON UVOLT_PROFILE_HZ=2000 ./build/bench/ext_serve \
        --skip-identity --requests 400 --clients 4 \
        --out "$prof_dir/BENCH_on_$i.json" \
        --profile-out "$prof_dir/profile_ext_serve.folded" \
        --flame-out "$prof_dir/profile_ext_serve.html" \
        --trace-out "" --prom-out "" --blackbox-dir "" \
        --ledger-dir "" > /dev/null
done
# Identity under sampling, once (phase 1 is the assertion).
UVOLT_TELEMETRY=ON UVOLT_PROFILE_HZ=2000 ./build/bench/ext_serve \
    --requests 100 --clients 2 \
    --out "$prof_dir/BENCH_identity.json" \
    --profile-out "$prof_dir/identity.folded" --flame-out "" \
    --trace-out "" --prom-out "" --blackbox-dir "" \
    --ledger-dir "" > /dev/null
test -s "$prof_dir/profile_ext_serve.folded"
test -s "$prof_dir/profile_ext_serve.html"
grep -q 'id="graph"' "$prof_dir/profile_ext_serve.html"
python3 - "$prof_dir" <<'EOF'
import json, sys
prof_dir = sys.argv[1]
def req_cost(path):
    doc = json.load(open(path))
    return next(b["wall"]["min_ns"] for b in doc["benchmarks"]
                if b["name"] == "SV_ServeReqCost")
off = min(req_cost(f"{prof_dir}/BENCH_off_{i}.json") for i in (1, 2, 3))
on = min(req_cost(f"{prof_dir}/BENCH_on_{i}.json") for i in (1, 2, 3))
ratio = on / off
print(f"sampler overhead: req-cost {off/1e6:.3f} ms -> {on/1e6:.3f} ms "
      f"(x{ratio:.3f}, gate 1.03)")
sys.exit(0 if ratio <= 1.03 else 1)
EOF

echo "== golden scenarios (all 23 goldens) =="
# Run every scenario of the uvolt driver once and require each CSV with
# a committed golden to match it. The scenarios are deterministic
# (seeded RNG, shared model cache), so any diff is a real behaviour
# change — this is the executable proof that the BRAM path survives
# refactors bit-for-bit. uvolt exits nonzero if a scenario fails its
# own check: ext_membackends requires its mixed BRAM+HBM+SRAM fleet to
# be bit-identical serially and at 1 and 8 workers.
UVOLT_CACHE_DIR="$PWD/uvolt_model_cache" ./build/bench/uvolt > /dev/null
python3 scripts/check_figures.py

echo "== batched-evaluation identity check (fig11) =="
# The batched engine's contract is bit-identity at any batch width and
# worker count. Prove it end to end: run the Fig 11 sweep at batch 1
# (the scalar-equivalent width), at the ragged batch 13 (every kernel
# call takes a masked column tail) and at batch 64 with a 4-worker
# pool, and require byte-identical CSVs. A scratch directory
# keeps the committed results/ untouched; the shared model cache avoids
# retraining; a reduced UVOLT_EVAL_LIMIT keeps the leg seconds-scale
# (identity must hold at ANY limit, so a small one proves as much as
# the full sweep).
identity_dir="$(mktemp -d)"
trap 'rm -rf "$identity_dir"' EXIT
export UVOLT_CACHE_DIR="$PWD/uvolt_model_cache"
uvolt="$PWD/build/bench/uvolt"
(cd "$identity_dir" &&
    UVOLT_BATCH=1 UVOLT_EVAL_LIMIT=400 \
        "$uvolt" fig11_nn_error > /dev/null &&
    mv results/fig11_nn_error.csv fig11_batch1.csv &&
    UVOLT_BATCH=13 UVOLT_EVAL_LIMIT=400 \
        "$uvolt" fig11_nn_error > /dev/null &&
    cmp results/fig11_nn_error.csv fig11_batch1.csv &&
    UVOLT_BATCH=64 UVOLT_EVAL_LIMIT=400 UVOLT_EVAL_WORKERS=4 \
        "$uvolt" fig11_nn_error > /dev/null &&
    cmp results/fig11_nn_error.csv fig11_batch1.csv)
unset UVOLT_CACHE_DIR
echo "fig11 CSV byte-identical at batch 1, 13 and 64 + 4 workers"

echo "== tier 1: sanitized build (ASan + UBSan) =="
# fatal() death tests exit(1) mid-flight by design; leak checking on
# those intentional exits would drown the signal.
ASAN_OPTIONS=detect_leaks=0 run_suite build-asan -DUVOLT_SANITIZE=ON

# Sanitizer timings are not comparable with anything; run the suite
# once so a crash under ASan fails the leg.
ASAN_OPTIONS=detect_leaks=0 ./build-asan/bench/bench_all \
    --repeats 3 --min-time-ms 5 --out build-asan/BENCH_uvolt.json

echo "== bit-twiddling under UBSan (UVOLT_SANITIZE=undefined) =="
# The packed fault-domain layout lives on shifts, masks, and narrowing
# casts (bram.cc, fault_domain.hh, chip_fault_model.cc, the mask
# ladders of the mem:: backends, the analyzer's ctz walk). A UBSan-only
# build is fast enough to run the suites that exercise every one
# of those paths on each CI pass — ASan's memory instrumentation isn't
# needed here and would double the leg. pmbus_test drives the serial
# link's CRC fold kernel (unaligned intrinsic loads, lane shifts) at
# every length and alignment; resilience_test drives the retry and
# recovery paths that reach it under noise. nn_test drives the dense
# layer's AVX-512 micro-kernel (intrinsics, masked column tails at
# every batch width 1..130) and the float dequantize; accel_test
# drives the accelerator's recovering readback. fleet_test drives the
# per-BRAM map tally (16-bit domain indices, popcount narrowing) through
# FleetEngine on worker threads, and the typed refusal of BRAM-only
# options on non-BRAM jobs.
cmake -B build-ubsan -S . -DUVOLT_SANITIZE=undefined
cmake --build build-ubsan -j "$jobs" \
    --target fpga_test vmodel_test harness_test membackend_test \
    pmbus_test resilience_test nn_test accel_test fleet_test
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/fpga_test
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/vmodel_test
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/harness_test
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/membackend_test
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/pmbus_test
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/resilience_test
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/nn_test
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/accel_test
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/fleet_test

echo "== tier 1: thread-sanitized build (TSan) =="
# Only the suites that actually spin threads: the fleet engine, the
# resilience layer it schedules, and the telemetry shards every worker
# writes. A TSan run of everything would triple CI time for
# single-threaded code. UVOLT_TELEMETRY=ON turns recording on for the
# whole fleet suite so the lock-free counter shards and per-thread span
# buffers are exercised under every scheduling the pool produces.
# nn_test joined the list with the batched evaluation engine: its
# pool fan-out writes per-batch slots from worker threads. vmodel_test
# and membackend_test build the lazily built, shared fault order from
# eight boards at once and run mixed fleets over the fault index.
cmake -B build-tsan -S . -DUVOLT_SANITIZE=thread
cmake --build build-tsan -j "$jobs" \
    --target fleet_test resilience_test telemetry_test nn_test \
    profiler_test vmodel_test membackend_test
UVOLT_TELEMETRY=ON ./build-tsan/tests/fleet_test
./build-tsan/tests/vmodel_test
./build-tsan/tests/membackend_test
UVOLT_TELEMETRY=ON ./build-tsan/tests/telemetry_test
./build-tsan/tests/resilience_test
UVOLT_TELEMETRY=ON ./build-tsan/tests/nn_test \
    --gtest_filter='BatchedEval.*'
# The sampler reads other threads' span stacks while eight threads
# churn spans — exactly the interleaving TSan exists to judge.
UVOLT_TELEMETRY=ON ./build-tsan/tests/profiler_test

echo "== serve soak: TSan + fault injector, exactly-once =="
# The whole serving stack under ThreadSanitizer with the harsh
# environment on: closed-loop clients, admission races, the coalescer,
# cooperative cancellation. The binary exits nonzero if any admitted
# request is lost or duplicated or the drained queue is not empty —
# and TSan fails the leg on any data race it sees along the way.
# Request count is sized so the leg stays around half a minute under
# TSan's ~10x slowdown; latency rows are not gated here (sanitizer
# timings are incomparable).
cmake --build build-tsan -j "$jobs" --target ext_serve serve_test
./build-tsan/tests/serve_test
./build-tsan/bench/ext_serve --noise --skip-identity \
    --requests 800 --clients 6 --out build-tsan/BENCH_serve.json

echo "== telemetry compiled out (-DUVOLT_TELEMETRY=OFF) =="
# The instrumented call sites must compile and pass with the layer
# reduced to stubs — the zero-cost configuration ships this way.
# serve_test rides along since PR 8: the serving tier now carries trace
# contexts, flight-recorder notes, and status reporting, all of which
# must still build and behave with the layer stubbed out.
cmake -B build-notel -S . -DUVOLT_TELEMETRY=OFF
cmake --build build-notel -j "$jobs" \
    --target telemetry_test fleet_test serve_test profiler_test
./build-notel/tests/telemetry_test
./build-notel/tests/fleet_test
./build-notel/tests/serve_test
# The profiler's fold/export layer still works compiled out (the
# sampler is a stub).
./build-notel/tests/profiler_test

echo "== all suites passed =="
