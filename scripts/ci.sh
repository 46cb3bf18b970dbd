#!/usr/bin/env bash
# CI entry point. Stages, in order:
#   1. static analysis (scripts/analyze — uolap-analyze: determinism,
#      layering, and contract rules against the checked-in baseline) +
#      clang-tidy when installed;
#   2. the normal optimized build (the configuration every figure runs in)
#      with its test suite, exporter and multi-tenant serving smokes,
#      byte-level determinism gates (figure benches and uolap_serve runs,
#      each executed twice, must serialize identical output), the
#      crash-recovery smoke (kill mid-run, corrupt the journal tail,
#      resume, byte-compare against the uninterrupted run), and the
#      hostbench oracle selftest;
#   3. an UOLAP_VALIDATE=ON build: the full test suite plus a figure-bench
#      sweep with every model-invariant checker armed (a violation aborts);
#   4. an UndefinedBehaviorSanitizer Debug build (UOLAP_DCHECKs armed)
#      running the test suite;
#   5. an AddressSanitizer smoke (build + unit tests + crash-recovery
#      smoke);
#   6. a ThreadSanitizer build that runs the test suite through the
#      parallel runtime (ThreadPool, RunSweep, threaded multi-core
#      Profile, the server's concurrent class simulation), so data races
#      in engine ForEach bodies or shared engines fail CI instead of
#      silently breaking the bit-determinism contract.
#
# Usage: scripts/ci.sh [stage] [jobs]
#   stage: all (default) | analyze | asan | chaos_smoke |
#          crash_recovery_smoke — run one stage in isolation
#          (chaos_smoke: the fault-injection/degradation determinism
#          gate; crash_recovery_smoke: kill-and-resume bit-equivalence
#          plus torn-journal rejection; both under release + TSan)
#   jobs:  parallelism (default: nproc)

set -euo pipefail
cd "$(dirname "$0")/.."

STAGE="all"
if [[ -n "${1:-}" && ! "${1:-}" =~ ^[0-9]+$ ]]; then
  STAGE="$1"
  shift
fi
JOBS="${1:-$(nproc)}"

analyze_stage() {
  echo "=== static analysis (uolap-analyze) ==="
  local args=(--baseline=scripts/analyze/baseline.json)
  # The compile DB (exported by any configured build tree) lets the
  # analyzer cross-check its scan coverage; skip silently before the
  # first configure.
  if [ -f build/compile_commands.json ]; then
    args+=(--compile-commands=build/compile_commands.json)
  fi
  python3 scripts/analyze "${args[@]}"
}

asan_stage() {
  echo "=== address-sanitizer smoke ==="
  cmake -B build-asan -S . -DUOLAP_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS"
  # ASan roughly halves simulator throughput; keep a generous timeout.
  (cd build-asan && ctest --output-on-failure -j "$JOBS" --timeout 900)
  # The snapshot and journal parsers read files from disk; run the
  # kill/corrupt/resume cycle under ASan too.
  echo "=== crash-recovery smoke (asan) ==="
  crash_recovery_smoke build-asan
}

# Chaos smoke: the robustness layer end to end (DESIGN.md §9). A serve
# run with every degradation path armed — a default deadline, admission
# reject + queue shed, bounded retry with backoff, brown-out downgrade,
# and a deterministic fault plan — executed twice, must serialize
# byte-identical profile JSON including the shed/timeout/retry/fault
# counters (the graceful-degradation determinism contract). Run B is
# serial (UOLAP_THREADS=1) and run A simulates its query classes on the
# thread pool, so the compare also checks that the schedule reaches no
# byte.
# At --quick scale the run must reject, time out, retry, inject
# transient failures and slowdown epochs, and brown out: each of those
# counters must be non-zero. Shed and failed read 0 at this scale;
# server_robustness_test covers them.
# Finally the SLO gate must fail a deliberately-unmeetable latency bound
# on the degraded run with a non-zero exit.
chaos_smoke() {
  local build_dir="$1"
  local out
  out="$(mktemp -d)"
  local serve=("$build_dir/examples/uolap_serve" --quick --seed=11
    --stable-json --epoch-ms=5 --deadline=5 --shed-policy=both
    --retries=2 --brownout=4
    --fault-plan='seed=13,fail=0.2,slow=0.2,x=2,epoch=0.5')
  "${serve[@]}" --json="$out/a.json" >"$out/a.txt"
  UOLAP_THREADS=1 "${serve[@]}" --json="$out/b.json" >"$out/b.txt"
  cmp "$out/a.json" "$out/b.json"
  # The stdout rollups must agree too; only the echoed output path and
  # the dbgen wall-time line legitimately differ between the two runs
  # (everything else is virtual-time state).
  cmp <(grep -v "^# wrote \|^# generated " "$out/a.txt") \
      <(grep -v "^# wrote \|^# generated " "$out/b.txt")
  "$build_dir/examples/uolap_report" validate "$out/a.json"
  grep "^# outcomes:" "$out/a.txt" >/dev/null
  # The fault plan must have injected work to degrade gracefully from:
  # a rollup of all-zero counters means the chaos run tested nothing.
  "$build_dir/examples/uolap_report" summary "$out/a.json" \
    >"$out/summary.txt"
  grep "^outcomes:" "$out/summary.txt" >/dev/null
  grep "^injected:" "$out/summary.txt" >/dev/null
  if grep "^outcomes: admitted 0 " "$out/summary.txt" >/dev/null; then
    echo "chaos smoke: no queries admitted" >&2
    return 1
  fi
  local zero
  for zero in "| rejected 0 |" "| timed_out 0 |" "| retries 0 |" \
      "injected: 0 transient" "| 0 slowdown epochs" "| 0 brown-out"; do
    if grep -F -- "$zero" "$out/summary.txt" >/dev/null; then
      echo "chaos smoke: a degradation path never fired ($zero)" >&2
      return 1
    fi
  done
  # Deliberately-unmeetable SLO on the degraded run: the gate must trip.
  if "$build_dir/examples/uolap_report" slo "$out/a.json" \
      --slo='*:p99<0.001' >/dev/null; then
    echo "chaos smoke: unmeetable SLO spec unexpectedly passed" >&2
    return 1
  fi
  rm -rf "$out"
}

chaos_stage() {
  echo "=== chaos smoke (release) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  chaos_smoke build
  echo "=== chaos smoke (tsan) ==="
  cmake -B build-tsan -S . -DUOLAP_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"
  chaos_smoke build-tsan
}

# Crash-recovery smoke: crash consistency end to end (DESIGN.md §10).
# Run A is the uninterrupted baseline with checkpointing on; run B is the
# identical serve killed mid-flight by --crash-at (exit 137, no profile);
# then B's checkpoint directory gets its active journal tail corrupted —
# the bytes a real kill could have half-written — and the resume must
# discard that tail LOUDLY, replay the journal as verification, and still
# serialize profile JSON byte-identical to A's. `uolap_report checkpoint`
# must validate the directory along the way. The three runs are separate
# processes with different argv; the solo class profiles they recompute
# are a function of the workload alone, so resume works across processes.
# Run A simulates its classes on the thread pool, the killed run and its
# resume serially (UOLAP_THREADS=1): the final cmp is also serial vs pool.
crash_recovery_smoke() {
  local build_dir="$1"
  local out
  out="$(mktemp -d)"
  local serve=("$build_dir/examples/uolap_serve" --quick --seed=11
    --stable-json --epoch-ms=5 --checkpoint-every=2)
  "${serve[@]}" --checkpoint-dir="$out/ck_a" --json="$out/a.json" >/dev/null
  local rc=0
  UOLAP_THREADS=1 "${serve[@]}" --checkpoint-dir="$out/ck_b" --crash-at=25 \
    --json="$out/b.json" >/dev/null || rc=$?
  if [[ "$rc" != 137 ]]; then
    echo "crash smoke: expected exit 137 from --crash-at, got $rc" >&2
    return 1
  fi
  if [[ -e "$out/b.json" ]]; then
    echo "crash smoke: killed run must not write a profile" >&2
    return 1
  fi
  # The crash directory must validate as resumable, and the resume point
  # names the journal a kill could have torn.
  "$build_dir/examples/uolap_report" checkpoint "$out/ck_b" >"$out/ck.txt"
  local snap wal
  snap="$(sed -n 's/^resume point: //p' "$out/ck.txt")"
  wal="${snap/snap-/journal-}"
  wal="${wal%.ckpt}.wal"
  printf 'GARBAGE-TAIL' >>"$out/ck_b/$wal"
  UOLAP_THREADS=1 "${serve[@]}" --checkpoint-dir="$out/ck_b" --crash-at=0 \
    --resume=1 --json="$out/resumed-from-torn-journal.json" >/dev/null \
    2>"$out/c.err"
  grep "discarding torn journal tail" "$out/c.err" >/dev/null
  cmp "$out/a.json" "$out/resumed-from-torn-journal.json"
  rm -rf "$out"
}

crash_recovery_stage() {
  echo "=== crash-recovery smoke (release) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  crash_recovery_smoke build
  echo "=== crash-recovery smoke (tsan) ==="
  cmake -B build-tsan -S . -DUOLAP_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"
  crash_recovery_smoke build-tsan
}

case "$STAGE" in
  all) ;;
  analyze) analyze_stage; exit 0 ;;
  asan) asan_stage; exit 0 ;;
  chaos_smoke) chaos_stage; exit 0 ;;
  crash_recovery_smoke) crash_recovery_stage; exit 0 ;;
  *)
    echo "unknown stage: $STAGE (stages: all, analyze, asan, chaos_smoke," \
      "crash_recovery_smoke)" >&2
    exit 2
    ;;
esac

analyze_stage

if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy ==="
  cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # Curated profile in .clang-tidy; WarningsAsErrors makes findings fatal.
  find src -name '*.cc' -print0 |
    xargs -0 -P "$JOBS" -n 8 clang-tidy -p build-tidy --quiet
else
  echo "=== clang-tidy not installed; skipping ==="
fi

echo "=== release build ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

# Exporter smoke: run one figure bench with --json/--trace and make sure
# both outputs parse as what they claim to be (uolap_report validates the
# profile schema version, the run audit results, and the Chrome trace
# shape). The same profile relabelled as an older schema version must be
# rejected: readers accept exactly the version the exporter writes.
exporter_smoke() {
  local build_dir="$1"
  local out
  out="$(mktemp -d)"
  "$build_dir/bench/bench_fig11_14_join" --quick \
    --json="$out/profile.json" --trace="$out/trace.json" >/dev/null
  "$build_dir/examples/uolap_report" validate \
    "$out/profile.json" "$out/trace.json"
  python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
doc["version"] = 4
json.dump(doc, open(sys.argv[2], "w"))' "$out/profile.json" "$out/v4.json"
  if "$build_dir/examples/uolap_report" validate "$out/v4.json" \
      2>/dev/null; then
    echo "exporter smoke: a version-4 profile unexpectedly validated" >&2
    return 1
  fi
  "$build_dir/examples/uolap_report" diff \
    "$out/profile.json" "$out/profile.json" >/dev/null
  rm -rf "$out"
}

echo "=== exporter smoke (release) ==="
exporter_smoke build

# Serving smoke: a quick multi-tenant uolap_serve run at small SF with a
# fixed seed. The serving runtime is pure virtual time from seeded
# generators and the solo class profiles simulate at placement-chosen
# addresses, so two runs — with output paths of different lengths, to
# prove argv cannot move the counters — must serialize byte-identical
# profile JSON. The summary must carry the serving block.
serve_smoke() {
  local build_dir="$1"
  local out
  out="$(mktemp -d)"
  "$build_dir/examples/uolap_serve" --quick --seed=7 --stable-json \
    --json="$out/a.json" >/dev/null
  "$build_dir/examples/uolap_serve" --quick --seed=7 --stable-json \
    --json="$out/a-much-longer-name.json" >/dev/null
  cmp "$out/a.json" "$out/a-much-longer-name.json"
  "$build_dir/examples/uolap_report" validate "$out/a.json"
  # No -q: grep must drain the whole stream, or an early exit can SIGPIPE
  # the writer and fail the pipeline under pipefail.
  "$build_dir/examples/uolap_report" summary "$out/a.json" |
    grep "^serving:" >/dev/null
  rm -rf "$out"
}

echo "=== serving smoke (release) ==="
serve_smoke build

# Serving-telemetry smoke: span tracing, SLO epoch windows, and the
# metrics registry, end to end. Two fully-traced runs must serialize
# byte-identical profile AND Chrome-trace JSON and Prometheus text; the SLO gate must pass
# the checked-in loose spec and fail an absurdly tight one; the
# Prometheus exposition must carry the serve-path counters.
telemetry_smoke() {
  local build_dir="$1"
  local out
  out="$(mktemp -d)"
  local serve=("$build_dir/examples/uolap_serve" --quick --seed=7
    --stable-json --epoch-ms=5 --trace-sample=1/1)
  "${serve[@]}" --json="$out/a.json" --trace="$out/a.trace" \
    --metrics="$out/a.prom" >/dev/null
  "${serve[@]}" --json="$out/b.json" --trace="$out/b.trace" \
    --metrics="$out/b.prom" >/dev/null
  cmp "$out/a.json" "$out/b.json"
  cmp "$out/a.trace" "$out/b.trace"
  cmp "$out/a.prom" "$out/b.prom"
  "$build_dir/examples/uolap_report" validate "$out/a.json" "$out/a.trace"
  # SLO gate, both directions: the checked-in loose spec must pass, a
  # sub-microsecond p99 bound must fail with a non-zero exit.
  "$build_dir/examples/uolap_report" slo "$out/a.json" \
    --spec=tests/golden/serve_slo.spec
  if "$build_dir/examples/uolap_report" slo "$out/a.json" \
      --slo='*:p99<0.001' >/dev/null; then
    echo "telemetry smoke: tight SLO spec unexpectedly passed" >&2
    return 1
  fi
  "$build_dir/examples/uolap_report" top "$out/a.json" >/dev/null
  # No -q: grep must drain the whole stream, or an early exit can
  # SIGPIPE the writer and fail the pipeline under pipefail.
  "$build_dir/examples/uolap_report" summary "$out/a.json" \
    --section=metrics | grep "server.queries_completed_total" >/dev/null
  grep "^server_queries_completed_total" "$out/a.prom" >/dev/null
  rm -rf "$out"
}

echo "=== telemetry smoke (release) ==="
telemetry_smoke build

echo "=== chaos smoke (release) ==="
chaos_smoke build

echo "=== crash-recovery smoke (release) ==="
crash_recovery_smoke build

# Perf smoke: the fast-path overhaul's counter gates (DESIGN.md §7).
# uolap_perfsmoke replays a fixed synthetic address trace (never
# dereferenced, so bit-identical on any host without ASLR pinning) through
# every accelerated path. Three byte-level checks:
#   1. accelerated vs --reference output: the bit-identity contract;
#   2. accelerated output vs the checked-in golden: counter drift fails CI
#      and forces a conscious golden update;
#   3. uolap_report diff --max-regress=0 against the golden: the same gate
#      at the modelled-cycle level, exercising the diff tool itself.
perf_smoke() {
  local build_dir="$1"
  local out
  out="$(mktemp -d)"
  "$build_dir/examples/uolap_perfsmoke" --json="$out/fast.json" >/dev/null
  "$build_dir/examples/uolap_perfsmoke" --reference \
    --json="$out/ref.json" >/dev/null
  cmp "$out/fast.json" "$out/ref.json"
  cmp tests/golden/perfsmoke_profile.json "$out/fast.json"
  "$build_dir/examples/uolap_report" diff \
    tests/golden/perfsmoke_profile.json "$out/fast.json" \
    --max-regress=0 >/dev/null
  rm -rf "$out"
}

echo "=== perf smoke (release) ==="
perf_smoke build
# Simulator-throughput spot check: the random-probe microbenchmark pair
# (fast vs reference kernels) and the L3 set-block layer on its own
# (BM_LlcProbeFill) from the bench suite must run clean.
build/bench/bench_sim_micro \
  --benchmark_filter='BM_CoreRandomProbe|BM_LlcProbeFill' \
  --benchmark_min_time=0.05 >/dev/null

# Host-cost oracle: scripts/bench.sh builds the perf record
# (BENCH_sim.json) on hostbench, so its oracle must catch a corrupted
# expected answer and its metric names must match BENCHMARK.json.
echo "=== hostbench oracle selftest ==="
python3 hostbench/run.py --selftest

# Determinism gate: the same bench run twice must produce byte-identical
# output. --stable-json zeroes wall_ms (the only host-time field of the
# profile); everything else is simulated state, a pure function of
# (config, seed, SF). The threaded multicore bench (the one gated bench
# that records concurrently: RunSweep points plus threaded multi-core
# runs) must match on stdout, minus the dbgen wall-time line, and on its
# profile JSON and Chrome trace.
echo "=== determinism gate ==="
DET_OUT="$(mktemp -d)"
build/bench/bench_fig11_14_join --quick --stable-json \
  --json="$DET_OUT/a.json" >/dev/null
build/bench/bench_fig11_14_join --quick --stable-json \
  --json="$DET_OUT/second-run.json" >/dev/null
cmp "$DET_OUT/a.json" "$DET_OUT/second-run.json"
build/bench/bench_fig27_30_multicore --quick --stable-json \
  --json="$DET_OUT/mc-a.json" --trace="$DET_OUT/mc-a.trace" |
  grep -v "^# generated \|^# wrote " >"$DET_OUT/a.txt"
build/bench/bench_fig27_30_multicore --quick --seed=42 --stable-json \
  --json="$DET_OUT/mc-b.json" --trace="$DET_OUT/mc-b.trace" |
  grep -v "^# generated \|^# wrote " >"$DET_OUT/b.txt"
cmp "$DET_OUT/a.txt" "$DET_OUT/b.txt"
cmp "$DET_OUT/mc-a.json" "$DET_OUT/mc-b.json"
cmp "$DET_OUT/mc-a.trace" "$DET_OUT/mc-b.trace"
rm -rf "$DET_OUT"

echo "=== validated build (UOLAP_VALIDATE=ON) ==="
cmake -B build-validate -S . -DUOLAP_VALIDATE=ON >/dev/null
cmake --build build-validate -j "$JOBS"
(cd build-validate && ctest --output-on-failure -j "$JOBS")
# Figure-bench sweep with every invariant checker armed: any model
# violation prints a structured diagnostic and aborts the bench.
build-validate/bench/bench_fig11_14_join --quick --validate >/dev/null
build-validate/bench/bench_fig07_10_selection --quick --validate >/dev/null
# The perf-smoke trace is recorded through the same audited recipe: both
# kernel paths must pass every checker and still agree byte for byte.
# (The golden is not compared here: it pins an unaudited run.)
VAL_OUT="$(mktemp -d)"
build-validate/examples/uolap_perfsmoke --json="$VAL_OUT/fast.json" \
  >/dev/null
build-validate/examples/uolap_perfsmoke --reference \
  --json="$VAL_OUT/ref.json" >/dev/null
cmp "$VAL_OUT/fast.json" "$VAL_OUT/ref.json"
build-validate/examples/uolap_report validate "$VAL_OUT/fast.json" \
  "$VAL_OUT/ref.json"
rm -rf "$VAL_OUT"

echo "=== undefined-behavior-sanitizer build (Debug: DCHECKs armed) ==="
# Every other stage builds RelWithDebInfo, whose NDEBUG compiles the
# UOLAP_DCHECK lockstep checks out (fast stream match == reference scan,
# fast stream victim == reference scan, stream-index window width,
# translation memo way holds the page, probed cache victim == a fresh
# InsertAbsent choice). Debug keeps them; the sanitizer flags still
# compile at -O1.
cmake -B build-ubsan -S . -DUOLAP_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-ubsan -j "$JOBS"
(cd build-ubsan && ctest --output-on-failure -j "$JOBS" --timeout 600)
# The perf-smoke trace with every lockstep check armed: its bytes must
# still match the --reference run and the golden.
perf_smoke build-ubsan

asan_stage

echo "=== thread-sanitizer build ==="
cmake -B build-tsan -S . -DUOLAP_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
# TSan slows the simulator ~10x; run the suite with a generous timeout.
(cd build-tsan && ctest --output-on-failure -j "$JOBS" --timeout 1200)

echo "=== exporter smoke (tsan) ==="
exporter_smoke build-tsan

echo "=== serving smoke (tsan) ==="
serve_smoke build-tsan

echo "=== telemetry smoke (tsan) ==="
telemetry_smoke build-tsan

echo "=== chaos smoke (tsan) ==="
chaos_smoke build-tsan

echo "=== crash-recovery smoke (tsan) ==="
crash_recovery_smoke build-tsan

echo "=== ci passed ==="
