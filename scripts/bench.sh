#!/usr/bin/env bash
# Regenerates the perf record BENCH_sim.json (schema uolap-bench-sim v4)
# from measurements only, in three parts:
#   host       the machine and build, from hostbench's fingerprint;
#   workloads  hostbench's end-to-end metrics, pass count and oracle
#              verdict for scan, probe and serve at its default seed,
#              each run for BENCHMARK.json's run_seconds;
#   benches    each figure bench's --quick wall_ms over REPEATS runs, as
#              median, min and max.
# Exits non-zero and writes no record when a workload fails its oracle
# (correct: false) or a profile fails `uolap_report validate`.
#
# Usage: scripts/bench.sh [out.json]
#   default: writes build/BENCH_sim.json. Refreshing the tracked repo-root
#   record is an explicit act:
#     scripts/bench.sh BENCH_sim.json
#   (the default deliberately stays out of the repo root so a casual run
#   cannot clobber the checked-in record).
#
# Per-run profile JSONs are kept in bench_profiles/ so individual runs can
# be inspected (`uolap_report summary ... --regions`) or diffed
# (`uolap_report diff`) later.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-build/BENCH_sim.json}"
REPEATS=5

BENCHES=(
  bench_fig01_06_projection
  bench_fig07_10_selection
  bench_fig11_14_join
  bench_fig15_16_tpch
  bench_fig17_21_predication
  bench_fig22_25_simd
  bench_fig26_prefetchers
  bench_fig27_30_multicore
  bench_ablations
)

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" >/dev/null

# Host-cost workloads. Stale records must not stand in for a failed run,
# so the results directory starts empty.
RESULTS_DIR="${CARGO_TARGET_DIR:-.bench_build}/hostbench/results"
rm -rf "$RESULTS_DIR"
SECONDS_PER_RUN="$(python3 -c \
  'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
for workload in scan probe serve; do
  echo "# hostbench $workload (--seconds $SECONDS_PER_RUN)"
  python3 hostbench/run.py --workload "$workload" \
    --seconds "$SECONDS_PER_RUN" >/dev/null
done

# Figure benches, round-robin over the repeats so slow drift in host
# load lands on every bench alike.
PROFILE_DIR="bench_profiles"
rm -rf "$PROFILE_DIR"
mkdir -p "$PROFILE_DIR"
for ((r = 1; r <= REPEATS; r++)); do
  for bench in "${BENCHES[@]}"; do
    echo "# $bench --quick (repeat $r of $REPEATS)"
    "build/bench/$bench" --quick --json="$PROFILE_DIR/$bench.$r.json" \
      >/dev/null
  done
done
build/examples/uolap_report validate "$PROFILE_DIR"/*.json >/dev/null

python3 - "$OUT" "$RESULTS_DIR" "$PROFILE_DIR" "$REPEATS" "${BENCHES[@]}" \
  <<'EOF'
import glob
import json
import os
import statistics
import sys

out, results_dir, profile_dir, repeats = sys.argv[1:5]
repeats = int(repeats)
benches = sys.argv[5:]

workloads = {}
host = None
for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
    if path.endswith(".raw.json"):
        continue
    with open(path) as f:
        rec = json.load(f)
    if rec["failed"]:
        sys.exit("bench.sh: %s failed its oracle: %s"
                 % (rec["workload"], rec["failures"]))
    if host is not None and rec["host"] != host:
        sys.exit("bench.sh: host fingerprint changed between workloads")
    host = rec["host"]
    workloads[rec["workload"]] = {
        "correct": True,
        "seed": rec["seed"],
        "seconds": rec["seconds"],
        "passes": sum(1 for p in rec["passes"] if not p["traced"]),
        "metrics": rec["metrics"],
    }
if sorted(workloads) != ["probe", "scan", "serve"]:
    sys.exit("bench.sh: expected scan, probe and serve records, got %s"
             % sorted(workloads))

rows = []
for bench in benches:
    profiles = []
    for r in range(1, repeats + 1):
        with open(os.path.join(profile_dir, "%s.%d.json" % (bench, r))) as f:
            profiles.append(json.load(f))
    wall = [p["wall_ms"] for p in profiles]
    rows.append({
        "bench": bench,
        "machine": profiles[0]["machine"],
        "scale_factor": profiles[0]["scale_factor"],
        "quick": profiles[0]["quick"],
        "repeats": repeats,
        "wall_ms": {"median": statistics.median(wall), "min": min(wall),
                    "max": max(wall)},
    })

record = {
    "schema": "uolap-bench-sim",
    "version": 4,
    "comment": "Generated by scripts/bench.sh: hostbench end-to-end "
               "metrics (oracle-checked) plus each figure bench's --quick "
               "wall time over repeated runs, on the host below.",
    "host": host,
    "workloads": workloads,
    "benches": rows,
}
with open(out, "w") as f:
    json.dump(record, f, indent=2)
    f.write("\n")
EOF
echo "# wrote $OUT (profiles kept in $PROFILE_DIR/)"
