#!/usr/bin/env bash
# Regenerates the perf record BENCH_sim.json (schema uolap-bench-sim v4)
# from measurements only, in three parts:
#   host       the machine and build, from hostbench's fingerprint;
#   workloads  hostbench's end-to-end metrics, pass count and oracle
#              verdict for scan, probe and serve at its default seed,
#              each run for BENCHMARK.json's run_seconds;
#   benches    each figure bench's --quick wall_ms over REPEATS runs, as
#              median, min and max; and again at the bench's default
#              scale (quick: false) over FULL_REPEATS runs, with the peak
#              RSS (ru_maxrss) of the bench process. --quick hides the
#              full-scale cost of each cell; the default scale is what
#              EXPERIMENTS.md regenerates the paper at.
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
FULL_REPEATS=3

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
# The same benches at their default scale, with no timeline sampling (as
# EXPERIMENTS.md runs them); each run's peak RSS lands next to its profile.
mkdir -p "$PROFILE_DIR/full"
for ((r = 1; r <= FULL_REPEATS; r++)); do
  for bench in "${BENCHES[@]}"; do
    echo "# $bench default scale (repeat $r of $FULL_REPEATS)"
    python3 -c '
import os, subprocess, sys
p = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(p.pid, 0)
p.returncode = os.waitstatus_to_exitcode(status)
with open(sys.argv[1], "w") as f:
    f.write("%d\n" % usage.ru_maxrss)  # KiB on Linux
sys.exit(p.returncode)' "$PROFILE_DIR/full/$bench.$r.rss_kb" \
      "build/bench/$bench" --sample-every=0 \
      --json="$PROFILE_DIR/full/$bench.$r.json"
  done
done
build/examples/uolap_report validate "$PROFILE_DIR"/*.json \
  "$PROFILE_DIR"/full/*.json >/dev/null

python3 - "$OUT" "$RESULTS_DIR" "$PROFILE_DIR" "$REPEATS" "$FULL_REPEATS" \
  "${BENCHES[@]}" <<'EOF'
import glob
import json
import os
import statistics
import sys

out, results_dir, profile_dir, repeats, full_repeats = sys.argv[1:6]
benches = sys.argv[6:]

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

def spread(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values)}


def bench_row(bench, directory, repeats, with_rss):
    profiles = []
    rss_mb = []
    for r in range(1, repeats + 1):
        base = os.path.join(directory, "%s.%d" % (bench, r))
        with open(base + ".json") as f:
            profiles.append(json.load(f))
        if with_rss:
            with open(base + ".rss_kb") as f:
                rss_mb.append(int(f.read()) / 1024.0)
    row = {
        "bench": bench,
        "machine": profiles[0]["machine"],
        "scale_factor": profiles[0]["scale_factor"],
        "quick": profiles[0]["quick"],
        "repeats": repeats,
        "wall_ms": spread([p["wall_ms"] for p in profiles]),
    }
    if with_rss:
        row["peak_rss_mb"] = spread(rss_mb)
    return row


rows = []
for bench in benches:
    rows.append(bench_row(bench, profile_dir, int(repeats), False))
    rows.append(bench_row(bench, os.path.join(profile_dir, "full"),
                          int(full_repeats), True))

record = {
    "schema": "uolap-bench-sim",
    "version": 4,
    "comment": "Generated by scripts/bench.sh: hostbench end-to-end "
               "metrics (oracle-checked) plus each figure bench's wall "
               "time over repeated runs, --quick and at default scale "
               "(with peak RSS), on the host below.",
    "host": host,
    "workloads": workloads,
    "benches": rows,
}
with open(out, "w") as f:
    json.dump(record, f, indent=2)
    f.write("\n")
EOF
echo "# wrote $OUT (profiles kept in $PROFILE_DIR/)"
