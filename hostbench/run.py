#!/usr/bin/env python3
"""Host-cost benchmark of the uolap simulator (see hostbench/NOTES.md).

Run from the repository root:

  python3 hostbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
  python3 hostbench/run.py --selftest

Builds hostbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench), runs one
workload in one single-threaded process, checks its answers against the
correctness oracle and prints every metric by name with its unit. The last
line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

carrying the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1. The full record (host fingerprint, metrics, failures) and
the raw spans are written under the build directory. The exit code is 0
only when every correctness check passed.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
WORKLOADS = ("scan", "probe", "serve")
# The seed whose answers and exact work counts expected.json records.
EXPECTED_SEED = 42
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sim_mips": "Minstr/s",
    "peak_rss_mb": "MB",
}
# Engines each workload profiles query by query (serve runs its engines
# inside Server), and the query classes it runs; metric names use these.
ENGINES = {
    "scan": ("typer", "tectorwise", "colstore"),
    "probe": ("typer", "tectorwise"),
    "serve": (),
}
CLASSES = {
    "scan": ("projection-d4", "selection-s50", "q6", "q1"),
    "probe": ("join-large", "groupby-g65536", "q9"),
    "serve": (),
}
SERVER_OUTCOMES = ("admitted", "completed", "rejected", "shed", "timed_out",
                   "failed", "retries")
MICRO = ("load_hit_ns", "load_seq_ns", "load_rand_ns", "branch_ns",
         "retire_ns")


def per_layer_units():
    """The per-layer metrics of BENCHMARK.json with their units: those every
    workload measures, so no time reads a constant 0 (counts and ratios of
    a layer a workload does not use read 0)."""
    units = {
        "tpch.generate_s": "s",
        "engines.construct_s": "s",
        "engines.run_s": "s",
        "engines.mips": "Minstr/s",
        "core.instructions": "count",
        "core.branch_events": "count",
        "core.data_accesses": "count",
        "core.progress_events": "count",
        "core.ns_per_access": "ns",
        "core.l1d_hit_frac": "ratio",
        "core.l2_hits": "count",
        "core.l3_hits": "count",
        "core.dram_lines": "count",
        "core.page_walks": "count",
        "core.mispredict_frac": "ratio",
        "core.memo_hit_frac": "ratio",
        "core.lane_line_frac": "ratio",
    }
    for e in ENGINES["scan"]:
        units["core.%s.memo_hit_frac" % e] = "ratio"
        units["core.%s.lane_line_frac" % e] = "ratio"
    for m in MICRO:
        units["core." + m] = "ns"
    for o in SERVER_OUTCOMES:
        units["server." + o] = "count"
    units.update({
        "obs.export_mb": "MB",
        "ledger.residual_frac": "ratio",
        "host.trace_overhead_frac": "ratio",
        "host.span_self_sum_frac": "ratio",
    })
    return units


def detail_units(workload):
    """Layer times only `workload` measures: printed by the traced run and
    kept in its record, beside the per-layer metrics."""
    if workload == "serve":
        return {
            "engines.rowstore.construct_s": "s",
            "server.run_cold_s": "s",
            "server.run_warm_s": "s",
            "server.classes_s": "s",
            "server.loop_us_per_query": "us",
            "obs.export_s": "s",
        }
    units = {"harness.profile_overhead_ms": "ms"}
    for e in ENGINES[workload]:
        units["engines.%s.run_s" % e] = "s"
        units["engines.%s.mips" % e] = "Minstr/s"
    for e in ENGINES[workload]:
        for c in CLASSES[workload]:
            units["query.%s.%s_ms" % (e, c)] = "ms"
    return units


def fail(message, code=2):
    sys.stderr.write("hostbench: %s\n" % message)
    sys.exit(code)


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# --- build ----------------------------------------------------------------


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(target, "hostbench"))


def read_cmake_cache(bdir):
    cache = {}
    path = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.exists(path):
        return cache
    with open(path) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.rstrip("\n").partition("=")
                cache[key.split(":")[0]] = value
    return cache


def build(bdir, deadline):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(REPO_DIR, "src", "CMakeLists.txt")):
        fail("no uolap sources next to %s; run from a full checkout"
             % BENCH_DIR)
    cache = read_cmake_cache(bdir)
    if cache and cache.get("CMAKE_HOME_DIRECTORY") != BENCH_DIR:
        fail("%s was configured for another source tree; remove it" % bdir)
    steps = []
    if not cache:
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "uolap_hostbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            fail("build timed out: %s" % " ".join(cmd))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: %s" % " ".join(cmd))
    return os.path.join(bdir, "uolap_hostbench")


def compile_flags(bdir):
    """Effective optimisation/code-generation flags of the simulator
    sources, from the exported compile database."""
    try:
        with open(os.path.join(bdir, "compile_commands.json")) as f:
            commands = json.load(f)
    except (OSError, ValueError):
        return ""
    for entry in commands:
        if entry["file"].endswith(os.path.join("src", "core", "core.cc")):
            return " ".join(t for t in entry["command"].split()
                            if t.startswith(("-O", "-g", "-f", "-m", "-D",
                                             "-std=")))
    return ""


def fingerprint(bdir, raw):
    """Host and build identity carried by every result record."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = read_cmake_cache(bdir)
    try:
        rev = subprocess.run(["git", "-C", REPO_DIR, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(REPO_DIR, "src", "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, REPO_DIR).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": "%s (%s)" % (cache.get("CMAKE_CXX_COMPILER", "?"),
                                 raw.get("compiler", "?")),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "flags": compile_flags(bdir),
        "git_rev": rev or "none",
        "src_sha256": digest.hexdigest()[:16],
    }


# --- spans ----------------------------------------------------------------


class Spans:
    """The raw spans with durations, self times and per-group views."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, s in enumerate(spans):
            s["dur"] = s["end_s"] - s["start_s"]
            if s["parent"] >= 0:
                self.children[s["parent"]].append(i)
        for i, s in enumerate(spans):
            s["self"] = s["dur"] - sum(spans[c]["dur"]
                                       for c in self.children[i])

    def group(self, g, name=None, label_prefix=None):
        return [s for s in self.spans if s["group"] == g and
                (name is None or s["name"] == name) and
                (label_prefix is None or s["label"].startswith(label_prefix))]

    def total(self, g, name, label_prefix=None):
        return sum(s["dur"] for s in self.group(g, name, label_prefix))

    def subtree_self(self, root):
        """Sum of self times over the subtree under span index `root`."""
        stack, total = [root], 0.0
        while stack:
            i = stack.pop()
            total += self.spans[i]["self"]
            stack.extend(self.children[i])
        return total


# --- metrics --------------------------------------------------------------


def pass_work(raw):
    """Exact simulated work counts of one pass (the last one)."""
    keys = ("instructions", "branch_events", "branch_mispredicts",
            "data_accesses", "l1d_hits", "l2_hits", "l3_hits", "dram_lines",
            "seq_lines", "rand_lines", "page_walks")
    if raw["workload"] == "serve":
        work = {k: raw["serve"]["classes"][k] for k in keys}
        work.update(memo_hits=0, lane_lines=0, progress_events=0)
        return work
    work = {k: 0 for k in keys + ("memo_hits", "lane_lines",
                                  "progress_events")}
    for q in raw["queries"]:
        for k in work:
            work[k] += q[k]
    return work


def pass_seconds(passes):
    """Host time of one pass, median over `passes`."""
    return median([p["seconds"] for p in passes])


def end_to_end(raw):
    run_s = pass_seconds([p for p in raw["passes"] if not p["traced"]])
    return {
        "setup_s": median(raw["setup_s"]),
        "run_s": run_s,
        "sim_mips": ratio(pass_work(raw)["instructions"], run_s) / 1e6,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw):
    """Every per-layer metric plus the workload's detail metrics."""
    spans = Spans(raw["spans"])
    work = pass_work(raw)
    micro = raw["micro"]
    workload = raw["workload"]
    setups = sorted({s["group"] for s in spans.spans if s["group"] < 0})
    traced = [i for i, p in enumerate(raw["passes"]) if p["traced"]]
    untraced_s = pass_seconds([p for p in raw["passes"] if not p["traced"]])
    traced_s = pass_seconds([raw["passes"][g] for g in traced])

    def over_passes(fn):
        return median([fn(g) for g in traced])

    def over_setups(label_prefix=None):
        return median([spans.total(g, "engines.construct", label_prefix)
                       for g in setups])

    m = {}
    server = raw.get("serve", {})
    if workload == "serve":
        cold = over_passes(lambda g: spans.total(g, "server.run_cold"))
        warm = over_passes(lambda g: spans.total(g, "server.run_warm"))
        # The engines run inside the cold Run's class simulation.
        engine_s = max(0.0, cold - warm)
        m.update({
            "engines.rowstore.construct_s": over_setups("rowstore"),
            "server.run_cold_s": cold,
            "server.run_warm_s": warm,
            "server.classes_s": engine_s,
            "server.loop_us_per_query": ratio(warm, server["submitted"]) * 1e6,
            "obs.export_s": over_passes(
                lambda g: spans.total(g, "obs.export")),
        })
    else:
        engine_s = over_passes(lambda g: spans.total(g, "engine.run"))
        m["harness.profile_overhead_ms"] = over_passes(
            lambda g: (spans.total(g, "harness.profile") -
                       spans.total(g, "engine.run")) /
            len(raw["queries"]) * 1e3)
        for e in ENGINES[workload]:
            run_s = over_passes(
                lambda g: spans.total(g, "engine.run", e + "/"))
            m["engines.%s.run_s" % e] = run_s
            m["engines.%s.mips" % e] = ratio(
                sum(q["instructions"] for q in raw["queries"]
                    if q["engine"] == e), run_s) / 1e6
            for c in CLASSES[workload]:
                m["query.%s.%s_ms" % (e, c)] = over_passes(
                    lambda g: spans.total(g, "engine.run", "%s/%s" % (e, c))
                ) * 1e3

    accesses = work["data_accesses"]
    m.update({
        "tpch.generate_s": median([spans.total(g, "tpch.generate")
                                   for g in setups]),
        "engines.construct_s": over_setups(),
        "engines.run_s": engine_s,
        "engines.mips": ratio(work["instructions"], engine_s) / 1e6,
        "core.instructions": work["instructions"],
        "core.branch_events": work["branch_events"],
        "core.data_accesses": accesses,
        "core.progress_events": work["progress_events"],
        "core.ns_per_access": ratio(engine_s, accesses) * 1e9,
        "core.l1d_hit_frac": ratio(work["l1d_hits"], accesses),
        "core.l2_hits": work["l2_hits"],
        "core.l3_hits": work["l3_hits"],
        "core.dram_lines": work["dram_lines"],
        "core.page_walks": work["page_walks"],
        "core.mispredict_frac": ratio(work["branch_mispredicts"],
                                      work["branch_events"]),
        "core.memo_hit_frac": ratio(work["memo_hits"], accesses),
        "core.lane_line_frac": ratio(work["lane_lines"], accesses),
        "obs.export_mb": server.get("export_bytes", 0) / 1e6,
        "host.trace_overhead_frac": ratio(traced_s, untraced_s) - 1.0,
    })
    for e in ENGINES["scan"]:
        qs = [q for q in raw["queries"] if q["engine"] == e]
        acc = sum(q["data_accesses"] for q in qs)
        m["core.%s.memo_hit_frac" % e] = ratio(
            sum(q["memo_hits"] for q in qs), acc)
        m["core.%s.lane_line_frac" % e] = ratio(
            sum(q["lane_lines"] for q in qs), acc)
    for k in MICRO:
        m["core." + k] = micro[k]
    for o in SERVER_OUTCOMES:
        m["server." + o] = server.get(o, 0)

    # Sum over event kinds of (count x isolated cost), against the host
    # time the simulated work actually took.
    predicted_ns = (work["l1d_hits"] * micro["load_hit_ns"] +
                    work["seq_lines"] * micro["load_seq_ns"] +
                    work["rand_lines"] * micro["load_rand_ns"] +
                    work["branch_events"] * micro["branch_ns"] +
                    work["progress_events"] * micro["retire_ns"])
    m["ledger.residual_frac"] = 1.0 - ratio(predicted_ns * 1e-9, engine_s)

    def self_sum_frac(g):
        roots = [i for i, s in enumerate(spans.spans)
                 if s["group"] == g and s["name"] == "pass"]
        return ratio(sum(spans.subtree_self(i) for i in roots),
                     raw["passes"][g]["seconds"])
    m["host.span_self_sum_frac"] = over_passes(self_sum_frac)
    return m


# --- correctness oracle ---------------------------------------------------


def load_expected():
    if not os.path.exists(EXPECTED_PATH):
        return {}
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def check_expected(raw, expected, corrupt):
    """For the recorded seed, answers and the heap-layout-independent
    counts must equal expected.json. Returns the failure messages."""
    want = expected.get(raw["workload"])
    if raw["seed"] != expected.get("seed") or not want:
        return []
    want = json.loads(json.dumps(want))
    if corrupt:
        first = sorted(want)[0]
        answer = want[first]["answer"]
        want[first]["answer"] = answer[:-1] + ("0" if answer[-1] != "0"
                                               else "1")
    got = {"%s/%s" % (q["engine"], q["class"]): q for q in raw["queries"]}
    failures = []
    for key in sorted(want):
        q = got.get(key)
        if q is None:
            failures.append("%s: not run" % key)
            continue
        for field in ("answer", "instructions", "branch_events"):
            if q[field] != want[key][field]:
                failures.append("%s: %s %s != expected %s" % (
                    key, field, q[field], want[key][field]))
    return failures


def record_expected(raw):
    expected = load_expected()
    expected["seed"] = raw["seed"]
    expected[raw["workload"]] = {
        "%s/%s" % (q["engine"], q["class"]): {
            "answer": q["answer"], "instructions": q["instructions"],
            "branch_events": q["branch_events"]}
        for q in raw["queries"]}
    with open(EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


# --- main -----------------------------------------------------------------


def run_workload(args):
    start = time.time()
    if "UOLAP_REFERENCE_PATHS" in os.environ:
        fail("refusing to measure: UOLAP_REFERENCE_PATHS is set", 3)
    bdir = build_dir()
    binary = build(bdir, start + BUILD_TIMEOUT_S)
    flags = cached_flags(bdir)
    if "-fsanitize" in flags:
        fail("refusing to measure: sanitizer build (%s)" % flags, 3)

    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = os.path.join(out_dir, tag + ".raw.json")
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--out=" + raw_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        fail("uolap_hostbench exited with %d" % proc.returncode,
             3 if proc.returncode == 3 else 2)
    with open(raw_path) as f:
        raw = json.load(f)

    if args.record_expected:
        if args.seed != EXPECTED_SEED:
            fail("--record-expected wants --seed %d" % EXPECTED_SEED)
        record_expected(raw)
    failures = list(raw["failures"])
    mismatches = check_expected(raw, load_expected(), args.corrupt_expected)
    failures += mismatches
    attempted = raw["attempted"]
    failed = min(attempted, raw["failed"] + len(mismatches))

    detail = {}
    if args.trace:
        units = per_layer_units()
        values = per_layer(raw)
        detail = detail_units(args.workload)
    else:
        units = END_TO_END
        values = end_to_end(raw)
    metrics = {k: {"value": float(values[k]), "unit": units[k]}
               for k in units}
    details = {k: {"value": float(values[k]), "unit": detail[k]}
               for k in detail}
    fp = fingerprint(bdir, raw)
    record = {
        "schema": "uolap-hostbench-record",
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": fp,
        "passes": raw["passes"], "setup_s": raw["setup_s"],
        "attempted": attempted, "failed": failed,
        "fail_frac": ratio(failed, attempted), "failures": failures,
        "metrics": metrics, "details": details,
        "raw": os.path.relpath(raw_path),
    }
    with open(os.path.join(out_dir, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    n_traced = sum(1 for p in raw["passes"] if p["traced"])
    print("# uolap hostbench: workload=%s seed=%d trace=%d passes=%d "
          "(untraced %d, traced %d), %.1f s wall" % (
              args.workload, args.seed, args.trace, len(raw["passes"]),
              len(raw["passes"]) - n_traced, n_traced, time.time() - start))
    print("# host: " + " ".join("%s=%s" % (k, json.dumps(fp[k]))
                                for k in sorted(fp)))
    for message in failures:
        print("# FAILED: " + message)
    for name, unit in list(units.items()) + list(detail.items()):
        print("%-34s %16.6g %s" % (name, values[name], unit))
    print("%-34s %16.6g ratio (%d failed of %d attempted)" % (
        "fail_frac", ratio(failed, attempted), failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def cached_flags(bdir):
    """Every compile and link flag variable of the configured build."""
    cache = read_cmake_cache(bdir)
    return " ".join(v for k, v in cache.items()
                    if k.startswith("CMAKE_CXX_FLAGS") or
                    k == "CMAKE_EXE_LINKER_FLAGS")


def selftest():
    """The oracle must catch a corrupted expected answer: fail_frac > 0
    and a non-zero exit, while the uncorrupted run passes. Also checks
    BENCHMARK.json names exactly the metrics this script reports."""
    base = [sys.executable, os.path.abspath(__file__), "--workload", "scan",
            "--seed", str(EXPECTED_SEED), "--seconds", "1", "--trace", "0"]
    results = {}
    for corrupt in (False, True):
        cmd = base + (["--corrupt-expected"] if corrupt else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BUILD_TIMEOUT_S + RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines else {}
        results[corrupt] = (proc.returncode, last)
    ok_code, ok_last = results[False]
    bad_code, bad_last = results[True]
    problems = []
    if ok_code != 0 or ok_last.get("failed") != 0:
        problems.append("clean run failed (exit %d)" % ok_code)
    if bad_code == 0 or not bad_last.get("failed"):
        problems.append("corrupted expected answer went unnoticed")
    spec_path = os.path.join(REPO_DIR, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        if {m["name"] for m in spec["end_to_end"]} != set(END_TO_END):
            problems.append("BENCHMARK.json end_to_end names differ")
        if {m["name"] for m in spec["per_layer"]} != set(per_layer_units()):
            problems.append("BENCHMARK.json per_layer names differ")
    for p in problems:
        print("selftest: FAIL: " + p)
    if not problems:
        print("selftest: ok (corrupted answer -> exit %d, failed %d)"
              % (bad_code, bad_last["failed"]))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="corrupt one expected answer (oracle check)")
    parser.add_argument("--record-expected", action="store_true",
                        help="record this run's answers and exact counts "
                        "into expected.json (seed %d only)" % EXPECTED_SEED)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
