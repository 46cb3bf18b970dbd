// google-benchmark performance suite for the simulator itself: these are
// wall-clock benchmarks of the instrument (how fast the model simulates),
// used to keep the simulator fast enough for SF >= 1 experiments.
//
// After the google-benchmark suite, the binary measures end-to-end
// simulated tuples/sec for three representative workloads (sequential
// scan, hash-probe join, multi-core scan) and writes them to
// BENCH_sim.json next to the binary (override with --out=PATH), so
// throughput regressions of the instrument are machine-diffable across
// commits without a repo-root run clobbering the tracked perf-history
// record.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/branch_predictor.h"
#include "core/cache.h"
#include "core/calibration.h"
#include "core/memory_system.h"
#include "core/core.h"
#include "core/machine.h"
#include "engine/hash_table.h"
#include "engines/typer/typer_engine.h"
#include "harness/profile.h"
#include "tpch/dbgen.h"

namespace {

using uolap::Rng;
using uolap::core::BranchPredictor;
using uolap::core::Core;
using uolap::core::MachineConfig;
using uolap::core::SetAssociativeCache;

void BM_CacheHit(benchmark::State& state) {
  SetAssociativeCache cache(64, 8);
  for (uint64_t k = 0; k < 8; ++k) cache.Insert(k * 64, false);
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access((k++ % 8) * 64, false));
  }
}
BENCHMARK(BM_CacheHit);

void BM_CacheMissInsert(benchmark::State& state) {
  SetAssociativeCache cache(512, 8);
  uint64_t k = 0;
  for (auto _ : state) {
    cache.Access(k, false);
    benchmark::DoNotOptimize(cache.Insert(k, false));
    ++k;
  }
}
BENCHMARK(BM_CacheMissInsert);

void BM_CoreSequentialLoad(benchmark::State& state) {
  Core core(MachineConfig::Broadwell());
  std::vector<int64_t> data(1 << 20, 1);
  size_t i = 0;
  for (auto _ : state) {
    core.Load(&data[i], 8);
    i = (i + 1) & (data.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreSequentialLoad);

void BM_CoreRandomLoad(benchmark::State& state) {
  Core core(MachineConfig::Broadwell());
  std::vector<int64_t> data(1 << 22, 1);
  Rng rng(3);
  for (auto _ : state) {
    core.Load(&data[static_cast<size_t>(rng.Next()) & (data.size() - 1)], 8);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreRandomLoad);

void BM_BranchPredictor(benchmark::State& state) {
  BranchPredictor bp;
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bp.Record(1, rng.Bernoulli(0.5)));
  }
}
BENCHMARK(BM_BranchPredictor);

void BM_HashTableProbe(benchmark::State& state) {
  Core core(MachineConfig::Broadwell());
  uolap::engine::JoinHashTable ht(core, 1 << 16);
  for (int64_t k = 0; k < (1 << 16); ++k) ht.Insert(core, k, k);
  int64_t k = 0;
  int64_t payload;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ht.ProbeFirst(core, 1, k++ & ((1 << 16) - 1), &payload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTableProbe);

// Random-order probes: every access is a fresh line + page, the shape
// that stresses the stream-detector match scan and the TLB lookup. Arg 0
// runs the accelerated kernels, Arg 1 the reference scans
// (Core::SetReferencePaths) — the pair is the microscopic before/after of
// the fast-path overhaul.
void BM_CoreRandomProbe(benchmark::State& state) {
  Core core(MachineConfig::Broadwell());
  core.SetReferencePaths(state.range(0) != 0);
  uolap::engine::JoinHashTable ht(core, 1 << 16);
  for (int64_t k = 0; k < (1 << 16); ++k) ht.Insert(core, k, k);
  core.SetMlpHint(uolap::core::kMlpScalarProbe);
  Rng rng(7);
  int64_t payload;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht.ProbeFirst(
        core, 1, static_cast<int64_t>(rng.Next() & ((1 << 16) - 1)),
        &payload));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) != 0 ? "reference" : "fast");
}
BENCHMARK(BM_CoreRandomProbe)->Arg(0)->Arg(1);

void BM_DbGenLineitemsPerSecond(benchmark::State& state) {
  for (auto _ : state) {
    uolap::tpch::DbGen gen(1);
    auto db = gen.Generate(0.01);
    benchmark::DoNotOptimize(db.value().lineitem.size());
  }
  state.SetItemsProcessed(state.iterations() * 60000);
}
BENCHMARK(BM_DbGenLineitemsPerSecond);

/// Wall-clock seconds of one invocation of `fn`.
template <typename Fn>
double TimeIt(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Process-CPU seconds of one invocation of `fn`. Used for the
/// single-threaded fast/reference pairs: on a shared box, scheduler
/// preemption swings wall clock by tens of percent, and CPU time is the
/// quantity the fast-path work actually changes.
template <typename Fn>
double TimeItCpu(Fn&& fn) {
  timespec a{}, b{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &a);
  fn();
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &b);
  return static_cast<double>(b.tv_sec - a.tv_sec) +
         static_cast<double>(b.tv_nsec - a.tv_nsec) * 1e-9;
}

/// Best-of-N paired measurement of one workload through the reference and
/// the accelerated kernels. `fn` runs the workload once and returns its
/// measured seconds (setup outside the timed section stays untimed).
/// Arms are interleaved within each round so slow frequency / load drift
/// hits both equally, and the min over rounds discards preemption
/// outliers (round 0 doubles as cache warmup). `fn` must construct its
/// cores per call — they inherit the process-wide reference-paths default
/// toggled here.
template <typename Fn>
std::pair<double, double> RefFastSeconds(Fn&& fn) {
  using uolap::core::MemorySystem;
  constexpr int kRounds = 5;
  double ref_s = 1e100;
  double fast_s = 1e100;
  for (int r = 0; r < kRounds; ++r) {
    MemorySystem::SetReferencePathsDefault(true);
    ref_s = std::min(ref_s, fn());
    MemorySystem::SetReferencePathsDefault(false);
    fast_s = std::min(fast_s, fn());
  }
  return {ref_s, fast_s};
}

/// Random-key probe workload for the throughput section: 400k probes of a
/// 64k-entry chained table, each one a fresh cache line and page — the
/// shape the stream-index + translation-memo overhaul targets. Routed
/// through ProbeFirstBlock, the batched probe entry point the engines
/// use (on the reference paths the block degenerates to the plain
/// per-key loop, so the before/after pair measures the real API).
double RandomProbeSeconds(size_t probes) {
  Core core(MachineConfig::Broadwell());
  uolap::engine::JoinHashTable ht(core, 1 << 16);
  for (int64_t k = 0; k < (1 << 16); ++k) ht.Insert(core, k, k);
  Rng rng(11);
  std::vector<int64_t> keys(probes);
  for (auto& k : keys) {
    k = static_cast<int64_t>(rng.Next() & ((1 << 16) - 1));
  }
  return TimeItCpu([&] {
    int64_t acc = 0;
    ht.ProbeFirstBlock(
        core, 1, uolap::core::kMlpScalarProbe, 0, probes,
        [&](size_t i) { return keys[i]; },
        [&](size_t, int64_t payload) { acc += payload; });
    benchmark::DoNotOptimize(acc);
  });
}

/// Simulated-throughput section: drives the real Typer engine through the
/// harness on a small generated database and reports tuples simulated per
/// wall-clock second for the hot-path shapes the runtime optimizes. Each
/// single-core workload is measured through the reference kernels
/// ("reference", the pre-overhaul scans/lookups) and through the
/// accelerated ones (top-level entries) — interleaved best-of-3 on
/// process-CPU time, see RefFastSeconds — so the JSON carries its own
/// before/after and the speedup is machine-diffable across commits.
/// Schema: uolap-bench-sim-micro v2 (v1 had no reference/speedup blocks).
void WriteSimThroughputJson(const char* path) {
  using uolap::core::MemorySystem;
  using uolap::engine::Workers;
  constexpr double kSf = 0.05;
  constexpr size_t kRandomProbes = 400000;
  uolap::tpch::DbGen gen(42);
  const auto db = gen.Generate(kSf);
  const uolap::core::MachineConfig cfg =
      uolap::core::MachineConfig::Broadwell();
  uolap::typer::TyperEngine typer(db.value());
  const double n = static_cast<double>(db.value().lineitem.size());
  constexpr int kThreads = 4;

  // Each single-core workload is a best-of-3 interleaved reference/fast
  // pair on process-CPU time (see RefFastSeconds); newly constructed
  // cores (the harness makes one per profile) inherit the process-wide
  // reference-paths default.
  const auto [ref_scan_s, scan_s] = RefFastSeconds([&] {
    return TimeItCpu([&] {
      uolap::harness::ProfileSingle(
          cfg, [&](Workers& w) { typer.Projection(w, 4); });
    });
  });
  const auto [ref_probe_s, probe_s] = RefFastSeconds([&] {
    return TimeItCpu([&] {
      uolap::harness::ProfileSingle(cfg, [&](Workers& w) {
        typer.Join(w, uolap::engine::JoinSize::kLarge);
      });
    });
  });
  const auto [ref_rand_s, rand_s] =
      RefFastSeconds([&] { return RandomProbeSeconds(kRandomProbes); });
  MemorySystem::SetReferencePathsDefault(false);
  const double multi_s = TimeIt([&] {
    uolap::harness::ProfileMulti(
        cfg, kThreads, [&](Workers& w) { typer.Projection(w, 4); });
  });

  const double r = static_cast<double>(kRandomProbes);
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"schema\": \"uolap-bench-sim-micro\",\n"
      "  \"version\": 2,\n"
      "  \"scale_factor\": %.2f,\n"
      "  \"lineitem_tuples\": %.0f,\n"
      "  \"random_probes\": %.0f,\n"
      "  \"scan\": {\"wall_s\": %.4f, \"sim_tuples_per_sec\": %.0f},\n"
      "  \"probe\": {\"wall_s\": %.4f, \"sim_tuples_per_sec\": %.0f},\n"
      "  \"probe_random\": {\"wall_s\": %.4f, \"sim_tuples_per_sec\": "
      "%.0f},\n"
      "  \"multicore\": {\"threads\": %d, \"wall_s\": %.4f, "
      "\"sim_tuples_per_sec\": %.0f},\n"
      "  \"reference\": {\n"
      "    \"scan\": {\"wall_s\": %.4f, \"sim_tuples_per_sec\": %.0f},\n"
      "    \"probe\": {\"wall_s\": %.4f, \"sim_tuples_per_sec\": %.0f},\n"
      "    \"probe_random\": {\"wall_s\": %.4f, \"sim_tuples_per_sec\": "
      "%.0f}\n"
      "  },\n"
      "  \"speedup\": {\"scan\": %.2f, \"probe\": %.2f, "
      "\"probe_random\": %.2f}\n"
      "}\n",
      kSf, n, r, scan_s, n / scan_s, probe_s, n / probe_s, rand_s,
      r / rand_s, kThreads, multi_s, n * kThreads / multi_s, ref_scan_s,
      n / ref_scan_s, ref_probe_s, n / ref_probe_s, ref_rand_s,
      r / ref_rand_s, ref_scan_s / scan_s, ref_probe_s / probe_s,
      ref_rand_s / rand_s);
  std::fclose(f);
  std::printf(
      "wrote %s (scan %.2fM, probe %.2fM, probe_random %.2fM, multicore "
      "%.2fM tuples/s; speedup vs reference: scan %.2fx, probe %.2fx, "
      "probe_random %.2fx)\n",
      path, n / scan_s / 1e6, n / probe_s / 1e6, r / rand_s / 1e6,
      n * kThreads / multi_s / 1e6, ref_scan_s / scan_s,
      ref_probe_s / probe_s, ref_rand_s / rand_s);
}

}  // namespace

int main(int argc, char** argv) {
  // --out=PATH (alias --sim-json=PATH) names the throughput JSON. The
  // default lives NEXT TO THE BINARY, not in the working directory: a
  // spot-check run from the repo root must never overwrite the tracked
  // perf-history BENCH_sim.json (that clobber has happened). Empty skips
  // the throughput section, which CI uses to spot-check the
  // google-benchmark pairs cheaply. Stripped before google-benchmark
  // sees argv.
  std::string sim_json = "BENCH_sim.json";
  if (const char* slash = std::strrchr(argv[0], '/')) {
    sim_json.assign(argv[0], static_cast<size_t>(slash + 1 - argv[0]));
    sim_json += "BENCH_sim.json";
  }
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--sim-json=", 11) == 0) {
      sim_json = arg + 11;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      sim_json = arg + 6;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!sim_json.empty()) WriteSimThroughputJson(sim_json.c_str());
  return 0;
}
