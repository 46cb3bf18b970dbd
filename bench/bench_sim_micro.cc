// google-benchmark performance suite for the simulator itself: these are
// wall-clock benchmarks of the instrument (how fast the model simulates),
// used to keep the simulator fast enough for SF >= 1 experiments. The
// end-to-end host-cost record (scan, probe and serve workloads with a
// correctness oracle) is hostbench's; scripts/bench.sh folds it into
// BENCH_sim.json.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/branch_predictor.h"
#include "core/cache.h"
#include "core/calibration.h"
#include "core/core.h"
#include "core/machine.h"
#include "engine/hash_table.h"
#include "tpch/dbgen.h"

namespace {

using uolap::Rng;
using uolap::core::BranchPredictor;
using uolap::core::Core;
using uolap::core::LlcCache;
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

// The L3 layer on its own: Broadwell's 28672x20 set blocks, probed and
// filled with random lines over 4x its capacity, so most probes miss
// into a set the host has to fetch and the victim select runs on a full
// set — the shape of a large hash-join probe.
void BM_LlcProbeFill(benchmark::State& state) {
  constexpr uint64_t kSets = 28672;
  constexpr uint32_t kWays = 20;
  LlcCache cache(kSets, kWays);
  Rng rng(11);
  const uint64_t lines = 4 * kSets * kWays;
  for (auto _ : state) {
    const uint64_t key = rng.Next() % lines;
    const uolap::core::CacheProbe p = cache.Probe(key, false);
    if (!p.hit) benchmark::DoNotOptimize(cache.FillMiss(p, key, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LlcProbeFill);

// Simulated addresses come from the core's placement: the model never
// reads host memory behind them, so no host array backs either stream.
void BM_CoreSequentialLoad(benchmark::State& state) {
  Core core(MachineConfig::Broadwell());
  constexpr uint64_t kWords = 1 << 20;  // 8 MB of 8-byte words
  const uint64_t base = core.placement().Fresh(kWords * 8);
  uint64_t i = 0;
  for (auto _ : state) {
    core.Load(base + i * 8, 8);
    i = (i + 1) & (kWords - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreSequentialLoad);

// Random 8-byte loads over 32 MB: nearly every load walks the L3 set
// image. Arg 1 also issues Core::Prefetch for the load 8 ahead (a second
// generator replays the same sequence ahead), the engines' lookahead hint;
// Arg 0 is the unhinted baseline.
void BM_CoreRandomLoad(benchmark::State& state) {
  Core core(MachineConfig::Broadwell());
  constexpr uint64_t kWords = 1 << 22;  // 32 MB of 8-byte words
  constexpr int kLookahead = 8;
  const uint64_t base = core.placement().Fresh(kWords * 8);
  const bool hint = state.range(0) != 0;
  Rng rng(3);
  Rng ahead(3);
  for (int i = 0; i < kLookahead; ++i) ahead.Next();
  for (auto _ : state) {
    if (hint) core.Prefetch(base + (ahead.Next() & (kWords - 1)) * 8);
    core.Load(base + (rng.Next() & (kWords - 1)) * 8, 8);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(hint ? "hint" : "plain");
}
BENCHMARK(BM_CoreRandomLoad)->Arg(0)->Arg(1);

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

}  // namespace

BENCHMARK_MAIN();
