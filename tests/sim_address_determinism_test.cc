// Counters follow the workload, not the heap. Every simulated structure
// sits at an address the core's Placement chose, so running the same
// query twice in one process — on fresh machines, after the first run has
// churned the allocator — must produce bit-identical counters. Before the
// simulated address space existed the caches were keyed by host heap
// addresses and a second in-process run differed for about a third of the
// (engine, query) pairs.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine.h"
#include "engine/engine.h"
#include "engine/query_spec.h"
#include "engine/registry.h"
#include "harness/engines.h"
#include "harness/profile.h"
#include "tpch/dbgen.h"

namespace uolap {
namespace {

using core::CoreCounters;
using core::Machine;
using core::MachineConfig;
using engine::QuerySpec;
using engine::Workers;

/// The keys harness::RegisterBuiltinEngines registers, in sorted order.
constexpr const char* kEngineKeys[] = {"colstore", "rowstore", "tectorwise",
                                       "tectorwise+simd", "typer"};

class SimAddressDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::DbGen gen(42);
    db_ = new tpch::Database(std::move(gen.Generate(0.01)).value());
    registry_ = new engine::EngineRegistry(*db_);
    harness::RegisterBuiltinEngines(*registry_);
  }

  /// One spec per QueryId, exercising the non-default parameters too.
  static std::vector<QuerySpec> AllSpecs() {
    return {
        QuerySpec::Projection(4),
        QuerySpec::Selection(engine::MakeSelectionParams(*db_, 0.1)),
        QuerySpec::Join(engine::JoinSize::kMedium),
        QuerySpec::GroupBy(1024),
        QuerySpec::Q1(),
        QuerySpec::Q6(engine::MakeQ6Params()),
        QuerySpec::Q9(),
        QuerySpec::Q18(),
    };
  }

  /// Runs `spec` on a fresh single-core machine; returns its counters.
  static CoreCounters RunOnce(const engine::OlapEngine& eng,
                              const QuerySpec& spec) {
    Machine machine(MachineConfig::Broadwell(), 1);
    Workers workers(machine.core(0));
    EXPECT_TRUE(eng.Run(spec, workers).ok());
    machine.FinalizeAll();
    return machine.core(0).counters();
  }

  static tpch::Database* db_;
  static engine::EngineRegistry* registry_;
};

tpch::Database* SimAddressDeterminismTest::db_ = nullptr;
engine::EngineRegistry* SimAddressDeterminismTest::registry_ = nullptr;

TEST_F(SimAddressDeterminismTest, EveryEngineQueryPairRepeatsBitExactly) {
  int pairs = 0;
  for (const std::string key : kEngineKeys) {
    const engine::OlapEngine& eng = *registry_->Get(key).value();
    for (const QuerySpec& spec : AllSpecs()) {
      if (!eng.Supports(spec.id)) continue;
      SCOPED_TRACE(key + "/" + spec.Label());
      ++pairs;
      const CoreCounters first = RunOnce(eng, spec);
      const CoreCounters second = RunOnce(eng, spec);
      EXPECT_GT(first.mem.data_accesses, 0u);
      // operator== compares every field, doubles included, exactly.
      EXPECT_TRUE(first == second);
      EXPECT_EQ(first.mem.l1d_hits, second.mem.l1d_hits);
      EXPECT_EQ(first.mem.dram_lines, second.mem.dram_lines);
    }
  }
  EXPECT_EQ(pairs, 36);
}

TEST_F(SimAddressDeterminismTest, ThreadedProfileMultiRepeatsBitExactly) {
  // Every engine, scratch allocated inside ForEach bodies on four worker
  // threads: placement is per core and in program order, so neither the
  // heap nor the schedule reaches the counters.
  auto workload = [](Workers& w) {
    for (const std::string key : kEngineKeys) {
      const engine::OlapEngine& eng = *registry_->Get(key).value();
      ASSERT_TRUE(eng.Run(QuerySpec::Q1(), w).ok());
      ASSERT_TRUE(eng.Run(QuerySpec::Join(engine::JoinSize::kMedium), w).ok());
    }
  };
  const obs::RunRecord a =
      harness::Profile(MachineConfig::Broadwell(), 4, {}, "a", workload);
  const obs::RunRecord b =
      harness::Profile(MachineConfig::Broadwell(), 4, {}, "b", workload);
  ASSERT_EQ(a.cores.size(), 4u);
  ASSERT_EQ(b.cores.size(), 4u);
  for (size_t i = 0; i < a.cores.size(); ++i) {
    SCOPED_TRACE("core " + std::to_string(i));
    EXPECT_TRUE(a.cores[i].whole.counters == b.cores[i].whole.counters);
    EXPECT_EQ(a.cores[i].whole.total_cycles, b.cores[i].whole.total_cycles);
  }
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
}

}  // namespace
}  // namespace uolap
