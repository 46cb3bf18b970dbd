#include "core/machine.h"

#include <gtest/gtest.h>

namespace uolap::core {
namespace {

TEST(MachineTest, SingleCoreByDefault) {
  Machine m(MachineConfig::Broadwell());
  EXPECT_EQ(m.num_cores(), 1u);
}

TEST(MachineTest, MultiCoreConstruction) {
  Machine m(MachineConfig::Broadwell(), 14);
  EXPECT_EQ(m.num_cores(), 14u);
  // Cores are independent objects.
  EXPECT_NE(&m.core(0), &m.core(13));
}

TEST(MachineDeathTest, RejectsMoreCoresThanSocket) {
  // The paper numa-localizes to one socket (14 cores).
  EXPECT_DEATH(Machine(MachineConfig::Broadwell(), 15), "numa-localized");
}

TEST(MachineDeathTest, RejectsOutOfRangeCoreIndex) {
  Machine m(MachineConfig::Broadwell(), 2);
  EXPECT_DEATH(m.core(2), "");
}

TEST(MachineTest, AnalyzeCoreMatchesTopDownModel) {
  Machine m(MachineConfig::Broadwell(), 1);
  InstrMix mix;
  mix.alu = 4000;
  m.core(0).Retire(mix);
  m.FinalizeAll();
  const ProfileResult via_machine = m.AnalyzeCore(0);
  TopDownModel model(MachineConfig::Broadwell());
  const ProfileResult direct = model.Analyze(m.core(0).counters());
  EXPECT_DOUBLE_EQ(via_machine.total_cycles, direct.total_cycles);
}

TEST(MachineTest, AnalyzeAllAggregatesEveryCore) {
  Machine m(MachineConfig::Broadwell(), 3);
  for (size_t i = 0; i < 3; ++i) {
    InstrMix mix;
    mix.alu = 4000 * (i + 1);
    m.core(i).Retire(mix);
  }
  m.FinalizeAll();
  const MultiCoreResult r = m.AnalyzeAll();
  EXPECT_EQ(r.threads, 3);
  // Retiring sums: (1000 + 2000 + 3000) cycles.
  CycleBreakdown sum;
  for (const ProfileResult& core : r.per_core) sum += core.cycles;
  EXPECT_NEAR(sum.retiring, 6000.0, 1e-9);
  // Makespan = slowest core (3000 retiring cycles).
  EXPECT_NEAR(r.makespan_cycles, 3000.0, 1e-6);
}

TEST(MachineTest, CoresShareNoState) {
  Machine m(MachineConfig::Broadwell(), 2);
  std::vector<int64_t> data(4096, 1);
  for (auto& v : data) m.core(0).Load(&v, 8);
  m.FinalizeAll();
  EXPECT_GT(m.core(0).counters().mem.data_accesses, 0u);
  EXPECT_EQ(m.core(1).counters().mem.data_accesses, 0u);
}

TEST(MachineTest, ConfigPropagatesToAnalysis) {
  MachineConfig fast = MachineConfig::Broadwell();
  fast.freq_ghz = 4.8;  // double the clock halves the time
  Machine slow_m(MachineConfig::Broadwell(), 1);
  Machine fast_m(fast, 1);
  InstrMix mix;
  mix.alu = 1 << 20;
  slow_m.core(0).Retire(mix);
  fast_m.core(0).Retire(mix);
  slow_m.FinalizeAll();
  fast_m.FinalizeAll();
  EXPECT_NEAR(slow_m.AnalyzeCore(0).time_ms / fast_m.AnalyzeCore(0).time_ms,
              2.0, 1e-9);
}

}  // namespace
}  // namespace uolap::core
