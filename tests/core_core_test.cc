#include "core/core.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace uolap::core {
namespace {

TEST(CoreTest, LoadCountsInstructionAndAccess) {
  Core core(MachineConfig::Broadwell());
  std::vector<int64_t> data(1024, 1);
  for (auto& v : data) core.Load(&v, sizeof(v));
  core.Finalize();
  const CoreCounters c = core.counters();
  EXPECT_EQ(c.mix.load, 1024u);
  EXPECT_EQ(c.mem.data_accesses, 1024u);
  // 1024 int64s span 128 lines: 128 real accesses, the rest filtered as
  // same-line L1 hits.
  EXPECT_EQ(c.mem.l1d_hits + c.mem.l2_hits + c.mem.l3_hits + c.mem.dram_lines,
            1024u);
  EXPECT_GE(c.mem.dram_lines + c.mem.l3_hits + c.mem.l2_hits, 120u);
}

TEST(CoreTest, StoreCountsAndDirties) {
  Core core(MachineConfig::Broadwell());
  std::vector<int64_t> data(8, 0);
  for (auto& v : data) core.Store(&v, sizeof(v));
  core.Finalize();
  EXPECT_EQ(core.counters().mix.store, 8u);
}

TEST(CoreTest, StraddlingAccessTouchesBothLines) {
  Core core(MachineConfig::Broadwell());
  alignas(64) unsigned char buf[128] = {};
  core.Load(buf + 60, 8);  // crosses the line boundary
  core.Finalize();
  EXPECT_EQ(core.counters().mem.data_accesses, 2u);
}

TEST(CoreTest, BranchDrivesPredictorAndCounts) {
  Core core(MachineConfig::Broadwell());
  uolap::Rng rng(2);
  for (int i = 0; i < 20000; ++i) core.Branch(1, rng.Bernoulli(0.5));
  core.Finalize();
  const CoreCounters c = core.counters();
  EXPECT_EQ(c.branch_events, 20000u);
  EXPECT_EQ(c.mix.branch, 20000u);
  EXPECT_GT(c.branch_mispredicts, 6000u);
}

TEST(CoreTest, RetireAccumulatesMix) {
  Core core(MachineConfig::Broadwell());
  InstrMix per_iter;
  per_iter.alu = 2;
  per_iter.other = 1;
  per_iter.chain_cycles = 1;
  core.RetireN(per_iter, 1000);
  core.Finalize();
  const CoreCounters c = core.counters();
  EXPECT_EQ(c.mix.alu, 2000u);
  EXPECT_EQ(c.mix.other, 1000u);
  EXPECT_EQ(c.mix.chain_cycles, 1000u);
  EXPECT_EQ(c.mix.TotalInstructions(), 3000u);
}

TEST(CoreTest, TinyCodeRegionNeverMissesL1I) {
  Core core(MachineConfig::Broadwell());
  core.SetCodeRegion({"tight-loop", 1024});
  InstrMix m;
  m.alu = 100;
  core.RetireN(m, 1000);
  core.Finalize();
  const CoreCounters c = core.counters();
  EXPECT_GT(c.mem.l1i_hits, 0u);
  EXPECT_EQ(c.mem.l1i_l2_hits, 0u);
  EXPECT_EQ(c.mem.l1i_dram, 0u);
}

TEST(CoreTest, LargeCodeRegionSpillsToL2) {
  Core core(MachineConfig::Broadwell());
  core.SetCodeRegion({"interpreter", 128 * 1024});
  InstrMix m;
  m.alu = 100;
  core.RetireN(m, 1000);
  core.Finalize();
  const CoreCounters c = core.counters();
  // 32 KB of 128 KB fits L1I: 25% L1 hits, the rest from L2.
  EXPECT_GT(c.mem.l1i_l2_hits, c.mem.l1i_hits);
  EXPECT_EQ(c.mem.l1i_dram, 0u);
}

TEST(CoreTest, HugeCodeRegionReachesL3) {
  Core core(MachineConfig::Broadwell());
  core.SetCodeRegion({"monster", 4ull * 1024 * 1024});
  InstrMix m;
  m.alu = 1000;
  core.RetireN(m, 100);
  core.Finalize();
  EXPECT_GT(core.counters().mem.l1i_l3_hits, 0u);
}

TEST(CoreTest, FilterAbsorbsHotLine) {
  Core core(MachineConfig::Broadwell());
  int64_t hot = 0;
  for (int i = 0; i < 10000; ++i) core.Load(&hot, sizeof(hot));
  core.Finalize();
  const CoreCounters c = core.counters();
  EXPECT_EQ(c.mem.data_accesses, 10000u);
  EXPECT_GE(c.mem.l1d_hits, 9999u);
}

TEST(CoreTest, MlpHintForwardsToMemory) {
  Core core(MachineConfig::Broadwell());
  core.SetMlpHint(8.0);
  EXPECT_DOUBLE_EQ(core.memory().mlp_hint(), 8.0);
}

TEST(CoreTest, SequentialColumnScanMostlyStreamCovered) {
  Core core(MachineConfig::Broadwell());
  // 8 MB column: far beyond L3-resident after a cold start.
  std::vector<int64_t> col(1 << 20, 7);
  for (auto& v : col) core.Load(&v, sizeof(v));
  core.Finalize();
  const CoreCounters c = core.counters();
  const double covered = static_cast<double>(c.mem.dram_seq_l2_streamer);
  const double dram = static_cast<double>(c.mem.dram_lines);
  ASSERT_GT(dram, 0);
  EXPECT_GT(covered / dram, 0.95);
}

}  // namespace
}  // namespace uolap::core
