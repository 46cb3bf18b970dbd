#include "core/multicore.h"

#include <gtest/gtest.h>

#include "core/config.h"

namespace uolap::core {
namespace {

/// A synthetic per-core load: `instr` ALU instructions plus `mb` megabytes
/// of streamer-covered sequential DRAM traffic.
CoreCounters ScanCore(uint64_t instr, double mb) {
  CoreCounters c;
  c.mix.alu = instr;
  const auto lines = static_cast<uint64_t>(mb * 1024 * 1024 / 64);
  c.mem.dram_seq_l2_streamer = lines;
  c.mem.dram_demand_bytes_seq = lines * 64;
  return c;
}

/// Component-wise sum of the cores' cycles, in core order.
CycleBreakdown Aggregate(const MultiCoreResult& r) {
  CycleBreakdown sum;
  for (const ProfileResult& core : r.per_core) sum += core.cycles;
  return sum;
}

TEST(MultiCoreTest, SingleCoreMatchesTopDown) {
  MachineConfig cfg = MachineConfig::Broadwell();
  CoreCounters c = ScanCore(1000, 16.0);
  MultiCoreModel mc(cfg);
  TopDownModel td(cfg);
  MultiCoreResult r = mc.Analyze({c});
  ProfileResult single = td.Analyze(c);
  EXPECT_NEAR(r.makespan_cycles, single.total_cycles,
              single.total_cycles * 0.01);
  EXPECT_NEAR(r.socket_bandwidth_gbps, single.bandwidth_gbps,
              single.bandwidth_gbps * 0.02);
}

TEST(MultiCoreTest, FewCoresScaleBandwidthLinearly) {
  MachineConfig cfg = MachineConfig::Broadwell();
  // Each core demands ~12 GB/s; 4 cores -> ~48 GB/s < 66 GB/s socket max.
  MultiCoreModel mc(cfg);
  std::vector<CoreCounters> cores(4, ScanCore(1000, 64.0));
  MultiCoreResult r = mc.Analyze(cores);
  EXPECT_NEAR(r.socket_bandwidth_gbps, 4 * 12.0, 2.0);
  EXPECT_FALSE(r.socket_saturated);
  EXPECT_NEAR(r.bandwidth_scale, 1.0, 0.01);
}

TEST(MultiCoreTest, ManyCoresSaturateSocket) {
  MachineConfig cfg = MachineConfig::Broadwell();
  // 14 cores x 12 GB/s demand = 168 GB/s >> 66 GB/s: must saturate.
  MultiCoreModel mc(cfg);
  std::vector<CoreCounters> cores(14, ScanCore(1000, 64.0));
  MultiCoreResult r = mc.Analyze(cores);
  EXPECT_NEAR(r.socket_bandwidth_gbps, cfg.bandwidth.per_socket_seq_gbps,
              cfg.bandwidth.per_socket_seq_gbps * 0.05);
  EXPECT_TRUE(r.socket_saturated);
  EXPECT_LT(r.bandwidth_scale, 0.6);
}

TEST(MultiCoreTest, SaturationPointNearEightCoresForFullDemand) {
  // The paper's Fig. 29 shape: per-core demand ~12 GB/s saturates the
  // 66 GB/s socket between 4 and 8 cores; bandwidth stops growing after.
  MachineConfig cfg = MachineConfig::Broadwell();
  MultiCoreModel mc(cfg);
  double bw8 = mc.Analyze(std::vector<CoreCounters>(8, ScanCore(1000, 64.0)))
                   .socket_bandwidth_gbps;
  double bw12 = mc.Analyze(std::vector<CoreCounters>(12, ScanCore(1000, 64.0)))
                    .socket_bandwidth_gbps;
  EXPECT_NEAR(bw8, 66.0, 4.0);
  EXPECT_NEAR(bw12, 66.0, 4.0);
}

TEST(MultiCoreTest, ComputeBoundWorkloadNeverSaturates) {
  MachineConfig cfg = MachineConfig::Broadwell();
  MultiCoreModel mc(cfg);
  // Heavy compute, light random traffic: the multi-core join story.
  CoreCounters c;
  c.mix.alu = 50u << 20;
  c.mem.dram_demand_bytes_rand = 8u << 20;
  c.mem.rand_dcache_cycles = 1 << 20;
  std::vector<CoreCounters> cores(14, c);
  MultiCoreResult r = mc.Analyze(cores);
  EXPECT_FALSE(r.socket_saturated);
  EXPECT_LT(r.socket_bandwidth_gbps, 30.0);
}

TEST(MultiCoreTest, AggregateBreakdownSumsCores) {
  MachineConfig cfg = MachineConfig::Broadwell();
  MultiCoreModel mc(cfg);
  std::vector<CoreCounters> cores(3, ScanCore(4000, 0.0));
  MultiCoreResult r = mc.Analyze(cores);
  EXPECT_NEAR(Aggregate(r).retiring, 3 * 1000.0, 1e-6);
  EXPECT_EQ(r.threads, 3);
  ASSERT_EQ(r.per_core.size(), 3u);
}

TEST(MultiCoreTest, MakespanIsSlowestCore) {
  MachineConfig cfg = MachineConfig::Broadwell();
  MultiCoreModel mc(cfg);
  std::vector<CoreCounters> cores = {ScanCore(1000, 1.0),
                                     ScanCore(1000, 8.0)};
  MultiCoreResult r = mc.Analyze(cores);
  EXPECT_NEAR(r.makespan_cycles,
              std::max(r.per_core[0].total_cycles,
                       r.per_core[1].total_cycles),
              1e-6);
}

TEST(MultiCoreTest, SaturatedBreakdownShiftsTowardDcache) {
  // Once the socket saturates, the added stall time must land in Dcache:
  // the paper's "using more than eight cores would waste the cores".
  MachineConfig cfg = MachineConfig::Broadwell();
  MultiCoreModel mc(cfg);
  auto frac_dcache = [&](int n) {
    MultiCoreResult r =
        mc.Analyze(std::vector<CoreCounters>(static_cast<size_t>(n),
                                             ScanCore(3u << 20, 64.0)));
    const CycleBreakdown sum = Aggregate(r);
    return sum.dcache / sum.Total();
  };
  EXPECT_GT(frac_dcache(14), frac_dcache(2));
}

}  // namespace
}  // namespace uolap::core
