// Property test of obs::AttributeCycles on synthetic counter deltas that
// tile a total, at full and contended bandwidth scales. Every nonlinear
// term of the Top-Down model is engaged on the total: decode demand above
// retiring, the random-access bandwidth clamp, and a positive sequential
// throughput residual. Checks that each component's part sum equals
// TopDownModel::Analyze(total, bw_scale) and that each part's linear
// components are exactly what Analyze gives for that part alone.

#include "obs/attribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/config.h"
#include "core/counters.h"
#include "core/topdown.h"

namespace uolap::obs {
namespace {

using core::CoreCounters;
using core::CycleBreakdown;
using core::MachineConfig;
using core::TopDownModel;

/// Three parts with different shapes: a streaming scan (sequential bytes,
/// no complex instructions), a random probe (random bytes far above its
/// latency, some complex instructions and mispredicts), and a compute-heavy
/// part with icache misses, execution stalls and latency-bound random
/// accesses (its random term is not clamped on its own).
std::vector<CoreCounters> MakeParts() {
  std::vector<CoreCounters> parts(3);

  CoreCounters& scan = parts[0];
  scan.mix.alu = 40000;
  scan.mix.load = 20000;
  scan.mix.branch = 2000;
  scan.branch_events = 2000;
  scan.branch_mispredicts = 10;
  scan.exec_stall_cycles = 1500.25;
  scan.mem.seq_residual_cycles = 700.5;
  scan.mem.stream_startup_cycles = 120;
  scan.mem.tlb_cycles = 60;
  scan.mem.dram_seq_l2_streamer = 9000;
  scan.mem.dram_seq_l1_streamer = 1000;
  scan.mem.dram_demand_bytes_seq = 10000 * 64;
  scan.mem.dram_prefetch_waste_bytes = 40 * 64;
  scan.mem.dram_writeback_bytes = 200 * 64;

  CoreCounters& probe = parts[1];
  probe.mix.alu = 6000;
  probe.mix.load = 4000;
  probe.mix.branch = 3000;
  probe.mix.complex = 1500;
  probe.branch_events = 3000;
  probe.branch_mispredicts = 400;
  probe.mem.rand_dcache_cycles = 2000.75;
  probe.mem.tlb_cycles = 900;
  probe.mem.dram_rand = 3000;
  probe.mem.dram_demand_bytes_rand = 3000 * 64;

  CoreCounters& compute = parts[2];
  compute.mix.alu = 90000;
  compute.mix.mul = 3000;
  compute.mix.simd = 5000;
  compute.mix.complex = 8000;
  compute.mix.other = 1000;
  compute.exec_stall_cycles = 25000.5;
  compute.mem.exec_chase_cycles = 800.125;
  compute.mem.l1i_l2_hits = 300;
  compute.mem.l1i_l3_hits = 40;
  compute.mem.l1i_dram = 5;
  compute.mem.rand_dcache_cycles = 50000.5;
  compute.mem.dram_rand = 20;
  compute.mem.dram_demand_bytes_rand = 20 * 64;
  compute.mem.seq_residual_cycles = 30;
  return parts;
}

CoreCounters Sum(const std::vector<CoreCounters>& parts) {
  CoreCounters total;
  for (const CoreCounters& p : parts) total += p;
  return total;
}

void ExpectRelNear(double actual, double expected, const char* what) {
  EXPECT_LE(std::fabs(actual - expected),
            1e-9 * std::max(1.0, std::fabs(expected)))
      << what << ": " << actual << " vs " << expected;
}

class AttributeCyclesTest : public ::testing::TestWithParam<double> {};

TEST_P(AttributeCyclesTest, PartsSumToWholeAndLinearTermsArePerPart) {
  const double scale = GetParam();
  const MachineConfig cfg = MachineConfig::Broadwell();
  const TopDownModel model(cfg);
  const std::vector<CoreCounters> parts = MakeParts();
  const CoreCounters total = Sum(parts);
  const CycleBreakdown whole = model.Analyze(total, scale).cycles;

  // The fixture engages every nonlinear term of the whole-run analysis.
  const core::MemCounters& m = total.mem;
  const double retiring =
      static_cast<double>(total.mix.TotalInstructions()) /
      cfg.exec.issue_width;
  EXPECT_GT(whole.decoding, 0.0) << "decode demand must exceed retiring";
  EXPECT_DOUBLE_EQ(whole.retiring, retiring);
  const double rand_clamped =
      static_cast<double>(m.dram_demand_bytes_rand) /
      (cfg.RandBytesPerCycle() * scale);
  ASSERT_GT(rand_clamped, m.rand_dcache_cycles)
      << "the random bandwidth clamp must be active";
  const double dcache_linear =
      m.seq_residual_cycles + m.stream_startup_cycles + m.tlb_cycles;
  EXPECT_GT(whole.dcache, dcache_linear + rand_clamped)
      << "the sequential throughput residual must be positive";

  const std::vector<CycleBreakdown> out =
      AttributeCycles(cfg, total, parts, scale);
  ASSERT_EQ(out.size(), parts.size());

  CycleBreakdown sum;
  for (const CycleBreakdown& b : out) sum += b;
  ExpectRelNear(sum.retiring, whole.retiring, "retiring");
  ExpectRelNear(sum.branch_misp, whole.branch_misp, "branch_misp");
  ExpectRelNear(sum.icache, whole.icache, "icache");
  ExpectRelNear(sum.decoding, whole.decoding, "decoding");
  ExpectRelNear(sum.dcache, whole.dcache, "dcache");
  ExpectRelNear(sum.execution, whole.execution, "execution");
  ExpectRelNear(sum.Total(), whole.Total(), "total");

  for (size_t i = 0; i < parts.size(); ++i) {
    const CycleBreakdown alone = model.Analyze(parts[i], scale).cycles;
    EXPECT_EQ(out[i].retiring, alone.retiring) << "part " << i;
    EXPECT_EQ(out[i].branch_misp, alone.branch_misp) << "part " << i;
    EXPECT_EQ(out[i].icache, alone.icache) << "part " << i;
    EXPECT_EQ(out[i].execution, alone.execution) << "part " << i;
    // Dcache holds at least the part's latency-accumulated terms.
    const core::MemCounters& pm = parts[i].mem;
    EXPECT_GE(out[i].dcache, pm.seq_residual_cycles +
                                 pm.stream_startup_cycles + pm.tlb_cycles)
        << "part " << i;
  }
  // A part without complex instructions demands no decode cycles, so it
  // gets no share of the decode total.
  EXPECT_EQ(out[0].decoding, 0.0);
  EXPECT_GT(out[1].decoding, 0.0);
  EXPECT_GT(out[2].decoding, 0.0);
}

TEST_P(AttributeCyclesTest, SinglePartIsTheWholeRun) {
  const double scale = GetParam();
  const MachineConfig cfg = MachineConfig::Broadwell();
  const CoreCounters total = Sum(MakeParts());
  const CycleBreakdown whole =
      TopDownModel(cfg).Analyze(total, scale).cycles;
  const std::vector<CycleBreakdown> out =
      AttributeCycles(cfg, total, {total}, scale);
  ASSERT_EQ(out.size(), 1u);
  ExpectRelNear(out[0].retiring, whole.retiring, "retiring");
  ExpectRelNear(out[0].branch_misp, whole.branch_misp, "branch_misp");
  ExpectRelNear(out[0].icache, whole.icache, "icache");
  ExpectRelNear(out[0].decoding, whole.decoding, "decoding");
  ExpectRelNear(out[0].dcache, whole.dcache, "dcache");
  ExpectRelNear(out[0].execution, whole.execution, "execution");
}

INSTANTIATE_TEST_SUITE_P(BandwidthScales, AttributeCyclesTest,
                         ::testing::Values(1.0, 0.5, 0.2));

}  // namespace
}  // namespace uolap::obs
