#include "harness/profile.h"

#include <gtest/gtest.h>

#include "core/machine.h"
#include "core/topdown.h"

namespace uolap::harness {
namespace {

using core::CycleBreakdown;
using core::MachineConfig;
using core::ProfileResult;
using engine::Workers;

CycleBreakdown MakeBreakdown() {
  CycleBreakdown b;
  b.retiring = 25;
  b.branch_misp = 10;
  b.icache = 5;
  b.decoding = 5;
  b.dcache = 40;
  b.execution = 15;
  return b;
}

TEST(ProfileRowsTest, CpuCyclesRowFormatsStallAndRetiring) {
  const auto row = CpuCyclesRow("Typer p4", MakeBreakdown());
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "Typer p4");
  EXPECT_EQ(row[1], "75.0%");  // stall
  EXPECT_EQ(row[2], "25.0%");  // retiring
  EXPECT_EQ(CpuCyclesHeader("k").size(), row.size());
}

TEST(ProfileRowsTest, StallRowNormalizesToStallCycles) {
  const auto row = StallRow("x", MakeBreakdown());
  ASSERT_EQ(row.size(), 6u);
  // dcache = 40 of 75 stall cycles.
  EXPECT_EQ(row[2], "53.3%");
  EXPECT_EQ(StallHeader("k").size(), row.size());
}

TEST(ProfileRowsTest, TimeRowSplitsComponents) {
  ProfileResult r;
  r.cycles = MakeBreakdown();
  r.total_cycles = r.cycles.Total();
  r.time_ms = 10.0;
  const auto row = TimeRow("q", r);
  ASSERT_EQ(row.size(), TimeHeader("k").size());
  EXPECT_EQ(row[1], "10.0");  // total ms
  EXPECT_EQ(row[2], "2.5");   // retiring: 25 of 100 cycles -> 2.5 ms
  EXPECT_EQ(row[6], "4.0");   // dcache
}

TEST(ProfileTest, SingleCoreRunsAndAnalyzes) {
  const ProfileResult r =
      Profile(MachineConfig::Broadwell(), 1, ObsOptions{}, "single",
              [](Workers& w) {
                ASSERT_EQ(w.count(), 1u);
                core::InstrMix m;
                m.alu = 4000;
                w.cores[0]->Retire(m);
              })
          .cores[0]
          .whole;
  EXPECT_DOUBLE_EQ(r.cycles.retiring, 1000.0);
}

TEST(ProfileTest, RunsAcrossCores) {
  const obs::RunRecord r =
      Profile(MachineConfig::Broadwell(), 3, ObsOptions{}, "multi",
              [](Workers& w) {
                ASSERT_EQ(w.count(), 3u);
                for (auto* c : w.cores) {
                  core::InstrMix m;
                  m.alu = 400;
                  c->Retire(m);
                }
              });
  EXPECT_EQ(r.threads, 3);
  EXPECT_EQ(r.cores.size(), 3u);
  EXPECT_NEAR(r.Aggregate().retiring, 300.0, 1e-9);
}

/// One profiling recipe serves one core and many because one core's DRAM
/// demand stays below the socket ceiling: the contention model then keeps
/// the bandwidth scale at exactly 1.0, and its makespan, time and
/// bandwidth equal the plain Top-Down analysis of that core. The body
/// streams 32 MB and strides through 32 MB more, so it really runs from
/// DRAM (the bandwidth check), on both presets.
TEST(ProfileTest, SingleCoreStaysBelowSocketCeiling) {
  for (const MachineConfig& cfg :
       {MachineConfig::Broadwell(), MachineConfig::Skylake()}) {
    SCOPED_TRACE(cfg.name);
    const obs::RunRecord run =
        Profile(cfg, 1, ObsOptions{}, "dram", [](Workers& w) {
          core::Core& core = *w.cores[0];
          constexpr uint64_t kStreamBytes = uint64_t{32} << 20;
          const uint64_t base = core.placement().Fresh(2 * kStreamBytes);
          core.LoadSeq(reinterpret_cast<const void*>(base), 8,
                       kStreamBytes / 8);
          for (uint64_t off = 0; off < kStreamBytes; off += 4096 + 64) {
            core.Load(reinterpret_cast<const void*>(base + kStreamBytes +
                                                    off),
                      8);
          }
          core::InstrMix m;
          m.alu = kStreamBytes / 8;
          core.Retire(m);
        });
    // The plain single-core Top-Down analysis of the same counters.
    const ProfileResult whole =
        core::TopDownModel(cfg).Analyze(run.cores[0].whole.counters);
    EXPECT_EQ(run.bw_scale, 1.0);
    EXPECT_EQ(run.cores[0].whole.total_cycles, whole.total_cycles);
    EXPECT_EQ(run.makespan_cycles, whole.total_cycles);
    EXPECT_EQ(run.time_ms, whole.time_ms);
    EXPECT_EQ(run.socket_bandwidth_gbps, whole.bandwidth_gbps);
    EXPECT_GT(whole.bandwidth_gbps, 1.0);
  }
}

}  // namespace
}  // namespace uolap::harness
