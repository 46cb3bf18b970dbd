// Failure-path tests for the model-invariant audit layer: every checker
// must (a) stay silent on a healthy simulated run and (b) fire with the
// right diagnostic when the corresponding structure is corrupted through
// the test-only hooks (TestOnlySetWay / TestOnlySetStream /
// TestOnlySetCounter / mutable counters). The hooks bypass every invariant
// the normal mutators maintain, so each test plants exactly the corruption
// its rule is meant to catch.

#include "audit/invariants.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "audit/validation.h"
#include "core/cache.h"
#include "core/config.h"
#include "core/core.h"
#include "core/machine.h"
#include "core/topdown.h"

namespace uolap::audit {
namespace {

bool HasRule(const AuditReport& r, const std::string& rule) {
  for (const Violation& v : r.violations) {
    if (v.checker == rule) return true;
  }
  return false;
}

/// A small but representative workload: a sequential scan (drives the
/// stream detector and DRAM accounting), scattered probes (drives
/// L2/L3/DRAM random paths and the TLBs), data-dependent branches, and a
/// retire phase. Leaves every audited structure in a non-trivial state.
void RunWorkload(core::Core& core) {
  core.LoadSeq(reinterpret_cast<const void*>(uint64_t{1} << 20), 8, 4096);
  for (uint64_t i = 0; i < 256; ++i) {
    const uint64_t addr =
        (uint64_t{1} << 26) + (i * 2654435761ull) % (uint64_t{1} << 24);
    core.Load(reinterpret_cast<const void*>(addr), 8);
    core.Branch(/*site_id=*/7, (i % 3) == 0);
  }
  core::InstrMix m;
  m.alu = 2048;
  m.chain_cycles = 128;
  core.Retire(m);
  core.Finalize();
}

class AuditInvariantsTest : public ::testing::Test {
 protected:
  AuditInvariantsTest()
      : cfg_(core::MachineConfig::Broadwell()), core_(cfg_) {
    core_.SetValidateFills(true);
    RunWorkload(core_);
  }

  core::MachineConfig cfg_;
  core::Core core_;
};

// --- the healthy baseline -------------------------------------------------

TEST_F(AuditInvariantsTest, CleanRunHasZeroViolations) {
  const AuditReport report = AuditCore(core_, "clean");
  EXPECT_TRUE(report.ok()) << report.ToString();
  // "Zero violations" must mean "many checks ran", not "nothing ran".
  EXPECT_GT(report.checks, 100u);
}

TEST_F(AuditInvariantsTest, CleanBreakdownPasses) {
  const core::TopDownModel model(cfg_);
  const core::ProfileResult r = model.Analyze(core_.counters());
  AuditReport report;
  CheckBreakdown(r, cfg_.freq_ghz, "clean", &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- cache structural corruption -----------------------------------------

TEST(AuditCacheTest, DuplicateTagDetected) {
  core::SetAssociativeCache cache(/*num_sets=*/4, /*ways=*/2);
  // Same raw tag in both ways of set 0, distinct ranks. Key 0 has raw
  // tag 1 (quotient 0, + 1).
  cache.TestOnlySetWay(0, 0, /*raw_tag=*/1, /*rank=*/0, /*dirty=*/false);
  cache.TestOnlySetWay(0, 1, /*raw_tag=*/1, /*rank=*/1, /*dirty=*/false);
  AuditReport report;
  CheckCache(cache, "corrupt", &report);
  EXPECT_TRUE(HasRule(report, "cache.duplicate-tag")) << report.ToString();
}

TEST(AuditCacheTest, LruRankEmptinessViolationsDetected) {
  core::SetAssociativeCache cache(/*num_sets=*/4, /*ways=*/2);
  // Valid way without a rank (resident yet never touched).
  cache.TestOnlySetWay(0, 0, /*raw_tag=*/1, /*rank=*/-1, /*dirty=*/false);
  // Invalid way carrying a stale dirty bit and rank.
  cache.TestOnlySetWay(1, 0, /*raw_tag=*/0, /*rank=*/0, /*dirty=*/true);
  AuditReport report;
  CheckCache(cache, "corrupt", &report);
  EXPECT_EQ(report.violations.size(), 2u) << report.ToString();
  EXPECT_TRUE(HasRule(report, "cache.lru-rank")) << report.ToString();
}

TEST(AuditCacheTest, LruRankOutOfRangeDetected) {
  core::LlcCache cache(/*num_sets=*/3, /*ways=*/4);
  // One valid way in set 2 must hold rank 0; rank 1 leaves a hole that
  // victim selection would misread.
  cache.TestOnlySetWay(2, 3, /*raw_tag=*/7, /*rank=*/1, /*dirty=*/false);
  AuditReport report;
  CheckCache(cache, "corrupt", &report);
  EXPECT_TRUE(HasRule(report, "cache.lru-rank")) << report.ToString();
}

TEST(AuditCacheTest, LruRankDuplicateDetected) {
  core::SetAssociativeCache cache(/*num_sets=*/4, /*ways=*/2);
  cache.Insert(/*key=*/0, /*dirty=*/false);
  cache.Insert(/*key=*/4, /*dirty=*/false);
  {
    AuditReport report;
    CheckCache(cache, "healthy", &report);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
  // Force both ways of set 0 onto the MRU rank.
  cache.TestOnlySetWay(0, 0, /*raw_tag=*/1, /*rank=*/0, /*dirty=*/false);
  cache.TestOnlySetWay(0, 1, /*raw_tag=*/2, /*rank=*/0, /*dirty=*/false);
  AuditReport report;
  CheckCache(cache, "corrupt", &report);
  EXPECT_TRUE(HasRule(report, "cache.lru-rank")) << report.ToString();
}

TEST_F(AuditInvariantsTest, HealthyCachesPassDirectly) {
  AuditReport report;
  CheckCache(core_.memory().l1d(), "l1d", &report);
  CheckCache(core_.memory().l3(), "l3", &report);
  CheckCache(core_.memory().dtlb(), "dtlb", &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- stream-detector corruption -------------------------------------------

TEST_F(AuditInvariantsTest, StreamBoundsViolationDetected) {
  // Valid entry with run == 0 and an impossible direction.
  core_.memory().TestOnlySetStream(/*i=*/0, /*valid=*/true, /*run=*/0,
                                   /*dir=*/3, /*ts=*/1);
  AuditReport report;
  CheckStreamTable(core_.memory(), "streams", &report);
  EXPECT_TRUE(HasRule(report, "stream.bounds")) << report.ToString();
}

TEST_F(AuditInvariantsTest, StreamDeadEntryViolationDetected) {
  core_.memory().TestOnlySetStream(/*i=*/1, /*valid=*/false, /*run=*/5,
                                   /*dir=*/1, /*ts=*/0);
  AuditReport report;
  CheckStreamTable(core_.memory(), "streams", &report);
  EXPECT_TRUE(HasRule(report, "stream.dead-entry")) << report.ToString();
}

TEST_F(AuditInvariantsTest, StreamLruPermutationViolationDetected) {
  // Two valid entries sharing a stamp.
  core_.memory().TestOnlySetStream(/*i=*/0, /*valid=*/true, /*run=*/4,
                                   /*dir=*/1, /*ts=*/1);
  core_.memory().TestOnlySetStream(/*i=*/1, /*valid=*/true, /*run=*/4,
                                   /*dir=*/1, /*ts=*/1);
  AuditReport report;
  CheckStreamTable(core_.memory(), "streams", &report);
  EXPECT_TRUE(HasRule(report, "stream.lru-permutation")) << report.ToString();
}

// --- predictor corruption -------------------------------------------------

TEST(AuditPredictorTest, CounterRangeViolationDetected) {
  core::BranchPredictor predictor;
  for (uint32_t i = 0; i < 64; ++i) predictor.Record(i * 13, (i % 3) != 0);
  predictor.TestOnlySetCounter(/*i=*/0, /*value=*/7);
  AuditReport report;
  CheckPredictor(predictor, "predictor", &report);
  EXPECT_TRUE(HasRule(report, "predictor.counter-range")) << report.ToString();
}

TEST(AuditPredictorTest, HealthyPredictorPasses) {
  core::BranchPredictor predictor;
  for (uint32_t i = 0; i < 1024; ++i) predictor.Record(i * 7, (i % 5) < 2);
  AuditReport report;
  CheckPredictor(predictor, "predictor", &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- fill containment -----------------------------------------------------

TEST_F(AuditInvariantsTest, FillContainmentViolationDetected) {
  EXPECT_EQ(core_.memory().fill_containment_violations(), 0u);
  core_.memory().TestOnlyAddFillViolation();
  AuditReport report;
  CheckHierarchy(core_.memory(), "mem", &report);
  EXPECT_TRUE(HasRule(report, "hierarchy.fill-containment"))
      << report.ToString();
}

// --- counter-identity corruption ------------------------------------------

TEST_F(AuditInvariantsTest, LevelSumViolationDetected) {
  core::CoreCounters c = core_.counters();
  ++c.mem.l1d_hits;  // one phantom hit: levels no longer sum to accesses
  AuditReport report;
  CheckCounterIdentities(c, nullptr, "counters", &report);
  EXPECT_TRUE(HasRule(report, "counters.level-sum")) << report.ToString();
}

TEST_F(AuditInvariantsTest, SeqRandSplitViolationDetected) {
  core::CoreCounters c = core_.counters();
  ++c.mem.l2_hits_seq;
  AuditReport report;
  CheckCounterIdentities(c, nullptr, "counters", &report);
  EXPECT_TRUE(HasRule(report, "counters.seq-rand-split")) << report.ToString();
}

TEST_F(AuditInvariantsTest, DramBytesViolationDetected) {
  core::CoreCounters c = core_.counters();
  c.mem.dram_demand_bytes_seq += 7;  // not line-granular, breaks the sum
  AuditReport report;
  CheckCounterIdentities(c, nullptr, "counters", &report);
  EXPECT_TRUE(HasRule(report, "counters.dram-bytes")) << report.ToString();

  // 64 random-demand bytes with no DRAM line serviced behind them.
  c = core_.counters();
  c.mem.dram_demand_bytes_rand += 64;
  AuditReport rand_report;
  CheckCounterIdentities(c, nullptr, "counters", &rand_report);
  EXPECT_TRUE(HasRule(rand_report, "counters.dram-bytes"))
      << rand_report.ToString();
}

TEST_F(AuditInvariantsTest, BranchIdentityViolationDetected) {
  core::CoreCounters c = core_.counters();
  c.branch_events = c.mix.branch + 1;  // more events than retired branches
  AuditReport report;
  CheckCounterIdentities(c, nullptr, "counters", &report);
  EXPECT_TRUE(HasRule(report, "counters.branch")) << report.ToString();
}

TEST_F(AuditInvariantsTest, IcacheIdentityViolationDetected) {
  core::CoreCounters c = core_.counters();
  c.mem.code_fetches += 10;  // beyond the llround tolerance of 3
  AuditReport report;
  CheckCounterIdentities(c, nullptr, "counters", &report);
  EXPECT_TRUE(HasRule(report, "counters.icache")) << report.ToString();
}

TEST_F(AuditInvariantsTest, LiveCacheReconcileViolationDetected) {
  // Corrupt the live counter ledger (not the caches): the caches' own
  // hit/miss statistics no longer reconcile.
  ++core_.memory().mutable_counters()->data_accesses;
  const AuditReport report = AuditCore(core_, "corrupt");
  EXPECT_TRUE(HasRule(report, "counters.cache-reconcile"))
      << report.ToString();
}

TEST_F(AuditInvariantsTest, TlbIdentityViolationDetected) {
  ++core_.memory().mutable_counters()->page_walks;
  AuditReport report;
  CheckCounterIdentities(core_.counters(), &core_.memory(), "counters",
                         &report);
  EXPECT_TRUE(HasRule(report, "counters.tlb")) << report.ToString();
}

// --- Top-Down output corruption -------------------------------------------

TEST_F(AuditInvariantsTest, TopdownTotalViolationDetected) {
  const core::TopDownModel model(cfg_);
  core::ProfileResult r = model.Analyze(core_.counters());
  r.total_cycles += 1.0;
  AuditReport report;
  CheckBreakdown(r, cfg_.freq_ghz, "topdown", &report);
  EXPECT_TRUE(HasRule(report, "topdown.total")) << report.ToString();
}

TEST_F(AuditInvariantsTest, TopdownNegativeComponentDetected) {
  const core::TopDownModel model(cfg_);
  core::ProfileResult r = model.Analyze(core_.counters());
  r.cycles.dcache = -1.0;
  AuditReport report;
  CheckBreakdown(r, cfg_.freq_ghz, "topdown", &report);
  EXPECT_TRUE(HasRule(report, "topdown.nonnegative")) << report.ToString();
}

TEST_F(AuditInvariantsTest, TopdownDerivedViolationDetected) {
  const core::TopDownModel model(cfg_);
  core::ProfileResult r = model.Analyze(core_.counters());
  r.ipc *= 2.0;
  AuditReport report;
  CheckBreakdown(r, cfg_.freq_ghz, "topdown", &report);
  EXPECT_TRUE(HasRule(report, "topdown.derived")) << report.ToString();
}

// --- machine-level audit and the runtime switch ---------------------------

TEST(AuditMachineTest, AuditsEveryCore) {
  const core::MachineConfig cfg = core::MachineConfig::Broadwell();
  core::Machine machine(cfg, 2);
  RunWorkload(machine.core(0));
  RunWorkload(machine.core(1));
  const AuditReport report = AuditMachine(machine, "pair");
  EXPECT_TRUE(report.ok()) << report.ToString();
  // Both cores' subjects must appear in the checks (spot-check by count:
  // two cores double the single-core check count).
  const AuditReport one = AuditCore(machine.core(0), "one");
  EXPECT_EQ(report.checks, 2 * one.checks);
}

TEST(AuditValidationTest, RuntimeSwitchRoundTrips) {
  const bool before = ValidationEnabled();
  SetValidationEnabled(true);
  EXPECT_TRUE(ValidationEnabled());
  SetValidationEnabled(false);
  EXPECT_FALSE(ValidationEnabled());
  SetValidationEnabled(before);
}

TEST(AuditValidationDeathTest, ReportViolationsAbortsOnAViolation) {
  ReportViolations(AuditReport{}, "clean");  // a clean report returns
  AuditReport dirty;
  dirty.Fail("test.rule", "subject", "synthetic violation");
  EXPECT_DEATH(ReportViolations(dirty, "dirty"),
               "uolap-audit: test.rule \\[subject\\]: synthetic violation");
}

TEST(AuditReportTest, MergeAndToString) {
  AuditReport a;
  a.checks = 3;
  a.Fail("rule.a", "s1", "m1");
  AuditReport b;
  b.checks = 4;
  b.Fail("rule.b", "s2", "m2");
  a.Merge(std::move(b));
  EXPECT_EQ(a.checks, 7u);
  EXPECT_EQ(a.violations.size(), 2u);
  const std::string s = a.ToString();
  EXPECT_NE(s.find("rule.a [s1]: m1"), std::string::npos);
  EXPECT_NE(s.find("rule.b [s2]: m2"), std::string::npos);
}

}  // namespace
}  // namespace uolap::audit
