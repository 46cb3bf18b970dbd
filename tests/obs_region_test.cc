// Region-profiler contract tests: tree structure and visit merging,
// non-fatal unbalanced push/pop handling, the tentpole delta-sum invariant
// (leaf-region breakdowns sum to the whole-run breakdown within 1e-9),
// counter non-perturbation, timeline sampling, bit-determinism of
// threaded multi-core region trees against serial runs, and that only
// core::ScopedRegion can reach Core's raw region primitives.

#include "obs/region_profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/core.h"
#include "core/machine.h"
#include "engines/typer/typer_engine.h"
#include "harness/profile.h"
#include "engine/thread_pool.h"
#include "obs/attribution.h"
#include "tpch/dbgen.h"

namespace uolap {
namespace {

using core::CoreCounters;
using core::CycleBreakdown;
using core::InstrMix;
using core::MachineConfig;
using engine::Workers;
using obs::RegionProfiler;
using obs::RegionTree;

// Region pairing holds by construction: the raw primitives are private to
// Core and reachable only through core::ScopedRegion. (A requires-clause
// outside a template is a hard error, so the probes are concepts.)
template <class C>
concept CanPushRegion = requires(C& c) { c.PushRegion("x"); };
template <class C>
concept CanPopRegion = requires(C& c) { c.PopRegion(); };

struct PublicRegions {
  void PushRegion(std::string_view) {}
  void PopRegion() {}
};
static_assert(CanPushRegion<PublicRegions> && CanPopRegion<PublicRegions>,
              "the probes must detect public region primitives");
static_assert(!CanPushRegion<core::Core>,
              "Core::PushRegion must be reachable only via ScopedRegion");
static_assert(!CanPopRegion<core::Core>,
              "Core::PopRegion must be reachable only via ScopedRegion");

/// Bit-identity of two counter sets. Every member of CoreCounters (and its
/// nested structs) is an 8-byte scalar, so the representation has no
/// padding and memcmp compares exactly the recorded values.
bool SameBits(const CoreCounters& a, const CoreCounters& b) {
  return std::memcmp(&a, &b, sizeof(CoreCounters)) == 0;
}

void ExpectSameBreakdown(const CycleBreakdown& a, const CycleBreakdown& b) {
  EXPECT_EQ(a.retiring, b.retiring);
  EXPECT_EQ(a.branch_misp, b.branch_misp);
  EXPECT_EQ(a.icache, b.icache);
  EXPECT_EQ(a.decoding, b.decoding);
  EXPECT_EQ(a.dcache, b.dcache);
  EXPECT_EQ(a.execution, b.execution);
}

void Alu(core::Core& core, uint64_t n) {
  InstrMix m;
  m.alu = n;
  core.Retire(m);
}

TEST(RegionProfilerTest, MergesReentrantRegionsAndCountsVisits) {
  core::Machine machine(MachineConfig::Broadwell(), 1);
  core::Core& core = machine.core(0);
  RegionProfiler prof(core);

  {
    core::ScopedRegion a(core, "a");
    Alu(core, 100);
    for (int i = 0; i < 3; ++i) {
      core::ScopedRegion b(core, "b");
      Alu(core, 10);
    }
    core::ScopedRegion c(core, "c");
    Alu(core, 5);
  }
  machine.FinalizeAll();

  const RegionTree tree = prof.Finish();
  EXPECT_TRUE(prof.status().ok());
  ASSERT_EQ(tree.nodes.size(), 4u);  // <run>, a, b, c
  EXPECT_EQ(tree.root().name, "<run>");
  EXPECT_EQ(tree.nodes[1].name, "a");
  EXPECT_EQ(tree.nodes[1].parent, 0);
  EXPECT_EQ(tree.nodes[1].depth, 1);
  EXPECT_EQ(tree.nodes[1].visits, 1u);
  EXPECT_EQ(tree.nodes[2].name, "b");
  EXPECT_EQ(tree.nodes[2].parent, 1);
  EXPECT_EQ(tree.nodes[2].depth, 2);
  EXPECT_EQ(tree.nodes[2].visits, 3u);  // merged re-entries
  EXPECT_EQ(tree.nodes[3].name, "c");
  EXPECT_EQ(tree.nodes[3].parent, 1);
  EXPECT_EQ(std::vector<int>({2, 3}), tree.nodes[1].children);

  // Counter attribution: "b" saw 3 x 10 alu, "a" exclusively its own 100.
  EXPECT_EQ(tree.nodes[2].inclusive.mix.alu, 30u);
  EXPECT_EQ(tree.nodes[2].exclusive.mix.alu, 30u);  // leaf: excl == incl
  EXPECT_EQ(tree.nodes[1].inclusive.mix.alu, 135u);
  EXPECT_EQ(tree.nodes[1].exclusive.mix.alu, 100u);

  // Exclusive deltas tile the run: they sum to the root's inclusive.
  uint64_t excl_sum = 0;
  for (const auto& n : tree.nodes) excl_sum += n.exclusive.mix.alu;
  EXPECT_EQ(excl_sum, tree.root().inclusive.mix.alu);
}

TEST(RegionProfilerTest, UnbalancedPopIsNonFatalAndRecorded) {
  core::Machine machine(MachineConfig::Broadwell(), 1);
  core::Core& core = machine.core(0);
  RegionProfiler prof(core);

  Alu(core, 50);
  prof.OnRegionPop();  // no matching push
  Alu(core, 50);
  machine.FinalizeAll();

  const RegionTree tree = prof.Finish();
  EXPECT_FALSE(prof.status().ok());
  ASSERT_EQ(tree.nodes.size(), 1u);
  EXPECT_EQ(tree.root().inclusive.mix.alu, 100u);  // counters unharmed
}

TEST(RegionProfilerTest, OpenRegionsAreClosedAtFinishAndFlagged) {
  core::Machine machine(MachineConfig::Broadwell(), 1);
  core::Core& core = machine.core(0);
  RegionProfiler prof(core);

  prof.OnRegionPush("left-open");
  Alu(core, 25);
  machine.FinalizeAll();

  const RegionTree tree = prof.Finish();
  EXPECT_FALSE(prof.status().ok());
  ASSERT_EQ(tree.nodes.size(), 2u);
  // The forced close still accounts the interval (finalize included).
  EXPECT_EQ(tree.nodes[1].name, "left-open");
  EXPECT_EQ(tree.nodes[1].inclusive.mix.alu, 25u);
}

TEST(RegionProfilerTest, MarkersAndObserverDoNotPerturbCounters) {
  auto workload = [](core::Core& core, bool with_regions) {
    std::optional<core::ScopedRegion> scan;
    if (with_regions) scan.emplace(core, "scan");
    core.LoadSeq(reinterpret_cast<const void*>(uint64_t{1} << 22), 8, 1024);
    Alu(core, 2048);
  };

  // Reference: no markers, no observer.
  core::Machine plain(MachineConfig::Broadwell(), 1);
  workload(plain.core(0), false);
  plain.FinalizeAll();

  // Markers but no observer attached.
  core::Machine marked(MachineConfig::Broadwell(), 1);
  workload(marked.core(0), true);
  marked.FinalizeAll();

  // Markers with a profiler (timeline sampling on).
  core::Machine observed(MachineConfig::Broadwell(), 1);
  RegionProfiler prof(observed.core(0),
                      RegionProfiler::Options{/*sample_interval=*/512});
  workload(observed.core(0), true);
  observed.FinalizeAll();
  prof.Finish();

  EXPECT_TRUE(SameBits(plain.core(0).counters(), marked.core(0).counters()));
  EXPECT_TRUE(
      SameBits(plain.core(0).counters(), observed.core(0).counters()));
}

TEST(RegionProfilerTest, TimelineSamplesAreMonotoneAndTelescope) {
  core::Machine machine(MachineConfig::Broadwell(), 1);
  core::Core& core = machine.core(0);
  RegionProfiler prof(core, RegionProfiler::Options{1000});

  for (int i = 0; i < 8; ++i) {
    core.LoadSeq(
        reinterpret_cast<const void*>((uint64_t{1} << 22) + i * 8192), 8,
        512);
    Alu(core, 512);
  }
  machine.FinalizeAll();
  const RegionTree tree = prof.Finish();

  ASSERT_FALSE(prof.timeline().empty());
  uint64_t prev = 0;
  for (const auto& s : prof.timeline()) {
    EXPECT_GE(s.instructions, prev);
    prev = s.instructions;
    EXPECT_EQ(s.instructions, s.counters.mix.TotalInstructions());
  }
  // Cumulative snapshots never exceed the final whole-run counters.
  EXPECT_LE(prev, tree.root().inclusive.mix.TotalInstructions());
}

/// Tests against a real engine workload share one tiny database.
class RegionEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::DbGen gen(42);
    db_ = new tpch::Database(std::move(gen.Generate(0.01)).value());
    typer_ = new typer::TyperEngine(*db_);
  }

  static tpch::Database* db_;
  static typer::TyperEngine* typer_;
};
tpch::Database* RegionEngineTest::db_ = nullptr;
typer::TyperEngine* RegionEngineTest::typer_ = nullptr;

TEST_F(RegionEngineTest, LeafBreakdownsSumToWholeRunWithin1e9) {
  const obs::RunRecord run = harness::ProfileSingleObs(
      MachineConfig::Broadwell(), harness::ObsOptions{}, "join",
      [&](Workers& w) { typer_->Join(w, engine::JoinSize::kLarge); });

  const obs::CoreRecord& rec = run.cores[0];
  ASSERT_GE(rec.regions.nodes.size(), 3u);  // <run> + build/probe/...

  // The engine annotations must cover the join's operator phases.
  std::vector<std::string> names;
  for (const auto& n : rec.regions.nodes) names.push_back(n.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "build"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "probe"), names.end());

  CycleBreakdown sum;
  for (const auto& n : rec.regions.nodes) {
    sum.retiring += n.excl_cycles.retiring;
    sum.branch_misp += n.excl_cycles.branch_misp;
    sum.icache += n.excl_cycles.icache;
    sum.decoding += n.excl_cycles.decoding;
    sum.dcache += n.excl_cycles.dcache;
    sum.execution += n.excl_cycles.execution;
  }
  const CycleBreakdown& whole = rec.whole.cycles;
  const double tol = 1e-9 * whole.Total();
  EXPECT_NEAR(sum.retiring, whole.retiring, tol);
  EXPECT_NEAR(sum.branch_misp, whole.branch_misp, tol);
  EXPECT_NEAR(sum.icache, whole.icache, tol);
  EXPECT_NEAR(sum.decoding, whole.decoding, tol);
  EXPECT_NEAR(sum.dcache, whole.dcache, tol);
  EXPECT_NEAR(sum.execution, whole.execution, tol);
  EXPECT_NEAR(sum.Total(), whole.Total(), tol);

  // The root's inclusive breakdown is the whole run too.
  EXPECT_NEAR(rec.regions.root().incl_cycles.Total(), whole.Total(), tol);
}

TEST(RegionProfilerTest, ThreadedProfileMultiTreesBitIdenticalToSerial) {
  // Scheduling determinism with profilers attached: every simulated
  // address comes from one up-front buffer (see
  // core_batched_access_test), so serial and threaded runs must produce
  // bit-identical region trees, timelines and events per core.
  constexpr int kThreads = 4;
  constexpr size_t kPerCore = 1 << 15;
  std::vector<int64_t> data(kThreads * kPerCore);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<int64_t>(i * 2654435761u);
  }
  auto workload = [&](Workers& w) {
    w.ForEach([&](size_t t) {
      core::Core& core = *w.cores[t];
      core.SetCodeRegion({"det-test", 1024});
      int64_t* slice = data.data() + t * kPerCore;
      {
        core::ScopedRegion scan(core, "scan");
        core.LoadSeq(slice, 8, kPerCore);
        InstrMix m;
        m.alu = kPerCore;
        core.Retire(m);
      }
      {
        core::ScopedRegion gather(core, "gather");
        for (size_t i = t; i < kPerCore; i += 97) core.Load(&slice[i], 8);
        InstrMix m;
        m.alu = kPerCore / 97;
        core.Retire(m);
      }
    });
  };

  const obs::RunRecord serial = harness::Profile(
      MachineConfig::Broadwell(), kThreads, harness::ObsOptions{1 << 12},
      "det", workload, /*executor=*/nullptr);
  const obs::RunRecord pooled = harness::Profile(
      MachineConfig::Broadwell(), kThreads, harness::ObsOptions{1 << 12},
      "det", workload, &engine::ThreadPool::Global());

  ASSERT_EQ(serial.cores.size(), pooled.cores.size());
  EXPECT_EQ(serial.makespan_cycles, pooled.makespan_cycles);
  for (size_t c = 0; c < serial.cores.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "core " << c);
    const obs::CoreRecord& a = serial.cores[c];
    const obs::CoreRecord& b = pooled.cores[c];
    ASSERT_EQ(a.regions.nodes.size(), b.regions.nodes.size());
    for (size_t i = 0; i < a.regions.nodes.size(); ++i) {
      const obs::RegionNode& na = a.regions.nodes[i];
      const obs::RegionNode& nb = b.regions.nodes[i];
      EXPECT_EQ(na.name, nb.name);
      EXPECT_EQ(na.parent, nb.parent);
      EXPECT_EQ(na.visits, nb.visits);
      EXPECT_TRUE(SameBits(na.inclusive, nb.inclusive));
      EXPECT_TRUE(SameBits(na.exclusive, nb.exclusive));
      ExpectSameBreakdown(na.excl_cycles, nb.excl_cycles);
      ExpectSameBreakdown(na.incl_cycles, nb.incl_cycles);
    }
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (size_t i = 0; i < a.timeline.size(); ++i) {
      EXPECT_EQ(a.timeline[i].instructions, b.timeline[i].instructions);
      EXPECT_TRUE(SameBits(a.timeline[i].counters, b.timeline[i].counters));
    }
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
      EXPECT_EQ(a.events[i].node, b.events[i].node);
      EXPECT_EQ(a.events[i].begin, b.events[i].begin);
      EXPECT_TRUE(SameBits(a.events[i].snapshot, b.events[i].snapshot));
    }
  }
}

TEST_F(RegionEngineTest, EngineRegionTreesSchedulingInvariant) {
  // Engine scratch (hash tables, vectors) is placed per core in program
  // order, so the whole region tree — structure and every counter — is
  // scheduling-invariant.
  const int threads = 4;
  auto workload = [&](Workers& w) { typer_->Q1(w); };

  const obs::RunRecord serial = harness::Profile(
      MachineConfig::Broadwell(), threads, harness::ObsOptions{},
      "q1", workload, /*executor=*/nullptr);
  const obs::RunRecord pooled = harness::Profile(
      MachineConfig::Broadwell(), threads, harness::ObsOptions{},
      "q1", workload, &engine::ThreadPool::Global());

  ASSERT_EQ(serial.cores.size(), pooled.cores.size());
  for (size_t c = 0; c < serial.cores.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "core " << c);
    const obs::RegionTree& a = serial.cores[c].regions;
    const obs::RegionTree& b = pooled.cores[c].regions;
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (size_t i = 0; i < a.nodes.size(); ++i) {
      const obs::RegionNode& na = a.nodes[i];
      const obs::RegionNode& nb = b.nodes[i];
      EXPECT_EQ(na.name, nb.name);
      EXPECT_EQ(na.parent, nb.parent);
      EXPECT_EQ(na.visits, nb.visits);
      EXPECT_TRUE(na.exclusive == nb.exclusive);
    }
  }
}

}  // namespace
}  // namespace uolap
