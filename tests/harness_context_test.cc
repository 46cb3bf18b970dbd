#include "harness/context.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "engines/tectorwise/tw_engine.h"
#include "harness/profile.h"

namespace uolap::harness {
namespace {

/// Builds argv for BenchContext from string flags.
class ArgvBuilder {
 public:
  explicit ArgvBuilder(std::vector<std::string> args)
      : storage_(std::move(args)) {
    argv_.push_back(const_cast<char*>("bench"));
    for (auto& a : storage_) argv_.push_back(a.data());
  }
  int argc() const { return static_cast<int>(argv_.size()); }
  char** argv() { return argv_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> argv_;
};

TEST(BenchContextTest, DefaultScaleFactorApplies) {
  ArgvBuilder args({});
  BenchContext ctx(args.argc(), args.argv(), /*default_sf=*/0.01);
  EXPECT_DOUBLE_EQ(ctx.scale_factor(), 0.01);
  EXPECT_EQ(ctx.db().orders.size(), 15000u);
  EXPECT_EQ(ctx.machine().name, "broadwell");
}

TEST(BenchContextTest, SfFlagOverrides) {
  ArgvBuilder args({"--sf=0.005"});
  BenchContext ctx(args.argc(), args.argv(), 0.01);
  EXPECT_DOUBLE_EQ(ctx.scale_factor(), 0.005);
}

TEST(BenchContextTest, QuickModeShrinks) {
  ArgvBuilder args({"--quick"});
  BenchContext ctx(args.argc(), args.argv(), 1.0);
  EXPECT_TRUE(ctx.quick());
  EXPECT_DOUBLE_EQ(ctx.scale_factor(), 0.05);
}

TEST(BenchContextTest, SkylakeSelectable) {
  ArgvBuilder args({"--machine=skylake", "--sf=0.005"});
  BenchContext ctx(args.argc(), args.argv(), 0.01);
  EXPECT_EQ(ctx.machine().name, "skylake");
  EXPECT_EQ(ctx.machine().exec.simd_width_bits, 512u);
}

TEST(BenchContextTest, EnginesAreCachedSingletons) {
  ArgvBuilder args({"--sf=0.005"});
  BenchContext ctx(args.argc(), args.argv(), 0.01);
  EXPECT_EQ(&ctx.engine("typer"), &ctx.engine("typer"));
  EXPECT_EQ(&ctx.engine("tectorwise"), &ctx.engine("tectorwise"));
  EXPECT_NE(&ctx.engine("tectorwise"), &ctx.engine("tectorwise+simd"));
  EXPECT_TRUE(static_cast<tectorwise::TectorwiseEngine&>(
                  ctx.engine("tectorwise+simd"))
                  .simd());
}

TEST(BenchContextTest, RegistryCarriesTheBuiltinKeys) {
  ArgvBuilder args({"--sf=0.005"});
  BenchContext ctx(args.argc(), args.argv(), 0.01);
  for (const std::string name : {"colstore", "rowstore", "tectorwise",
                                  "tectorwise+simd", "typer"}) {
    EXPECT_TRUE(ctx.engines().Has(name));
  }
  EXPECT_FALSE(ctx.engines().Has("no-such-engine"));
  EXPECT_EQ(ctx.engine("typer").name(), "Typer");
}

TEST(BenchContextTest, CsvFlagAppendsTables) {
  const std::string path = ::testing::TempDir() + "/uolap_ctx_test.csv";
  std::remove(path.c_str());
  ArgvBuilder args({"--sf=0.005", "--csv=" + path});
  BenchContext ctx(args.argc(), args.argv(), 0.01);
  TablePrinter t("Figure X");
  t.SetHeader({"a", "b"});
  t.AddRow({"1", "2"});
  ctx.Emit(t);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("Figure X"), std::string::npos);
  EXPECT_NE(content.find("1,2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BenchContextTest, CsvFlagFailsLoudlyOnUnwritablePath) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ArgvBuilder args({"--sf=0.005", "--csv=/no/such/dir/x.csv"});
  BenchContext ctx(args.argc(), args.argv(), 0.01);
  TablePrinter t("Figure X");
  t.SetHeader({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_DEATH(ctx.Emit(t), "cannot append CSV to /no/such/dir/x.csv");
}

void ExpectBreakdownEq(const core::CycleBreakdown& a,
                       const core::CycleBreakdown& b) {
  EXPECT_EQ(a.retiring, b.retiring);
  EXPECT_EQ(a.branch_misp, b.branch_misp);
  EXPECT_EQ(a.icache, b.icache);
  EXPECT_EQ(a.decoding, b.decoding);
  EXPECT_EQ(a.dcache, b.dcache);
  EXPECT_EQ(a.execution, b.execution);
}

void ExpectRunEq(const obs::RunRecord& a, const obs::RunRecord& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.bw_scale, b.bw_scale);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(a.time_ms, b.time_ms);
  EXPECT_EQ(a.socket_bandwidth_gbps, b.socket_bandwidth_gbps);
  ExpectBreakdownEq(a.Aggregate(), b.Aggregate());
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (size_t i = 0; i < a.cores.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "core " << i);
    const core::ProfileResult& x = a.cores[i].whole;
    const core::ProfileResult& y = b.cores[i].whole;
    ExpectBreakdownEq(x.cycles, y.cycles);
    EXPECT_EQ(x.total_cycles, y.total_cycles);
    EXPECT_EQ(x.time_ms, y.time_ms);
    EXPECT_EQ(x.dram_bytes, y.dram_bytes);
    EXPECT_EQ(x.bandwidth_gbps, y.bandwidth_gbps);
    EXPECT_EQ(x.instructions, y.instructions);
    EXPECT_EQ(a.cores[i].regions.nodes.size(),
              b.cores[i].regions.nodes.size());
  }
}

TEST(BenchContextTest, ProfileCellsMatchesSerialProfilesInCellOrder) {
  ArgvBuilder args({"--sf=0.005"});
  BenchContext ctx(args.argc(), args.argv(), 0.01);
  engine::OlapEngine* typer = &ctx.engine("typer");
  const auto projection = [typer](engine::Workers& w) {
    typer->Projection(w, 4);
  };
  core::MachineConfig no_prefetch = ctx.machine();
  no_prefetch.prefetchers = core::PrefetcherConfig::AllDisabled();
  // Labels out of sorted order: ProfileCells records in cell order.
  const std::vector<BenchContext::Cell> cells = {
      {.label = "b default", .body = projection},
      {.label = "c prefetchers off", .body = projection,
       .machine = no_prefetch},
      {.label = "a two cores", .body = projection, .threads = 2},
  };
  const std::vector<obs::RunRecord> res = ctx.ProfileCells(cells);

  ASSERT_EQ(res.size(), cells.size());
  ASSERT_EQ(ctx.runs().size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].label);
    const obs::RunRecord direct =
        Profile(cells[i].machine.value_or(ctx.machine()), cells[i].threads,
                ctx.obs_options(), cells[i].label, cells[i].body,
                /*executor=*/nullptr);
    ExpectRunEq(res[i], direct);
    ExpectRunEq(ctx.runs()[i], direct);
  }
  // The override reached the machine: prefetchers change the answer.
  EXPECT_NE(res[0].cores[0].whole.total_cycles,
            res[1].cores[0].whole.total_cycles);
  EXPECT_EQ(res[2].cores.size(), 2u);
}

TEST(BenchContextTest, SeedChangesData) {
  ArgvBuilder a1({"--sf=0.005", "--seed=1"});
  ArgvBuilder a2({"--sf=0.005", "--seed=2"});
  BenchContext c1(a1.argc(), a1.argv(), 0.01);
  BenchContext c2(a2.argc(), a2.argv(), 0.01);
  EXPECT_NE(c1.db().lineitem.extendedprice, c2.db().lineitem.extendedprice);
}

}  // namespace
}  // namespace uolap::harness
