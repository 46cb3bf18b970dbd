// Differential test of the QuerySpec dispatch API: for every registry
// engine and every query it supports, OlapEngine::Run(spec) must be
// bit-identical to calling the concrete virtual directly — the same
// QueryResult AND the same full simulated counter set (instruction mix,
// cache/TLB/DRAM events, branch statistics). Dispatch is bookkeeping
// only; it may not perturb the simulation. Both sides run in this
// process on fresh machines: simulated addresses come from each core's
// placement, not from the heap, so the two executions are comparable bit
// for bit.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine.h"
#include "engine/engine.h"
#include "engine/query_spec.h"
#include "engine/registry.h"
#include "harness/engines.h"
#include "tpch/dbgen.h"

namespace uolap {
namespace {

using core::Machine;
using core::MachineConfig;
using engine::QueryId;
using engine::QueryResult;
using engine::QuerySpec;
using engine::Workers;

/// The keys harness::RegisterBuiltinEngines registers, in sorted order.
constexpr const char* kEngineKeys[] = {"colstore", "rowstore", "tectorwise",
                                       "tectorwise+simd", "typer"};

/// The concrete-virtual execution the dispatch switch must agree with.
QueryResult RunDirect(const engine::OlapEngine& eng, const QuerySpec& spec,
                      Workers& w) {
  QueryResult r;
  r.id = spec.id;
  switch (spec.id) {
    case QueryId::kProjection:
      r.value = eng.Projection(w, spec.projection_degree);
      break;
    case QueryId::kSelection:
      r.value = eng.Selection(w, spec.selection);
      break;
    case QueryId::kJoin:
      r.value = eng.Join(w, spec.join_size);
      break;
    case QueryId::kGroupBy:
      r.value = eng.GroupBy(w, spec.num_groups);
      break;
    case QueryId::kQ1:
      r.value = eng.Q1(w);
      break;
    case QueryId::kQ6:
      r.value = eng.Q6(w, spec.q6);
      break;
    case QueryId::kQ9:
      r.value = eng.Q9(w);
      break;
    case QueryId::kQ18:
      r.value = eng.Q18(w);
      break;
  }
  return r;
}

/// One spec per QueryId, exercising the non-default parameters too.
std::vector<QuerySpec> AllSpecs(const tpch::Database& db) {
  return {
      QuerySpec::Projection(4),
      QuerySpec::Selection(engine::MakeSelectionParams(db, 0.1)),
      QuerySpec::Join(engine::JoinSize::kMedium),
      QuerySpec::GroupBy(1024),
      QuerySpec::Q1(),
      QuerySpec::Q6(engine::MakeQ6Params()),
      QuerySpec::Q9(),
      QuerySpec::Q18(),
  };
}

struct Measured {
  QueryResult result;
  core::ProfileResult profile;
};

/// One measured execution on a fresh machine.
Measured Execute(const engine::OlapEngine& eng, const QuerySpec& spec,
                 bool via_dispatch) {
  Machine machine(MachineConfig::Broadwell(), 1);
  Workers workers(machine.core(0));
  Measured m;
  m.result = via_dispatch ? eng.Run(spec, workers).value()
                          : RunDirect(eng, spec, workers);
  machine.FinalizeAll();
  m.profile = machine.AnalyzeCore(0);
  return m;
}

class DispatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::DbGen gen(42);
    db_ = new tpch::Database(std::move(gen.Generate(0.01)).value());
    registry_ = new engine::EngineRegistry(*db_);
    harness::RegisterBuiltinEngines(*registry_);
  }

  static tpch::Database* db_;
  static engine::EngineRegistry* registry_;
};

tpch::Database* DispatchTest::db_ = nullptr;
engine::EngineRegistry* DispatchTest::registry_ = nullptr;

TEST_F(DispatchTest, RunMatchesDirectVirtualsBitExactly) {
  int combos = 0;
  for (const std::string key : kEngineKeys) {
    const engine::OlapEngine& eng = *registry_->Get(key).value();
    for (const QuerySpec& spec : AllSpecs(*db_)) {
      if (!eng.Supports(spec.id)) continue;
      SCOPED_TRACE(key + "/" + spec.Label());
      ++combos;
      const Measured via_dispatch = Execute(eng, spec, /*via_dispatch=*/true);
      const Measured via_direct = Execute(eng, spec, /*via_dispatch=*/false);
      EXPECT_TRUE(via_dispatch.result == via_direct.result);
      // Every counter field, doubles included, exactly.
      EXPECT_TRUE(via_dispatch.profile.counters ==
                  via_direct.profile.counters);
      EXPECT_EQ(via_dispatch.profile.total_cycles,
                via_direct.profile.total_cycles);
    }
  }
  EXPECT_GT(combos, 5);
}

TEST_F(DispatchTest, SupportsGatesTheTpchOnlyQueries) {
  // The micro-benchmark queries are universal; Q9/Q18 are only
  // implemented by the relational engines (base OlapEngine declines).
  const engine::OlapEngine& typer = *registry_->Get("typer").value();
  const engine::OlapEngine& rowstore = *registry_->Get("rowstore").value();
  EXPECT_TRUE(typer.Supports(QueryId::kQ9));
  EXPECT_TRUE(typer.Supports(QueryId::kQ18));
  EXPECT_FALSE(rowstore.Supports(QueryId::kQ9));
  EXPECT_FALSE(rowstore.Supports(QueryId::kQ18));
  EXPECT_TRUE(rowstore.Supports(QueryId::kProjection));
}

TEST_F(DispatchTest, LabelsAreStable) {
  EXPECT_EQ(QuerySpec::Projection(4).Label(), "projection/d4");
  EXPECT_EQ(QuerySpec::Join(engine::JoinSize::kLarge).Label(), "join/large");
  EXPECT_EQ(QuerySpec::GroupBy(1024).Label(), "groupby/g1024");
  EXPECT_EQ(QuerySpec::Q6(engine::MakeQ6Params()).Label(), "q6");
}

// --- Status channel of the dispatch surface --------------------------------

TEST_F(DispatchTest, RunReturnsUnimplementedForUnsupportedQueries) {
  const engine::OlapEngine& rowstore = *registry_->Get("rowstore").value();
  Machine machine(MachineConfig::Broadwell(), 1);
  Workers workers(machine.core(0));
  const StatusOr<QueryResult> r = rowstore.Run(QuerySpec::Q9(), workers);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

TEST_F(DispatchTest, RunReturnsInvalidArgumentForMalformedSpecs) {
  const engine::OlapEngine& typer = *registry_->Get("typer").value();
  Machine machine(MachineConfig::Broadwell(), 1);
  Workers workers(machine.core(0));
  QuerySpec bad = QuerySpec::Projection(4);
  bad.projection_degree = 9;  // valid range is 1..4
  const StatusOr<QueryResult> r = typer.Run(bad, workers);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DispatchTest, RegistryGetReportsUnknownKeys) {
  const StatusOr<engine::OlapEngine*> missing = registry_->Get("voltron");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The message names the unknown key and the registered alternatives.
  EXPECT_NE(missing.status().message().find("voltron"), std::string::npos);
  EXPECT_NE(missing.status().message().find("typer"), std::string::npos);
}

TEST_F(DispatchTest, SuccessfulRunCarriesOkOutcome) {
  const engine::OlapEngine& typer = *registry_->Get("typer").value();
  Machine machine(MachineConfig::Broadwell(), 1);
  Workers workers(machine.core(0));
  const StatusOr<QueryResult> r = typer.Run(QuerySpec::Q1(), workers);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().outcome, engine::QueryOutcome::kOk);
  EXPECT_TRUE(r.value().ok());
  EXPECT_TRUE(r.value().error.empty());
}

}  // namespace
}  // namespace uolap
