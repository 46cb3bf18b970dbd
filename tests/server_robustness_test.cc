// Tests of the serving runtime's robustness layer (DESIGN.md §9):
// deterministic fault injection (two fault-injected runs are
// bit-identical), the admission accounting invariant (admitted =
// completed + shed + timed_out + failed), the golden backoff schedule,
// deadline-aware rejection and shedding, and brown-out engine downgrades (whose answer-correctness the runtime
// itself cross-checks against the downgraded class's verified result).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_spec.h"
#include "engine/registry.h"
#include "harness/engines.h"
#include "server/admission.h"
#include "server/fault.h"
#include "server/serving.h"
#include "tpch/dbgen.h"

namespace uolap::server {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::DbGen gen(42);
    db_ = new tpch::Database(std::move(gen.Generate(0.01)).value());
    registry_ = new engine::EngineRegistry(*db_);
    harness::RegisterBuiltinEngines(*registry_);
  }

  static ServerConfig BaseConfig() {
    ServerConfig config;
    config.machine = core::MachineConfig::Broadwell();
    config.cores = 2;  // fewer cores than clients: real queue pressure
    config.default_max_queries = 8;
    return config;
  }

  static TenantConfig ScanTenant(const std::string& name,
                                 const std::string& engine, int concurrency,
                                 uint64_t seed) {
    TenantConfig t;
    t.name = name;
    t.engine = engine;
    t.catalog = {engine::QuerySpec::Projection(4),
                 engine::QuerySpec::Q6(engine::MakeQ6Params())};
    t.zipf_s = 0.5;
    t.concurrency = concurrency;
    t.think_ms = 0.05;
    t.seed = seed;
    return t;
  }

  static void ExpectAccounting(const obs::ServerRecord& rec) {
    uint64_t admitted = 0, completed = 0, shed = 0, timed_out = 0,
             failed = 0;
    for (const obs::TenantRecord& t : rec.tenants) {
      EXPECT_EQ(t.admitted, t.submitted - t.rejected) << t.name;
      EXPECT_EQ(t.admitted, t.completed + t.shed + t.timed_out + t.failed)
          << t.name;
      admitted += t.admitted;
      completed += t.completed;
      shed += t.shed;
      timed_out += t.timed_out;
      failed += t.failed;
    }
    EXPECT_EQ(rec.admitted, admitted);
    EXPECT_EQ(rec.admitted, completed + shed + timed_out + failed);
    EXPECT_EQ(rec.submitted, rec.admitted + rec.rejected);
  }

  static tpch::Database* db_;
  static engine::EngineRegistry* registry_;
};

tpch::Database* RobustnessTest::db_ = nullptr;
engine::EngineRegistry* RobustnessTest::registry_ = nullptr;

// --- fault plan parsing and determinism ------------------------------------

TEST_F(RobustnessTest, FaultPlanParsesAndRoundTrips) {
  const StatusOr<FaultPlan> plan =
      ParseFaultPlan("seed=9,fail=0.25,slow=0.5,x=2,epoch=0.5");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().seed, 9u);
  EXPECT_EQ(plan.value().fail_prob, 0.25);
  EXPECT_EQ(plan.value().slow_prob, 0.5);
  EXPECT_EQ(plan.value().slow_factor, 2.0);
  EXPECT_EQ(plan.value().epoch_ms, 0.5);
  EXPECT_TRUE(plan.value().enabled());
  const StatusOr<FaultPlan> again =
      ParseFaultPlan(plan.value().ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().ToString(), plan.value().ToString());

  const StatusOr<FaultPlan> off = ParseFaultPlan("");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off.value().enabled());
  EXPECT_EQ(off.value().ToString(), "");

  EXPECT_FALSE(ParseFaultPlan("fail=2").ok());         // prob out of range
  EXPECT_FALSE(ParseFaultPlan("fail=0.5").ok());       // prob without seed
  EXPECT_FALSE(ParseFaultPlan("seed=1,x=0.5").ok());   // multiplier < 1
  EXPECT_FALSE(ParseFaultPlan("seed=1,epoch=0").ok()); // epoch must be > 0
  EXPECT_FALSE(ParseFaultPlan("bogus=1").ok());        // unknown key
}

TEST_F(RobustnessTest, FaultDrawsHashIdentityNotInterleaving) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.fail_prob = 0.5;
  plan.slow_prob = 0.5;
  plan.slow_factor = 3.0;
  // The same (tenant, epoch, attempt) always draws the same decision.
  const FaultDecision a = EvalFault(plan, 1, 7, 42 * 1024 + 1);
  const FaultDecision b = EvalFault(plan, 1, 7, 42 * 1024 + 1);
  EXPECT_EQ(a.fail, b.fail);
  EXPECT_EQ(a.slow_factor, b.slow_factor);
  // Slowdowns are per (tenant, epoch): the attempt key must not matter.
  const FaultDecision c = EvalFault(plan, 1, 7, 99 * 1024 + 2);
  EXPECT_EQ(a.slow_factor, c.slow_factor);
  // A disabled plan never degrades anything.
  EXPECT_FALSE(EvalFault(FaultPlan{}, 1, 7, 42).fail);
  EXPECT_EQ(EvalFault(FaultPlan{}, 1, 7, 42).slow_factor, 1.0);
}

TEST_F(RobustnessTest, FaultInjectedRunsAreBitIdentical) {
  ServerConfig config = BaseConfig();
  config.faults.seed = 99;
  config.faults.fail_prob = 0.3;
  config.faults.slow_prob = 0.3;
  config.faults.slow_factor = 2.0;
  config.faults.epoch_ms = 0.5;
  config.retry.max_retries = 2;
  config.admission.default_deadline_ms = 5.0;
  config.admission.policy = ShedPolicy::kBoth;

  // One Server, two runs: class profiles are simulated once, so any
  // difference would come from the fault/retry/shed machinery itself.
  Server server(config, *registry_);
  server.AddTenant(ScanTenant("a", "typer", 3, 7));
  server.AddTenant(ScanTenant("b", "tectorwise", 3, 11));
  const obs::ServerRecord r1 = server.TryRun().value().record;
  const obs::ServerRecord r2 = server.TryRun().value().record;

  EXPECT_EQ(r1.vtime_ms, r2.vtime_ms);
  EXPECT_EQ(r1.submitted, r2.submitted);
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_EQ(r1.rejected, r2.rejected);
  EXPECT_EQ(r1.shed, r2.shed);
  EXPECT_EQ(r1.timed_out, r2.timed_out);
  EXPECT_EQ(r1.failed, r2.failed);
  EXPECT_EQ(r1.retries, r2.retries);
  EXPECT_EQ(r1.faults_injected, r2.faults_injected);
  EXPECT_EQ(r1.slowdowns_injected, r2.slowdowns_injected);
  EXPECT_EQ(r1.fault_plan, r2.fault_plan);
  ASSERT_EQ(r1.tenants.size(), r2.tenants.size());
  for (size_t i = 0; i < r1.tenants.size(); ++i) {
    EXPECT_EQ(r1.tenants[i].mean_ms, r2.tenants[i].mean_ms);
    EXPECT_EQ(r1.tenants[i].retries, r2.tenants[i].retries);
    EXPECT_EQ(r1.tenants[i].failed, r2.tenants[i].failed);
  }
  // The plan actually armed: something was injected.
  EXPECT_GT(r1.faults_injected + r1.slowdowns_injected, 0u);
  EXPECT_EQ(r1.fault_plan, config.faults.ToString());
  ExpectAccounting(r1);
}

// --- retry and backoff -----------------------------------------------------

TEST_F(RobustnessTest, BackoffScheduleIsGolden) {
  // 1 ms * 2^(attempt-1) * (1 + 0.5 * unit).
  EXPECT_EQ(RetryBackoffMs(1, 0.0), 1.0);
  EXPECT_EQ(RetryBackoffMs(2, 0.0), 2.0);
  EXPECT_EQ(RetryBackoffMs(3, 0.0), 4.0);
  EXPECT_EQ(RetryBackoffMs(1, 1.0), 1.5);
  EXPECT_EQ(RetryBackoffMs(3, 0.5), 5.0);
}

TEST_F(RobustnessTest, TransientFailuresRetryThenFail) {
  ServerConfig config = BaseConfig();
  config.faults.seed = 5;
  config.faults.fail_prob = 0.5;  // heavy failure pressure
  config.retry.max_retries = 1;

  Server server(config, *registry_);
  server.AddTenant(ScanTenant("a", "typer", 3, 7));
  const obs::ServerRecord rec = server.TryRun().value().record;

  ExpectAccounting(rec);
  EXPECT_GT(rec.faults_injected, 0u);
  EXPECT_GT(rec.retries, 0u);
  // Every injected failure that ran to its end either retried or failed
  // the query; deadline preemption can only drop that count.
  EXPECT_LE(rec.retries + rec.failed, rec.faults_injected);
  // No admission features armed: nothing rejected or shed.
  EXPECT_EQ(rec.rejected, 0u);
  EXPECT_EQ(rec.shed, 0u);
}

// --- deadlines and shedding ------------------------------------------------

TEST_F(RobustnessTest, ImpossibleDeadlinesAreRejectedAtAdmission) {
  ServerConfig config = BaseConfig();
  config.admission.policy = ShedPolicy::kReject;
  config.admission.default_deadline_ms = 1e-3;  // far below any service time

  Server server(config, *registry_);
  server.AddTenant(ScanTenant("a", "typer", 3, 7));
  const obs::ServerRecord rec = server.TryRun().value().record;

  ExpectAccounting(rec);
  EXPECT_GT(rec.rejected, 0u);
  EXPECT_EQ(rec.shed, 0u);  // reject-only policy never sheds from the queue
  EXPECT_EQ(rec.shed_policy, "reject");
}

TEST_F(RobustnessTest, ExpiredQueuedQueriesTimeOutUnderNoShedPolicy) {
  ServerConfig config = BaseConfig();
  // No shed policy: the server admits everything, so queries whose
  // deadline expires while queued are timed out at schedule time.
  config.admission.default_deadline_ms = 1e-3;

  Server server(config, *registry_);
  server.AddTenant(ScanTenant("a", "typer", 4, 7));
  server.AddTenant(ScanTenant("b", "tectorwise", 4, 11));
  const obs::ServerRecord rec = server.TryRun().value().record;

  ExpectAccounting(rec);
  EXPECT_EQ(rec.rejected, 0u);
  EXPECT_EQ(rec.shed, 0u);
  EXPECT_GT(rec.timed_out, 0u);
  EXPECT_EQ(rec.shed_policy, "none");
}

TEST_F(RobustnessTest, ShedPolicyParses) {
  EXPECT_EQ(ParseShedPolicy("").value(), ShedPolicy::kNone);
  EXPECT_EQ(ParseShedPolicy("none").value(), ShedPolicy::kNone);
  EXPECT_EQ(ParseShedPolicy("reject").value(), ShedPolicy::kReject);
  EXPECT_EQ(ParseShedPolicy("shed").value(), ShedPolicy::kShed);
  EXPECT_EQ(ParseShedPolicy("both").value(), ShedPolicy::kBoth);
  EXPECT_FALSE(ParseShedPolicy("sometimes").ok());
  EXPECT_EQ(ShedPolicyName(ShedPolicy::kBoth), "both");
}

// --- load model ------------------------------------------------------------

TEST_F(RobustnessTest, AdmissionControllerTracksRunningMean) {
  AdmissionController ctl(/*cores=*/2);
  ctl.SeedClass(0, 10.0);
  EXPECT_DOUBLE_EQ(ctl.MeanServiceMs(0), 10.0);
  // The seed counts as one observation; completions fold in.
  ctl.RecordCompletion(0, 20.0);
  EXPECT_DOUBLE_EQ(ctl.MeanServiceMs(0), 15.0);
  ctl.RecordCompletion(0, 15.0);
  EXPECT_DOUBLE_EQ(ctl.MeanServiceMs(0), 15.0);
  // Queue drains across the pool, then the candidate runs.
  EXPECT_DOUBLE_EQ(ctl.PredictResponseMs(0, 30.0), 30.0 / 2 + 15.0);
  EXPECT_TRUE(ctl.WouldMissDeadline(0, 30.0, 25.0));
  EXPECT_FALSE(ctl.WouldMissDeadline(0, 30.0, 35.0));
  EXPECT_FALSE(ctl.WouldMissDeadline(0, 30.0, 0.0));  // no deadline
}

// --- brown-out -------------------------------------------------------------

TEST_F(RobustnessTest, BrownoutDowngradesUnderBacklog) {
  ServerConfig config = BaseConfig();
  config.brownout.queue_depth = 2;
  config.brownout.downgrade = {{"tectorwise", "typer"}};

  Server server(config, *registry_);
  // Enough clients that the 2-core pool keeps a backlog.
  server.AddTenant(ScanTenant("a", "tectorwise", 6, 7));
  const obs::ServerRecord rec = server.TryRun().value().record;

  ExpectAccounting(rec);
  EXPECT_GT(rec.brownout_downgrades, 0u);
  // Downgraded executions land on the typer classes (the runtime itself
  // CHECK-compares the two classes' verified answers at wiring time, so
  // reaching here proves the downgrade preserved correctness).
  uint64_t typer_runs = 0;
  for (const obs::QueryClassRecord& c : rec.classes) {
    if (c.engine == "typer") typer_runs += c.executions;
  }
  EXPECT_GT(typer_runs, 0u);
  // Everything still drains: brown-out degrades cost, not availability.
  EXPECT_EQ(rec.completed, rec.admitted);
}

TEST_F(RobustnessTest, DefaultConfigKeepsLegacyBehavior) {
  // With every robustness feature off, the new counters stay zero and
  // everything admitted completes — the pre-robustness contract.
  Server server(BaseConfig(), *registry_);
  server.AddTenant(ScanTenant("a", "typer", 2, 7));
  const obs::ServerRecord rec = server.TryRun().value().record;
  EXPECT_EQ(rec.rejected, 0u);
  EXPECT_EQ(rec.shed, 0u);
  EXPECT_EQ(rec.timed_out, 0u);
  EXPECT_EQ(rec.failed, 0u);
  EXPECT_EQ(rec.retries, 0u);
  EXPECT_EQ(rec.faults_injected, 0u);
  EXPECT_EQ(rec.brownout_downgrades, 0u);
  EXPECT_EQ(rec.completed, rec.submitted);
  EXPECT_EQ(rec.shed_policy, "none");
  EXPECT_EQ(rec.fault_plan, "");
  ExpectAccounting(rec);
}

}  // namespace
}  // namespace uolap::server
