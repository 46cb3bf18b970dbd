// Tests of the virtual-time serving runtime: determinism (two runs of
// the same Server are bit-identical), accounting consistency, FIFO
// queueing when tenants outnumber cores, and the tentpole behaviour —
// co-running tenants that saturate the shared socket bandwidth inflate
// each other's service time and Dcache stall share relative to solo —
// and that simulating the classes on a thread pool changes no byte.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_spec.h"
#include "engine/registry.h"
#include "engine/thread_pool.h"
#include "harness/engines.h"
#include "obs/metrics.h"
#include "obs/profile_export.h"
#include "server/checkpoint.h"
#include "server/serving.h"
#include "tpch/dbgen.h"

namespace uolap::server {
namespace {

class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (db_ != nullptr) return;  // shared with the derived fixtures
    tpch::DbGen gen(42);
    db_ = new tpch::Database(std::move(gen.Generate(0.01)).value());
    registry_ = new engine::EngineRegistry(*db_);
    harness::RegisterBuiltinEngines(*registry_);
  }

  static ServerConfig BaseConfig() {
    ServerConfig config;
    config.machine = core::MachineConfig::Broadwell();
    config.cores = 4;
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

  static tpch::Database* db_;
  static engine::EngineRegistry* registry_;
};

tpch::Database* ServingTest::db_ = nullptr;
engine::EngineRegistry* ServingTest::registry_ = nullptr;

TEST_F(ServingTest, RepeatedRunsAreBitIdentical) {
  Server server(BaseConfig(), *registry_);
  server.AddTenant(ScanTenant("a", "typer", 2, 7));
  server.AddTenant(ScanTenant("b", "tectorwise", 2, 11));

  const ServeResult first = server.TryRun().value();
  const ServeResult second = server.TryRun().value();

  const obs::ServerRecord& r1 = first.record;
  const obs::ServerRecord& r2 = second.record;
  EXPECT_EQ(r1.vtime_ms, r2.vtime_ms);
  EXPECT_EQ(r1.submitted, r2.submitted);
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_EQ(r1.throughput_qps, r2.throughput_qps);
  EXPECT_EQ(r1.avg_socket_gbps, r2.avg_socket_gbps);
  EXPECT_EQ(r1.peak_socket_gbps, r2.peak_socket_gbps);
  ASSERT_EQ(r1.tenants.size(), r2.tenants.size());
  for (size_t i = 0; i < r1.tenants.size(); ++i) {
    EXPECT_EQ(r1.tenants[i].mean_ms, r2.tenants[i].mean_ms);
    EXPECT_EQ(r1.tenants[i].p50_ms, r2.tenants[i].p50_ms);
    EXPECT_EQ(r1.tenants[i].p95_ms, r2.tenants[i].p95_ms);
    EXPECT_EQ(r1.tenants[i].p99_ms, r2.tenants[i].p99_ms);
    EXPECT_EQ(r1.tenants[i].latency_histogram,
              r2.tenants[i].latency_histogram);
  }
  ASSERT_EQ(r1.classes.size(), r2.classes.size());
  for (size_t i = 0; i < r1.classes.size(); ++i) {
    EXPECT_EQ(r1.classes[i].executions, r2.classes[i].executions);
    EXPECT_EQ(r1.classes[i].corun_ms, r2.classes[i].corun_ms);
    EXPECT_EQ(r1.classes[i].avg_bw_scale, r2.classes[i].avg_bw_scale);
  }
  ASSERT_EQ(r1.queue_timeline.size(), r2.queue_timeline.size());
  for (size_t i = 0; i < r1.queue_timeline.size(); ++i) {
    EXPECT_EQ(r1.queue_timeline[i].vtime_ms,
              r2.queue_timeline[i].vtime_ms);
    EXPECT_EQ(r1.queue_timeline[i].running, r2.queue_timeline[i].running);
    EXPECT_EQ(r1.queue_timeline[i].queued, r2.queue_timeline[i].queued);
  }
}

TEST_F(ServingTest, AccountingIsConsistent) {
  Server server(BaseConfig(), *registry_);
  server.AddTenant(ScanTenant("a", "typer", 2, 3));
  server.AddTenant(ScanTenant("b", "tectorwise", 2, 5));

  const ServeResult result = server.TryRun().value();
  const obs::ServerRecord& rec = result.record;

  // Everything submitted drains; tenant sums match the totals.
  EXPECT_EQ(rec.submitted, rec.completed);
  uint64_t tenant_submitted = 0;
  uint64_t tenant_completed = 0;
  for (const obs::TenantRecord& t : rec.tenants) {
    tenant_submitted += t.submitted;
    tenant_completed += t.completed;
    EXPECT_EQ(t.submitted, 8u);  // default_max_queries
    EXPECT_LE(t.p50_ms, t.p95_ms);
    EXPECT_LE(t.p95_ms, t.p99_ms);
    uint64_t hist_total = 0;
    for (const uint64_t count : t.latency_histogram) hist_total += count;
    EXPECT_EQ(hist_total, t.completed);
  }
  EXPECT_EQ(tenant_submitted, rec.submitted);
  EXPECT_EQ(tenant_completed, rec.completed);

  uint64_t engine_completed = 0;
  for (const obs::EngineLoadRecord& e : rec.engines) {
    engine_completed += e.completed;
  }
  EXPECT_EQ(engine_completed, rec.completed);

  uint64_t class_executions = 0;
  for (const obs::QueryClassRecord& c : rec.classes) {
    class_executions += c.executions;
    EXPECT_GT(c.solo_ms, 0);
  }
  EXPECT_EQ(class_executions, rec.completed);

  EXPECT_GT(rec.vtime_ms, 0);
  EXPECT_GT(rec.throughput_qps, 0);
  // One solo class profile per distinct (engine, query) class at least.
  EXPECT_GE(result.class_runs.size(), rec.classes.size());
}

TEST_F(ServingTest, FifoQueueingWhenTenantsExceedCores) {
  ServerConfig config = BaseConfig();
  config.cores = 1;
  config.default_max_queries = 4;
  Server server(config, *registry_);
  server.AddTenant(ScanTenant("a", "typer", 3, 9));

  const ServeResult result = server.TryRun().value();
  const obs::ServerRecord& rec = result.record;
  EXPECT_EQ(rec.completed, 4u);
  // Three clients contend for one core: the queue must have been depth
  // >= 1 at some point, and never more than one query runs at once.
  uint32_t max_running = 0;
  uint32_t max_queued = 0;
  for (const obs::QueueSample& q : rec.queue_timeline) {
    max_running = std::max(max_running, q.running);
    max_queued = std::max(max_queued, q.queued);
  }
  EXPECT_EQ(max_running, 1u);
  EXPECT_GE(max_queued, 1u);
}

TEST_F(ServingTest, SharedBandwidthContentionInflatesDcacheShare) {
  // Shrink the socket ceiling to the bandwidth of a single core: any two
  // co-running scans must now contend, so the serving run reports a
  // bandwidth scale < 1 and a higher Dcache stall share than solo.
  ServerConfig config = BaseConfig();
  config.machine.bandwidth.per_socket_seq_gbps =
      config.machine.bandwidth.per_core_seq_gbps;
  config.machine.bandwidth.per_socket_rand_gbps =
      config.machine.bandwidth.per_core_rand_gbps;
  Server server(config, *registry_);
  server.AddTenant(ScanTenant("a", "typer", 2, 13));
  server.AddTenant(ScanTenant("b", "tectorwise", 2, 17));

  const ServeResult result = server.TryRun().value();
  const obs::ServerRecord& rec = result.record;
  EXPECT_TRUE(rec.saturated);

  bool some_class_contended = false;
  for (const obs::QueryClassRecord& c : rec.classes) {
    if (c.executions == 0) continue;
    EXPECT_LE(c.avg_bw_scale, 1.0);
    EXPECT_GE(c.corun_ms, c.solo_ms - 1e-9);
    EXPECT_GE(c.corun_dcache_frac, c.solo_dcache_frac - 1e-12);
    if (c.avg_bw_scale < 0.999) {
      some_class_contended = true;
      EXPECT_GT(c.corun_ms, c.solo_ms);
      EXPECT_GT(c.corun_dcache_frac, c.solo_dcache_frac);
    }
  }
  EXPECT_TRUE(some_class_contended);

  // The co-run re-analysis runs ride along in class_runs.
  bool corun_run_present = false;
  for (const obs::RunRecord& run : result.class_runs) {
    if (run.label.find(" [corun]") != std::string::npos) {
      corun_run_present = true;
      EXPECT_LT(run.bw_scale, 1.0);
    }
  }
  EXPECT_TRUE(corun_run_present);
}

TEST_F(ServingTest, SpanTracingCoversEveryQueryAtFullSampling) {
  ServerConfig config = BaseConfig();
  config.trace_sample_n = 1;
  Server server(config, *registry_);
  server.AddTenant(ScanTenant("a", "typer", 2, 7));
  server.AddTenant(ScanTenant("b", "tectorwise", 2, 11));

  const obs::ServerRecord rec = server.TryRun().value().record;
  EXPECT_EQ(rec.trace_sample_n, 1u);
  ASSERT_EQ(rec.spans.size(), rec.completed);
  uint64_t last_seq = 0;
  for (size_t i = 0; i < rec.spans.size(); ++i) {
    const obs::QuerySpan& s = rec.spans[i];
    // Span lifecycle ordering holds in virtual time: the query arrives,
    // waits (possibly zero), starts on a core, and finishes after it.
    EXPECT_LE(s.arrival_ms, s.start_ms);
    EXPECT_LT(s.start_ms, s.end_ms);
    EXPECT_GE(s.core, 0);
    EXPECT_LT(s.core, config.cores);
    EXPECT_FALSE(s.tenant.empty());
    EXPECT_FALSE(s.cls.empty());
    if (i > 0) {
      EXPECT_GT(s.seq, last_seq);  // sorted by admission order
    }
    last_seq = s.seq;
  }
}

TEST_F(ServingTest, SpanHeadSamplingKeepsEveryNth) {
  ServerConfig config = BaseConfig();
  config.trace_sample_n = 4;
  Server server(config, *registry_);
  server.AddTenant(ScanTenant("a", "typer", 2, 7));
  server.AddTenant(ScanTenant("b", "tectorwise", 2, 11));

  const obs::ServerRecord rec = server.TryRun().value().record;
  // Head sampling keys on the admission sequence number, and every
  // admitted query drains, so exactly ceil(submitted / N) spans survive.
  EXPECT_EQ(rec.spans.size(), (rec.submitted + 3) / 4);
  for (const obs::QuerySpan& s : rec.spans) EXPECT_EQ(s.seq % 4, 0u);
}

TEST_F(ServingTest, EpochWindowsPartitionCompletions) {
  ServerConfig config = BaseConfig();
  config.epoch_ms = 0.5;
  Server server(config, *registry_);
  server.AddTenant(ScanTenant("a", "typer", 2, 7));
  server.AddTenant(ScanTenant("b", "tectorwise", 2, 11));

  const obs::ServerRecord rec = server.TryRun().value().record;
  EXPECT_EQ(rec.epoch_ms, 0.5);
  ASSERT_FALSE(rec.epochs.empty());
  uint64_t epoch_completed = 0;
  for (size_t i = 0; i < rec.epochs.size(); ++i) {
    const obs::EpochRecord& e = rec.epochs[i];
    EXPECT_EQ(e.index, static_cast<int>(i));
    EXPECT_LT(e.start_ms, e.end_ms);
    if (i > 0) {
      EXPECT_EQ(e.start_ms, rec.epochs[i - 1].end_ms);
    }
    epoch_completed += e.completed;
    if (e.completed > 0) {
      EXPECT_LE(e.p50_ms, e.p95_ms);
      EXPECT_LE(e.p95_ms, e.p99_ms);
    }
    uint64_t window_completed = 0;
    for (const obs::WindowStat& w : e.tenants) {
      EXPECT_GT(w.completed, 0u);
      window_completed += w.completed;
    }
    EXPECT_EQ(window_completed, e.completed);
  }
  EXPECT_EQ(epoch_completed, rec.completed);
  // The whole-run percentile rollup rides along with the windows.
  EXPECT_LE(rec.p50_ms, rec.p95_ms);
  EXPECT_LE(rec.p95_ms, rec.p99_ms);
  EXPECT_GT(rec.p99_ms, 0.0);
}

TEST_F(ServingTest, SloSpecsGateOnEpochWindows) {
  ServerConfig config = BaseConfig();
  config.epoch_ms = 0.5;
  const auto specs = obs::ParseSloSpecs(
      "*:p99<1e9ms,a:p99<1e9,*:qdepth<100000,*:p99<0.0001,nosuch:p50<1");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  config.slos = specs.value();
  Server server(config, *registry_);
  server.AddTenant(ScanTenant("a", "typer", 2, 7));
  server.AddTenant(ScanTenant("b", "tectorwise", 2, 11));

  const obs::ServerRecord rec = server.TryRun().value().record;
  ASSERT_EQ(rec.slo_results.size(), 5u);
  // Loose pool-wide, per-tenant, and queue-depth specs pass.
  EXPECT_TRUE(rec.slo_results[0].pass);
  EXPECT_GT(rec.slo_results[0].epochs_evaluated, 0);
  EXPECT_TRUE(rec.slo_results[1].pass);
  EXPECT_TRUE(rec.slo_results[2].pass);
  // A sub-microsecond p99 bound must trip in some epoch.
  EXPECT_FALSE(rec.slo_results[3].pass);
  EXPECT_GE(rec.slo_results[3].first_violation_epoch, 0);
  EXPECT_GT(rec.slo_results[3].worst_value, 0.0001);
  // Typos in the subject fail loudly instead of vacuously passing.
  EXPECT_FALSE(rec.slo_results[4].pass);
  EXPECT_FALSE(rec.slo_results[4].known_subject);
}

TEST_F(ServingTest, TelemetryIsDeterministicAcrossRuns) {
  ServerConfig config = BaseConfig();
  config.epoch_ms = 0.5;
  config.trace_sample_n = 2;
  Server server(config, *registry_);
  server.AddTenant(ScanTenant("a", "typer", 2, 7));
  server.AddTenant(ScanTenant("b", "tectorwise", 2, 11));

  const obs::ServerRecord r1 = server.TryRun().value().record;
  const obs::ServerRecord r2 = server.TryRun().value().record;
  ASSERT_EQ(r1.epochs.size(), r2.epochs.size());
  for (size_t i = 0; i < r1.epochs.size(); ++i) {
    EXPECT_EQ(r1.epochs[i].completed, r2.epochs[i].completed);
    EXPECT_EQ(r1.epochs[i].p99_ms, r2.epochs[i].p99_ms);
    EXPECT_EQ(r1.epochs[i].max_running, r2.epochs[i].max_running);
    EXPECT_EQ(r1.epochs[i].max_queued, r2.epochs[i].max_queued);
  }
  ASSERT_EQ(r1.spans.size(), r2.spans.size());
  for (size_t i = 0; i < r1.spans.size(); ++i) {
    EXPECT_EQ(r1.spans[i].seq, r2.spans[i].seq);
    EXPECT_EQ(r1.spans[i].tenant, r2.spans[i].tenant);
    EXPECT_EQ(r1.spans[i].start_ms, r2.spans[i].start_ms);
    EXPECT_EQ(r1.spans[i].end_ms, r2.spans[i].end_ms);
    EXPECT_EQ(r1.spans[i].core, r2.spans[i].core);
  }
}

TEST_F(ServingTest, InjectedRegistryCapturesServeCounters) {
  obs::MetricsRegistry local;
  ServerConfig config = BaseConfig();
  config.metrics = &local;
  Server server(config, *registry_);
  server.AddTenant(ScanTenant("a", "typer", 2, 7));
  server.AddTenant(ScanTenant("b", "tectorwise", 2, 11));

  const obs::ServerRecord rec = server.TryRun().value().record;
  const obs::MetricsSnapshot snap = local.Snapshot();

  auto series_sum = [&](const char* name) {
    const obs::MetricFamily* f = snap.Find(name);
    uint64_t total = 0;
    if (f != nullptr) {
      for (const obs::MetricSeries& s : f->series) total += s.counter;
    }
    return total;
  };
  EXPECT_EQ(series_sum("server.queries_submitted_total"), rec.submitted);
  EXPECT_EQ(series_sum("server.queries_completed_total"), rec.completed);

  const obs::MetricFamily* lat = snap.Find("server.latency_ms");
  ASSERT_NE(lat, nullptr);
  uint64_t observed = 0;
  for (const obs::MetricSeries& s : lat->series) {
    observed += s.histogram.count;
  }
  EXPECT_EQ(observed, rec.completed);

  const obs::MetricFamily* vtime = snap.Find("server.vtime_ms");
  ASSERT_NE(vtime, nullptr);
  EXPECT_EQ(vtime->series[0].gauge, rec.vtime_ms);
  // Nothing leaked into the process-global registry's serve counters...
  // (other tests share the global, so only assert the injected one was
  // actually used: it is non-empty and self-consistent.)
  EXPECT_FALSE(snap.empty());
}

TEST_F(ServingTest, OpenLoopTenantObeysPoissonCap) {
  ServerConfig config = BaseConfig();
  config.default_max_queries = 6;
  Server server(config, *registry_);
  TenantConfig open;
  open.name = "open";
  open.engine = "typer";
  open.catalog = {engine::QuerySpec::Projection(2)};
  open.arrival_qps = 500;
  open.seed = 21;
  server.AddTenant(open);

  const ServeResult result = server.TryRun().value();
  ASSERT_EQ(result.record.tenants.size(), 1u);
  EXPECT_EQ(result.record.tenants[0].submitted, 6u);
  EXPECT_EQ(result.record.tenants[0].completed, 6u);
}

/// Class simulation on a pool versus one class after another.
class ServerServingTest : public ServingTest {
 protected:
  struct Outcome {
    std::string profile_json;
    uint32_t class_digest = 0;
    ServeResult result;
  };

  /// The hostbench/uolap_serve tenant mix (typer and tectorwise scans,
  /// typer analytics, an open-loop rowstore tenant) with every robustness
  /// path armed and a chained brown-out map, rowstore -> colstore ->
  /// typer, so resolving the downgrades takes a second wave. Checkpointing
  /// is on so the class digest can be read back from snapshot 0.
  static Outcome Serve(engine::ParallelExecutor* executor) {
    char tmpl[] = "/tmp/uolap_pool_serial_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    ServerConfig config = BaseConfig();
    config.cores = 2;
    config.default_max_queries = 48;
    config.sample_interval_instructions = 100'000;
    config.epoch_ms = 1.0;
    config.trace_sample_n = 4;
    obs::MetricsRegistry metrics;
    config.metrics = &metrics;
    config.admission.policy = ShedPolicy::kBoth;
    config.admission.default_deadline_ms = 8.0;
    config.retry.max_retries = 2;
    config.faults = ParseFaultPlan("seed=7,fail=0.1,slow=0.2,x=2").value();
    config.brownout.queue_depth = 2;
    config.brownout.downgrade = {{"rowstore", "colstore"},
                                 {"colstore", "typer"},
                                 {"tectorwise", "typer"}};
    config.checkpoint.dir = dir;
    config.checkpoint.every_epochs = 1000;  // snapshot 0 is enough

    Server server(config, *registry_, executor);
    const std::vector<engine::QuerySpec> scans = {
        engine::QuerySpec::Projection(4),
        engine::QuerySpec::Q6(engine::MakeQ6Params())};
    server.AddTenant({"scans-typer", "typer", scans, 0.8, 0, 3, 0.0, 0, 1});
    server.AddTenant({"scans-tw", "tectorwise", scans, 0.8, 0, 3, 0.0, 0, 2});
    server.AddTenant({"joins-typer",
                      "typer",
                      {engine::QuerySpec::Join(engine::JoinSize::kLarge),
                       engine::QuerySpec::GroupBy(64 * 1024),
                       engine::QuerySpec::Q1()},
                      0.8, 0, 2, 0.2, 0, 3});
    server.AddTenant({"adhoc-rowstore", "rowstore",
                      {engine::QuerySpec::Projection(2)}, 0, 400.0, 0, 0, 0,
                      4});

    Outcome out;
    out.result = server.TryRun().value();
    obs::ProfileSession session;
    session.bench = "server_serving_test";
    session.machine = config.machine.name;
    session.freq_ghz = config.machine.freq_ghz;
    session.scale_factor = db_->scale_factor;
    session.seed = 42;
    session.server = out.result.record;
    session.server.enabled = true;
    session.runs = out.result.class_runs;
    session.metrics = metrics.Snapshot();
    out.profile_json = obs::ProfileToJson(session);
    auto snap = ReadSnapshotFile(std::string(dir) + "/" + SnapshotFileName(0));
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    if (snap.ok()) out.class_digest = snap.value().class_digest;
    std::filesystem::remove_all(dir);
    return out;
  }
};

TEST_F(ServerServingTest, PoolAndSerialClassSimulationAreByteIdentical) {
  const Outcome serial = Serve(nullptr);
  engine::ThreadPool pool(4);
  const Outcome pooled = Serve(&pool);

  EXPECT_NE(serial.class_digest, 0u);
  EXPECT_EQ(serial.class_digest, pooled.class_digest);
  // The chain resolved: rowstore -> colstore in wave one, colstore ->
  // typer (a class appended by wave one) in wave two.
  const std::vector<obs::RunRecord>& runs = serial.result.class_runs;
  auto has_class = [&runs](const std::string& label) {
    return std::any_of(runs.begin(), runs.end(),
                       [&label](const obs::RunRecord& r) {
                         return r.label == label;
                       });
  };
  EXPECT_TRUE(has_class("serve/colstore/projection/d2"));
  EXPECT_TRUE(has_class("serve/typer/projection/d2"));
  EXPECT_GT(serial.result.record.brownout_downgrades, 0u);

  const obs::ServerRecord& a = serial.result.record;
  const obs::ServerRecord& b = pooled.result.record;
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].label, b.classes[i].label);
    EXPECT_EQ(a.classes[i].executions, b.classes[i].executions);
    EXPECT_EQ(a.classes[i].solo_ms, b.classes[i].solo_ms);
    EXPECT_EQ(a.classes[i].corun_ms, b.classes[i].corun_ms);
    EXPECT_EQ(a.classes[i].avg_bw_scale, b.classes[i].avg_bw_scale);
  }
  ASSERT_EQ(serial.result.class_runs.size(), pooled.result.class_runs.size());
  for (size_t i = 0; i < serial.result.class_runs.size(); ++i) {
    const obs::RunRecord& x = serial.result.class_runs[i];
    const obs::RunRecord& y = pooled.result.class_runs[i];
    EXPECT_EQ(x.label, y.label);
    EXPECT_EQ(x.cores[0].whole.total_cycles, y.cores[0].whole.total_cycles);
  }
  EXPECT_TRUE(serial.profile_json == pooled.profile_json)
      << "profile JSON differs between serial and pooled class simulation";
}

}  // namespace
}  // namespace uolap::server
