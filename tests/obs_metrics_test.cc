// Tests of the serving-telemetry metrics layer: name validation, the
// registry's counter/gauge/histogram semantics, the Prometheus text
// exposition bytes, SLO spec parsing, and the profile schema version
// check (readers accept exactly the version they write).

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/profile_export.h"
#include "obs/slo.h"

namespace uolap::obs {
namespace {

TEST(MetricNameTest, AcceptsLoweredDottedNames) {
  EXPECT_TRUE(IsValidMetricName("server.latency_ms"));
  EXPECT_TRUE(IsValidMetricName("a"));
  EXPECT_TRUE(IsValidMetricName("a1_b.c2"));
  EXPECT_TRUE(IsValidMetricName("engine.dispatch_total"));
  // Later segments may lead with a digit or underscore (the grammar is
  // [a-z0-9_]+ after the first segment); only the name head is strict.
  EXPECT_TRUE(IsValidMetricName("server.1x"));
}

TEST(MetricNameTest, RejectsEverythingElse) {
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("Server.latency"));
  EXPECT_FALSE(IsValidMetricName("1server"));
  EXPECT_FALSE(IsValidMetricName("_server"));
  EXPECT_FALSE(IsValidMetricName("server."));
  EXPECT_FALSE(IsValidMetricName(".server"));
  EXPECT_FALSE(IsValidMetricName("server..x"));
  EXPECT_FALSE(IsValidMetricName("server latency"));
  EXPECT_FALSE(IsValidMetricName("server-latency"));
}

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.Count("q.total");
  reg.Count("q.total", 4);
  reg.Count("q.total", "tenant", "a", 2);
  reg.SetGauge("vtime.ms", 3.5);
  reg.MaxGauge("peak.gbps", 10.0);
  reg.MaxGauge("peak.gbps", 7.0);  // lower: keeps 10
  reg.Observe("lat.ms", 0.5);
  reg.Observe("lat.ms", 3.0);

  const MetricsSnapshot snap = reg.Snapshot();
  const MetricFamily* q = snap.Find("q.total");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->kind, MetricKind::kCounter);
  ASSERT_EQ(q->series.size(), 2u);  // unlabeled + tenant=a, sorted
  EXPECT_EQ(q->series[0].label_key, "");
  EXPECT_EQ(q->series[0].counter, 5u);
  EXPECT_EQ(q->series[1].label_value, "a");
  EXPECT_EQ(q->series[1].counter, 2u);

  const MetricFamily* peak = snap.Find("peak.gbps");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->series[0].gauge, 10.0);

  const MetricFamily* lat = snap.Find("lat.ms");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->series[0].histogram.count, 2u);
  // 0.5 lands in bucket 0 ([0,1)), 3.0 in bucket 2 ([2,4)).
  ASSERT_GE(lat->series[0].histogram.buckets.size(), 3u);
  EXPECT_EQ(lat->series[0].histogram.buckets[0], 1u);
  EXPECT_EQ(lat->series[0].histogram.buckets[1], 0u);
  EXPECT_EQ(lat->series[0].histogram.buckets[2], 1u);
  EXPECT_EQ(lat->series[0].histogram.sum_micro, 3'500'000u);
}

TEST(MetricsRegistryTest, Log2BucketEdges) {
  EXPECT_EQ(Log2Bucket(0.0), 0u);
  EXPECT_EQ(Log2Bucket(0.99), 0u);
  EXPECT_EQ(Log2Bucket(1.0), 1u);
  EXPECT_EQ(Log2Bucket(1.99), 1u);
  EXPECT_EQ(Log2Bucket(2.0), 2u);
  EXPECT_EQ(Log2Bucket(1024.0), 11u);
  EXPECT_EQ(Log2Bucket(1e300), 63u);  // capped
}

/// Byte-golden for the Prometheus exposition: the serve-path smoke stage
/// greps this output, so format drift must be a conscious choice.
TEST(MetricsSnapshotTest, PrometheusTextMatchesGolden) {
  MetricsRegistry reg;
  reg.Count("server.queries_total", "tenant", "a", 3);
  reg.SetGauge("server.vtime_ms", 12.5);
  reg.Observe("server.latency_ms", 0.5);
  reg.Observe("server.latency_ms", 3.0);
  const char kGolden[] =
      "# TYPE server_latency_ms histogram\n"
      "server_latency_ms_bucket{le=\"1\"} 1\n"
      "server_latency_ms_bucket{le=\"2\"} 1\n"
      "server_latency_ms_bucket{le=\"4\"} 2\n"
      "server_latency_ms_bucket{le=\"+Inf\"} 2\n"
      "server_latency_ms_sum 3.5\n"
      "server_latency_ms_count 2\n"
      "# TYPE server_queries_total counter\n"
      "server_queries_total{tenant=\"a\"} 3\n"
      "# TYPE server_vtime_ms gauge\n"
      "server_vtime_ms 12.5\n";
  EXPECT_EQ(ToPrometheusText(reg.Snapshot()), kGolden);
}

TEST(SloSpecTest, ParsesAndCanonicalizes) {
  auto specs =
      ParseSloSpecs("tenant0:p99<12ms, *:p50<3.5 ,*:qdepth<64");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs.value().size(), 3u);
  EXPECT_EQ(specs.value()[0].ToString(), "tenant0:p99<12ms");
  EXPECT_EQ(specs.value()[0].metric, SloMetric::kP99);
  EXPECT_EQ(specs.value()[0].threshold, 12.0);
  EXPECT_EQ(specs.value()[1].ToString(), "*:p50<3.5ms");
  EXPECT_EQ(specs.value()[2].ToString(), "*:qdepth<64");
  EXPECT_TRUE(ParseSloSpecs("").value().empty());
}

TEST(SloSpecTest, RejectsMalformedClauses) {
  EXPECT_FALSE(ParseSloSpecs("tenant0").ok());
  EXPECT_FALSE(ParseSloSpecs("tenant0:p99").ok());
  EXPECT_FALSE(ParseSloSpecs("tenant0:p99>12").ok());
  EXPECT_FALSE(ParseSloSpecs("tenant0:p42<12").ok());
  EXPECT_FALSE(ParseSloSpecs("tenant0:p99<abc").ok());
  EXPECT_FALSE(ParseSloSpecs("tenant0:p99<-3").ok());
  EXPECT_FALSE(ParseSloSpecs(":p99<3").ok());
  // qdepth is pool-wide: a per-tenant subject is a spec bug.
  EXPECT_FALSE(ParseSloSpecs("tenant0:qdepth<8").ok());
}

TEST(ProfileVersionTest, SupportedRange) {
  for (int v : {-1, 1, 2, 3, 4, kProfileSchemaVersion + 1}) {
    EXPECT_FALSE(IsSupportedProfileVersion(v)) << v;
  }
  EXPECT_TRUE(IsSupportedProfileVersion(kProfileSchemaVersion));
}

/// A v5 server block round-trips its robustness rollups through the
/// parser.
TEST(ProfileVersionTest, V5RobustnessFieldsParse) {
  const char kV5[] = R"({
    "schema": "uolap-profile", "version": 5, "bench": "serve",
    "runs": [],
    "server": {"cores": 4, "submitted": 10, "completed": 6,
               "admitted": 9, "rejected": 1, "shed": 2, "timed_out": 1,
               "failed": 0, "retries": 3, "faults_injected": 4,
               "slowdowns_injected": 2, "brownout_downgrades": 1,
               "shed_policy": "both", "fault_plan": "seed=7,fail=0.1",
               "vtime_ms": 2.5,
               "tenants": [{"name": "a", "admitted": 9, "rejected": 1,
                            "shed": 2, "timed_out": 1, "failed": 0,
                            "retries": 3}]}
  })";
  const auto doc = ParseJson(kV5);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(IsSupportedProfileVersion(
      static_cast<int>(doc.value().GetNumber("version"))));
  const JsonValue* server = doc.value().Find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->GetNumber("admitted"), 9.0);
  EXPECT_EQ(server->GetNumber("shed"), 2.0);
  EXPECT_EQ(server->GetNumber("retries"), 3.0);
  EXPECT_EQ(server->GetString("shed_policy"), "both");
  EXPECT_EQ(server->GetString("fault_plan"), "seed=7,fail=0.1");
  // The accounting invariant holds in the serialized rollup too.
  EXPECT_EQ(server->GetNumber("admitted"),
            server->GetNumber("completed") + server->GetNumber("shed") +
                server->GetNumber("timed_out") +
                server->GetNumber("failed"));
}

/// The robustness metric names obey the canonical grammar and publish
/// per-tenant series like the rest of the serving surface.
TEST(MetricNameTest, RobustnessNamesAreValidAndPublish) {
  for (const char* name :
       {metric_names::kServerQueriesRejected,
        metric_names::kServerQueriesShed,
        metric_names::kServerQueriesTimedOut,
        metric_names::kServerQueriesFailed, metric_names::kServerRetriesTotal,
        metric_names::kServerBackoffMs, metric_names::kServerFaultsInjected,
        metric_names::kServerSlowdownsInjected,
        metric_names::kServerBrownoutDowngrades}) {
    EXPECT_TRUE(IsValidMetricName(name)) << name;
  }
  MetricsRegistry reg;
  reg.Count(metric_names::kServerQueriesShed, "tenant", "a");
  reg.Observe(metric_names::kServerBackoffMs, "tenant", "a", 2.0);
  const MetricsSnapshot snap = reg.Snapshot();
  const MetricFamily* shed = snap.Find(metric_names::kServerQueriesShed);
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->kind, MetricKind::kCounter);
  ASSERT_EQ(shed->series.size(), 1u);
  EXPECT_EQ(shed->series[0].label_value, "a");
  const MetricFamily* backoff = snap.Find(metric_names::kServerBackoffMs);
  ASSERT_NE(backoff, nullptr);
  EXPECT_EQ(backoff->kind, MetricKind::kHistogram);
}

}  // namespace
}  // namespace uolap::obs
