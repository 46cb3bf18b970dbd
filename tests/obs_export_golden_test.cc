// Byte-level golden tests for the two exporters: a tiny fixed synthetic
// workload (fixed fake addresses — the simulator never dereferences, so
// the run is bit-deterministic across hosts) serialized to the profile
// JSON schema and to Chrome trace-event JSON. Any schema or formatting
// drift fails here and forces a conscious version bump. Also covers the
// JSON parser: round-trip of exporter output and malformed-input errors,
// and JsonWriter's number formatting against the printf recipe it
// replaced.
//
// To update the goldens after an intentional schema/model change: run this
// binary; on mismatch it writes the actual bytes to
// obs_export_golden_actual.{json,trace} in the working directory.

#include "obs/profile_export.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/core.h"
#include "core/machine.h"
#include "obs/attribution.h"
#include "obs/json.h"
#include "obs/json_writer.h"
#include "obs/record.h"
#include "obs/region_profiler.h"

namespace uolap::obs {
namespace {

/// Simulates the tiny fixed workload and assembles the session both
/// exporters serialize: one run, one core, a sequential "scan" region, a
/// random-access "probe" region, and a 1000-instruction sampling timeline.
ProfileSession MakeGoldenSession() {
  const core::MachineConfig cfg = core::MachineConfig::Broadwell();
  core::Machine machine(cfg, 1);
  core::Core& core = machine.core(0);
  RegionProfiler prof(core,
                      RegionProfiler::Options{/*sample_interval=*/1000});

  {
    core::ScopedRegion scan(core, "scan");
    core.LoadSeq(reinterpret_cast<const void*>(uint64_t{1} << 20), 8, 512);
    core::InstrMix m;
    m.alu = 1024;
    core.Retire(m);
  }
  {
    core::ScopedRegion probe(core, "probe");
    for (uint64_t i = 0; i < 64; ++i) {
      core.Load(
          reinterpret_cast<const void*>((uint64_t{1} << 24) + i * 4096), 8);
    }
    core::InstrMix m;
    m.alu = 256;
    m.chain_cycles = 64;
    core.Retire(m);
  }
  machine.FinalizeAll();

  CoreRecord rec;
  rec.whole = machine.AnalyzeCore(0);
  rec.regions = prof.Finish();
  AnalyzeTree(cfg, &rec.regions, 1.0);
  rec.timeline = prof.timeline();
  rec.events = prof.events();
  rec.begin = prof.begin_counters();

  RunRecord run;
  run.label = "golden";
  run.threads = 1;
  run.config = cfg;
  run.bw_scale = 1.0;
  run.makespan_cycles = rec.whole.total_cycles;
  run.time_ms = rec.whole.time_ms;
  run.socket_bandwidth_gbps = rec.whole.bandwidth_gbps;
  run.cores.push_back(std::move(rec));

  ProfileSession session;
  session.bench = "obs_export_golden_test";
  session.machine = cfg.name;
  session.freq_ghz = cfg.freq_ghz;
  session.scale_factor = 0.01;
  session.seed = 42;
  session.quick = true;
  session.wall_ms = 12.5;
  session.runs.push_back(std::move(run));

  // A small fixed registry snapshot so the v4 "metrics" block is golden-
  // covered alongside the run: one labeled counter family, one gauge, one
  // histogram with observations in different buckets.
  MetricsRegistry registry;
  registry.Count("golden.queries_total", "tenant", "a", 3);
  registry.Count("golden.queries_total", "tenant", "b", 1);
  registry.SetGauge("golden.vtime_ms", 12.5);
  registry.Observe("golden.latency_ms", 0.5);
  registry.Observe("golden.latency_ms", 3.0);
  session.metrics = registry.Snapshot();
  return session;
}

constexpr char kProfileGolden[] = R"golden({
 "schema": "uolap-profile",
 "version": 5,
 "bench": "obs_export_golden_test",
 "machine": "broadwell",
 "freq_ghz": 2.4,
 "scale_factor": 0.01,
 "seed": 42,
 "quick": true,
 "wall_ms": 12.5,
 "metrics": [
  {
   "name": "golden.latency_ms",
   "kind": "histogram",
   "series": [
    {
     "label_key": "",
     "label_value": "",
     "buckets": [
      1,
      0,
      1
     ],
     "count": 2,
     "sum_micro": 3500000
    }
   ]
  },
  {
   "name": "golden.queries_total",
   "kind": "counter",
   "series": [
    {
     "label_key": "tenant",
     "label_value": "a",
     "value": 3
    },
    {
     "label_key": "tenant",
     "label_value": "b",
     "value": 1
    }
   ]
  },
  {
   "name": "golden.vtime_ms",
   "kind": "gauge",
   "series": [
    {
     "label_key": "",
     "label_value": "",
     "value": 12.5
    }
   ]
  }
 ],
 "runs": [
  {
   "label": "golden",
   "threads": 1,
   "machine": "broadwell",
   "bandwidth_scale": 1,
   "makespan_cycles": 5659.000000000002,
   "time_ms": 0.0023579166666666674,
   "socket_bandwidth_gbps": 3.6913942392648864,
   "audit": {
    "enabled": false,
    "checks": 0,
    "violations": []
   },
   "cores": [
    {
     "core": 0,
     "total": {
      "cycles": 5659.000000000002,
      "instructions": 1856,
      "ipc": 0.32797314013076506,
      "time_ms": 0.0023579166666666674,
      "dram_bytes": 8704,
      "bandwidth_gbps": 3.6913942392648864,
      "breakdown": {
       "retiring": 464,
       "branch_misp": 0,
       "icache": 0,
       "decoding": 0,
       "dcache": 5195.000000000002,
       "execution": 0
      },
      "counters": {
       "data_accesses": 576,
       "l1d_hits": 448,
       "l2_hits": 0,
       "l3_hits": 0,
       "dram_lines": 128,
       "branch_events": 0,
       "branch_mispredicts": 0,
       "dram_demand_bytes_seq": 3968,
       "dram_demand_bytes_rand": 4224,
       "dram_prefetch_waste_bytes": 512,
       "dram_writeback_bytes": 0,
       "page_walks": 65
      }
     },
     "regions": [
      {
       "id": 0,
       "name": "<run>",
       "parent": -1,
       "depth": 0,
       "visits": 1,
       "exclusive": {
        "cycles": 0,
        "instructions": 0,
        "dram_bytes": 0,
        "breakdown": {
         "retiring": 0,
         "branch_misp": 0,
         "icache": 0,
         "decoding": 0,
         "dcache": 0,
         "execution": 0
        }
       },
       "inclusive": {
        "cycles": 5659.000000000002,
        "instructions": 1856,
        "dram_bytes": 8704,
        "breakdown": {
         "retiring": 464,
         "branch_misp": 0,
         "icache": 0,
         "decoding": 0,
         "dcache": 5195.000000000002,
         "execution": 0
        }
       }
      },
      {
       "id": 1,
       "name": "scan",
       "parent": 0,
       "depth": 1,
       "visits": 1,
       "exclusive": {
        "cycles": 629.6666666666666,
        "instructions": 1536,
        "dram_bytes": 4096,
        "breakdown": {
         "retiring": 384,
         "branch_misp": 0,
         "icache": 0,
         "decoding": 0,
         "dcache": 245.66666666666666,
         "execution": 0
        }
       },
       "inclusive": {
        "cycles": 629.6666666666666,
        "instructions": 1536,
        "dram_bytes": 4096,
        "breakdown": {
         "retiring": 384,
         "branch_misp": 0,
         "icache": 0,
         "decoding": 0,
         "dcache": 245.66666666666666,
         "execution": 0
        }
       }
      },
      {
       "id": 2,
       "name": "probe",
       "parent": 0,
       "depth": 1,
       "visits": 1,
       "exclusive": {
        "cycles": 5029.333333333335,
        "instructions": 320,
        "dram_bytes": 4608,
        "breakdown": {
         "retiring": 80,
         "branch_misp": 0,
         "icache": 0,
         "decoding": 0,
         "dcache": 4949.333333333335,
         "execution": 0
        }
       },
       "inclusive": {
        "cycles": 5029.333333333335,
        "instructions": 320,
        "dram_bytes": 4608,
        "breakdown": {
         "retiring": 80,
         "branch_misp": 0,
         "icache": 0,
         "decoding": 0,
         "dcache": 4949.333333333335,
         "execution": 0
        }
       }
      }
     ],
     "timeline": [
      {
       "instructions": 1536,
       "cycles": 1076.95,
       "interval_instructions": 1536,
       "interval_cycles": 1076.95,
       "ipc": 1.4262500580342634,
       "l1d_miss_rate": 0.125,
       "dram_bytes": 4096,
       "dram_gbps": 9.128000371419285
      }
     ]
    }
   ]
  }
 ]
}
)golden";

constexpr char kTraceGolden[] = R"golden({"traceEvents":[{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"golden"}},{"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"core 0"}},{"ph":"X","name":"scan","cat":"region","pid":1,"tid":0,"ts":0,"dur":0.44872916666666673,"args":{"instructions":1536}},{"ph":"X","name":"probe","cat":"region","pid":1,"tid":0,"ts":0.44872916666666673,"dur":1.9091875000000007,"args":{"instructions":320}},{"ph":"C","name":"IPC c0","pid":1,"tid":0,"ts":0.44872916666666673,"args":{"value":1.4262500580342634}},{"ph":"C","name":"DRAM GB/s c0","pid":1,"tid":0,"ts":0.44872916666666673,"args":{"value":9.128000371419285}},{"ph":"C","name":"L1D miss % c0","pid":1,"tid":0,"ts":0.44872916666666673,"args":{"value":12.5}}],"displayTimeUnit":"ms","otherData":{"schema":"uolap-trace","version":5,"bench":"obs_export_golden_test","machine":"broadwell"}})golden";

void ExpectGolden(const std::string& actual, const std::string& expected,
                  const std::string& dump_name) {
  if (actual != expected) {
    ASSERT_TRUE(WriteTextFile(dump_name, actual).ok());
    FAIL() << "exporter output drifted from the golden; actual bytes "
              "written to "
           << dump_name
           << " — if the change is intentional, update the literal (and "
              "bump kProfileSchemaVersion for schema changes)";
  }
}

TEST(ObsExportGoldenTest, ProfileJsonMatchesGolden) {
  ExpectGolden(ProfileToJson(MakeGoldenSession()), kProfileGolden,
               "obs_export_golden_actual.json");
}

TEST(ObsExportGoldenTest, ChromeTraceMatchesGolden) {
  ExpectGolden(SessionToChromeTrace(MakeGoldenSession()), kTraceGolden,
               "obs_export_golden_actual.trace");
}

TEST(ObsExportGoldenTest, ExportIsDeterministic) {
  EXPECT_EQ(ProfileToJson(MakeGoldenSession()),
            ProfileToJson(MakeGoldenSession()));
  EXPECT_EQ(SessionToChromeTrace(MakeGoldenSession()),
            SessionToChromeTrace(MakeGoldenSession()));
}

TEST(ObsExportGoldenTest, ProfileJsonRoundTripsThroughParser) {
  const ProfileSession session = MakeGoldenSession();
  const auto doc = ParseJson(ProfileToJson(session));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue& v = doc.value();
  EXPECT_EQ(v.GetString("schema"), kProfileSchemaName);
  EXPECT_EQ(v.GetNumber("version"), kProfileSchemaVersion);
  EXPECT_EQ(v.GetString("bench"), "obs_export_golden_test");

  const JsonValue* runs = v.Find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const JsonValue& run = runs->array[0];
  EXPECT_EQ(run.GetString("label"), "golden");
  // Shortest-round-trip double formatting: the parsed number is the exact
  // double that was serialized.
  EXPECT_EQ(run.GetNumber("makespan_cycles"),
            session.runs[0].makespan_cycles);

  const JsonValue* cores = run.Find("cores");
  ASSERT_NE(cores, nullptr);
  const JsonValue* regions = cores->array[0].Find("regions");
  ASSERT_NE(regions, nullptr);
  ASSERT_EQ(regions->array.size(), 3u);  // <run>, scan, probe
  EXPECT_EQ(regions->array[0].GetString("name"), "<run>");
  EXPECT_EQ(regions->array[1].GetString("name"), "scan");
  EXPECT_EQ(regions->array[2].GetString("name"), "probe");
}

TEST(ObsExportGoldenTest, TraceEventsArePairedAndOrdered) {
  const auto doc = ParseJson(SessionToChromeTrace(MakeGoldenSession()));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);

  int durations = 0;
  int counters = 0;
  for (const JsonValue& e : events->array) {
    const std::string ph = e.GetString("ph");
    if (ph == "X") {
      ++durations;
      EXPECT_GE(e.GetNumber("ts"), 0.0);
      EXPECT_GE(e.GetNumber("dur"), 0.0);
    } else if (ph == "C") {
      ++counters;
    }
  }
  // scan and probe; the implicit <run> root has no push/pop events.
  EXPECT_EQ(durations, 2);
  EXPECT_GT(counters, 0);
}

TEST(ObsExportGoldenTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1,}").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{\"a\": nul}").ok());
  EXPECT_TRUE(ParseJson("{\"a\": [1.5, true, null, \"s\"]}  ").ok());
}

/// The printf/strtod formatting JsonWriter used before std::to_chars, kept
/// as the oracle: the writer's bytes must not change.
std::string SnprintfDouble(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(ObsExportGoldenTest, NumberFormattingMatchesPrintfRecipe) {
  using Limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, 1e-5, -1e-5, 0.1, 1.0 / 3.0, 2.5, -7.0, 123456.789,
      9007199254740991.0, 9007199254740992.0, 9007199254740993.0,
      -9007199254740991.0, -9007199254740992.0, 9.007199254740991e15 + 0.5,
      1e300, -1e300, 1e15, 1e16, 1e17, 1e21, 1e22, Limits::max(),
      Limits::lowest(), Limits::min(), -Limits::min(), Limits::denorm_min(),
      -Limits::denorm_min(), Limits::min() / 3, Limits::epsilon(),
      Limits::infinity(), -Limits::infinity(), Limits::quiet_NaN(),
      -Limits::quiet_NaN()};
  Rng rng(20261017);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t bits = rng.Next();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    values.push_back(v);
    // Plus a magnitude of the kind profiles print (ms, GB/s, ratios).
    values.push_back(rng.NextDouble() *
                     std::pow(10.0, static_cast<double>(rng.Uniform(-6, 12))));
  }
  for (const double v : values) {
    ASSERT_EQ(JsonWriter::FormatDouble(v), SnprintfDouble(v)) << v;
    JsonWriter w(0);
    w.Double(v);
    ASSERT_EQ(w.TakeString(), SnprintfDouble(v)) << v;
  }
  const int64_t ints[] = {0, 1, -1, 42, Limits::digits,
                          std::numeric_limits<int64_t>::max(),
                          std::numeric_limits<int64_t>::min()};
  for (const int64_t v : ints) {
    JsonWriter w(0);
    w.Int(v);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    EXPECT_EQ(w.TakeString(), buf);
  }
  const uint64_t uints[] = {0, 1, 1ull << 63,
                            std::numeric_limits<uint64_t>::max()};
  for (const uint64_t v : uints) {
    JsonWriter w(0);
    w.UInt(v);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    EXPECT_EQ(w.TakeString(), buf);
  }
}

}  // namespace
}  // namespace uolap::obs
