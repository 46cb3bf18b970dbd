// Tests of crash-consistent serving (DESIGN.md §10). The headline test
// runs an uninterrupted serve, a serve killed by --crash-at mid-flight (in
// a child process, since the crash exits it), and a resumed serve, and
// asserts the resumed profile JSON is byte-identical to the uninterrupted
// one: plain, with every robustness path armed, with journal records to
// verify, and with class timelines switched on at the resume; a golden
// pins the metrics an armed, checkpointed run publishes. Around it: CRC32C
// known-answer vectors, journal framing and torn-tail tolerance, snapshot
// encode/decode round-trips and restore validation, the configuration
// fingerprint's coverage of every loop-relevant field, and the recovery
// failure modes (missing directory, corrupt newest snapshot, nothing
// valid at all, a divergent or a surplus journal record).

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/file_io.h"
#include "engine/query_spec.h"
#include "engine/registry.h"
#include "harness/engines.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/profile_export.h"
#include "server/checkpoint.h"
#include "server/fault.h"
#include "server/journal.h"
#include "server/serving.h"
#include "tpch/dbgen.h"

#ifndef UOLAP_GOLDEN_DIR
#error "UOLAP_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace uolap::server {
namespace {

std::string TempDir() {
  char tmpl[] = "/tmp/uolap_ckpt_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32cTest, KnownAnswerVectors) {
  // The canonical Castagnoli check value (RFC 3720 appendix B.4 et al.).
  EXPECT_EQ(Crc32c(std::string_view("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string_view("")), 0u);
  // 32 zero bytes, another published vector.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(std::string_view(zeros)), 0x8A9136AAu);
}

TEST(Crc32cTest, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(std::string_view(data));
  uint32_t chained = 0;
  for (size_t i = 0; i < data.size(); i += 7) {
    const size_t n = std::min<size_t>(7, data.size() - i);
    chained = Crc32c(data.data() + i, n, chained);
  }
  EXPECT_EQ(chained, whole);
}

// --- journal framing -------------------------------------------------------

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = TempDir() + "/j.wal"; }
  std::string path_;
};

TEST_F(JournalTest, RoundTripsRecords) {
  JournalWriter w;
  ASSERT_TRUE(w.Create(path_).ok());
  const std::vector<std::string> records = {
      "alpha", "", std::string("b\0c\xff" "d", 5), std::string(1000, 'x')};
  for (const std::string& r : records) {
    ASSERT_TRUE(w.AppendRecord(r).ok());
  }
  ASSERT_TRUE(w.Close().ok());

  const auto read = ReadJournal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().payloads, records);
  EXPECT_FALSE(read.value().torn_tail);
  const auto size = FileSize(path_);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(read.value().valid_bytes, size.value());
}

TEST_F(JournalTest, MissingFileIsNotFound) {
  const auto read = ReadJournal(path_);
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST_F(JournalTest, TornTailIsDetectedNotReplayed) {
  JournalWriter w;
  ASSERT_TRUE(w.Create(path_).ok());
  ASSERT_TRUE(w.AppendRecord("keep-me").ok());
  ASSERT_TRUE(w.AppendRecord("and-me").ok());
  ASSERT_TRUE(w.Close().ok());
  const uint64_t clean_bytes = FileSize(path_).value();

  // A kill mid-append leaves a truncated frame: garbage header bytes.
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("torn", f);
  std::fclose(f);

  const auto read = ReadJournal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().payloads,
            (std::vector<std::string>{"keep-me", "and-me"}));
  EXPECT_TRUE(read.value().torn_tail);
  EXPECT_FALSE(read.value().tail_error.empty());
  EXPECT_EQ(read.value().valid_bytes, clean_bytes);
}

TEST_F(JournalTest, CorruptPayloadCrcIsDetected) {
  JournalWriter w;
  ASSERT_TRUE(w.Create(path_).ok());
  ASSERT_TRUE(w.AppendRecord("first").ok());
  ASSERT_TRUE(w.AppendRecord("second").ok());
  ASSERT_TRUE(w.Close().ok());

  // Flip one byte inside the *last* frame's payload.
  auto content = ReadFileToString(path_);
  ASSERT_TRUE(content.ok());
  std::string bytes = content.value();
  bytes[bytes.size() - 1] ^= 0x40;
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);

  const auto read = ReadJournal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().payloads, (std::vector<std::string>{"first"}));
  EXPECT_TRUE(read.value().torn_tail);
  EXPECT_NE(read.value().tail_error.find("CRC"), std::string::npos);
}

TEST_F(JournalTest, AbsurdFrameLengthIsCorruptionNotAllocation) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t huge = 0xFFFFFFFFu;
  std::fwrite(&huge, sizeof(huge), 1, f);
  std::fwrite(&huge, sizeof(huge), 1, f);
  std::fclose(f);
  const auto read = ReadJournal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().payloads.empty());
  EXPECT_TRUE(read.value().torn_tail);
  EXPECT_NE(read.value().tail_error.find("frame limit"), std::string::npos);
}

TEST_F(JournalTest, OpenForAppendTruncatesTornTail) {
  JournalWriter w;
  ASSERT_TRUE(w.Create(path_).ok());
  ASSERT_TRUE(w.AppendRecord("one").ok());
  ASSERT_TRUE(w.Close().ok());
  const uint64_t clean_bytes = FileSize(path_).value();
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("xxxx-torn-tail", f);
  std::fclose(f);

  JournalWriter again;
  ASSERT_TRUE(again.OpenForAppend(path_, clean_bytes).ok());
  ASSERT_TRUE(again.AppendRecord("two").ok());
  ASSERT_TRUE(again.Close().ok());

  const auto read = ReadJournal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().payloads, (std::vector<std::string>{"one", "two"}));
  EXPECT_FALSE(read.value().torn_tail);
}

// --- journal events --------------------------------------------------------

TEST(JournalEventTest, EncodeDecodeRoundTrips) {
  JournalEvent ev;
  ev.type = JournalEventType::kTimeout;
  ev.seq = 0x0123456789ABCDEFull;
  ev.tenant = 3;
  ev.attempt = 2;
  ev.vtime_ms = 12.34375;
  const std::string payload = EncodeJournalEvent(ev);
  const auto back = DecodeJournalEvent(payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), ev);
}

TEST(JournalEventTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeJournalEvent("").ok());
  EXPECT_FALSE(DecodeJournalEvent("short").ok());
  std::string payload = EncodeJournalEvent(JournalEvent{});
  payload[0] = 99;  // no such event type
  EXPECT_FALSE(DecodeJournalEvent(payload).ok());
  payload.push_back('\0');  // trailing junk
  EXPECT_FALSE(DecodeJournalEvent(payload).ok());
}

// --- snapshot encode/decode ------------------------------------------------

/// An in-flight instance with every field off its default.
QueryInstance SampleInstance(int tenant, int client, uint64_t seq) {
  QueryInstance q;
  q.tenant = tenant;
  q.cls = 0;
  q.client = client;
  q.seq = seq;
  q.arrival = 1.0e6 + static_cast<double>(seq);
  q.start = 2.0e6;
  q.remaining = 0.375;
  q.scale_cycles = 3.5e5;
  q.run_cycles = 4.25e5;
  q.attempt = 2;
  q.deadline = 9.0e6;
  q.est_ms = 1.5;
  q.cancel_remaining = 0.125;
  q.retry_ready = 5.0e6;
  q.will_fail = true;
  q.slow = 1.75;
  return q;
}

obs::WindowStat SampleWindow(const std::string& subject) {
  obs::WindowStat w;
  w.subject = subject;
  w.completed = 3;
  w.p50_ms = 1.5;
  w.p95_ms = 2.5;
  w.p99_ms = 3.5;
  return w;
}

/// The tenants SampleSnapshot() fits: a closed-loop tenant with two
/// clients and an open-loop one, over one class and two cores.
std::vector<TenantConfig> SampleTenants() {
  TenantConfig closed;
  closed.concurrency = 2;
  TenantConfig open;
  open.arrival_qps = 100;
  return {closed, open};
}

/// A snapshot with every LoopState field set, so a field dropped from the
/// codec (in both directions at once) still fails the equality check.
CheckpointSnapshot SampleSnapshot() {
  CheckpointSnapshot snap;
  snap.config_fingerprint = 0xDEADBEEFCAFEF00Dull;
  snap.class_digest = 0x1234ABCDu;
  snap.epoch_index = 7;
  snap.freq_ghz = 2.2;
  LoopState& st = snap.state;
  st.vtime = 1.5e9;
  st.tenants.resize(2);
  for (size_t t = 0; t < st.tenants.size(); ++t) {
    TenantLoopState& ts = st.tenants[t];
    ts.rng = Rng(99 + t);
    ts.submitted = 11 + t;
    ts.rejected = 1;
    ts.shed = 2;
    ts.timed_out = 3;
    ts.failed = 4;
    ts.faults_injected = 5 + t;
    ts.slowdowns_injected = 6;
    ts.brownout_downgrades = 7;
    ts.backoff_ms = {1.25, 2.5};
  }
  st.tenants[0].client_wake = {7.0e6, std::numeric_limits<double>::infinity()};
  st.tenants[1].next_open_arrival = 8.0e6;
  st.classes.resize(1);
  st.classes[0] = ClassLoopStats{4, 1.0e7, 2.0e6, 3.0e6};
  st.slots.resize(2);
  st.slots[0] = SampleInstance(0, 1, 40);  // tenant >= 0: occupied
  st.queue = {SampleInstance(1, -1, 41), SampleInstance(0, 0, 42)};
  st.queue_head = 1;
  st.retry_queue = {SampleInstance(1, -1, 43)};
  st.queued_est_ms = 6.5;
  st.completions = {{0, 0, 1.25, 0.5}, {1, 0, 2.5, 0.25}, {0, 0, 3.0, 1.0}};
  st.checkpoints = 8;
  st.total_bytes = 1.0e9;
  st.peak_gbps = 12.5;
  st.saturated = true;
  st.timeline = {{0.0, 1, 0}, {0.5, 2, 3}};
  obs::QuerySpan span;
  span.seq = 40;
  span.tenant = "scans";
  span.cls = "typer/projection-d4";
  span.arrival_ms = 0.25;
  span.start_ms = 0.5;
  span.end_ms = 0.75;
  span.core = 1;
  span.outcome = "timed_out";
  span.attempts = 2;
  st.spans = {span};
  st.acc.first_completion = 2;
  st.acc.max_running = 2;
  st.acc.max_queued = 3;
  st.epoch_start = 1.4e9;
  obs::EpochRecord epoch;
  epoch.index = 6;
  epoch.start_ms = 0.5;
  epoch.end_ms = 1.5;
  epoch.completed = 3;
  epoch.p50_ms = 1.0;
  epoch.p95_ms = 2.0;
  epoch.p99_ms = 3.0;
  epoch.max_running = 2;
  epoch.max_queued = 4;
  epoch.tenants = {SampleWindow("scans")};
  epoch.classes = {SampleWindow("typer/projection-d4")};
  st.epochs = {epoch};
  snap.admission_models.resize(1);
  snap.admission_models[0].est_ms = 3.25;
  snap.admission_models[0].count = 9;
  return snap;
}

TEST(SnapshotTest, EncodeDecodeRoundTripsBitExactly) {
  const CheckpointSnapshot snap = SampleSnapshot();
  const std::string bytes = EncodeSnapshot(snap);
  const auto back = DecodeSnapshot(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Re-encoding the decoded snapshot must reproduce the input byte for
  // byte — this covers every serialized field at once.
  EXPECT_EQ(EncodeSnapshot(back.value()), bytes);
  EXPECT_EQ(back.value().epoch_index, 7);
  EXPECT_EQ(back.value().state.tenants.size(), 2u);
}

TEST(SnapshotTest, DetectsCorruptionTruncationAndWrongMagic) {
  const std::string bytes = EncodeSnapshot(SampleSnapshot());

  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x01;
  EXPECT_FALSE(DecodeSnapshot(flipped).ok());

  EXPECT_FALSE(DecodeSnapshot(bytes.substr(0, bytes.size() - 3)).ok());
  EXPECT_FALSE(DecodeSnapshot("").ok());

  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(DecodeSnapshot(wrong_magic).ok());
}

TEST(SnapshotTest, DecodedStateEqualsTheOriginal) {
  const CheckpointSnapshot snap = SampleSnapshot();
  const auto back = DecodeSnapshot(EncodeSnapshot(snap));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Field-wise equality, not a re-encode: a field missing from both
  // directions of the codec would re-encode identically but compare
  // unequal here.
  EXPECT_EQ(back.value().state, snap.state);
  EXPECT_EQ(back.value(), snap);
}

TEST(SnapshotTest, RefusesAnOlderVersion) {
  // A version-2 header with a valid CRC: only the version check can
  // refuse it.
  std::string bytes = EncodeSnapshot(SampleSnapshot());
  bytes.resize(bytes.size() - sizeof(uint32_t));
  const uint32_t version = 2;
  std::memcpy(&bytes[8], &version, sizeof(version));
  const uint32_t crc = Crc32c(bytes);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  const auto back = DecodeSnapshot(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(back.status().message().find("unsupported snapshot version 2"),
            std::string::npos);
}

// Crafted snapshots that decode cleanly (valid CRC) but do not fit the
// configuration they would resume.
class SnapshotFitTest : public ::testing::Test {
 protected:
  static StatusCode Fit(const CheckpointSnapshot& crafted) {
    const auto decoded = DecodeSnapshot(EncodeSnapshot(crafted));
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    if (!decoded.ok()) return StatusCode::kOk;
    return CheckSnapshotFits(decoded.value(), SampleTenants(),
                             /*num_classes=*/1, /*cores=*/2)
        .code();
  }
};

TEST_F(SnapshotFitTest, AcceptsAFittingSnapshot) {
  EXPECT_EQ(Fit(SampleSnapshot()), StatusCode::kOk);
}

TEST_F(SnapshotFitTest, RefusesAShapeMismatch) {
  CheckpointSnapshot snap = SampleSnapshot();
  snap.admission_models.push_back({});
  EXPECT_EQ(Fit(snap), StatusCode::kFailedPrecondition);
  snap = SampleSnapshot();
  snap.state.slots.pop_back();
  EXPECT_EQ(Fit(snap), StatusCode::kFailedPrecondition);
  snap = SampleSnapshot();
  snap.state.tenants.pop_back();  // every per-tenant value lives in here
  EXPECT_EQ(Fit(snap), StatusCode::kFailedPrecondition);
  snap = SampleSnapshot();
  snap.state.tenants[0].client_wake.push_back(0);
  EXPECT_EQ(Fit(snap), StatusCode::kFailedPrecondition);
  snap = SampleSnapshot();
  snap.state.tenants[1].client_wake.push_back(0);  // open-loop tenant
  EXPECT_EQ(Fit(snap), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotFitTest, RefusesOutOfRangeInstances) {
  CheckpointSnapshot snap = SampleSnapshot();
  snap.state.slots[0].cls = 1;
  EXPECT_EQ(Fit(snap), StatusCode::kInvalidArgument);
  snap = SampleSnapshot();
  snap.state.slots[1].tenant = 2;
  EXPECT_EQ(Fit(snap), StatusCode::kInvalidArgument);
  snap = SampleSnapshot();
  snap.state.queue[0].tenant = -1;  // queued work is never a free slot
  EXPECT_EQ(Fit(snap), StatusCode::kInvalidArgument);
  snap = SampleSnapshot();
  snap.state.queue[1].client = 2;  // the closed-loop tenant has 2 clients
  EXPECT_EQ(Fit(snap), StatusCode::kInvalidArgument);
  snap = SampleSnapshot();
  snap.state.retry_queue[0].client = 0;  // open-loop tenants have none
  EXPECT_EQ(Fit(snap), StatusCode::kInvalidArgument);
  snap = SampleSnapshot();
  snap.state.queue_head = 3;
  EXPECT_EQ(Fit(snap), StatusCode::kInvalidArgument);
  snap = SampleSnapshot();
  snap.state.completions[1].tenant = 2;
  EXPECT_EQ(Fit(snap), StatusCode::kInvalidArgument);
  snap = SampleSnapshot();
  snap.state.completions[2].cls = 1;
  EXPECT_EQ(Fit(snap), StatusCode::kInvalidArgument);
  snap = SampleSnapshot();
  snap.state.acc.first_completion = 4;  // three completions
  EXPECT_EQ(Fit(snap), StatusCode::kInvalidArgument);
  snap = SampleSnapshot();
  snap.state.acc.first_completion = 3;  // an empty open window fits
  EXPECT_EQ(Fit(snap), StatusCode::kOk);
}

// --- configuration fingerprint ---------------------------------------------

// A resume is refused when the fingerprint differs, so every field the
// serving loop reads must feed it: perturb one field at a time and require
// a new fingerprint.
TEST(ConfigFingerprintTest, EveryLoopRelevantFieldIsHashed) {
  ServerConfig base;
  base.machine = core::MachineConfig::Broadwell();
  base.cores = 2;
  base.epoch_ms = 1.0;
  base.trace_sample_n = 4;
  base.slos = {{"*", obs::SloMetric::kP99, 5.0}};
  base.admission.policy = ShedPolicy::kBoth;
  base.admission.default_deadline_ms = 5.0;
  base.retry.max_retries = 1;
  base.brownout.queue_depth = 4;
  base.brownout.downgrade = {{"rowstore", "typer"}};
  base.faults.seed = 13;
  base.faults.fail_prob = 0.2;
  base.faults.slow_prob = 0.2;
  base.faults.slow_factor = 2;
  base.faults.epoch_ms = 0.5;
  TenantConfig tenant;
  tenant.name = "scans";
  tenant.engine = "typer";
  tenant.catalog = {engine::QuerySpec::Projection(4)};
  tenant.zipf_s = 0.5;
  tenant.concurrency = 3;
  tenant.think_ms = 0.05;
  tenant.seed = 7;
  const std::vector<TenantConfig> base_tenants = {tenant};

  using Tenants = std::vector<TenantConfig>;
  struct Perturbation {
    const char* field;
    void (*apply)(ServerConfig&, Tenants&);
  };
  const Perturbation perturbations[] = {
      {"machine.freq_ghz",
       [](ServerConfig& c, Tenants&) { c.machine.freq_ghz += 0.5; }},
      {"machine.cores_per_socket",
       [](ServerConfig& c, Tenants&) { ++c.machine.cores_per_socket; }},
      {"machine.bandwidth.per_socket_seq_gbps",
       [](ServerConfig& c, Tenants&) {
         c.machine.bandwidth.per_socket_seq_gbps += 1;
       }},
      {"machine.bandwidth.per_socket_rand_gbps",
       [](ServerConfig& c, Tenants&) {
         c.machine.bandwidth.per_socket_rand_gbps += 1;
       }},
      {"cores", [](ServerConfig& c, Tenants&) { ++c.cores; }},
      {"default_max_queries",
       [](ServerConfig& c, Tenants&) { ++c.default_max_queries; }},
      {"epoch_ms", [](ServerConfig& c, Tenants&) { c.epoch_ms = 2.0; }},
      {"trace_sample_n", [](ServerConfig& c, Tenants&) { ++c.trace_sample_n; }},
      {"slos[0].threshold",
       [](ServerConfig& c, Tenants&) { c.slos[0].threshold = 6.0; }},
      {"slos.size",
       [](ServerConfig& c, Tenants&) {
         c.slos.push_back({"scans", obs::SloMetric::kP50, 1.0});
       }},
      {"admission.policy",
       [](ServerConfig& c, Tenants&) {
         c.admission.policy = ShedPolicy::kReject;
       }},
      {"admission.default_deadline_ms",
       [](ServerConfig& c, Tenants&) { c.admission.default_deadline_ms = 6; }},
      {"retry.max_retries",
       [](ServerConfig& c, Tenants&) { ++c.retry.max_retries; }},
      {"brownout.queue_depth",
       [](ServerConfig& c, Tenants&) { ++c.brownout.queue_depth; }},
      {"brownout.downgrade[rowstore]",
       [](ServerConfig& c, Tenants&) {
         c.brownout.downgrade["rowstore"] = "tectorwise";
       }},
      {"brownout.downgrade.size",
       [](ServerConfig& c, Tenants&) {
         c.brownout.downgrade["tectorwise"] = "typer";
       }},
      {"faults.seed", [](ServerConfig& c, Tenants&) { ++c.faults.seed; }},
      {"faults.fail_prob",
       [](ServerConfig& c, Tenants&) { c.faults.fail_prob = 0.3; }},
      {"faults.slow_prob",
       [](ServerConfig& c, Tenants&) { c.faults.slow_prob = 0.3; }},
      {"faults.slow_factor",
       [](ServerConfig& c, Tenants&) { c.faults.slow_factor = 3; }},
      {"faults.epoch_ms",
       [](ServerConfig& c, Tenants&) { c.faults.epoch_ms = 0.25; }},
      {"checkpoint.every_epochs",
       [](ServerConfig& c, Tenants&) { ++c.checkpoint.every_epochs; }},
      {"tenants.size",
       [](ServerConfig&, Tenants& t) { t.push_back(t[0]); }},
      {"tenant.name", [](ServerConfig&, Tenants& t) { t[0].name = "other"; }},
      {"tenant.engine",
       [](ServerConfig&, Tenants& t) { t[0].engine = "tectorwise"; }},
      {"tenant.catalog[0]",
       [](ServerConfig&, Tenants& t) {
         t[0].catalog[0] = engine::QuerySpec::Projection(2);
       }},
      {"tenant.catalog.size",
       [](ServerConfig&, Tenants& t) {
         t[0].catalog.push_back(engine::QuerySpec::Q1());
       }},
      {"tenant.zipf_s", [](ServerConfig&, Tenants& t) { t[0].zipf_s = 1.0; }},
      {"tenant.arrival_qps",
       [](ServerConfig&, Tenants& t) { t[0].arrival_qps = 100; }},
      {"tenant.concurrency",
       [](ServerConfig&, Tenants& t) { ++t[0].concurrency; }},
      {"tenant.think_ms",
       [](ServerConfig&, Tenants& t) { t[0].think_ms = 0.1; }},
      {"tenant.max_queries",
       [](ServerConfig&, Tenants& t) { t[0].max_queries = 5; }},
      {"tenant.seed", [](ServerConfig&, Tenants& t) { ++t[0].seed; }},
  };

  const uint64_t fingerprint = ServingConfigFingerprint(base, base_tenants);
  EXPECT_EQ(ServingConfigFingerprint(base, base_tenants), fingerprint);
  for (const Perturbation& p : perturbations) {
    ServerConfig config = base;
    Tenants tenants = base_tenants;
    p.apply(config, tenants);
    EXPECT_NE(ServingConfigFingerprint(config, tenants), fingerprint)
        << p.field << " does not feed the fingerprint";
  }
  // The timeline interval shapes only the class profiles' exported
  // timelines, never loop state, so a run may resume with or without
  // --json (which sets it).
  ServerConfig sampled = base;
  sampled.sample_interval_instructions = 1000;
  EXPECT_EQ(ServingConfigFingerprint(sampled, base_tenants), fingerprint);
}

// --- end-to-end kill and resume --------------------------------------------

class CheckpointServeTest : public ::testing::Test {
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
    config.cores = 2;
    config.default_max_queries = 8;
    config.epoch_ms = 1.0;
    return config;
  }

  static void AddTenants(Server& server) {
    TenantConfig t;
    t.name = "scans";
    t.engine = "typer";
    t.catalog = {engine::QuerySpec::Projection(4),
                 engine::QuerySpec::Q6(engine::MakeQ6Params())};
    t.zipf_s = 0.5;
    t.concurrency = 3;
    t.think_ms = 0.05;
    t.seed = 7;
    server.AddTenant(t);
    TenantConfig u;
    u.name = "adhoc";
    u.engine = "rowstore";
    u.catalog = {engine::QuerySpec::Projection(2)};
    u.arrival_qps = 400;
    u.seed = 8;
    server.AddTenant(u);
  }

  /// BaseConfig with every robustness path armed — a deadline with
  /// admission rejection and queue shedding, bounded retries, a fault
  /// plan, brown-out from rowstore to typer — plus span sampling and an
  /// unmeetable SLO, so every outcome counter, the backoff histogram and
  /// every telemetry family carry data.
  static ServerConfig ArmedConfig() {
    ServerConfig config = BaseConfig();
    config.default_max_queries = 24;
    config.trace_sample_n = 4;
    config.slos = {{"*", obs::SloMetric::kP99, 0.001}};
    config.admission.policy = ShedPolicy::kBoth;
    config.admission.default_deadline_ms = 40.0;
    config.retry.max_retries = 1;
    config.brownout.queue_depth = 2;
    config.brownout.downgrade = {{"rowstore", "typer"}};
    config.faults =
        ParseFaultPlan("seed=13,fail=0.3,slow=0.3,x=2,epoch=0.5").value();
    return config;
  }

  struct ChildSpec {
    CheckpointConfig ckpt;
    std::string json_path;
    bool armed = false;  ///< ArmedConfig() instead of BaseConfig()
    /// Class-profile timeline interval; uolap_serve sets it when given
    /// --json or --trace.
    uint64_t sample_every = 0;
  };

  /// What an in-process run reports besides its profile JSON.
  struct ServeOutput {
    obs::ServerRecord record;
    obs::MetricsSnapshot metrics;
  };

  /// Runs one serve to completion in this process and writes its profile
  /// JSON; `out`, when set, receives the record and the metrics. Returns
  /// 0, 3 when the run fails with a Status, 4 when the JSON cannot be
  /// written.
  static int RunServe(const ChildSpec& spec, ServeOutput* out = nullptr) {
    obs::MetricsRegistry metrics;
    StatusOr<ServeResult> run = Serve(spec, &metrics);
    if (!run.ok()) {
      std::fprintf(stderr, "serve: %s\n", run.status().ToString().c_str());
      return 3;
    }
    obs::ProfileSession session;
    session.bench = "server_checkpoint_test";
    session.machine = "sim-broadwell-2.2GHz";
    session.freq_ghz = BaseConfig().machine.freq_ghz;
    session.scale_factor = 0.01;
    session.seed = 42;
    session.server = run.value().record;
    for (obs::RunRecord& r : run.value().class_runs) {
      session.runs.push_back(std::move(r));
    }
    session.metrics = metrics.Snapshot();
    if (!obs::WriteTextFile(spec.json_path, obs::ProfileToJson(session))
             .ok()) {
      return 4;
    }
    if (out != nullptr) {
      out->record = std::move(session.server);
      out->metrics = std::move(session.metrics);
    }
    return 0;
  }

  /// The serve `spec` describes, publishing into `metrics`.
  static StatusOr<ServeResult> Serve(const ChildSpec& spec,
                                     obs::MetricsRegistry* metrics) {
    ServerConfig config = spec.armed ? ArmedConfig() : BaseConfig();
    config.checkpoint = spec.ckpt;
    config.sample_interval_instructions = spec.sample_every;
    config.metrics = metrics;
    Server server(config, *registry_);
    AddTenants(server);
    return server.TryRun();
  }

  /// RunServe in a child process, for a run that --crash-at kills (the
  /// crash exits the whole process with 137). Returns the exit code.
  static int RunCrashing(const ChildSpec& spec) {
    const pid_t pid = fork();
    if (pid == 0) std::_Exit(RunServe(spec));
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// The records a resume from `dir` verifies: the valid frames of the
  /// journal paired with the newest valid snapshot.
  static std::vector<std::string> JournaledRecords(const std::string& dir) {
    StatusOr<RecoveredCheckpoint> rec = LoadLatestCheckpoint(dir);
    EXPECT_TRUE(rec.ok()) << rec.status().ToString();
    return rec.ok() ? std::move(rec.value().journal_payloads)
                    : std::vector<std::string>{};
  }

  /// Rewrites the journal paired with the newest valid snapshot in `dir`
  /// as `records`, each frame with a freshly computed CRC.
  static void RewriteJournal(const std::string& dir,
                             const std::vector<std::string>& records) {
    const StatusOr<RecoveredCheckpoint> rec = LoadLatestCheckpoint(dir);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    JournalWriter w;
    ASSERT_TRUE(
        w.Create(dir + "/" + JournalFileName(rec.value().snapshot.epoch_index))
            .ok());
    for (const std::string& r : records) ASSERT_TRUE(w.AppendRecord(r).ok());
    ASSERT_TRUE(w.Close().ok());
  }

  static std::string MustRead(const std::string& path) {
    auto content = ReadFileToString(path);
    EXPECT_TRUE(content.ok()) << content.status().ToString();
    return content.ok() ? content.value() : std::string();
  }

  static tpch::Database* db_;
  static engine::EngineRegistry* registry_;
};

tpch::Database* CheckpointServeTest::db_ = nullptr;
engine::EngineRegistry* CheckpointServeTest::registry_ = nullptr;

// A kill after snapshot 0 and before the first epoch boundary leaves the
// time-zero events' journal records past the newest snapshot (11 of them
// under BaseConfig); a kill at 40 ms lands right after a snapshot and
// leaves none.
constexpr double kBeforeFirstEpochMs = 0.5;

TEST_F(CheckpointServeTest, KillAndResumeIsByteIdentical) {
  // Plain, then with every robustness path armed: the outcome counters,
  // the per-tenant fault counts and the backoff histogram must survive a
  // resume as well. Then a kill that leaves journal records: the resume
  // re-derives the same events and matches them against the records one
  // by one, and finishes only if every record was matched. Last, a run
  // killed without class timelines resumes with them, as `uolap_serve`
  // without and then with --json does.
  struct Case {
    const char* name;
    bool armed;
    double crash_at_ms;
    uint64_t resume_sample_every;  ///< the killed run samples nothing
  };
  for (const Case& k :
       {Case{"plain", false, 40.0, 0}, Case{"armed", true, 40.0, 0},
        Case{"records to verify", false, kBeforeFirstEpochMs, 0},
        Case{"timelines on resume", false, 40.0, 100'000}}) {
    SCOPED_TRACE(k.name);
    const bool armed = k.armed;
    const std::string tmp = TempDir();

    // A: uninterrupted, checkpointing on. B: the same run killed
    // mid-flight by --crash-at. C: resume from B's checkpoint directory
    // and finish.
    CheckpointConfig a;
    a.dir = tmp + "/ck_a";
    a.every_epochs = 2;
    CheckpointConfig b;
    b.dir = tmp + "/ck_b";
    b.every_epochs = 2;
    b.crash_at_ms = k.crash_at_ms;
    CheckpointConfig c;
    c.dir = tmp + "/ck_b";
    c.every_epochs = 2;
    c.resume = true;
    ServeOutput a_out;
    ASSERT_EQ(
        RunServe({a, tmp + "/a.json", armed, k.resume_sample_every}, &a_out),
        0);
    // A's final virtual clock proves B's kill landed mid-run.
    const obs::ServerRecord& rec = a_out.record;
    ASSERT_GT(rec.vtime_ms, b.crash_at_ms + 1.0);
    if (armed) {
      EXPECT_GT(rec.retries, 0u);
      EXPECT_GT(rec.faults_injected, 0u);
      EXPECT_GT(rec.shed, 0u);
      EXPECT_GT(rec.brownout_downgrades, 0u);
    }
    ASSERT_EQ(RunCrashing({b, tmp + "/b.json", armed}), 137);
    if (k.crash_at_ms == kBeforeFirstEpochMs) {
      EXPECT_GT(JournaledRecords(b.dir).size(), 0u);
    }
    ASSERT_EQ(RunServe({c, tmp + "/c.json", armed, k.resume_sample_every}),
              0);

    const std::string uninterrupted = MustRead(tmp + "/a.json");
    const std::string resumed = MustRead(tmp + "/c.json");
    ASSERT_FALSE(uninterrupted.empty());
    EXPECT_EQ(resumed, uninterrupted)
        << "resumed profile JSON must be byte-identical to the "
           "uninterrupted run's";
    // The killed child must not have produced a profile at all.
    EXPECT_EQ(ReadFileToString(tmp + "/b.json").status().code(),
              StatusCode::kNotFound);
  }
}

TEST_F(CheckpointServeTest, ResumeFailsOnADivergentJournalRecord) {
  const std::string tmp = TempDir();
  CheckpointConfig crash;
  crash.dir = tmp + "/ck";
  crash.every_epochs = 2;
  crash.crash_at_ms = kBeforeFirstEpochMs;
  CheckpointConfig resume = crash;
  resume.crash_at_ms = 0;
  resume.resume = true;
  ASSERT_EQ(RunCrashing({crash, tmp + "/a.json"}), 137);

  // One payload byte flipped under a valid CRC: the frame reads back
  // fine, and only the replay check can tell it from the real event.
  std::vector<std::string> records = JournaledRecords(crash.dir);
  ASSERT_GT(records.size(), 0u);
  records[0].back() ^= 0x01;
  RewriteJournal(crash.dir, records);

  obs::MetricsRegistry metrics;
  const StatusOr<ServeResult> run = Serve({resume, ""}, &metrics);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.status().message().find("journal replay divergence at "
                                        "record 0"),
            std::string::npos)
      << run.status().ToString();
}

TEST_F(CheckpointServeTest, ResumeFailsOnASurplusJournalRecord) {
  // A finished run's newest journal ends with the run's last event, so one
  // more valid record is an event the resume never re-derives.
  const std::string tmp = TempDir();
  CheckpointConfig done;
  done.dir = tmp + "/ck";
  done.every_epochs = 2;
  CheckpointConfig resume = done;
  resume.resume = true;
  ASSERT_EQ(RunServe({done, tmp + "/a.json"}), 0);

  std::vector<std::string> records = JournaledRecords(done.dir);
  records.push_back(EncodeJournalEvent(
      JournalEvent{JournalEventType::kComplete, /*seq=*/1, /*tenant=*/0,
                   /*attempt=*/0, /*vtime_ms=*/1e6}));
  RewriteJournal(done.dir, records);

  obs::MetricsRegistry metrics;
  const StatusOr<ServeResult> run = Serve({resume, ""}, &metrics);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.status().message().find("journal replay incomplete: 1 "),
            std::string::npos)
      << run.status().ToString();
}

// Pins the serve loop's published metrics: the Prometheus text of the
// injected registry after an armed, checkpointed run. On a mismatch the
// actual text is written to serve_metrics_actual.prom in the working
// directory.
TEST_F(CheckpointServeTest, ArmedRunMetricsMatchGolden) {
  const std::string tmp = TempDir();
  CheckpointConfig ck;
  ck.dir = tmp + "/ck";
  ck.every_epochs = 2;
  ServeOutput out;
  ASSERT_EQ(RunServe({ck, tmp + "/a.json", /*armed=*/true}, &out), 0);

  // Every server family carries a non-zero value, so the golden cannot
  // pass on a run whose robustness paths never fired.
  namespace mn = obs::metric_names;
  for (const char* name :
       {mn::kServerQueriesSubmitted, mn::kServerQueriesCompleted,
        mn::kServerLatencyMs, mn::kServerQueueWaitMs,
        mn::kServerQueueDepthPeak, mn::kServerVtimeMs,
        mn::kServerSocketGbpsPeak, mn::kServerEpochsTotal,
        mn::kServerSloViolations, mn::kServerSpansRecorded,
        mn::kServerQueriesRejected, mn::kServerQueriesShed,
        mn::kServerQueriesTimedOut, mn::kServerQueriesFailed,
        mn::kServerRetriesTotal, mn::kServerBackoffMs,
        mn::kServerFaultsInjected, mn::kServerSlowdownsInjected,
        mn::kServerBrownoutDowngrades, mn::kServerCheckpointsTotal,
        mn::kServerJournalRecordsTotal}) {
    const obs::MetricFamily* family = out.metrics.Find(name);
    ASSERT_NE(family, nullptr) << name;
    ASSERT_FALSE(family->series.empty()) << name;
    for (const obs::MetricSeries& s : family->series) {
      const bool nonzero = s.counter > 0 || s.gauge > 0 ||
                           s.histogram.count > 0;
      EXPECT_TRUE(nonzero) << name << "{" << s.label_value << "}";
    }
  }

  const std::string actual = obs::ToPrometheusText(out.metrics);
  const auto golden =
      ReadFileToString(std::string(UOLAP_GOLDEN_DIR) + "/serve_metrics.prom");
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  if (golden.value() != actual) {
    ASSERT_TRUE(
        obs::WriteTextFile("serve_metrics_actual.prom", actual).ok());
  }
  EXPECT_EQ(actual, golden.value())
      << "actual text written to serve_metrics_actual.prom";
}

TEST_F(CheckpointServeTest, ResumeDiscardsTornJournalTailLoudly) {
  const std::string tmp = TempDir();
  CheckpointConfig ref;
  ref.dir = tmp + "/ck_a";
  ref.every_epochs = 4;
  CheckpointConfig crash;
  crash.dir = tmp + "/ck_b";
  crash.every_epochs = 4;
  crash.crash_at_ms = 1.6;  // between epoch-boundary snapshots
  CheckpointConfig resume;
  resume.dir = crash.dir;
  resume.every_epochs = 4;
  resume.resume = true;
  ASSERT_EQ(RunServe({ref, tmp + "/a.json"}), 0);
  ASSERT_EQ(RunCrashing({crash, tmp + "/b.json"}), 137);

  // Corrupt the tail of the journal paired with the newest snapshot —
  // the bytes a real kill could have half-written.
  const auto summary = InspectCheckpointDir(crash.dir);
  ASSERT_TRUE(summary.ok());
  ASSERT_GE(summary.value().resume_index, 0);
  const std::string active =
      crash.dir + "/" + JournalFileName(summary.value().resume_index);
  std::FILE* f = std::fopen(active.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("GARBAGE-TAIL", f);
  std::fclose(f);

  ASSERT_EQ(RunServe({resume, tmp + "/c.json"}), 0);
  EXPECT_EQ(MustRead(tmp + "/c.json"), MustRead(tmp + "/a.json"));
}

TEST_F(CheckpointServeTest, ResumeSkipsCorruptNewestSnapshot) {
  const std::string tmp = TempDir();
  CheckpointConfig base;
  base.dir = tmp + "/ck";
  base.every_epochs = 2;
  CheckpointConfig resume = base;
  resume.resume = true;
  ASSERT_EQ(RunServe({base, tmp + "/a.json"}), 0);

  const auto summary = InspectCheckpointDir(base.dir);
  ASSERT_TRUE(summary.ok());
  ASSERT_GE(summary.value().snapshots.size(), 2u);
  // Corrupt the newest snapshot's interior; recovery must fall back to
  // the next older one and still converge to the identical profile.
  const std::string newest =
      base.dir + "/" + SnapshotFileName(summary.value().resume_index);
  std::FILE* f = std::fopen(newest.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 64, SEEK_SET);
  std::fputs("\xde\xad\xbe\xef", f);
  std::fclose(f);

  ASSERT_EQ(RunServe({resume, tmp + "/c.json"}), 0);
  EXPECT_EQ(MustRead(tmp + "/c.json"), MustRead(tmp + "/a.json"));
}

TEST_F(CheckpointServeTest, ResumeFailsCleanlyWithoutACheckpoint) {
  const std::string tmp = TempDir();
  ServerConfig config = BaseConfig();
  config.checkpoint.dir = tmp + "/empty";
  config.checkpoint.resume = true;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(config, *registry_);
  AddTenants(server);
  const StatusOr<ServeResult> run = server.TryRun();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointServeTest, ResumeRejectsAMismatchedConfiguration) {
  const std::string tmp = TempDir();
  CheckpointConfig base;
  base.dir = tmp + "/ck";
  base.every_epochs = 2;
  base.crash_at_ms = 1.6;
  ASSERT_EQ(RunCrashing({base, tmp + "/a.json"}), 137);

  // Same directory, different serving configuration: recovery must
  // refuse rather than resume into divergence.
  ServerConfig config = BaseConfig();
  config.default_max_queries = 16;  // fingerprint-relevant change
  config.checkpoint.dir = base.dir;
  config.checkpoint.resume = true;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(config, *registry_);
  AddTenants(server);
  const StatusOr<ServeResult> run = server.TryRun();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointServeTest, ResumeRefusesASnapshotThatDoesNotFit) {
  const std::string tmp = TempDir();
  CheckpointConfig crash;
  crash.dir = tmp + "/ck";
  crash.every_epochs = 2;
  crash.crash_at_ms = 1.6;
  CheckpointConfig resume = crash;
  resume.crash_at_ms = 0;
  resume.resume = true;
  ASSERT_EQ(RunCrashing({crash, tmp + "/a.json"}), 137);

  // Rewrite the newest snapshot with a slot naming a class the server
  // does not have. The file stays CRC-valid and matches the config
  // fingerprint and class digest, so only the fit check stands between it
  // and an out-of-bounds index.
  const auto summary = InspectCheckpointDir(crash.dir);
  ASSERT_TRUE(summary.ok());
  ASSERT_GE(summary.value().resume_index, 0);
  const std::string path =
      crash.dir + "/" + SnapshotFileName(summary.value().resume_index);
  auto snap = ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  snap.value().state.slots[0].tenant = 0;
  snap.value().state.slots[0].client = -1;
  snap.value().state.slots[0].cls = 1000;
  ASSERT_TRUE(WriteSnapshotFile(crash.dir, snap.value()).ok());

  EXPECT_EQ(RunServe({resume, tmp + "/c.json"}), 3)
      << "resume must fail with a Status";
  EXPECT_EQ(ReadFileToString(tmp + "/c.json").status().code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointServeTest, InspectSummarizesTheDirectory) {
  const std::string tmp = TempDir();
  CheckpointConfig base;
  base.dir = tmp + "/ck";
  base.every_epochs = 2;
  ASSERT_EQ(RunServe({base, tmp + "/a.json"}), 0);

  const auto summary = InspectCheckpointDir(base.dir);
  ASSERT_TRUE(summary.ok());
  EXPECT_GE(summary.value().snapshots.size(), 1u);
  EXPECT_GE(summary.value().resume_index, 0);
  for (const SnapshotFileInfo& s : summary.value().snapshots) {
    EXPECT_TRUE(s.valid) << s.error;
    EXPECT_GT(s.bytes, 0u);
  }
  for (const JournalFileInfo& j : summary.value().journals) {
    EXPECT_FALSE(j.torn_tail) << j.tail_error;
  }
  EXPECT_EQ(InspectCheckpointDir(tmp + "/missing").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace uolap::server
