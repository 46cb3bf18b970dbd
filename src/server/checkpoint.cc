#include "server/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "server/journal.h"
#include "server/serving.h"

namespace uolap::server {
namespace {

constexpr char kSnapshotMagic[8] = {'U', 'O', 'L', 'A', 'P', 'C', 'K', 'P'};
constexpr uint32_t kSnapshotVersion = 3;

// --- bit-exact two-way binary archive -------------------------------------
// Little-endian fixed-width fields; doubles travel as raw bit patterns so
// a restored state is bit-identical to the captured one. One Archive both
// encodes and decodes, so each struct lists its fields exactly once (the
// Io overloads below) and the two directions cannot drift apart. Encoding
// only reads through the references it is handed.

class Archive {
 public:
  /// An encoder appending to bytes().
  Archive() = default;
  /// A decoder over `data`.
  explicit Archive(std::string_view data) : reading_(true), in_(data) {}

  template <typename... Fields>
  void operator()(Fields&... fields) {
    (Field(fields), ...);
  }
  /// Encodes values that have no lvalue (computed fingerprint inputs).
  template <typename... Values>
  void Put(Values... values) {
    (Field(values), ...);
  }

  template <typename T>
    requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
  void Field(T& v) {
    Raw(&v, sizeof(v));
  }
  void Field(bool& v) {
    uint8_t byte = v ? 1 : 0;
    Field(byte);
    if (reading_) v = byte != 0;
  }
  void Field(std::string& s) {
    const size_t n = Count(s.size());
    if (reading_) s.resize(n);
    Raw(s.data(), n);
  }
  void Field(Rng& rng) {
    std::array<uint64_t, 4> state = rng.SaveState();
    for (uint64_t& word : state) Field(word);
    if (reading_) rng.LoadState(state);
  }
  template <typename T>
  void Field(std::vector<T>& v) {
    const size_t n = Count(v.size());
    if (reading_) v.assign(n, T{});
    for (T& e : v) Field(e);
  }
  /// Structs: their single field list.
  template <typename T>
    requires std::is_class_v<T>
  void Field(T& s) {
    Io(*this, s);
  }

  /// A one-byte enum; the field list checks the decoded value's range.
  template <typename E>
    requires std::is_enum_v<E>
  void Field(E& e) {
    auto byte = static_cast<uint8_t>(e);
    Field(byte);
    if (reading_) e = static_cast<E>(byte);
  }

  void Raw(void* p, size_t n) {
    if (!reading_) {
      out_.append(static_cast<const char*>(p), n);
    } else if (failed_ || in_.size() - pos_ < n) {
      Fail("payload truncated");
      std::memset(p, 0, n);
    } else {
      std::memcpy(p, in_.data() + pos_, n);
      pos_ += n;
    }
  }

  /// Marks a decode failed; encoding writes whatever it is handed.
  void Fail(std::string why) {
    if (!reading_ || failed_) return;
    error_ = std::move(why);
    failed_ = true;
  }
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  bool AtEnd() const { return !failed_ && pos_ == in_.size(); }
  const std::string& bytes() const { return out_; }

 private:
  /// A container count. Decoding bounds it by the remaining bytes (every
  /// element is at least one byte) so corrupt data cannot force a huge
  /// allocation.
  size_t Count(size_t size) {
    auto n = static_cast<uint32_t>(size);
    Field(n);
    if (reading_ && !failed_ && n > in_.size() - pos_) {
      Fail("container count " + std::to_string(n) + " exceeds the payload");
    }
    return failed_ ? 0 : n;
  }

  bool reading_ = false;
  std::string out_;
  std::string_view in_;
  size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

// --- field lists ----------------------------------------------------------

void Io(Archive& ar, QueryInstance& q) {
  ar(q.tenant, q.cls, q.client, q.seq, q.arrival, q.start, q.remaining,
     q.scale_cycles, q.run_cycles, q.attempt, q.deadline, q.est_ms,
     q.cancel_remaining, q.retry_ready, q.will_fail, q.slow);
}

void Io(Archive& ar, TenantLoopState& t) {
  ar(t.rng, t.submitted, t.rejected, t.shed, t.timed_out, t.failed,
     t.faults_injected, t.slowdowns_injected, t.brownout_downgrades,
     t.next_open_arrival, t.client_wake, t.backoff_ms);
}

void Io(Archive& ar, CompletionRecord& c) {
  ar(c.tenant, c.cls, c.latency_ms, c.queue_wait_ms);
}

void Io(Archive& ar, ClassLoopStats& c) {
  ar(c.executions, c.service_cycles, c.scale_cycles, c.run_cycles);
}

void Io(Archive& ar, obs::QueueSample& s) {
  ar(s.vtime_ms, s.running, s.queued);
}

void Io(Archive& ar, obs::QuerySpan& s) {
  ar(s.seq, s.tenant, s.cls, s.arrival_ms, s.start_ms, s.end_ms, s.core,
     s.outcome, s.attempts);
}

void Io(Archive& ar, obs::WindowStat& s) {
  ar(s.subject, s.completed, s.p50_ms, s.p95_ms, s.p99_ms);
}

void Io(Archive& ar, obs::EpochRecord& e) {
  ar(e.index, e.start_ms, e.end_ms, e.completed, e.p50_ms, e.p95_ms,
     e.p99_ms, e.max_running, e.max_queued, e.tenants, e.classes);
}

void Io(Archive& ar, EpochAccState& a) {
  ar(a.first_completion, a.max_running, a.max_queued);
}

void Io(Archive& ar, LoopState& st) {
  ar(st.vtime, st.tenants, st.classes, st.slots, st.queue, st.retry_queue,
     st.queue_head, st.queued_est_ms, st.completions, st.checkpoints,
     st.total_bytes, st.peak_gbps, st.saturated, st.timeline, st.spans,
     st.acc, st.epoch_start, st.epochs);
}

void Io(Archive& ar, AdmissionController::ClassModel& m) {
  ar(m.est_ms, m.count);
}

void Io(Archive& ar, CheckpointSnapshot& s) {
  ar(s.config_fingerprint, s.class_digest, s.epoch_index, s.freq_ghz,
     s.state, s.admission_models);
}

void Io(Archive& ar, JournalEvent& e) {
  ar(e.type, e.seq, e.tenant, e.attempt, e.vtime_ms);
  if (e.type < JournalEventType::kAdmit || e.type > JournalEventType::kRetry) {
    ar.Fail("unknown journal event type");
  }
}

/// Parses "<prefix><8 digits><suffix>" file names; returns the index or
/// -1 when the name does not match.
int ParseIndexedName(const std::string& name, std::string_view prefix,
                     std::string_view suffix) {
  if (name.size() != prefix.size() + 8 + suffix.size()) return -1;
  if (name.compare(0, prefix.size(), prefix) != 0) return -1;
  if (name.compare(prefix.size() + 8, suffix.size(), suffix.data()) != 0) {
    return -1;
  }
  int index = 0;
  for (size_t i = prefix.size(); i < prefix.size() + 8; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return -1;
    index = index * 10 + (c - '0');
  }
  return index;
}

}  // namespace

std::string_view JournalEventTypeName(JournalEventType type) {
  switch (type) {
    case JournalEventType::kAdmit:
      return "admit";
    case JournalEventType::kReject:
      return "reject";
    case JournalEventType::kShed:
      return "shed";
    case JournalEventType::kTimeout:
      return "timeout";
    case JournalEventType::kFail:
      return "fail";
    case JournalEventType::kComplete:
      return "complete";
    case JournalEventType::kRetry:
      return "retry";
  }
  return "unknown";
}

std::string EncodeJournalEvent(const JournalEvent& event) {
  Archive ar;
  ar(const_cast<JournalEvent&>(event));
  return ar.bytes();
}

StatusOr<JournalEvent> DecodeJournalEvent(std::string_view payload) {
  Archive ar(payload);
  JournalEvent e;
  ar(e);
  if (!ar.AtEnd()) {
    return Status::InvalidArgument("malformed journal event payload");
  }
  return e;
}

std::string EncodeSnapshot(const CheckpointSnapshot& snapshot) {
  Archive ar;
  ar.Put(kSnapshotVersion);
  ar(const_cast<CheckpointSnapshot&>(snapshot));
  std::string out(kSnapshotMagic, sizeof(kSnapshotMagic));
  out += ar.bytes();
  const uint32_t crc = Crc32c(out);
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return out;
}

StatusOr<CheckpointSnapshot> DecodeSnapshot(std::string_view bytes) {
  constexpr size_t kHeader = sizeof(kSnapshotMagic) + sizeof(uint32_t);
  if (bytes.size() < kHeader + sizeof(uint32_t)) {
    return Status::InvalidArgument("snapshot file too short (" +
                                   std::to_string(bytes.size()) + " bytes)");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  const std::string_view body =
      bytes.substr(0, bytes.size() - sizeof(stored_crc));
  if (Crc32c(body) != stored_crc) {
    return Status::InvalidArgument("snapshot CRC mismatch");
  }
  if (std::memcmp(body.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::InvalidArgument("not a checkpoint snapshot (bad magic)");
  }
  Archive ar(body.substr(sizeof(kSnapshotMagic)));
  uint32_t version = 0;
  ar(version);
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }
  CheckpointSnapshot snap;
  ar(snap);
  if (!ar.AtEnd()) {
    return Status::InvalidArgument(
        "snapshot payload malformed: " +
        (ar.failed() ? ar.error() : std::string("trailing bytes")));
  }
  return snap;
}

std::string SnapshotFileName(int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snap-%08d.ckpt", index);
  return buf;
}

std::string JournalFileName(int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "journal-%08d.wal", index);
  return buf;
}

StatusOr<CheckpointSnapshot> ReadSnapshotFile(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return DecodeSnapshot(bytes.value());
}

Status WriteSnapshotFile(const std::string& dir,
                         const CheckpointSnapshot& snapshot) {
  Status made = EnsureDirectory(dir);
  if (!made.ok()) return made;
  return WriteFileAtomic(dir + "/" + SnapshotFileName(snapshot.epoch_index),
                         EncodeSnapshot(snapshot));
}

StatusOr<RecoveredCheckpoint> LoadLatestCheckpoint(const std::string& dir) {
  StatusOr<std::vector<std::string>> listing = ListDirectory(dir);
  if (!listing.ok()) return listing.status();
  std::vector<int> indices;
  for (const std::string& name : listing.value()) {
    const int index = ParseIndexedName(name, "snap-", ".ckpt");
    if (index >= 0) indices.push_back(index);
  }
  if (indices.empty()) {
    return Status::NotFound("no checkpoint snapshots in '" + dir + "'");
  }
  std::sort(indices.rbegin(), indices.rend());

  RecoveredCheckpoint out;
  bool loaded = false;
  std::string last_error;
  for (const int index : indices) {
    const std::string path = dir + "/" + SnapshotFileName(index);
    StatusOr<CheckpointSnapshot> snap = ReadSnapshotFile(path);
    if (!snap.ok()) {
      ++out.skipped_snapshots;
      last_error = path + ": " + snap.status().ToString();
      continue;
    }
    out.snapshot = std::move(snap).value();
    loaded = true;
    break;
  }
  if (!loaded) {
    return Status::FailedPrecondition("no valid checkpoint snapshot in '" +
                                      dir + "' (last failure: " + last_error +
                                      ")");
  }
  out.skipped_note = last_error;

  const std::string journal_path =
      dir + "/" + JournalFileName(out.snapshot.epoch_index);
  StatusOr<JournalReadResult> journal = ReadJournal(journal_path);
  if (!journal.ok()) {
    // A snapshot written moments before the kill may not have a journal
    // yet; recovery starts one. Any other read failure is fatal.
    if (journal.status().code() != StatusCode::kNotFound) {
      return journal.status();
    }
  } else {
    out.journal_payloads = std::move(journal.value().payloads);
    out.journal_valid_bytes = journal.value().valid_bytes;
    out.journal_torn = journal.value().torn_tail;
    out.journal_tail_error = std::move(journal.value().tail_error);
  }
  return out;
}

Status CheckSnapshotFits(const CheckpointSnapshot& snapshot,
                         const std::vector<TenantConfig>& tenants,
                         size_t num_classes, int cores) {
  const LoopState& st = snapshot.state;
  if (st.tenants.size() != tenants.size() ||
      st.classes.size() != num_classes ||
      snapshot.admission_models.size() != num_classes ||
      st.slots.size() != static_cast<size_t>(cores)) {
    return Status::FailedPrecondition(
        "does not match the tenant/class/core-pool shape");
  }
  for (size_t t = 0; t < tenants.size(); ++t) {
    if (st.tenants[t].client_wake.size() !=
        static_cast<size_t>(tenants[t].concurrency)) {
      return Status::FailedPrecondition(
          "tenant " + std::to_string(t) +
          " has a different closed-loop client count");
    }
  }
  // Every in-flight instance must index real tenants, classes and clients
  // (a free slot has tenant -1; queued and retrying work never does).
  for (const auto* list : {&st.slots, &st.queue, &st.retry_queue}) {
    for (const QueryInstance& q : *list) {
      if (list == &st.slots && q.tenant == -1) continue;
      if (q.tenant < 0 || static_cast<size_t>(q.tenant) >= tenants.size() ||
          q.cls >= num_classes || q.client < -1 ||
          q.client >= tenants[static_cast<size_t>(q.tenant)].concurrency) {
        return Status::InvalidArgument(
            "in-flight query seq " + std::to_string(q.seq) +
            " has an out-of-range tenant, class or client");
      }
    }
  }
  if (st.queue_head > st.queue.size()) {
    return Status::InvalidArgument("queue head is past the queue's end");
  }
  for (const CompletionRecord& c : st.completions) {
    if (c.tenant >= tenants.size() || c.cls >= num_classes) {
      return Status::InvalidArgument(
          "a completion record has an out-of-range tenant or class");
    }
  }
  if (st.acc.first_completion > st.completions.size()) {
    return Status::InvalidArgument(
        "the epoch window starts past the last completion");
  }
  return Status::OK();
}

uint64_t ServingConfigFingerprint(const ServerConfig& config,
                                  const std::vector<TenantConfig>& tenants) {
  Archive w;
  w.Put(config.machine.freq_ghz, config.machine.cores_per_socket,
        config.machine.SocketSeqBytesPerCycle(),
        config.machine.SocketRandBytesPerCycle(), config.cores,
        config.default_max_queries, config.epoch_ms, config.trace_sample_n,
        static_cast<uint32_t>(config.slos.size()));
  for (const obs::SloSpec& slo : config.slos) w.Put(slo.ToString());
  w.Put(std::string(ShedPolicyName(config.admission.policy)),
        config.admission.default_deadline_ms, config.retry.max_retries,
        config.brownout.queue_depth,
        static_cast<uint32_t>(config.brownout.downgrade.size()));
  for (const auto& [from, to] : config.brownout.downgrade) w.Put(from, to);
  w.Put(config.faults.ToString(), config.checkpoint.every_epochs,
        static_cast<uint32_t>(tenants.size()));
  for (const TenantConfig& t : tenants) {
    w.Put(t.name, t.engine, static_cast<uint32_t>(t.catalog.size()));
    for (const engine::QuerySpec& spec : t.catalog) w.Put(spec.Label());
    w.Put(t.zipf_s, t.arrival_qps, t.concurrency, t.think_ms, t.max_queries,
          t.seed);
  }
  const std::string& data = w.bytes();
  return (static_cast<uint64_t>(Crc32c(data)) << 32) |
         Crc32c(data, 0x9E3779B9u);
}

StatusOr<CheckpointDirSummary> InspectCheckpointDir(const std::string& dir) {
  StatusOr<std::vector<std::string>> listing = ListDirectory(dir);
  if (!listing.ok()) return listing.status();
  CheckpointDirSummary out;
  for (const std::string& name : listing.value()) {
    const std::string path = dir + "/" + name;
    const int snap_index = ParseIndexedName(name, "snap-", ".ckpt");
    if (snap_index >= 0) {
      SnapshotFileInfo info;
      info.index = snap_index;
      StatusOr<uint64_t> size = FileSize(path);
      info.bytes = size.ok() ? size.value() : 0;
      StatusOr<CheckpointSnapshot> snap = ReadSnapshotFile(path);
      if (!snap.ok()) {
        info.error = snap.status().ToString();
      } else {
        info.valid = true;
        const LoopState& st = snap.value().state;
        const double freq = snap.value().freq_ghz;
        info.vtime_ms = freq > 0 ? st.vtime / (freq * 1e6) : 0;
        for (const TenantLoopState& t : st.tenants) {
          info.submitted += t.submitted;
        }
        info.epochs_closed = static_cast<int>(st.epochs.size());
        if (snap_index > out.resume_index) out.resume_index = snap_index;
      }
      out.snapshots.push_back(std::move(info));
      continue;
    }
    const int wal_index = ParseIndexedName(name, "journal-", ".wal");
    if (wal_index >= 0) {
      JournalFileInfo info;
      info.index = wal_index;
      StatusOr<uint64_t> size = FileSize(path);
      info.bytes = size.ok() ? size.value() : 0;
      StatusOr<JournalReadResult> journal = ReadJournal(path);
      if (journal.ok()) {
        info.valid_bytes = journal.value().valid_bytes;
        info.records = journal.value().payloads.size();
        info.torn_tail = journal.value().torn_tail;
        info.tail_error = std::move(journal.value().tail_error);
      } else {
        info.torn_tail = true;
        info.tail_error = journal.status().ToString();
      }
      out.journals.push_back(std::move(info));
    }
  }
  if (out.snapshots.empty() && out.journals.empty()) {
    return Status::NotFound("no checkpoint files in '" + dir + "'");
  }
  return out;
}

}  // namespace uolap::server
