#ifndef UOLAP_SERVER_CHECKPOINT_H_
#define UOLAP_SERVER_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "server/admission.h"
#include "server/loop_state.h"

namespace uolap::server {

struct ServerConfig;
struct TenantConfig;

/// Crash-consistent serving (DESIGN.md §10): at epoch boundaries the
/// server writes a versioned snapshot of the complete loop state, and
/// between snapshots it appends per-query events to a CRC-framed journal
/// (server/journal.h). Recovery loads the newest valid snapshot, then
/// *verifies* the journal against the re-derived event stream: because
/// the runtime is byte-deterministic, the resumed run re-produces every
/// journaled event bit for bit — any divergence means the checkpoint does
/// not belong to this configuration and recovery fails loudly. The
/// acceptance bar is kill-and-resume bit-equivalence: a resumed run's
/// profile JSON is byte-identical to an uninterrupted one.

/// Checkpointing knobs, carried inside ServerConfig.
struct CheckpointConfig {
  /// Directory snapshots and journals live in (empty = checkpointing off).
  std::string dir;
  /// Snapshot every N closed epochs (requires epoch_ms > 0).
  int every_epochs = 1;
  /// Resume from the newest valid snapshot in `dir` instead of starting
  /// fresh. Fails when `dir` holds no valid snapshot.
  bool resume = false;
  /// Deterministic self-kill for crash testing: once virtual time reaches
  /// this many ms the process exits with code 137 at the next top-of-loop
  /// (after any pending snapshot write). 0 disables.
  double crash_at_ms = 0;

  bool enabled() const { return !dir.empty(); }
};

// --- journal events -------------------------------------------------------

enum class JournalEventType : uint8_t {
  kAdmit = 1,    ///< query entered the FIFO queue
  kReject = 2,   ///< refused at admission
  kShed = 3,     ///< dropped from the queue at schedule time
  kTimeout = 4,  ///< deadline expired (pop-time or boundary cancellation)
  kFail = 5,     ///< retry budget exhausted after transient failures
  kComplete = 6, ///< finished and counted
  kRetry = 7,    ///< transient failure; backoff scheduled
};

/// Stable lower-case name ("admit", "reject", ...).
std::string_view JournalEventTypeName(JournalEventType type);

struct JournalEvent {
  JournalEventType type = JournalEventType::kAdmit;
  uint64_t seq = 0;
  int32_t tenant = -1;
  uint32_t attempt = 1;
  double vtime_ms = 0;

  friend bool operator==(const JournalEvent&, const JournalEvent&) = default;
};

/// Fixed-width binary payload for one journal frame.
std::string EncodeJournalEvent(const JournalEvent& event);
StatusOr<JournalEvent> DecodeJournalEvent(std::string_view payload);

// --- snapshots ------------------------------------------------------------

/// A versioned point-in-time capture of the serving run. The file format
/// is magic + version + payload + trailing whole-file CRC32C; doubles are
/// serialized as raw bit patterns, so restore is bit-exact. The metrics
/// registry is not captured: the run publishes it from the restored
/// LoopState when it drains.
struct CheckpointSnapshot {
  /// Guard against resuming under a different configuration: a CRC over
  /// the serving-relevant config plus the tenant list.
  uint64_t config_fingerprint = 0;
  /// Guard against resuming against different class profiles: a CRC over
  /// each class label and its solo cycle/byte totals.
  uint32_t class_digest = 0;
  /// The epoch index the snapshot was taken at (also its file name).
  int epoch_index = 0;
  /// Simulated core frequency, so offline inspection can render the
  /// cycle-denominated virtual clock in ms.
  double freq_ghz = 0;
  LoopState state;
  std::vector<AdmissionController::ClassModel> admission_models;

  friend bool operator==(const CheckpointSnapshot&,
                         const CheckpointSnapshot&) = default;
};

std::string EncodeSnapshot(const CheckpointSnapshot& snapshot);
StatusOr<CheckpointSnapshot> DecodeSnapshot(std::string_view bytes);

/// "snap-00000012.ckpt" / "journal-00000012.wal".
std::string SnapshotFileName(int index);
std::string JournalFileName(int index);

/// Creates `dir` if needed and writes the snapshot atomically
/// (tmp + fsync + rename) under its SnapshotFileName.
Status WriteSnapshotFile(const std::string& dir,
                         const CheckpointSnapshot& snapshot);
/// Reads and decodes one snapshot file.
StatusOr<CheckpointSnapshot> ReadSnapshotFile(const std::string& path);

/// What recovery found in a checkpoint directory.
struct RecoveredCheckpoint {
  CheckpointSnapshot snapshot;
  /// Valid frames of the snapshot's paired journal (may be empty).
  std::vector<std::string> journal_payloads;
  uint64_t journal_valid_bytes = 0;
  bool journal_torn = false;       ///< a torn tail was discarded
  std::string journal_tail_error;  ///< why, when torn
  int skipped_snapshots = 0;       ///< newer snapshots that failed validation
  std::string skipped_note;        ///< last validation failure, when skipped
};

/// Loads the newest snapshot in `dir` that decodes and checksums clean,
/// plus the valid prefix of its journal. Corrupt newer snapshots are
/// skipped (reported via skipped_*); NotFound when the directory holds no
/// snapshot at all, FailedPrecondition when none validates.
StatusOr<RecoveredCheckpoint> LoadLatestCheckpoint(const std::string& dir);

/// Checks that a decoded (CRC-valid) snapshot fits the configuration it is
/// about to resume, so resuming it cannot index out of bounds:
/// FailedPrecondition when the tenant/class/core/client counts differ,
/// InvalidArgument for an out-of-range instance or completion index, queue
/// head or epoch-window start.
Status CheckSnapshotFits(const CheckpointSnapshot& snapshot,
                         const std::vector<TenantConfig>& tenants,
                         size_t num_classes, int cores);

/// CRC fingerprint of everything the fluid loop's behavior depends on:
/// serving knobs, robustness policies, the fault plan, and the tenant
/// list. Machine-model details are covered by the class digest.
uint64_t ServingConfigFingerprint(const ServerConfig& config,
                                  const std::vector<TenantConfig>& tenants);

// --- offline inspection (uolap_report checkpoint <dir>) -------------------

struct SnapshotFileInfo {
  int index = 0;
  uint64_t bytes = 0;
  bool valid = false;
  std::string error;    ///< decode/CRC failure, when invalid
  double vtime_ms = 0;  ///< virtual clock captured, when valid
  uint64_t submitted = 0;
  int epochs_closed = 0;
};

struct JournalFileInfo {
  int index = 0;
  uint64_t bytes = 0;
  uint64_t valid_bytes = 0;
  uint64_t records = 0;
  bool torn_tail = false;
  std::string tail_error;
};

struct CheckpointDirSummary {
  std::vector<SnapshotFileInfo> snapshots;  ///< ascending index
  std::vector<JournalFileInfo> journals;    ///< ascending index
  int resume_index = -1;  ///< newest valid snapshot (-1 = unresumable)
};

/// Validates every snapshot and journal in `dir` without resuming.
StatusOr<CheckpointDirSummary> InspectCheckpointDir(const std::string& dir);

}  // namespace uolap::server

#endif  // UOLAP_SERVER_CHECKPOINT_H_
