#ifndef UOLAP_CORE_STREAM_INDEX_H_
#define UOLAP_CORE_STREAM_INDEX_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/macros.h"

namespace uolap::core {

/// Candidate index over the stream-detector table: which entries can
/// possibly match a line.
///
/// Every valid detector entry predicts one line (`next_fwd`), and every
/// matching condition in MemorySystem::ScanStreams is a small window
/// around the predicted lines (re-access, forward with skip tolerance,
/// backward translated through `next_bwd == next_fwd - 2`). The index
/// buckets the predicted lines at 16-line granularity into 256 buckets,
/// each holding a 32-bit owner mask with one bit per detector entry
/// (kStreamTableEntries = 32). `Near(lo, hi)` ORs the masks of the buckets
/// the window spans — one or two for the ~9-line match window — and the
/// result is exact in the direction that matters: an entry outside it
/// predicts no line in [lo, hi]. The caller then tests only the
/// candidates, in ascending entry order, which keeps the reference scan's
/// first-match-in-table-order semantics. Random probes almost never land
/// near a tracked stream, so their mask is empty; sequential shapes find
/// their own entry as the first (usually only) candidate.
///
/// Each entry lives in exactly one bucket, so maintenance is one bit set
/// or clear per insert/remove and two per move.
class StreamIndex {
 public:
  void Clear() { owners_.fill(0); }

  /// Entries whose predicted line may lie in [lo, hi] (lo <= hi, a window
  /// of at most 17 lines): a superset of those whose line does, with no
  /// entry that is not inserted. Such a window spans at most two granules,
  /// so this is two loads.
  uint32_t Near(uint64_t lo, uint64_t hi) const {
    UOLAP_DCHECK(lo <= hi && hi - lo < kMaxWindow);
    return owners_[Bucket(lo >> kGranuleShift)] |
           owners_[Bucket(hi >> kGranuleShift)];
  }

  /// Records that detector entry `entry` now predicts `line`.
  void Insert(int entry, uint64_t line) {
    uint32_t& owners = owners_[Bucket(line >> kGranuleShift)];
    UOLAP_DCHECK((owners & Bit(entry)) == 0);
    owners |= Bit(entry);
  }

  /// Removes entry `entry`'s prediction of `line` (which must be tracked).
  void Remove(int entry, uint64_t line) {
    uint32_t& owners = owners_[Bucket(line >> kGranuleShift)];
    UOLAP_DCHECK((owners & Bit(entry)) != 0);
    owners &= ~Bit(entry);
  }

  /// Moves entry `entry`'s prediction from `from_line` to `to_line`.
  void Move(int entry, uint64_t from_line, uint64_t to_line) {
    Remove(entry, from_line);
    Insert(entry, to_line);
  }

 private:
  static constexpr uint32_t kGranuleShift = 4;  // 16-line granules
  static constexpr uint32_t kGranules = 256;
  static constexpr uint64_t kMaxWindow = (1u << kGranuleShift) + 1;

  static size_t Bucket(uint64_t granule) {
    return static_cast<size_t>(granule & (kGranules - 1));
  }
  static uint32_t Bit(int entry) {
    return 1u << static_cast<uint32_t>(entry);
  }

  /// Per-bucket owner masks: bit i set iff entry i predicts a line whose
  /// granule maps to the bucket.
  std::array<uint32_t, kGranules> owners_{};
};

}  // namespace uolap::core

#endif  // UOLAP_CORE_STREAM_INDEX_H_
