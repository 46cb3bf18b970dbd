#ifndef UOLAP_CORE_MEMORY_SYSTEM_H_
#define UOLAP_CORE_MEMORY_SYSTEM_H_

#include <array>
#include <cstdint>

#include "core/cache.h"
#include "core/calibration.h"
#include "core/config.h"
#include "core/counters.h"
#include "core/stream_index.h"

namespace uolap::core {

/// Execution-driven model of one core's data-side memory hierarchy:
/// L1D + private L2 + L3, DTLB/STLB, a stream detector standing in for the
/// four Intel hardware prefetchers, and DRAM byte accounting. (The Icache
/// share is analytic, from per-region code footprints; see Core::Retire.)
///
/// Every data access the engines make is pushed through this model, so
/// locality, reuse, conflict misses, hash-table residency and scan/probe
/// access patterns are all *emergent* — the model only decides how to cost
/// each observed event (see calibration.h for the behavioural constants).
///
/// Cost accounting at access time fills `MemCounters`; the Top-Down model
/// later combines those with the instruction mix (a fixed point is needed
/// because prefetch timeliness and bandwidth queuing depend on total time).
///
/// Hot-path architecture (DESIGN.md §7): two accelerators sit in front
/// of the per-line reference machinery, each bit-identical to it by
/// construction and each switchable back off via SetReferencePaths —
///  1. a candidate index over the stream-detector table (StreamIndex:
///     per-granule owner masks of the predicted lines) so a line tests
///     only the entries that can match it, in table order, instead of the
///     linear match scan; plus a valid-entry bitmask and an LRU list
///     replacing the linear victim scan;
///  2. a page-granular translation memo (the (page, dtlb way) of the
///     immediately-previous access) replaying the DTLB hit path without a
///     tag scan.
/// The hierarchy walk has one form in both modes: each level is probed
/// once (BasicSetAssociativeCache::Probe), and a missed level is filled
/// into the victim its probe named (FillMiss) — exact because nothing
/// touches a level between its probe and its fill. Debug builds check
/// every such victim against a fresh InsertAbsent choice.
class MemorySystem {
 public:
  explicit MemorySystem(const MachineConfig& config);

  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  /// Data access at byte granularity; internally walks all touched lines.
  void AccessData(uint64_t addr, uint32_t bytes, bool is_store) {
    const uint64_t first = addr >> kLineShift;
    const uint64_t last = (addr + bytes - 1) >> kLineShift;
    for (uint64_t line = first; line <= last; ++line) {
      AccessDataLine(line, is_store);
    }
  }

  /// One line-granular data access.
  void AccessDataLine(uint64_t line, bool is_store);

  /// Host-prefetches the L3, L2 and STLB set blocks a later data access of
  /// `line` will probe (see Core::Prefetch); no simulated effect.
  void PrefetchLine(uint64_t line) const {
    l3_.PrefetchSet(line);
    l2_.PrefetchSet(line);
    stlb_.PrefetchSet(line >> (page_shift_ - kLineShift));
  }

  /// Sets the memory-level-parallelism hint used to cost random accesses
  /// from now on. Engines set this per phase (scalar probe loop vs
  /// vectorized gather etc.; see calibration.h). Setting the hint it
  /// already has is free: recomputing the quotients from identical
  /// operands would reproduce identical bits, so skipping it is exact.
  void SetMlpHint(double mlp) {
    if (mlp == mlp_hint_) return;
    mlp_hint_ = mlp;
    RecomputeMlpCosts();
  }
  double mlp_hint() const { return mlp_hint_; }

  /// Routes stream detection, victim selection and translation through
  /// the pre-accelerator reference code (the linear scans and
  /// unconditional TLB lookups). Counters and raw cache/TLB/stream state
  /// are bit-identical either way — the differential property test and the
  /// CI perf-smoke stage assert exactly that. Defaults to fast.
  void SetReferencePaths(bool on) {
    reference_paths_ = on;
    memo_page_ = kNoPage;
  }
  bool reference_paths() const { return reference_paths_; }

  /// Flushes live established streams (accounts their trailing prefetch
  /// waste). Call once at the end of a profiled run.
  void Finalize();

  const MemCounters& counters() const { return counters_; }
  MemCounters* mutable_counters() { return &counters_; }
  const MachineConfig& config() const { return config_; }

  // --- validation / introspection (audit layer; off the hot path) -------

  /// When enabled, every miss-path fill is re-checked for containment
  /// (the filled line must be resident in every level WalkData just
  /// filled it into — the model's fill-inclusive policy). Violations
  /// only count; the audit layer reads them out. One branch per demand
  /// miss when enabled, zero cost when not.
  void SetValidateFills(bool on) { validate_fills_ = on; }
  bool validate_fills() const { return validate_fills_; }
  uint64_t fill_containment_violations() const {
    return fill_containment_violations_;
  }

  const SetAssociativeCache& l1d() const { return l1d_; }
  const SetAssociativeCache& l2() const { return l2_; }
  const LlcCache& l3() const { return l3_; }
  const SetAssociativeCache& dtlb() const { return dtlb_; }
  const SetAssociativeCache& stlb() const { return stlb_; }

  /// Raw state of one stream-detector entry (see the field commentary on
  /// the parallel arrays below).
  struct StreamState {
    bool valid = false;
    uint32_t run = 0;
    int8_t dir = 0;
    uint64_t last_touch = 0;
  };
  static constexpr int kNumStreamEntries = kStreamTableEntries;
  StreamState stream_state(int i) const {
    const size_t u = static_cast<size_t>(i);
    StreamState s;
    s.valid = stream_valid_[u] != 0;
    s.run = stream_run_[u];
    s.dir = stream_dir_[u];
    s.last_touch = stream_ts_[u];
    return s;
  }
  uint64_t stream_clock() const { return stream_clock_; }

  /// Engagement counters for the fast paths. These are host-side
  /// instrumentation, not simulated state: they differ between fast and
  /// reference runs by design and are never exported into profiles. Tests
  /// use them to assert the fast paths actually fire.
  struct FastPathStats {
    uint64_t memo_hits = 0;   ///< translations served by the page memo
    /// Always 0. Kept only because the host-cost benchmark (hostbench/)
    /// reads it; drop it together with that reader.
    uint64_t lane_lines = 0;
  };
  const FastPathStats& fast_path_stats() const { return fast_stats_; }

  /// Test-only corruption hook (audit failure-path tests): records a fake
  /// fill-containment violation so the checker's failure path is testable
  /// (real ones require a model bug by construction).
  void TestOnlyAddFillViolation() { ++fill_containment_violations_; }

  /// Test-only corruption hook (audit failure-path tests): overwrite one
  /// stream-detector entry's raw state, then re-derive the fast-path
  /// index, valid-entry mask and LRU list from the edited table. Fast and
  /// reference servicing of the edited table stay identical as long as the
  /// edit keeps the table's own invariants (invalid entries carry stamp 0,
  /// valid stamps are distinct).
  void TestOnlySetStream(int i, bool valid, uint32_t run, int8_t dir,
                         uint64_t ts);

 private:
  static constexpr int kLineShift = 6;  // 64-byte lines
  static constexpr uint64_t kNoPage = ~0ull;
  /// An LRU link array with every entry unlinked (-1).
  static constexpr std::array<int8_t, kStreamTableEntries> kNoLinks = [] {
    std::array<int8_t, kStreamTableEntries> links{};
    links.fill(-1);
    return links;
  }();

  /// The detector table is structure-of-arrays: every data access probes
  /// it, so the per-entry hot fields live in dense parallel arrays instead
  /// of a 40-byte struct stride.
  ///   next_fwd/next_bwd: expected next line in each direction
  ///   ts:   last-touch tick (larger == younger)
  ///   run:  consecutive matches so far
  ///   dir:  +1 forward, -1 backward, 0 undecided
  /// Valid entries always keep next_bwd == next_fwd - 2 (both are set
  /// together on every allocate/advance), which is why the fast-path index
  /// can key on next_fwd alone.
  bool StreamEstablished(int i) const {
    return stream_run_[static_cast<size_t>(i)] >=
           static_cast<uint32_t>(kStreamEstablishLength);
  }

  /// Updates the stream detector with `line`; returns whether the access
  /// belongs to an established sequential stream.
  bool UpdateStreams(uint64_t line, bool* is_reaccess);
  /// Whether valid entry `i` claims `line`: a re-access of its current
  /// line, or a forward/backward advance within the skip tolerance. The
  /// subtractions deliberately wrap:
  /// line - next_fwd <= tol  <=>  next_fwd <= line <= next_fwd + tol.
  bool StreamMatches(int i, uint64_t line) const {
    constexpr uint64_t kTol = static_cast<uint64_t>(kStreamSkipTolerance);
    const size_t u = static_cast<size_t>(i);
    const int8_t dir = stream_dir_[u];
    const bool re = line + 1 == stream_next_fwd_[u];
    const bool fwd = dir >= 0 && line - stream_next_fwd_[u] <= kTol;
    const bool bwd = dir <= 0 && stream_next_bwd_[u] - line <= kTol;
    return re || fwd || bwd;
  }
  /// Reference matcher: first-match scan in table order. Pure.
  int ScanStreams(uint64_t line) const;
  /// Fast matcher: tests only StreamIndex's candidates for the line's
  /// match window, in ascending entry order; returns the same entry
  /// ScanStreams would (asserted in debug builds).
  int IndexStreams(uint64_t line) const;
  /// Reference victim: linear minimum-stamp scan (free slots carry stamp
  /// 0, so they win with first-in-table-order ties). Pure.
  int ScanVictim() const;

  /// Timestamp true-LRU: a touch is one stamp, the victim is the minimum
  /// stamp (identical replacement order to a rank-based scheme, O(1) per
  /// touch instead of O(entries)). Stamps of valid entries are distinct,
  /// so the LRU list order below mirrors the stamp order exactly.
  void TouchStream(int index) {
    stream_ts_[static_cast<size_t>(index)] = ++stream_clock_;
    if (lru_tail_ != index) {
      LruDetach(index);
      LruAppend(index);
    }
  }
  void KillStream(int index);

  // Doubly-linked LRU list over valid detector entries (head = oldest
  // stamp, tail = youngest); -1 terminates. Maintained alongside the
  // valid-entry bitmask. All of it is fast-path acceleration state: it
  // starts empty and is re-derived if a test-only hook edits the table
  // underneath it.
  void LruDetach(int index) {
    const size_t u = static_cast<size_t>(index);
    const int8_t p = lru_prev_[u];
    const int8_t n = lru_next_[u];
    if (p >= 0) {
      lru_next_[static_cast<size_t>(p)] = n;
    } else {
      lru_head_ = n;
    }
    if (n >= 0) {
      lru_prev_[static_cast<size_t>(n)] = p;
    } else {
      lru_tail_ = p;
    }
  }
  void LruAppend(int index) {
    const size_t u = static_cast<size_t>(index);
    lru_prev_[u] = lru_tail_;
    lru_next_[u] = -1;
    if (lru_tail_ >= 0) {
      lru_next_[static_cast<size_t>(lru_tail_)] = static_cast<int8_t>(index);
    } else {
      lru_head_ = static_cast<int8_t>(index);
    }
    lru_tail_ = static_cast<int8_t>(index);
  }

  /// Walks L1D -> L2 -> L3 -> DRAM with one probe per level and fills
  /// every missed level (each level's set index computed once); returns
  /// 1/2/3/4 for the level that serviced the access (4 == DRAM).
  int WalkData(uint64_t line, bool is_store);
  /// Dirty L2 victim `line` goes to L3: marks it dirty there, or inserts
  /// it dirty (counting DRAM writeback bytes if that evicts a dirty line).
  void WriteBackToL3(uint64_t line);

  /// Slow-path re-check behind SetValidateFills: after a fill from
  /// `from_level`, the line must be resident in every level at or above it.
  void ValidateFill(uint64_t line, int from_level);

  /// Re-derives the per-event cycle costs that divide by the MLP hint.
  /// IEEE division of the same two operands always produces the same
  /// bits, so hoisting these quotients out of the access path (computed
  /// once per SetMlpHint instead of once per line) is bit-exact.
  void RecomputeMlpCosts();

  const MachineConfig config_;
  SetAssociativeCache l1d_;
  SetAssociativeCache l2_;
  LlcCache l3_;
  SetAssociativeCache dtlb_;
  SetAssociativeCache stlb_;

  std::array<uint64_t, kStreamTableEntries> stream_next_fwd_{};
  std::array<uint64_t, kStreamTableEntries> stream_next_bwd_{};
  std::array<uint64_t, kStreamTableEntries> stream_ts_{};
  std::array<uint32_t, kStreamTableEntries> stream_run_{};
  std::array<int8_t, kStreamTableEntries> stream_dir_{};
  std::array<uint8_t, kStreamTableEntries> stream_valid_{};
  std::array<uint8_t, kStreamTableEntries> stream_last_fill_dram_{};
  uint64_t stream_clock_ = 0;
  int matched_stream_ = -1;      ///< detector entry used by the last access
  bool newly_established_ = false;

  // --- fast-path acceleration state (never part of the modelled state) --
  StreamIndex stream_index_;
  uint32_t stream_valid_mask_ = 0;
  std::array<int8_t, kStreamTableEntries> lru_prev_ = kNoLinks;
  std::array<int8_t, kStreamTableEntries> lru_next_ = kNoLinks;
  int8_t lru_head_ = -1;
  int8_t lru_tail_ = -1;
  bool reference_paths_ = false;
  uint64_t memo_page_ = kNoPage;  ///< page of the previous data access
  uint64_t memo_dtlb_set_ = 0;    ///< its DTLB set and way
  uint32_t memo_dtlb_way_ = 0;
  FastPathStats fast_stats_;

  double mlp_hint_ = kMlpDefault;
  // Quotients of RecomputeMlpCosts (functions of mlp_hint_):
  double stlb_cost_ = 0;
  double page_walk_cost_ = 0;
  double chase_cost_ = 0;
  double l2_rand_cost_ = 0;
  double l3_rand_cost_ = 0;
  double dram_rand_cost_ = 0;
  // Fixed-divisor quotients, computed once in the constructor:
  double l2_seq_cov_cost_ = 0;
  double l2_seq_unc_cost_ = 0;
  double l3_seq_cov_cost_ = 0;
  double l3_seq_unc_cost_ = 0;
  double dram_l1s_cost_ = 0;
  double dram_nl_cost_ = 0;
  double dram_unc_cost_ = 0;
  double stream_startup_cost_ = 0;
  uint64_t page_shift_;
  bool validate_fills_ = false;
  uint64_t fill_containment_violations_ = 0;
  MemCounters counters_;
};

}  // namespace uolap::core

#endif  // UOLAP_CORE_MEMORY_SYSTEM_H_
