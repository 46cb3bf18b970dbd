#ifndef UOLAP_CORE_CACHE_H_
#define UOLAP_CORE_CACHE_H_

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/macros.h"

namespace uolap::core {

/// Result of a cache access.
struct CacheAccessResult {
  bool hit = false;
  /// Valid only when an insert evicted a line.
  bool evicted = false;
  bool evicted_dirty = false;
  uint64_t evicted_key = 0;
  /// Global way index (set * ways + way) the key now occupies. Valid after
  /// Insert/InsertAbsent/FillMiss; the translation memo caches it so
  /// repeated same-page accesses can replay the hit without a tag scan.
  uint64_t slot = 0;
};

/// A set-associative cache over abstract 64-bit keys with true-LRU
/// replacement and per-line dirty bits.
///
/// Keys are whatever granule the instantiation chooses: the data/instruction
/// caches key by line address (addr >> 6), the TLBs key by page number.
/// The memory system walks the hierarchy with `Probe`, which on a miss
/// also names the way a fill would take (the victim), decides where the
/// line came from, and then services each missed level with `FillMiss` —
/// one set index and one tag scan per level. `Access`/`Insert`/
/// `InsertAbsent` are the plain lookup and fills, used by the dirty-
/// writeback chains and tests; debug builds check every FillMiss victim
/// against the choice InsertAbsent would make.
///
/// This sits on the simulator's hottest path (one tag scan per simulated
/// line access, several per miss), so each set's metadata is interleaved
/// into one contiguous block of 16-byte {tag, ts} way records, and the
/// record array starts on a 64-byte boundary — a set of 4k ways occupies
/// exactly k host cache lines (five for Broadwell's 20-way L3). The
/// dirty bit lives in the tag's top bit (keys are line/page numbers
/// < 2^58, so key + 1 never reaches it).
/// Backing is calloc, whose zero pages the OS maps lazily: constructing
/// the L3 image costs nothing until its sets are actually touched. Two
/// lookup accelerators sit in front of the scan, both invisible to the
/// model (they change which probe finds a tag, never what is found):
///  - a per-set recently-used-way front slot (`mru_`), checked first —
///    hash-table probes hammer the same hot set/way repeatedly;
///  - a way-unrolled scan fallback that ORs four tag compares per step
///    (one branch per group instead of one per way).
/// Victim selection is a branch-free minimum-stamp select (conditional
/// moves, first way on ties), so a miss into a set with random LRU order
/// costs no mispredicted branch per way.
class SetAssociativeCache {
 public:
  /// `num_sets` and `ways` define the geometry; both must be >= 1.
  /// Power-of-two set counts index with a mask; others (sliced LLCs) use
  /// an exact multiply-shift reduction (see SetIndex).
  SetAssociativeCache(uint64_t num_sets, uint32_t ways);

  /// Looks up `key`. On a hit, promotes the line to MRU and (for stores)
  /// marks it dirty.
  bool Access(uint64_t key, bool is_store) {
    const uint64_t set = SetIndex(key);
    const int64_t i = FindInSet(set, key + 1);
    if (i < 0) {
      ++misses_;
      return false;
    }
    Promote(set, static_cast<uint64_t>(i), is_store);
    return true;
  }

  /// Outcome of Probe: where `key` is, or where a fill would put it.
  struct ProbeResult {
    bool hit = false;
    uint64_t set = 0;
    /// Global way index (set * ways + way): the way holding the key on a
    /// hit; on a miss the victim InsertAbsent(key) would pick right now.
    uint64_t way = 0;
  };

  /// Exactly Access(key, is_store) — same hit/miss count, dirty update and
  /// LRU stamp — that on a miss also selects the victim way, so the miss
  /// can be serviced by FillMiss without a second set index or scan.
  ProbeResult Probe(uint64_t key, bool is_store) {
    ProbeResult p;
    p.set = SetIndex(key);
    const int64_t i = FindInSet(p.set, key + 1);
    if (i < 0) {
      ++misses_;
      p.way = VictimIn(p.set);
      return p;
    }
    p.hit = true;
    p.way = static_cast<uint64_t>(i);
    Promote(p.set, p.way, is_store);
    return p;
  }

  /// Exactly InsertAbsent(key, dirty) for the key of a missed Probe,
  /// provided nothing has touched this cache since that probe: victim
  /// choice depends only on the set's stamps, which only this cache's own
  /// mutators change. The hierarchy walk guarantees it by filling each
  /// level straight after probing the levels below it.
  CacheAccessResult FillMiss(const ProbeResult& p, uint64_t key, bool dirty) {
    UOLAP_DCHECK(!p.hit && p.set == SetIndex(key) && Find(key) < 0);
    UOLAP_DCHECK(p.way == VictimIn(p.set));
    return FillWay(p.set, p.way, key, dirty);
  }

  /// Replays Access(key)'s hit path on a known-resident way (`slot` as
  /// reported by a prior Probe/Insert of the same key, with no
  /// intervening operation that could move or evict it): hit count and
  /// LRU stamp, bit for bit. The translation memo uses this to skip the
  /// set index + tag scan entirely on same-page runs; debug builds check
  /// that the way still holds `key`.
  void TouchHit(uint64_t slot, [[maybe_unused]] uint64_t key) {
    UOLAP_DCHECK(slot < num_sets_ * ways_ &&
                 (recs_[slot].tag & kTagMask) == key + 1);
    ++hits_;
    recs_[slot].ts = ++clock_;
  }

  /// Inserts `key` as MRU. Returns eviction information so the caller can
  /// propagate dirty writebacks down the hierarchy. Inserting a key that is
  /// already present just promotes it.
  CacheAccessResult Insert(uint64_t key, bool dirty);

  /// Insert for a key the caller has just proven absent (a failed Access,
  /// MarkDirty, or Contains on this cache with no intervening inserts):
  /// skips Insert's residency re-check but is otherwise exactly
  /// Insert(key, dirty).
  CacheAccessResult InsertAbsent(uint64_t key, bool dirty) {
    UOLAP_DCHECK(Find(key) < 0);
    const uint64_t set = SetIndex(key);
    return FillWay(set, VictimIn(set), key, dirty);
  }

  /// True if `key` is currently resident (no LRU update; used by tests).
  bool Contains(uint64_t key) const { return Find(key) >= 0; }

  /// Marks `key` dirty if resident. Returns whether it was resident.
  bool MarkDirty(uint64_t key) {
    const int64_t i = Find(key);
    if (i < 0) return false;
    recs_[static_cast<uint64_t>(i)].tag |= kDirtyBit;
    return true;
  }

  /// Invalidates `key` if resident; returns whether the line was dirty.
  bool Invalidate(uint64_t key, bool* was_dirty);

  /// Drops all contents (used between profile phases in tests).
  void Clear();

  uint64_t num_sets() const { return num_sets_; }
  uint32_t ways() const { return ways_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  void ResetStats() { hits_ = misses_ = 0; }

  // --- introspection (audit layer / tests; never on the hot path) -------

  /// Raw state of one way. `valid == false` means the way is empty, in
  /// which case `key` is meaningless.
  struct WayState {
    bool valid = false;
    bool dirty = false;
    uint64_t key = 0;
    uint64_t last_touch = 0;  ///< LRU stamp; 0 == never touched
  };
  WayState way_state(uint64_t set, uint32_t way) const {
    UOLAP_DCHECK(set < num_sets_ && way < ways_);
    const uint64_t i = set * ways_ + way;
    const uint64_t tag = recs_[i].tag & kTagMask;
    WayState s;
    s.valid = tag != 0;
    s.dirty = (recs_[i].tag & kDirtyBit) != 0;
    s.key = s.valid ? tag - 1 : 0;
    s.last_touch = recs_[i].ts;
    return s;
  }
  /// Current value of the per-cache LRU clock (every touch increments it).
  uint64_t lru_clock() const { return clock_; }
  /// The set `key` maps to (exposes SetIndex so the audit layer can verify
  /// that every resident tag lives in its home set).
  uint64_t SetOf(uint64_t key) const { return SetIndex(key); }

  /// Test-only corruption hook for the audit failure-path tests: overwrite
  /// one way's raw state, bypassing every invariant the normal mutators
  /// maintain. `raw_tag` is the key + 1 encoding (0 == invalid); the dirty
  /// flag is storable independently of validity, so the auditors can see
  /// an invalid-but-dirty way. Never called outside tests.
  void TestOnlySetWay(uint64_t set, uint32_t way, uint64_t raw_tag,
                      uint64_t ts, bool dirty) {
    UOLAP_CHECK(set < num_sets_ && way < ways_);
    UOLAP_CHECK(raw_tag < kDirtyBit);
    const uint64_t i = set * ways_ + way;
    recs_[i].tag = raw_tag | (dirty ? kDirtyBit : 0);
    recs_[i].ts = ts;
  }

 private:
  // State is one set-major array of 16-byte way records (set * ways + way):
  //  - tag packs the key + 1 in the low 63 bits, with 0 meaning "invalid
  //    way" (keys are line or page numbers < 2^58, so key + 1 never
  //    reaches the top bit), and the per-line dirty bit at bit 63;
  //  - ts stores the last-touch tick of the monotonic per-cache clock
  //    (0 == never touched). True LRU: every touch stamps a fresh tick and
  //    the victim is the minimum stamp in the set — invalid ways carry
  //    stamp 0 and therefore win victim selection automatically, with the
  //    same first-wins tie-break as an explicit invalid-way scan.
  // Interleaving tag/ts/dirty per set keeps a random set probe to a couple
  // of host cache lines; the layout is invisible to the model.
  // mru_ holds one global way index per set — the way last hit or filled
  // there. It always points inside its own set (initialized to way 0,
  // updated only by in-set mutators), so a front-slot tag match is always
  // a genuine residency hit; it is a pure accelerator and never part of
  // the modelled state.
  struct WayRec {
    uint64_t tag;
    uint64_t ts;
  };
  static constexpr uint64_t kDirtyBit = 1ull << 63;
  static constexpr uint64_t kTagMask = kDirtyBit - 1;
  static constexpr uintptr_t kHostLine = 64;

  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };
  template <typename T>
  using Array = std::unique_ptr<T[], FreeDeleter>;

  template <typename T>
  static Array<T> CallocArray(uint64_t n) {
    void* p = std::calloc(n, sizeof(T));
    UOLAP_CHECK_MSG(p != nullptr, "cache tag array allocation failed");
    return Array<T>(static_cast<T*>(p));
  }

  static uint64_t MulHi(uint64_t a, uint64_t b) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(a) * b) >> 64);
  }

  /// Set index of `key`. Power-of-two geometries (L1/L2/TLBs) use the fast
  /// mask; sliced LLCs like Broadwell's 35 MB L3 (28672 sets) reduce
  /// modulo num_sets without a hardware divide: with num_sets = odd << s,
  ///   key % num_sets == ((key >> s) % odd) << s | (key & (2^s - 1)),
  /// and the odd-part modulo uses a Granlund–Montgomery multiply-shift
  /// reciprocal, exact for every key the simulator can produce (verified
  /// against the error bound at construction, with a divide fallback).
  uint64_t SetIndex(uint64_t key) const {
    if (pow2_sets_) return key & set_mask_;
    const uint64_t q = key >> odd_shift_;
    const uint64_t quot = odd_fast_ ? MulHi(q, odd_magic_) : q / odd_;
    return ((q - quot * odd_) << odd_shift_) | (key & low_mask_);
  }

  /// Way index of `tag` (key + 1) within `set` if resident, else -1. This
  /// is the single hottest loop in the simulator: the recently-used-way
  /// front slot catches the common repeat, then groups of four tag
  /// compares are ORed so the fallback takes one predictable branch per
  /// group; a scalar tail pins down the exact (lowest) way.
  int64_t FindInSet(uint64_t set, uint64_t tag) const {
    const uint64_t front = mru_[set];
    if ((recs_[front].tag & kTagMask) == tag) {
      return static_cast<int64_t>(front);
    }
    const uint64_t base = set * ways_;
    uint32_t w = 0;
    for (; w + 4 <= ways_; w += 4) {
      const bool any = ((recs_[base + w].tag & kTagMask) == tag) |
                       ((recs_[base + w + 1].tag & kTagMask) == tag) |
                       ((recs_[base + w + 2].tag & kTagMask) == tag) |
                       ((recs_[base + w + 3].tag & kTagMask) == tag);
      if (any) break;
    }
    for (; w < ways_; ++w) {
      if ((recs_[base + w].tag & kTagMask) == tag) {
        return static_cast<int64_t>(base + w);
      }
    }
    return -1;
  }

  /// Line index of `key` if resident, else -1.
  int64_t Find(uint64_t key) const {
    return FindInSet(SetIndex(key), key + 1);
  }

  /// Access()'s hit effects on the resident global way `u` of `set`.
  void Promote(uint64_t set, uint64_t u, bool is_store) {
    ++hits_;
    if (is_store) recs_[u].tag |= kDirtyBit;
    recs_[u].ts = ++clock_;
    mru_[set] = static_cast<uint32_t>(u);
  }

  /// The fill victim of `set` as a global way index: the minimum stamp,
  /// first way on ties — so invalid ways (stamp 0) win in way order before
  /// any valid way, and otherwise this is true LRU. Conditional moves
  /// instead of a data-dependent branch per way.
  uint64_t VictimIn(uint64_t set) const {
    const WayRec* r = recs_ + set * ways_;
    uint32_t victim = 0;
    uint64_t victim_ts = r[0].ts;
    for (uint32_t w = 1; w < ways_; ++w) {
      const uint64_t ts = r[w].ts;
      const bool older = ts < victim_ts;
      victim = older ? w : victim;
      victim_ts = older ? ts : victim_ts;
    }
    return set * ways_ + victim;
  }

  /// Evicts global way `victim` of `set` and fills it with `key` as MRU.
  CacheAccessResult FillWay(uint64_t set, uint64_t victim, uint64_t key,
                            bool dirty) {
    CacheAccessResult result;
    const uint64_t victim_tag = recs_[victim].tag & kTagMask;
    if (victim_tag != 0) {
      result.evicted = true;
      result.evicted_dirty = (recs_[victim].tag & kDirtyBit) != 0;
      result.evicted_key = victim_tag - 1;
    }
    recs_[victim].tag = (key + 1) | (dirty ? kDirtyBit : 0);
    recs_[victim].ts = ++clock_;
    mru_[set] = static_cast<uint32_t>(victim);
    result.slot = victim;
    return result;
  }

  uint64_t num_sets_;
  uint32_t ways_;
  bool pow2_sets_;
  uint64_t set_mask_;
  // Non-power-of-two reduction state: num_sets_ == odd_ << odd_shift_.
  uint64_t odd_ = 1;
  uint64_t odd_magic_ = 0;
  uint64_t low_mask_ = 0;
  uint32_t odd_shift_ = 0;
  bool odd_fast_ = false;

  // recs_ points at the first 64-byte boundary inside recs_block_.
  Array<char> recs_block_;
  WayRec* recs_ = nullptr;
  Array<uint32_t> mru_;
  uint64_t clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace uolap::core

#endif  // UOLAP_CORE_CACHE_H_
