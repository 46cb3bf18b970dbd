#ifndef UOLAP_CORE_CACHE_H_
#define UOLAP_CORE_CACHE_H_

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/macros.h"

namespace uolap::core {

/// Result of a cache fill.
struct CacheAccessResult {
  bool hit = false;
  /// Valid only when an insert evicted a line.
  bool evicted = false;
  bool evicted_dirty = false;
  uint64_t evicted_key = 0;
};

/// Outcome of Probe: where `key` is, or where a fill would put it.
struct CacheProbe {
  bool hit = false;
  uint64_t set = 0;
  /// Way within `set`: the way holding the key on a hit; on a miss the
  /// victim InsertAbsent(key) would pick right now.
  uint32_t way = 0;
  /// The key's stored tag (its set quotient + 1), so FillMiss need not
  /// recompute it.
  uint64_t tag = 0;
};

/// Raw state of one way (audit layer / tests; never on the hot path).
struct CacheWayState {
  bool valid = false;  ///< false: the way is empty and `key` meaningless
  bool dirty = false;
  uint64_t key = 0;
  /// Recency rank: 0 is the most recently used way, k - 1 the least
  /// recently used of a set's k valid ways; -1 for a rank-empty way.
  int rank = -1;
};

/// A set-associative cache over abstract 64-bit keys with true-LRU
/// replacement and per-line dirty bits, storing each key as a `Tag`.
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
/// line access, several per miss), so all of a set's metadata lives in one
/// 64-byte-aligned block (layout below): a 20-way L3 set with 32-bit tags
/// is two host lines. Tags are `key / num_sets + 1` — the quotient the set
/// index already computes — so a tag decodes only to keys of its own set.
/// A lookup checks the front slot (the way last hit or filled), then
/// compares the tag row 16 bytes at a time; a touch ages the younger ways
/// with one byte compare-and-add over the rank row; the victim is the
/// first way whose rank marks it invalid or LRU. All of it is SSE2-width
/// vector code and all of it is invisible to the model.
///
/// `LlcCache` (32-bit tags) is the L3: its quotient fits 32 bits for every
/// key the placed address space produces, and a lookup aborts rather than
/// alias if one does not. The L1s, L2 and TLBs keep 64-bit tags: they fit
/// the host caches either way, and a 64-set L1 keyed by host pointers or
/// by the placed ranges of higher core indices overflows 32 bits.
/// Backing is calloc, whose zero pages the OS maps lazily, and all-zero
/// memory is the empty set: constructing the L3 image costs nothing until
/// its sets are actually touched.
template <typename Tag>
class BasicSetAssociativeCache {
  static_assert(std::is_same_v<Tag, uint32_t> || std::is_same_v<Tag, uint64_t>);

 public:
  /// `num_sets` and `ways` define the geometry: num_sets >= 1 and
  /// 1 <= ways <= 32. Power-of-two set counts index with a mask; others
  /// (sliced LLCs) use an exact multiply-shift reduction (see Locate).
  BasicSetAssociativeCache(uint64_t num_sets, uint32_t ways);

  /// Looks up `key`. On a hit, promotes the line to MRU and (for stores)
  /// marks it dirty.
  bool Access(uint64_t key, bool is_store) {
    const Loc l = Locate(key);
    char* b = Block(l.set);
    const int i = FindInBlock(b, l.tag);
    if (i < 0) {
      ++misses_;
      return false;
    }
    Promote(b, static_cast<uint32_t>(i), is_store);
    return true;
  }

  /// Exactly Access(key, is_store) — same hit/miss count, dirty update and
  /// LRU order — that on a miss also selects the victim way, so the miss
  /// can be serviced by FillMiss without a second set index or scan.
  CacheProbe Probe(uint64_t key, bool is_store) {
    const Loc l = Locate(key);
    char* b = Block(l.set);
    CacheProbe p;
    p.set = l.set;
    p.tag = l.tag;
    const int i = FindInBlock(b, l.tag);
    if (i < 0) {
      ++misses_;
      p.way = VictimIn(b);
      return p;
    }
    p.hit = true;
    p.way = static_cast<uint32_t>(i);
    Promote(b, p.way, is_store);
    return p;
  }

  /// Exactly InsertAbsent(key, dirty) for the key of a missed Probe,
  /// provided nothing has touched this cache since that probe: victim
  /// choice depends only on the set's ranks, which only this cache's own
  /// mutators change. The hierarchy walk guarantees it by filling each
  /// level straight after probing the levels below it.
  CacheAccessResult FillMiss(const CacheProbe& p,
                             [[maybe_unused]] uint64_t key, bool dirty) {
    UOLAP_DCHECK(!p.hit && p.set == Locate(key).set &&
                 p.tag == Locate(key).tag && !Contains(key));
    char* b = Block(p.set);
    UOLAP_DCHECK(p.way == VictimIn(b));
    return FillWay(p.set, b, p.way, static_cast<Tag>(p.tag), dirty);
  }

  /// Replays Access(key)'s hit path on a known-resident way (`set`/`way`
  /// as reported by a prior Probe of the same key, with no intervening
  /// operation that could move or evict it): hit count and LRU order, bit
  /// for bit. The translation memo uses this to skip the set index + tag
  /// scan entirely on same-page runs; debug builds check that the way
  /// still holds `key`.
  void TouchHit(uint64_t set, uint32_t way, [[maybe_unused]] uint64_t key) {
    UOLAP_DCHECK(set < num_sets_ && way < ways_ && Locate(key).set == set &&
                 TagAt(Block(set), way) == Locate(key).tag);
    ++hits_;
    Touch(Block(set), way);
  }

  /// Asks the host to bring the set block `key` maps to into its caches,
  /// for a lookup of `key` that follows later. A host hint only: no hit or
  /// miss count, LRU rank or way changes. It computes the set and never
  /// the tag, so a key whose quotient overflows the tag is fine too
  /// (Locate aborts on those). Keys are line or page numbers (< 2^58),
  /// the range the multiply-shift set reduction is exact for.
  void PrefetchSet(uint64_t key) const {
    uint64_t quot;
    const uint64_t set = SetOf(key, &quot);
    UOLAP_DCHECK(set < num_sets_);
    const char* b = Block(set);
    for (uint64_t off = 0; off < block_bytes_; off += kHostLine) {
      __builtin_prefetch(b + off);
    }
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
    UOLAP_DCHECK(!Contains(key));
    const Loc l = Locate(key);
    char* b = Block(l.set);
    return FillWay(l.set, b, VictimIn(b), l.tag, dirty);
  }

  /// True if `key` is currently resident (no LRU update; used by tests).
  bool Contains(uint64_t key) const {
    const Loc l = Locate(key);
    return FindInBlock(Block(l.set), l.tag) >= 0;
  }

  /// Marks `key` dirty if resident. Returns whether it was resident.
  bool MarkDirty(uint64_t key) {
    const Loc l = Locate(key);
    char* b = Block(l.set);
    const int i = FindInBlock(b, l.tag);
    if (i < 0) return false;
    SetDirty(b, static_cast<uint32_t>(i));
    return true;
  }

  uint64_t num_sets() const { return num_sets_; }
  uint32_t ways() const { return ways_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  // --- introspection (audit layer / tests; never on the hot path) -------

  CacheWayState way_state(uint64_t set, uint32_t way) const;

  /// Test-only corruption hook for the audit failure-path tests: overwrite
  /// one way's raw state, bypassing every invariant the normal mutators
  /// maintain. `raw_tag` is the stored tag (key / num_sets + 1, 0 ==
  /// invalid) and `rank` the recency rank (-1 == rank-empty); validity,
  /// rank and dirty flag are storable independently, so the auditors can
  /// see an invalid-but-dirty way or duplicate and out-of-range ranks.
  /// Never called outside tests.
  void TestOnlySetWay(uint64_t set, uint32_t way, uint64_t raw_tag, int rank,
                      bool dirty);

 private:
  // Set block layout (offsets in bytes; the block is a whole number of
  // 64-byte host lines and starts on a line boundary):
  //   0   int8 rank[32]: 0 == invalid way, kMru == most recently used; the
  //       k valid ways of a set hold kMru - k + 1 .. kMru, so the LRU way
  //       of a full set holds 33 - ways. Padding ways beyond `ways` stay 0.
  //   32  uint32 dirty mask, bit w for way w.
  //   36  uint8 front slot: the way last hit or filled. Always inside the
  //       set (calloc starts it at way 0), so a front-slot tag match is a
  //       genuine residency hit; an accelerator, never modelled state.
  //   48  Tag tag[ways], 0 == invalid, padded with zero tags to 16 bytes.
  // Rank-encoded true LRU: a touch of way w with rank r decrements every
  // rank above r and gives w kMru, so ranks of valid ways stay a dense
  // permutation ending at kMru and invalid ways keep 0. Below the
  // threshold 34 - ways lies exactly one way of a full set (its LRU) and
  // every invalid way of a partial one (valid ranks are then all higher),
  // so the first way below it is the first invalid way, else true LRU.
  static constexpr uint32_t kMaxWays = 32;
  static constexpr int8_t kMru = 32;
  static constexpr size_t kRankOff = 0;
  static constexpr size_t kDirtyOff = 32;
  static constexpr size_t kFrontOff = 36;
  static constexpr size_t kTagOff = 48;
  static constexpr size_t kChunk = 16;
  static constexpr uint32_t kLanes = kChunk / sizeof(Tag);
  static constexpr uintptr_t kHostLine = 64;

  typedef int8_t V16i8 __attribute__((vector_size(16)));
  typedef uint32_t V4u __attribute__((vector_size(16)));
  typedef Tag VTag __attribute__((vector_size(16)));

  /// One bit per byte of `m` (its top bit): SSE2 pmovmskb, or a portable
  /// loop elsewhere.
  static uint32_t ByteMask(V16i8 m) {
#if defined(__SSE2__)
    return static_cast<uint32_t>(
        _mm_movemask_epi8(std::bit_cast<__m128i>(m)));
#else
    uint32_t r = 0;
    for (int i = 0; i < 16; ++i) r |= (m[i] < 0 ? 1u : 0u) << i;
    return r;
#endif
  }
  template <typename V>
  static V Load(const char* p) {
    V v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  template <typename V>
  static void Store(char* p, V v) {
    std::memcpy(p, &v, sizeof(v));
  }

  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };

  static uint64_t MulHi(uint64_t a, uint64_t b) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(a) * b) >> 64);
  }

  struct Loc {
    uint64_t set;
    Tag tag;
  };

  /// Set and tag of `key`. The tag is the quotient key / num_sets, + 1.
  /// Power-of-two geometries (L1/L2/TLBs) use a mask and a shift; sliced
  /// LLCs like Broadwell's 35 MB L3 (28672 sets) divide without a
  /// hardware divide: with num_sets = odd << s, the quotient is
  /// (key >> s) / odd and
  ///   key % num_sets == ((key >> s) % odd) << s | (key & (2^s - 1)),
  /// and the odd-part quotient uses a Granlund–Montgomery multiply-shift
  /// reciprocal, exact for every key the simulator can produce (verified
  /// against the error bound at construction, with a divide fallback).
  Loc Locate(uint64_t key) const {
    uint64_t quot;
    const uint64_t set = SetOf(key, &quot);
    if constexpr (sizeof(Tag) < sizeof(uint64_t)) {
      UOLAP_CHECK_MSG(quot < std::numeric_limits<Tag>::max(),
                      "key outside the cache's tag range");
    } else {
      UOLAP_DCHECK(quot < std::numeric_limits<Tag>::max());
    }
    return {set, static_cast<Tag>(quot + 1)};
  }

  /// The set of `key`, and its quotient key / num_sets in `*quot`, with no
  /// tag-range check (Locate adds it; PrefetchSet needs only the set).
  uint64_t SetOf(uint64_t key, uint64_t* quot) const {
    if (pow2_sets_) {
      *quot = key >> set_shift_;
      return key & set_mask_;
    }
    const uint64_t q = key >> odd_shift_;
    *quot = odd_fast_ ? MulHi(q, odd_magic_) : q / odd_;
    return ((q - *quot * odd_) << odd_shift_) | (key & low_mask_);
  }

  char* Block(uint64_t set) const { return blocks_ + set * block_bytes_; }
  static int8_t RankAt(const char* b, uint32_t way) {
    return static_cast<int8_t>(b[kRankOff + way]);
  }
  static Tag TagAt(const char* b, uint32_t way) {
    Tag t;
    std::memcpy(&t, b + kTagOff + way * sizeof(Tag), sizeof(t));
    return t;
  }
  static void SetTag(char* b, uint32_t way, Tag tag) {
    std::memcpy(b + kTagOff + way * sizeof(Tag), &tag, sizeof(tag));
  }
  static uint32_t DirtyMask(const char* b) {
    uint32_t m;
    std::memcpy(&m, b + kDirtyOff, sizeof(m));
    return m;
  }
  static void SetDirtyMask(char* b, uint32_t m) {
    std::memcpy(b + kDirtyOff, &m, sizeof(m));
  }
  static void SetDirty(char* b, uint32_t way) {
    SetDirtyMask(b, DirtyMask(b) | 1u << way);
  }
  uint64_t KeyOf(uint64_t set, Tag tag) const {
    return (static_cast<uint64_t>(tag) - 1) * num_sets_ + set;
  }

  /// Way of `tag` in block `b` if resident, else -1. This is the single
  /// hottest loop in the simulator: the front slot catches the common
  /// repeat, then the tag row is compared 16 bytes at a time (tags are
  /// never 0, so padding never matches; tags are distinct within a set).
  int FindInBlock(const char* b, Tag tag) const {
    const uint32_t front = static_cast<uint8_t>(b[kFrontOff]);
    if (TagAt(b, front) == tag) return static_cast<int>(front);
    // Compared as 32-bit lanes (SSE2 has no 64-bit pcmpeq, and GCC would
    // scalarize one); a 64-bit way matches when both of its halves do.
    const V4u want = std::bit_cast<V4u>(VTag{} + tag);
    for (uint32_t c = 0; c < tag_chunks_; ++c) {
      const V4u row = Load<V4u>(b + kTagOff + c * kChunk);
      uint32_t m = ByteMask(std::bit_cast<V16i8>(row == want));
      if constexpr (sizeof(Tag) == 8) m &= (m >> 4) & 0x0F0Fu;
      if (m != 0) {
        return static_cast<int>(c * kLanes +
                                static_cast<uint32_t>(std::countr_zero(m)) /
                                    sizeof(Tag));
      }
    }
    return -1;
  }

  /// Makes `way` the MRU: every younger way ages by one rank (a compare
  /// and add over the rank row; the compare yields -1 where true). A no-op
  /// when `way` already is the MRU.
  static void Touch(char* b, uint32_t way) {
    const int8_t r = RankAt(b, way);
    if (r == kMru) return;
    const V16i8 rv = V16i8{} + r;
    V16i8 lo = Load<V16i8>(b + kRankOff);
    V16i8 hi = Load<V16i8>(b + kRankOff + 16);
    lo += (lo > rv);
    hi += (hi > rv);
    Store(b + kRankOff, lo);
    Store(b + kRankOff + 16, hi);
    b[kRankOff + way] = kMru;
  }

  /// Access()'s hit effects on resident way `way` of block `b`.
  void Promote(char* b, uint32_t way, bool is_store) {
    ++hits_;
    if (is_store) SetDirty(b, way);
    Touch(b, way);
    b[kFrontOff] = static_cast<char>(way);
  }

  /// The fill victim of block `b`: the first way ranked below 34 - ways —
  /// the first invalid way, else the true-LRU way.
  uint32_t VictimIn(const char* b) const {
    const V16i8 th = V16i8{} + static_cast<int8_t>(kMru + 2 - ways_);
    const uint32_t m = (ByteMask(Load<V16i8>(b + kRankOff) < th) |
                        ByteMask(Load<V16i8>(b + kRankOff + 16) < th) << 16) &
                       way_mask_;
    UOLAP_DCHECK(m != 0);
    return static_cast<uint32_t>(std::countr_zero(m));
  }

  /// Evicts way `way` of block `b` (set `set`) and fills it with `tag` as
  /// MRU.
  CacheAccessResult FillWay(uint64_t set, char* b, uint32_t way, Tag tag,
                            bool dirty) {
    CacheAccessResult result;
    const Tag old = TagAt(b, way);
    const uint32_t dirty_mask = DirtyMask(b);
    if (old != 0) {
      result.evicted = true;
      result.evicted_dirty = (dirty_mask >> way & 1) != 0;
      result.evicted_key = KeyOf(set, old);
    }
    SetTag(b, way, tag);
    SetDirtyMask(b, (dirty_mask & ~(1u << way)) |
                        static_cast<uint32_t>(dirty) << way);
    Touch(b, way);
    b[kFrontOff] = static_cast<char>(way);
    return result;
  }

  uint64_t num_sets_;
  uint32_t ways_;
  uint32_t way_mask_;     ///< low `ways_` bits
  uint32_t tag_chunks_;   ///< 16-byte chunks of the tag row
  uint64_t block_bytes_;  ///< bytes per set block, a multiple of 64
  bool pow2_sets_;
  uint64_t set_mask_;
  uint32_t set_shift_ = 0;
  // Non-power-of-two reduction state: num_sets_ == odd_ << odd_shift_.
  uint64_t odd_ = 1;
  uint64_t odd_magic_ = 0;
  uint64_t low_mask_ = 0;
  uint32_t odd_shift_ = 0;
  bool odd_fast_ = false;

  // blocks_ points at the first 64-byte boundary inside storage_.
  std::unique_ptr<char[], FreeDeleter> storage_;
  char* blocks_ = nullptr;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

extern template class BasicSetAssociativeCache<uint32_t>;
extern template class BasicSetAssociativeCache<uint64_t>;

/// The L1D/L2/DTLB/STLB: 64-bit tags.
using SetAssociativeCache = BasicSetAssociativeCache<uint64_t>;
/// The L3: 32-bit tags, two host lines per 20-way set.
using LlcCache = BasicSetAssociativeCache<uint32_t>;

}  // namespace uolap::core

#endif  // UOLAP_CORE_CACHE_H_
