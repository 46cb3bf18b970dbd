#include "core/cache.h"

#include <cstdint>

namespace uolap::core {

namespace {
bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

template <typename Tag>
BasicSetAssociativeCache<Tag>::BasicSetAssociativeCache(uint64_t num_sets,
                                                        uint32_t ways)
    : num_sets_(num_sets),
      ways_(ways),
      way_mask_(ways >= 32 ? ~0u : (1u << ways) - 1),
      tag_chunks_(static_cast<uint32_t>((ways * sizeof(Tag) + kChunk - 1) /
                                        kChunk)),
      block_bytes_((kTagOff + tag_chunks_ * kChunk + kHostLine - 1) /
                   kHostLine * kHostLine),
      pow2_sets_(IsPowerOfTwo(num_sets)),
      set_mask_(num_sets - 1) {
  UOLAP_CHECK_MSG(num_sets >= 1, "num_sets must be positive");
  UOLAP_CHECK_MSG(ways >= 1 && ways <= kMaxWays,
                  "associativity outside the set block's 1..32 ways");
  if (pow2_sets_) {
    set_shift_ = static_cast<uint32_t>(std::countr_zero(num_sets_));
  } else {
    const uint32_t shift = static_cast<uint32_t>(std::countr_zero(num_sets_));
    odd_shift_ = shift;
    odd_ = num_sets_ >> shift;
    low_mask_ = (1ull << shift) - 1;
    // floor(2^64 / odd) + 1; exact quotient via MulHi for every
    // q < 2^64 / e where e = magic * odd - 2^64 (Granlund–Montgomery).
    // Keys are line addresses (< 2^58) or page numbers, so requiring the
    // bound to cover 2^58 is sufficient; fall back to a divide otherwise.
    odd_magic_ = ~0ull / odd_ + 1;
    const unsigned __int128 e =
        static_cast<unsigned __int128>(odd_magic_) * odd_ -
        (static_cast<unsigned __int128>(1) << 64);
    odd_fast_ =
        e != 0 && ((static_cast<unsigned __int128>(1) << 64) / e) >=
                      (static_cast<unsigned __int128>(1) << 58);
  }
  // Over-allocate by one host line and start the blocks on its boundary.
  // Still calloc: the lazily zeroed pages are kept, and zero is empty.
  void* p = std::calloc(num_sets_ * block_bytes_ + kHostLine, 1);
  UOLAP_CHECK_MSG(p != nullptr, "cache set block allocation failed");
  storage_.reset(static_cast<char*>(p));
  const uintptr_t raw = reinterpret_cast<uintptr_t>(p);
  blocks_ = static_cast<char*>(p) +
            (((raw + kHostLine - 1) & ~(kHostLine - 1)) - raw);
}

template <typename Tag>
CacheAccessResult BasicSetAssociativeCache<Tag>::Insert(uint64_t key,
                                                        bool dirty) {
  const Loc l = Locate(key);
  char* b = Block(l.set);
  const int i = FindInBlock(b, l.tag);
  if (i < 0) return FillWay(l.set, b, VictimIn(b), l.tag, dirty);
  const uint32_t way = static_cast<uint32_t>(i);
  if (dirty) SetDirty(b, way);
  Touch(b, way);
  b[kFrontOff] = static_cast<char>(way);
  CacheAccessResult result;
  result.hit = true;
  return result;
}

template <typename Tag>
CacheWayState BasicSetAssociativeCache<Tag>::way_state(uint64_t set,
                                                       uint32_t way) const {
  UOLAP_CHECK(set < num_sets_ && way < ways_);
  const char* b = Block(set);
  const Tag tag = TagAt(b, way);
  const int8_t r = RankAt(b, way);
  CacheWayState s;
  s.valid = tag != 0;
  s.dirty = (DirtyMask(b) >> way & 1) != 0;
  s.key = s.valid ? KeyOf(set, tag) : 0;
  s.rank = r == 0 ? -1 : kMru - r;
  return s;
}

template <typename Tag>
void BasicSetAssociativeCache<Tag>::TestOnlySetWay(uint64_t set, uint32_t way,
                                                   uint64_t raw_tag, int rank,
                                                   bool dirty) {
  UOLAP_CHECK(set < num_sets_ && way < ways_);
  UOLAP_CHECK(raw_tag <= std::numeric_limits<Tag>::max());
  UOLAP_CHECK(rank >= -1 && rank < kMru);
  char* b = Block(set);
  SetTag(b, way, static_cast<Tag>(raw_tag));
  b[kRankOff + way] = static_cast<char>(rank < 0 ? 0 : kMru - rank);
  SetDirtyMask(b, (DirtyMask(b) & ~(1u << way)) |
                      static_cast<uint32_t>(dirty) << way);
}

template class BasicSetAssociativeCache<uint32_t>;
template class BasicSetAssociativeCache<uint64_t>;

}  // namespace uolap::core
