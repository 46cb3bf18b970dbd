#include "core/cache.h"

#include <cstdint>
#include <cstring>

namespace uolap::core {

namespace {
bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

SetAssociativeCache::SetAssociativeCache(uint64_t num_sets, uint32_t ways)
    : num_sets_(num_sets),
      ways_(ways),
      pow2_sets_(IsPowerOfTwo(num_sets)),
      set_mask_(num_sets - 1) {
  UOLAP_CHECK_MSG(num_sets >= 1, "num_sets must be positive");
  UOLAP_CHECK(ways >= 1);
  if (!pow2_sets_) {
    uint32_t shift = 0;
    while (((num_sets_ >> shift) & 1) == 0) ++shift;
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
  const uint64_t n = num_sets_ * ways_;
  // The front-slot array stores global way indices as uint32_t.
  UOLAP_CHECK_MSG(n <= UINT32_MAX, "cache geometry exceeds front-slot range");
  // Over-allocate by one host line and start the records on its boundary,
  // so a set of 4k ways occupies exactly k host lines. Still calloc: the
  // lazily zeroed pages are kept.
  recs_block_ = CallocArray<char>(n * sizeof(WayRec) + kHostLine);
  const uintptr_t raw = reinterpret_cast<uintptr_t>(recs_block_.get());
  recs_ = reinterpret_cast<WayRec*>((raw + kHostLine - 1) & ~(kHostLine - 1));
  UOLAP_CHECK(reinterpret_cast<uintptr_t>(recs_) % kHostLine == 0);
  mru_ = CallocArray<uint32_t>(num_sets_);
  for (uint64_t s = 0; s < num_sets_; ++s) {
    mru_[s] = static_cast<uint32_t>(s * ways_);
  }
}

CacheAccessResult SetAssociativeCache::Insert(uint64_t key, bool dirty) {
  const uint64_t set = SetIndex(key);
  const int64_t i = FindInSet(set, key + 1);
  if (i >= 0) {
    const uint64_t u = static_cast<uint64_t>(i);
    CacheAccessResult result;
    result.hit = true;
    if (dirty) recs_[u].tag |= kDirtyBit;
    recs_[u].ts = ++clock_;
    mru_[set] = static_cast<uint32_t>(u);
    result.slot = u;
    return result;
  }
  return FillWay(set, VictimIn(set), key, dirty);
}

bool SetAssociativeCache::Invalidate(uint64_t key, bool* was_dirty) {
  const int64_t i = Find(key);
  if (i < 0) {
    if (was_dirty != nullptr) *was_dirty = false;
    return false;
  }
  const uint64_t u = static_cast<uint64_t>(i);
  if (was_dirty != nullptr) *was_dirty = (recs_[u].tag & kDirtyBit) != 0;
  recs_[u].tag = 0;
  recs_[u].ts = 0;
  return true;
}

void SetAssociativeCache::Clear() {
  const uint64_t n = num_sets_ * ways_;
  std::memset(recs_, 0, n * sizeof(WayRec));
  for (uint64_t s = 0; s < num_sets_; ++s) {
    mru_[s] = static_cast<uint32_t>(s * ways_);
  }
  clock_ = 0;
}

}  // namespace uolap::core
