#ifndef UOLAP_CORE_PLACEMENT_H_
#define UOLAP_CORE_PLACEMENT_H_

#include <cstdint>
#include <unordered_map>  // uolap-analyze: allow(DET-UNORDERED-SIM) lookup-only map, never iterated
#include <vector>

#include "common/macros.h"

namespace uolap::core {

/// The simulated address space of one core: where every structure the
/// engines charge through the model sits, chosen by the simulator rather
/// than by malloc. Host allocations stay where they are; only the address
/// fed to the cache/TLB/prefetcher model is virtual. That makes counters a
/// pure function of the workload — independent of ASLR, allocator history,
/// argv length and thread scheduling.
///
/// Each core index owns the disjoint range [(index + 1) << 40,
/// (index + 2) << 40), handed out bump-style, 64-byte aligned, in
/// placement order. Two kinds of placement:
///  - `Fresh(bytes)`: scratch (hash tables, vectors, partitions, expression
///    trees). Every call gets a new range that is never handed out again,
///    so reuse of freed host memory cannot alias two placements.
///  - `Resident(host, bytes)`: data that outlives a run (database columns,
///    row-store pages, the engines' state arenas). Placed on first lookup,
///    then found again by host pointer. A cold path: callers look up once
///    per view, never per access.
/// A placement belongs to its core; only code running on that core's
/// behalf may place through it (the ForEach contract), so no locking.
class Placement {
 public:
  static constexpr uint64_t kAlign = 64;
  static constexpr int kRangeBits = 40;

  explicit Placement(uint32_t core_index)
      : base_((uint64_t{core_index} + 1) << kRangeBits), next_(base_) {
    UOLAP_CHECK_MSG(core_index < (1u << 20),
                    "core index outside the simulated address space");
  }

  /// A new, never-reused range of `bytes` (at least one line, so even an
  /// empty container has a distinct address).
  uint64_t Fresh(uint64_t bytes) {
    const uint64_t at = next_;
    const uint64_t span = (bytes + kAlign - 1) / kAlign * kAlign;
    next_ += span == 0 ? kAlign : span;
    UOLAP_CHECK_MSG(next_ - base_ <= (uint64_t{1} << kRangeBits),
                    "simulated address range of a core exhausted");
    return at;
  }

  /// The address of the long-lived object at `host`, placed on first use.
  uint64_t Resident(const void* host, uint64_t bytes) {
    auto [it, inserted] = resident_.try_emplace(host, Range{0, bytes});
    if (inserted) {
      it->second.addr = Fresh(bytes);
    } else {
      UOLAP_DCHECK(it->second.bytes == bytes);
    }
    return it->second.addr;
  }
  template <typename T>
  uint64_t Resident(const std::vector<T>& v) {
    return Resident(v.data(), v.size() * sizeof(T));
  }

  uint64_t begin() const { return base_; }
  uint64_t end() const { return base_ + (uint64_t{1} << kRangeBits); }

 private:
  struct Range {
    uint64_t addr;
    uint64_t bytes;
  };
  uint64_t base_;
  uint64_t next_;
  // Lookup only, never iterated: neither hash nor order reaches the model.
  std::unordered_map<const void*, Range> resident_;  // uolap-analyze: allow(DET-UNORDERED-SIM, DET-PTR-ORDER) lookup-only map, never iterated
};

}  // namespace uolap::core

#endif  // UOLAP_CORE_PLACEMENT_H_
