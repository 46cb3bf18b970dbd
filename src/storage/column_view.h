#ifndef UOLAP_STORAGE_COLUMN_VIEW_H_
#define UOLAP_STORAGE_COLUMN_VIEW_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "core/core.h"

namespace uolap::storage {

/// A host element pointer paired with the simulated address of the same
/// element (see core/placement.h). Values are read and written through
/// `host`; accesses are charged at `addr`. Pointer arithmetic moves both.
template <typename T>
struct SimPtr {
  T* host = nullptr;
  uint64_t addr = 0;

  SimPtr() = default;
  SimPtr(T* h, uint64_t a) : host(h), addr(a) {}
  /// A pointer to mutable elements converts to one to const elements.
  template <typename U,
            typename = std::enable_if_t<std::is_same_v<const U, T>>>
  SimPtr(SimPtr<U> p) : host(p.host), addr(p.addr) {}

  SimPtr operator+(size_t i) const { return {host + i, At(i)}; }
  T& operator[](size_t i) const { return host[i]; }
  /// Simulated address of element i.
  uint64_t At(size_t i) const { return addr + i * sizeof(T); }
};

/// Host data plus simulated address of the long-lived column `v` on
/// `core` (placed on first use, see core::Placement::Resident).
template <typename T>
SimPtr<const T> Resident(const std::vector<T>& v, core::Core& core) {
  return {v.data(), core.placement().Resident(v)};
}

/// A read-only view over a column that drives every element access through
/// the simulated memory hierarchy. This is the engines' standard way of
/// touching base data: `view.Get(i)` performs the real read (so results
/// are real) *and* the simulated cache/TLB/prefetcher access (so counters
/// are real too).
///
/// The column is long-lived data: the view looks up its simulated address
/// in the core's placement once, at construction (placing it on first
/// use), and charges element i at that address plus i * sizeof(T).
///
/// Sequential scans should use the batched range API instead of per-element
/// `Get`: `Touch(i, count)` charges a run of elements through
/// `Core::LoadRange` (one simulated line walk per cache line, bulk L1 hits
/// for the element repeats — counter-equivalent to the per-element path),
/// after which the values are read with `GetRaw`. `ForRange`/`Sum` bundle
/// the two steps for the common cases.
template <typename T>
class ColumnView {
 public:
  ColumnView(const std::vector<T>& data, core::Core* core)
      : data_(data.data()),
        size_(data.size()),
        addr_(core->placement().Resident(data)),
        core_(core) {}

  T Get(size_t i) const {
    UOLAP_DCHECK(i < size_);
    core_->Load(At(i), sizeof(T));
    return data_[i];
  }

  /// Raw (unsimulated) read, for setup/verification code paths only —
  /// or for values already charged via `Touch`/`ForRange`.
  T GetRaw(size_t i) const {
    UOLAP_DCHECK(i < size_);
    return data_[i];
  }

  /// Charges the sequential element run [i, i + count) in one batched
  /// range access. Each view keeps its own `SeqCursor`, so interleaving
  /// several views' runs in one scan loop stays exact per column.
  void Touch(size_t i, size_t count) const {
    UOLAP_DCHECK(i + count <= size_);
    core_->LoadRange(cursor_, At(i), sizeof(T), count);
  }

  /// Batched `fn(element)` over [begin, end).
  template <typename Fn>
  void ForRange(size_t begin, size_t end, Fn&& fn) const {
    UOLAP_DCHECK(begin <= end && end <= size_);
    if (begin >= end) return;
    core_->LoadRange(cursor_, At(begin), sizeof(T), end - begin);
    for (size_t i = begin; i < end; ++i) fn(data_[i]);
  }

  /// Batched sum over [begin, end), accumulated in int64.
  int64_t Sum(size_t begin, size_t end) const {
    int64_t acc = 0;
    ForRange(begin, end, [&acc](T v) { acc += static_cast<int64_t>(v); });
    return acc;
  }

  /// Simulated address of element i.
  uint64_t At(size_t i) const { return addr_ + i * sizeof(T); }
  size_t size() const { return size_; }

 private:
  const T* data_;
  size_t size_;
  uint64_t addr_;
  core::Core* core_;
  mutable core::SeqCursor cursor_;
};

/// A growable array of engine scratch (hash-table pools, materialized
/// vectors, selection vectors, partitions) with a simulated address of
/// its own. Placed fresh on the core that constructs it — never looked up
/// by host pointer, so malloc's reuse of freed memory cannot leak into
/// the model — and charged by index: element i is at `At(i)` whatever the
/// host vector does, so a host reallocation never moves a simulated
/// address. Growing past the reserved capacity places a new range of
/// twice the size, the simulated counterpart of a vector reallocation; it
/// happens at the same element in every run.
///
/// Charging goes through whichever core the caller names, so a container
/// placed on one core may be shared read-only by all workers.
template <typename T>
class SimVector {
 public:
  /// `n` value-initialized elements with room for `capacity` (at least
  /// `n`) before the simulated range grows.
  SimVector(core::Core& core, size_t n, size_t capacity = 0)
      : placement_(&core.placement()), data_(n) {
    Reserve(std::max(n, capacity));
  }

  void push_back(const T& v) {
    if (data_.size() == reserved_) {
      Reserve(std::max<size_t>(16, 2 * reserved_));
    }
    data_.push_back(v);
  }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  typename std::vector<T>::const_iterator begin() const {
    return data_.begin();
  }
  typename std::vector<T>::const_iterator end() const { return data_.end(); }

  /// Simulated address of element i.
  uint64_t At(size_t i) const { return addr_ + i * sizeof(T); }
  SimPtr<T> ptr() { return {data_.data(), addr_}; }

 private:
  void Reserve(size_t elems) {
    data_.reserve(elems);
    reserved_ = elems;
    addr_ = placement_->Fresh(elems * sizeof(T));
  }

  core::Placement* placement_;
  std::vector<T> data_;
  size_t reserved_ = 0;
  uint64_t addr_ = 0;
};

}  // namespace uolap::storage

#endif  // UOLAP_STORAGE_COLUMN_VIEW_H_
