#ifndef UOLAP_ENGINE_HASH_TABLE_H_
#define UOLAP_ENGINE_HASH_TABLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "core/core.h"
#include "core/counters.h"
#include "storage/column_view.h"

namespace uolap::engine {

/// The instruction cost of one Mix64 hash (3 multiplies + shifts/xors).
/// Charged by every hash-table operation; this is the "costly hash
/// computation" behind the paper's Execution-stall findings for joins and
/// group-bys.
inline core::InstrMix HashInstrCost() {
  core::InstrMix m;
  m.mul = 3;
  m.alu = 6;
  return m;
}

/// Bucket-chain statistics; the paper quotes these for the group-by vs
/// hash-join comparison in Section 6 (chain irregularity causes the
/// group-by's extra collisions).
struct ChainStats {
  double mean = 0;
  double stddev = 0;
  uint64_t max = 0;
  uint64_t buckets = 0;
  uint64_t entries = 0;
};

namespace internal {
inline uint64_t NextPow2(uint64_t x) {
  uint64_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

template <typename Entry>
ChainStats ChainStatsOf(const storage::SimVector<int32_t>& heads,
                        const storage::SimVector<Entry>& entries) {
  ChainStats s;
  s.buckets = heads.size();
  s.entries = entries.size();
  double sum = 0, sum2 = 0;
  for (int32_t head : heads) {
    uint64_t len = 0;
    for (int32_t e = head; e >= 0; e = entries[static_cast<size_t>(e)].next) {
      ++len;
    }
    sum += static_cast<double>(len);
    sum2 += static_cast<double>(len) * static_cast<double>(len);
    s.max = std::max(s.max, len);
  }
  const double n = static_cast<double>(heads.size());
  s.mean = sum / n;
  s.stddev = std::sqrt(std::max(0.0, sum2 / n - s.mean * s.mean));
  return s;
}
}  // namespace internal

/// Chaining hash table for joins: int64 key -> int64 payload, duplicate
/// keys allowed. The layout (bucket head array + entry pool) matches the
/// Typer/Tectorwise design; every access is driven through the simulated
/// hierarchy via the Core passed per call (multi-core builds pass each
/// slice's own core, modelling a shared parallel build). Both arrays are
/// scratch placed on the constructing core (storage::SimVector).
class JoinHashTable {
 public:
  struct Entry {
    int64_t key;
    int64_t payload;
    int32_t next;
    int32_t pad;
  };

  /// `hash_shift` discards that many low hash bits before bucket
  /// indexing; a radix-partitioned join must pass its radix width here,
  /// since all keys of one partition share those low bits.
  JoinHashTable(core::Core& core, size_t expected_entries,
                uint32_t hash_shift = 0)
      : heads_(core, BucketCount(expected_entries)),
        entries_(core, 0, expected_entries),
        mask_(heads_.size() - 1),
        hash_shift_(hash_shift) {
    std::fill(heads_.data(), heads_.data() + heads_.size(), -1);
  }

  static uint64_t HashKey(int64_t key) {
    return Mix64(static_cast<uint64_t>(key));
  }
  uint64_t BucketOf(int64_t key) const {
    return (HashKey(key) >> hash_shift_) & mask_;
  }

  void Insert(core::Core& core, int64_t key, int64_t payload) {
    core.Retire(HashInstrCost());
    const uint64_t b = BucketOf(key);
    core.Load(heads_.At(b), sizeof(int32_t));
    Entry e;
    e.key = key;
    e.payload = payload;
    e.next = heads_[b];
    e.pad = 0;
    entries_.push_back(e);
    const int32_t idx = static_cast<int32_t>(entries_.size() - 1);
    core.Store(entries_.At(static_cast<size_t>(idx)), sizeof(Entry));
    core.Store(heads_.At(b), sizeof(int32_t));
    heads_[b] = idx;
    // Pointer swizzling / bookkeeping.
    core::InstrMix m;
    m.alu = 3;
    core.Retire(m);
  }

  /// Probes `key`; calls `on_match(payload)` for every match. Each
  /// chain-walk step branches at its own derived site (branch_site + step),
  /// as a real predictor would separate the static branch's per-iteration
  /// behaviour through history; deep-chain steps alias onto one site.
  /// The bucket->entry pointer chase is a serial dependency chain.
  template <typename F>
  int Probe(core::Core& core, uint32_t branch_site, int64_t key,
            F&& on_match) const {
    core::InstrMix hash = HashInstrCost();
    hash.chain_cycles = 5;  // hash -> bucket -> entry dependent chase
    core.Retire(hash);
    const uint64_t b = BucketOf(key);
    core.Load(heads_.At(b), sizeof(int32_t));
    int matches = 0;
    int32_t e = heads_[b];
    uint32_t step = 0;
    while (true) {
      const bool has = e >= 0;
      core.Branch(branch_site + std::min(step, 3u), has);
      ++step;
      if (!has) break;
      const Entry& entry = entries_[static_cast<size_t>(e)];
      core.Load(entries_.At(static_cast<size_t>(e)), 16);  // key + payload
      core::InstrMix m;
      m.alu = 2;  // compare + advance
      core.Retire(m);
      if (entry.key == key) {
        on_match(entry.payload);
        ++matches;
      }
      e = entry.next;
    }
    return matches;
  }

  /// Probe for tables with UNIQUE build keys (every FK join here): stops
  /// at the first match, the way compiled/vectorized engines emit FK
  /// probes. The match branch is well-predicted when most probes hit
  /// their first chain entry; mispredictions emerge from collisions.
  /// Returns true and sets *payload on a match.
  bool ProbeFirst(core::Core& core, uint32_t branch_site, int64_t key,
                  int64_t* payload) const {
    core::InstrMix hash = HashInstrCost();
    hash.chain_cycles = 5;
    core.Retire(hash);
    const uint64_t b = BucketOf(key);
    core.Load(heads_.At(b), sizeof(int32_t));
    int32_t e = heads_[b];
    uint32_t step = 0;
    while (true) {
      const bool has = e >= 0;
      core.Branch(branch_site + std::min(step, 3u), has);
      if (!has) return false;
      const Entry& entry = entries_[static_cast<size_t>(e)];
      core.Load(entries_.At(static_cast<size_t>(e)), 16);
      core::InstrMix m;
      m.alu = 2;
      core.Retire(m);
      const bool match = entry.key == key;
      core.Branch(branch_site + 4 + std::min(step, 3u), match);
      if (match) {
        if (payload != nullptr) *payload = entry.payload;
        return true;
      }
      e = entry.next;
      ++step;
    }
  }

  size_t num_entries() const { return entries_.size(); }
  uint64_t num_buckets() const { return mask_ + 1; }
  uint64_t mask() const { return mask_; }
  const storage::SimVector<int32_t>& heads() const { return heads_; }
  const storage::SimVector<Entry>& entries() const { return entries_; }
  /// Approximate resident bytes (for working-set discussions in benches).
  size_t MemoryBytes() const {
    return heads_.size() * sizeof(int32_t) + entries_.size() * sizeof(Entry);
  }

  ChainStats ComputeChainStats() const {
    return internal::ChainStatsOf(heads_, entries_);
  }

 private:
  static size_t BucketCount(size_t expected_entries) {
    return internal::NextPow2(std::max<uint64_t>(16, expected_entries * 2));
  }

  storage::SimVector<int32_t> heads_;
  storage::SimVector<Entry> entries_;
  uint64_t mask_;
  uint32_t hash_shift_;
};

/// Chaining hash table for aggregations: int64 group key -> NAGG int64
/// aggregate slots. Group-by tables see more collisions than join tables
/// (correlated keys), which the paper calls out in Section 6; that
/// behaviour is emergent here since real keys flow through the real hash.
template <int NAGG>
class AggHashTable {
 public:
  struct Entry {
    int64_t key;
    int32_t next;
    int32_t pad;
    int64_t aggs[NAGG];
  };

  /// `reserve_entries` pre-sizes the entry pool beyond `expected_groups`
  /// (which alone sizes the bucket array, so chain behaviour is
  /// unaffected). Both arrays are scratch placed on `core`.
  AggHashTable(core::Core& core, size_t expected_groups,
               size_t reserve_entries = 0)
      : heads_(core, internal::NextPow2(
                         std::max<uint64_t>(16, expected_groups * 2))),
        entries_(core, 0, std::max(expected_groups, reserve_entries)),
        mask_(heads_.size() - 1) {
    std::fill(heads_.data(), heads_.data() + heads_.size(), -1);
  }

  /// Finds the group entry for `key`, creating it (zero-initialized
  /// aggregates) if absent. Chain-walk branches go to per-step derived
  /// sites; the chase is a serial dependency. The returned pointer is
  /// valid until the next FindOrCreate.
  Entry* FindOrCreate(core::Core& core, uint32_t branch_site, int64_t key) {
    core::InstrMix hash = HashInstrCost();
    hash.chain_cycles = 5;
    core.Retire(hash);
    const uint64_t b =
        Mix64(static_cast<uint64_t>(key)) & mask_;
    core.Load(heads_.At(b), sizeof(int32_t));
    int32_t e = heads_[b];
    uint32_t step = 0;
    while (true) {
      const bool has = e >= 0;
      core.Branch(branch_site + std::min(step, 3u), has);
      ++step;
      if (!has) break;
      Entry& entry = entries_[static_cast<size_t>(e)];
      core.Load(entries_.At(static_cast<size_t>(e)), 12);  // key + next
      core::InstrMix m;
      m.alu = 2;
      core.Retire(m);
      if (entry.key == key) return &entry;
      e = entry.next;
    }
    Entry fresh;
    fresh.key = key;
    fresh.next = heads_[b];
    fresh.pad = 0;
    for (int i = 0; i < NAGG; ++i) fresh.aggs[i] = 0;
    entries_.push_back(fresh);
    const int32_t idx = static_cast<int32_t>(entries_.size() - 1);
    core.Store(entries_.At(static_cast<size_t>(idx)), sizeof(Entry));
    core.Store(heads_.At(b), sizeof(int32_t));
    heads_[b] = idx;
    return &entries_[static_cast<size_t>(idx)];
  }

  /// entry->aggs[slot] += delta, with the load-modify-store simulated.
  /// Consecutive updates of the same hot group serialize through
  /// store-to-load forwarding — the Execution-stall source behind the
  /// paper's Q1 analysis (low-cardinality group-by is core-bound).
  void Add(core::Core& core, Entry* entry, int slot, int64_t delta) {
    UOLAP_DCHECK(slot >= 0 && slot < NAGG);
    const uint64_t addr = entries_.At(static_cast<size_t>(
                              entry - entries_.data())) +
                          offsetof(Entry, aggs) +
                          static_cast<uint64_t>(slot) * sizeof(int64_t);
    core.Load(addr, 8);
    core.Store(addr, 8);
    entry->aggs[slot] += delta;
    core::InstrMix m;
    m.alu = 1;
    m.chain_cycles = 4;  // ~store-forward latency on the hot accumulator
    core.Retire(m);
  }

  const storage::SimVector<Entry>& entries() const { return entries_; }
  size_t num_groups() const { return entries_.size(); }
  size_t MemoryBytes() const {
    return heads_.size() * sizeof(int32_t) + entries_.size() * sizeof(Entry);
  }
  ChainStats ComputeChainStats() const {
    return internal::ChainStatsOf(heads_, entries_);
  }

 private:
  storage::SimVector<int32_t> heads_;
  storage::SimVector<Entry> entries_;
  uint64_t mask_;
};

}  // namespace uolap::engine

#endif  // UOLAP_ENGINE_HASH_TABLE_H_
