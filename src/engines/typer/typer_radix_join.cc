// Radix-partitioned hash join for the large join micro-benchmark: the
// classical answer (Manegold, Boncz & Kersten [20] in the paper's
// references) to the random-access problem the paper diagnoses in
// Section 5. Both sides are hash-partitioned in sequential passes until
// each partition's hash table fits the cache; the per-partition joins then
// probe cache-resident tables.
//
// Micro-architecturally this trades the chaining join's long-latency
// random DRAM probes for extra sequential traffic (the partitioning
// passes) — it should move the join from latency-bound Dcache stalls
// toward bandwidth-bound behaviour, the same "assign compute and memory
// deliberately" lever the paper's conclusion calls for.

#include <algorithm>
#include <vector>

#include "common/macros.h"
#include "core/calibration.h"
#include "engine/hash_table.h"
#include "engines/typer/typer_engine.h"
#include "storage/column_view.h"

namespace uolap::typer {

using core::InstrMix;
using engine::JoinHashTable;
using engine::PartitionRange;
using engine::RowRange;
using engine::Workers;
using storage::ColumnView;
using storage::SimVector;
using tpch::Money;

namespace {

/// One partitioned tuple of the build side (orderkey only) or the probe
/// side (orderkey + the 4-column sum payload).
struct BuildTuple {
  int64_t key;
};
struct ProbeTuple {
  int64_t key;
  int64_t payload_sum;
};

uint32_t PartitionOf(int64_t key, uint32_t radix_bits) {
  return static_cast<uint32_t>(JoinHashTable::HashKey(key) &
                               ((1u << radix_bits) - 1));
}

/// `parts` empty partitions on `core`, each with room for `reserve`.
template <typename Tuple>
std::vector<SimVector<Tuple>> MakePartitions(core::Core& core, uint32_t parts,
                                             size_t reserve) {
  std::vector<SimVector<Tuple>> out;
  out.reserve(parts);
  for (uint32_t p = 0; p < parts; ++p) out.emplace_back(core, 0, reserve);
  return out;
}

}  // namespace

Money TyperEngine::JoinLargeRadix(Workers& w, uint32_t radix_bits) const {
  UOLAP_CHECK(radix_bits >= 1 && radix_bits <= 14);
  const auto& ord = db_.orders;
  const auto& l = db_.lineitem;
  const uint32_t parts = 1u << radix_bits;

  Money total = 0;
  // Each worker radix-joins its own probe slice against its own partition
  // of the (replicated-partitioning) build side; results are exact since
  // the probe side is partitioned by row range and the build side is
  // complete in every worker's partition set.
  for (size_t t = 0; t < w.count(); ++t) {
    core::Core& core = *w.cores[t];
    const RowRange pr = PartitionRange(l.size(), t, w.count());

    // --- pass 1: partition the build side (sequential read, partitioned
    // sequential writes; the scatter overlaps through the store buffer) ---
    core.SetCodeRegion({"typer/radix-partition-build", 1536});
    core.SetMlpHint(core::kMlpPartitionWrite);
    std::vector<SimVector<BuildTuple>> build_parts =
        MakePartitions<BuildTuple>(core, parts, ord.size() / parts + 8);
    {
      core::ScopedRegion part_region(core, "partition-build");
      ColumnView<int64_t> ok(ord.orderkey, &core);
      // One write cursor per partition: each partition's output is its own
      // sequential store stream, batched line-by-line.
      std::vector<core::SeqCursor> wcur(parts);
      constexpr size_t kBlock = 1024;
      for (size_t b = 0; b < ord.size(); b += kBlock) {
        const size_t e = std::min(ord.size(), b + kBlock);
        ok.Touch(b, e - b);
        for (size_t i = b; i < e; ++i) {
          const int64_t key = ok.GetRaw(i);
          const uint32_t part = PartitionOf(key, radix_bits);
          auto& out = build_parts[part];
          out.push_back({key});
          core.StoreRange(wcur[part], out.At(out.size() - 1),
                          sizeof(BuildTuple), 1);
        }
      }
      InstrMix per;  // hash + partition index + buffer bookkeeping
      per.mul = 3;
      per.alu = 8;
      per.branch = 1;
      core.RetireN(per, ord.size());
    }

    // --- pass 2: partition the probe slice, carrying the payload sum ---
    core.SetCodeRegion({"typer/radix-partition-probe", 1536});
    core.SetMlpHint(core::kMlpPartitionWrite);
    std::vector<SimVector<ProbeTuple>> probe_parts =
        MakePartitions<ProbeTuple>(core, parts, pr.size() / parts + 8);
    {
      core::ScopedRegion part_region(core, "partition-probe");
      ColumnView<int64_t> ok(l.orderkey, &core);
      ColumnView<Money> ep(l.extendedprice, &core);
      ColumnView<int64_t> disc(l.discount, &core);
      ColumnView<int64_t> tax(l.tax, &core);
      ColumnView<int64_t> qty(l.quantity, &core);
      std::vector<core::SeqCursor> wcur(parts);
      constexpr size_t kBlock = 1024;
      for (size_t b = pr.begin; b < pr.end; b += kBlock) {
        const size_t e = std::min(pr.end, b + kBlock);
        ok.Touch(b, e - b);
        ep.Touch(b, e - b);
        disc.Touch(b, e - b);
        tax.Touch(b, e - b);
        qty.Touch(b, e - b);
        for (size_t i = b; i < e; ++i) {
          const int64_t key = ok.GetRaw(i);
          const Money sum = ep.GetRaw(i) + disc.GetRaw(i) + tax.GetRaw(i) +
                            qty.GetRaw(i);
          const uint32_t part = PartitionOf(key, radix_bits);
          auto& out = probe_parts[part];
          out.push_back({key, sum});
          core.StoreRange(wcur[part], out.At(out.size() - 1),
                          sizeof(ProbeTuple), 1);
        }
      }
      InstrMix per;
      per.mul = 3;
      per.alu = 12;
      per.branch = 1;
      core.RetireN(per, pr.size());
    }

    // --- pass 3: per-partition cache-resident build + probe ---
    core.SetCodeRegion({"typer/radix-join", 1536});
    core.SetMlpHint(core::kMlpScalarProbe);
    core::ScopedRegion join_region(core, "join");
    Money acc = 0;
    int64_t payload;
    for (uint32_t p = 0; p < parts; ++p) {
      const auto& bp = build_parts[p];
      const auto& pp = probe_parts[p];
      if (pp.empty()) continue;
      JoinHashTable ht(core, bp.size() + 1, radix_bits);
      // The partition inputs are their own sequential read streams; a
      // cursor per stream batches them line-by-line while the hash-table
      // accesses interleave per element.
      core::SeqCursor bcur, pcur;
      for (size_t j = 0; j < bp.size(); ++j) {
        core.LoadRange(bcur, bp.At(j), sizeof(BuildTuple), 1);
        ht.Insert(core, bp[j].key, 1);
      }
      for (size_t j = 0; j < pp.size(); ++j) {
        core.LoadRange(pcur, pp.At(j), sizeof(ProbeTuple), 1);
        if (ht.ProbeFirst(core, engine::branch_site::kJoinChain, pp[j].key,
                          &payload)) {
          acc += pp[j].payload_sum;
        }
      }
      InstrMix per;
      per.alu = 2;
      per.branch = 1;
      core.RetireN(per, bp.size() + pp.size());
    }
    total += acc;
  }
  return total;
}

}  // namespace uolap::typer
