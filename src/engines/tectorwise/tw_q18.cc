// Tectorwise TPC-H Q18: vectorized high-cardinality aggregation.

#include <algorithm>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "engines/tectorwise/primitives.h"
#include "engines/tectorwise/tw_engine.h"
#include "storage/column_view.h"

namespace uolap::tectorwise {

using engine::AggHashTable;
using engine::JoinHashTable;
using engine::PartitionRange;
using engine::Q18Result;
using engine::Q18Row;
using engine::RowRange;
using engine::Workers;
using storage::ColumnView;
using storage::Resident;
using storage::SimVector;
using tpch::Money;

Q18Result TectorwiseEngine::Q18(Workers& w) const {
  const auto& l = db_.lineitem;
  const auto& ord = db_.orders;

  // --- phase 1+2: qty-by-orderkey aggregation per worker, then HAVING.
  // lineitem is clustered on orderkey, so worker-local tables hold
  // disjoint key sets. The entry pool reserves the worst case (every row
  // its own group).
  std::vector<std::unique_ptr<AggHashTable<1>>> aggs(w.count());
  // (orderkey, sumqty) per worker, concatenated in worker order below.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> qual_parts(w.count());
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(l.size(), t, w.count());
    core.SetCodeRegion({"tw/q18-agg", 5120});
    VecCtx ctx{&core, simd_};
    core.SetMlpHint(simd_ ? core::kMlpSimdGather : core::kMlpVectorProbe);

    aggs[t] = std::make_unique<AggHashTable<1>>(core, r.size() / 4 + 16,
                                                r.size() + 1);
    AggHashTable<1>& agg = *aggs[t];
    {
      core::ScopedRegion agg_region(core, "agg");
      SimVector<int64_t> keys(core, kVecSize), qtys(core, kVecSize);
      const auto ok = Resident(l.orderkey, core);
      const auto qty = Resident(l.quantity, core);
      for (size_t base = r.begin; base < r.end; base += kVecSize) {
        const size_t m = std::min(kVecSize, r.end - base);
        // Vectorized key/qty load primitives, then the grouped update
        // loop. Inputs and outputs are all dense sequential runs — fully
        // batched.
        detail::ChargeCallOverhead(ctx);
        detail::TouchVecLoad(ctx, ok + base, m);
        detail::TouchVecLoad(ctx, qty + base, m);
        for (size_t k = 0; k < m; ++k) {
          keys[k] = ok[base + k];
          qtys[k] = qty[base + k];
        }
        detail::TouchVecStore(ctx, keys.ptr(), m);
        detail::TouchVecStore(ctx, qtys.ptr(), m);
        if (ctx.simd) {
          detail::ChargeSimdLoop(ctx, m, 4);
        } else {
          detail::ChargeScalarLoop(ctx, m, 1);
        }
        detail::TouchVecLoad(ctx, keys.ptr(), m);
        detail::TouchVecLoad(ctx, qtys.ptr(), m);
        for (size_t k = 0; k < m; ++k) {
          auto* entry = agg.FindOrCreate(
              core, engine::branch_site::kQ18AggChain, keys[k]);
          agg.Add(core, entry, 0, qtys[k]);
        }
        detail::ChargeScalarLoop(ctx, m, 1);
      }
    }

    // Filter scan over the group entries (sequential, batched).
    core::ScopedRegion having_region(core, "having");
    core.SetCodeRegion({"tw/q18-having", 1024});
    const auto& entries = agg.entries();
    if (!entries.empty()) {
      core.LoadSeq(entries.At(0), sizeof(entries[0]), entries.size());
    }
    for (const auto& e : entries) {
      const bool pass = e.aggs[0] > engine::kQ18QuantityThreshold;
      core.Branch(engine::branch_site::kQ18Filter, pass);
      if (pass) qual_parts[t].emplace_back(e.key, e.aggs[0]);
    }
    core::InstrMix per_group;
    per_group.alu = 2;
    core.RetireN(per_group, agg.num_groups());
    core.SetMlpHint(core::kMlpDefault);
  });

  std::vector<std::pair<int64_t, int64_t>> qualifying;
  for (size_t t = 0; t < w.count(); ++t) {
    qualifying.insert(qualifying.end(), qual_parts[t].begin(),
                      qual_parts[t].end());
  }

  // --- phase 3: probe orders against the qualifying set, vectorized.
  JoinHashTable qual(*w.cores[0], qualifying.size() + 8);
  {
    core::Core& core = *w.cores[0];
    core::ScopedRegion build_region(core, "build");
    core.SetCodeRegion({"tw/q18-build-qual", 1024});
    for (const auto& [okey, sumqty] : qualifying) {
      qual.Insert(core, okey, sumqty);
    }
  }

  std::vector<std::vector<Q18Row>> row_parts(w.count());
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion probe_region(core, "probe");
    const RowRange r = PartitionRange(ord.size(), t, w.count());
    core.SetCodeRegion({"tw/q18-probe", 3072});
    VecCtx ctx{&core, simd_};

    SimVector<uint32_t> match_sel(core, kVecSize);
    SimVector<int64_t> sumqtys(core, kVecSize);
    const auto ok = Resident(ord.orderkey, core);
    const auto ck = Resident(ord.custkey, core);
    const auto od = Resident(ord.orderdate, core);
    const auto tp = Resident(ord.totalprice, core);
    for (size_t base = r.begin; base < r.end; base += kVecSize) {
      const size_t m = std::min(kVecSize, r.end - base);
      const size_t matches =
          HtProbeSel(ctx, engine::branch_site::kQ18Chain, qual, ok + base, 0,
                     {}, m, match_sel.ptr(), sumqtys.ptr());
      detail::TouchVecLoad(ctx, match_sel.ptr(), matches);
      for (size_t k = 0; k < matches; ++k) {
        const uint32_t i = match_sel[k];
        Q18Row row;
        row.orderkey = ok[base + i];
        row.custkey = detail::LoadElem(ctx, ck + (base + i));
        row.orderdate = detail::LoadElem(ctx, od + (base + i));
        row.totalprice = detail::LoadElem(ctx, tp + (base + i));
        row.sum_qty = sumqtys[k];
        row.cust_name = std::string(
            db_.customer.name.Get(static_cast<size_t>(row.custkey - 1)));
        row_parts[t].push_back(std::move(row));
      }
    }
  });

  std::vector<Q18Row> rows;
  for (size_t t = 0; t < w.count(); ++t) {
    for (Q18Row& row : row_parts[t]) rows.push_back(std::move(row));
  }

  std::sort(rows.begin(), rows.end(), [](const Q18Row& a, const Q18Row& b) {
    if (a.totalprice != b.totalprice) return a.totalprice > b.totalprice;
    if (a.orderdate != b.orderdate) return a.orderdate < b.orderdate;
    return a.orderkey < b.orderkey;
  });
  if (rows.size() > engine::kQ18Limit) rows.resize(engine::kQ18Limit);

  Q18Result result;
  result.rows = std::move(rows);
  return result;
}

}  // namespace uolap::tectorwise
