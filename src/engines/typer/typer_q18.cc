// Typer's TPC-H Q18: the high-cardinality group-by. Phase 1 aggregates
// l_quantity by l_orderkey (one group per order — the paper's "1.5 million
// groups"); phase 2 keeps groups with sum > 300; phase 3 joins the
// qualifying orderkeys back to orders/customer and emits the top 100.

#include <algorithm>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "core/calibration.h"
#include "engine/hash_table.h"
#include "engines/typer/typer_engine.h"
#include "storage/column_view.h"

namespace uolap::typer {

using core::InstrMix;
using engine::AggHashTable;
using engine::JoinHashTable;
using engine::PartitionRange;
using engine::Q18Result;
using engine::Q18Row;
using engine::RowRange;
using engine::Workers;
using storage::ColumnView;
using tpch::Money;

Q18Result TyperEngine::Q18(Workers& w) const {
  const auto& l = db_.lineitem;
  const auto& ord = db_.orders;
  constexpr size_t kBlock = 1024;  // batched-charge block, see typer_scan.cc

  // --- phase 1+2: per-worker qty-by-orderkey aggregation, then filter.
  // lineitem is clustered on orderkey, so worker-local tables hold
  // disjoint key sets and the merge is pure concatenation. The entry pool
  // reserves the worst case (every row its own group); the bucket count
  // stays sized by the expected group count.
  std::vector<std::unique_ptr<AggHashTable<1>>> aggs;
  for (size_t t = 0; t < w.count(); ++t) {
    const RowRange r = PartitionRange(l.size(), t, w.count());
    aggs.push_back(std::make_unique<AggHashTable<1>>(
        *w.cores[t], r.size() / 4 + 16, r.size() + 1));
  }
  // (orderkey, sumqty) per worker, concatenated in worker order below.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> qual_parts(w.count());

  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(l.size(), t, w.count());
    {
      core::ScopedRegion agg_region(core, "agg");
      core.SetCodeRegion({"typer/q18-agg", 1536});
      core.SetMlpHint(core::kMlpScalarProbe);

      ColumnView<int64_t> ok(l.orderkey, &core);
      ColumnView<int64_t> qty(l.quantity, &core);

      AggHashTable<1>& agg = *aggs[t];
      for (size_t b = r.begin; b < r.end; b += kBlock) {
        const size_t e = std::min(r.end, b + kBlock);
        ok.Touch(b, e - b);
        qty.Touch(b, e - b);
        for (size_t i = b; i < e; ++i) {
          auto* entry = agg.FindOrCreate(
              core, engine::branch_site::kQ18AggChain, ok.GetRaw(i));
          agg.Add(core, entry, 0, qty.GetRaw(i));
        }
      }
      InstrMix per_tuple;
      per_tuple.alu = 2;
      per_tuple.branch = 1;
      per_tuple.chain_cycles = 1;
      core.RetireN(per_tuple, r.size());
    }

    // Filter scan over the group entries (sequential, batched).
    core::ScopedRegion having_region(core, "having");
    core.SetCodeRegion({"typer/q18-having", 512});
    const auto& entries = aggs[t]->entries();
    if (!entries.empty()) {
      core.LoadSeq(entries.At(0), sizeof(entries[0]), entries.size());
    }
    for (const auto& e : entries) {
      const bool pass = e.aggs[0] > engine::kQ18QuantityThreshold;
      core.Branch(engine::branch_site::kQ18Filter, pass);
      if (pass) qual_parts[t].emplace_back(e.key, e.aggs[0]);
    }
    InstrMix per_group;
    per_group.alu = 2;
    core.RetireN(per_group, aggs[t]->num_groups());
  });

  std::vector<std::pair<int64_t, int64_t>> qualifying;
  for (size_t t = 0; t < w.count(); ++t) {
    qualifying.insert(qualifying.end(), qual_parts[t].begin(),
                      qual_parts[t].end());
  }

  // --- phase 3: join qualifying orderkeys with orders (and customer for
  // the name). The qualifying set is tiny; build it on worker 0.
  JoinHashTable qual(*w.cores[0], qualifying.size() + 8);
  {
    core::Core& core = *w.cores[0];
    core::ScopedRegion build_region(core, "build");
    core.SetCodeRegion({"typer/q18-build-qual", 512});
    for (const auto& [okey, sumqty] : qualifying) {
      qual.Insert(core, okey, sumqty);
    }
  }

  std::vector<std::vector<Q18Row>> row_parts(w.count());
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion probe_region(core, "probe");
    const RowRange r = PartitionRange(ord.size(), t, w.count());
    core.SetCodeRegion({"typer/q18-probe", 1024});
    core.SetMlpHint(core::kMlpScalarProbe);

    ColumnView<int64_t> ok(ord.orderkey, &core);
    ColumnView<int64_t> ck(ord.custkey, &core);
    ColumnView<tpch::Date> od(ord.orderdate, &core);
    ColumnView<Money> tp(ord.totalprice, &core);

    for (size_t b = r.begin; b < r.end; b += kBlock) {
      const size_t e = std::min(r.end, b + kBlock);
      ok.Touch(b, e - b);
      for (size_t i = b; i < e; ++i) {
        int64_t sumqty = -1;
        if (!qual.ProbeFirst(core, engine::branch_site::kQ18Chain,
                             ok.GetRaw(i), &sumqty)) {
          continue;
        }
        Q18Row row;
        row.orderkey = ok.GetRaw(i);
        row.custkey = ck.Get(i);
        row.orderdate = od.Get(i);
        row.totalprice = tp.Get(i);
        row.sum_qty = sumqty;
        row.cust_name = std::string(
            db_.customer.name.Get(static_cast<size_t>(row.custkey - 1)));
        row_parts[t].push_back(std::move(row));
      }
    }
    InstrMix per_tuple;
    per_tuple.alu = 2;
    per_tuple.branch = 1;
    core.RetireN(per_tuple, r.size());
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

}  // namespace uolap::typer
