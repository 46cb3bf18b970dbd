// Tectorwise TPC-H Q9: vectorized probe pipeline over lineitem.

#include <algorithm>
#include <cstring>
#include <map>
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
using engine::Q9Result;
using engine::Q9Row;
using engine::RowRange;
using engine::Workers;
using storage::ColumnView;
using storage::Resident;
using storage::SimVector;
using tpch::Money;

Q9Result TectorwiseEngine::Q9(Workers& w) const {
  const auto& part = db_.part;
  const auto& ps = db_.partsupp;
  const auto& sup = db_.supplier;
  const auto& ord = db_.orders;
  const auto& l = db_.lineitem;
  const int64_t num_supp = static_cast<int64_t>(sup.size());

  // --- builds (same shared-build discipline as the join benchmark) ---
  JoinHashTable green_parts(*w.cores[0], part.size() / 16 + 16);
  JoinHashTable supp_nation(*w.cores[0], sup.size());
  JoinHashTable ps_cost(*w.cores[0], ps.size());
  JoinHashTable order_date(*w.cores[0], ord.size());
  for (size_t t = 0; t < w.count(); ++t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion build_region(core, "build");
    core.SetCodeRegion({"tw/q9-builds", 4096});
    core.SetMlpHint(core::kMlpVectorProbe);
    {
      const RowRange r = PartitionRange(part.size(), t, w.count());
      ColumnView<int64_t> pk(part.partkey, &core);
      const uint64_t names = core.placement().Resident(
          part.name.blob().data(), part.name.blob().size());
      for (size_t i = r.begin; i < r.end; ++i) {
        const char* data = part.name.DataPtr(i);
        const uint32_t len = part.name.Length(i);
        core.Load(names + part.name.Offset(i), len);
        core::InstrMix scan;
        scan.alu = len;
        core.Retire(scan);
        bool green = false;
        for (uint32_t pos = 0; pos + 5 <= len; ++pos) {
          if (std::memcmp(data + pos, "green", 5) == 0) {
            green = true;
            break;
          }
        }
        core.Branch(engine::branch_site::kQ9PartFilter, green);
        if (green) green_parts.Insert(core, pk.Get(i), 1);
      }
    }
    {
      const RowRange r = PartitionRange(sup.size(), t, w.count());
      ColumnView<int64_t> sk(sup.suppkey, &core);
      ColumnView<int64_t> nk(sup.nationkey, &core);
      for (size_t i = r.begin; i < r.end; ++i) {
        supp_nation.Insert(core, sk.Get(i), nk.Get(i));
      }
    }
    {
      const RowRange r = PartitionRange(ps.size(), t, w.count());
      ColumnView<int64_t> pk(ps.partkey, &core);
      ColumnView<int64_t> sk(ps.suppkey, &core);
      ColumnView<Money> cost(ps.supplycost, &core);
      core::InstrMix key_mix;
      key_mix.mul = 1;
      key_mix.alu = 1;
      for (size_t i = r.begin; i < r.end; ++i) {
        const int64_t key = pk.Get(i) * (num_supp + 1) + sk.Get(i);
        core.Retire(key_mix);
        ps_cost.Insert(core, key, cost.Get(i));
      }
    }
    {
      const RowRange r = PartitionRange(ord.size(), t, w.count());
      ColumnView<int64_t> ok(ord.orderkey, &core);
      ColumnView<tpch::Date> od(ord.orderdate, &core);
      for (size_t i = r.begin; i < r.end; ++i) {
        order_date.Insert(core, ok.Get(i), od.Get(i));
      }
    }
    core.SetMlpHint(core::kMlpDefault);
  }

  // --- vectorized probe pipeline ---
  // Per-worker aggregation tables; the (nation, year) group count stays
  // far below the 256 reserved entries.
  std::vector<std::unique_ptr<AggHashTable<1>>> aggs(w.count());
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion probe_region(core, "probe");
    const RowRange r = PartitionRange(l.size(), t, w.count());
    core.SetCodeRegion({"tw/q9-probe", 8192});
    VecCtx ctx{&core, simd_};

    SimVector<uint32_t> sel_green(core, kVecSize), sel_dummy(core, kVecSize);
    SimVector<int64_t> comp_keys(core, kVecSize), costs(core, kVecSize),
        odates(core, kVecSize), nations(core, kVecSize),
        amounts(core, kVecSize);
    aggs[t] = std::make_unique<AggHashTable<1>>(core, 256);
    AggHashTable<1>& agg = *aggs[t];
    const auto pk = Resident(l.partkey, core);
    const auto sk = Resident(l.suppkey, core);
    const auto ok = Resident(l.orderkey, core);
    const auto ep = Resident(l.extendedprice, core);
    const auto disc = Resident(l.discount, core);
    const auto qty = Resident(l.quantity, core);

    for (size_t base = r.begin; base < r.end; base += kVecSize) {
      const size_t m = std::min(kVecSize, r.end - base);
      // Stage 1: semi-join against the green-part set.
      const size_t mg =
          HtProbeSel(ctx, engine::branch_site::kQ9Chain1, green_parts,
                     pk + base, 0, {}, m, sel_green.ptr(), {});
      if (mg == 0) continue;

      // Stage 2: composite (partkey, suppkey) keys. The selection vector
      // and dense output are sequential (batched); the column reads under
      // the selection are gathers (per element).
      detail::ChargeCallOverhead(ctx);
      detail::TouchVecLoad(ctx, sel_green.ptr(), mg);
      for (size_t k = 0; k < mg; ++k) {
        const uint32_t i = sel_green[k];
        const int64_t key =
            detail::LoadElem(ctx, pk + (base + i)) * (num_supp + 1) +
            detail::LoadElem(ctx, sk + (base + i));
        comp_keys[k] = key;
      }
      detail::TouchVecStore(ctx, comp_keys.ptr(), mg);
      if (ctx.simd) {
        detail::ChargeSimdLoop(ctx, mg, 5);
      } else {
        core::InstrMix per;
        per.mul = 1;
        per.alu = 2;
        core.RetireN(per, mg);
      }

      // Stage 3: gather supplycost / orderdate / nationkey via probes.
      const size_t mc =
          HtProbeSel(ctx, engine::branch_site::kQ9Chain2, ps_cost,
                     comp_keys.ptr(), 0, {}, mg, sel_dummy.ptr(),
                     costs.ptr());
      UOLAP_CHECK_MSG(mc == mg, "partsupp FK probe must always match");
      detail::ChargeCallOverhead(ctx);
      detail::TouchVecLoad(ctx, sel_green.ptr(), mg);
      for (size_t k = 0; k < mg; ++k) {
        const uint32_t i = sel_green[k];
        int64_t od = 0, nk = 0;
        order_date.ProbeFirst(core, engine::branch_site::kQ9Chain3,
                              detail::LoadElem(ctx, ok + (base + i)), &od);
        supp_nation.ProbeFirst(core, engine::branch_site::kQ9Chain4,
                               detail::LoadElem(ctx, sk + (base + i)), &nk);
        odates[k] = od;
        nations[k] = nk;
      }
      detail::TouchVecStore(ctx, odates.ptr(), mg);
      detail::TouchVecStore(ctx, nations.ptr(), mg);

      // Stage 4: profit arithmetic.
      detail::ChargeCallOverhead(ctx);
      detail::TouchVecLoad(ctx, sel_green.ptr(), mg);
      detail::TouchVecLoad(ctx, costs.ptr(), mg);
      for (size_t k = 0; k < mg; ++k) {
        const uint32_t i = sel_green[k];
        const Money amount =
            tpch::DiscountedPrice(detail::LoadElem(ctx, ep + (base + i)),
                                  detail::LoadElem(ctx, disc + (base + i))) -
            costs[k] * detail::LoadElem(ctx, qty + (base + i));
        amounts[k] = amount;
      }
      detail::TouchVecStore(ctx, amounts.ptr(), mg);
      if (ctx.simd) {
        detail::ChargeSimdLoop(ctx, mg, 7);
      } else {
        core::InstrMix per;
        per.mul = 3;
        per.alu = 4;
        core.RetireN(per, mg);
      }

      // Stage 5: (nation, year) aggregation.
      for (size_t k = 0; k < mg; ++k) {
        const int year = tpch::DateYear(static_cast<tpch::Date>(odates[k]));
        auto* entry =
            agg.FindOrCreate(core, engine::branch_site::kQ9AggChain,
                             nations[k] * 4096 + year);
        agg.Add(core, entry, 0, amounts[k]);
      }
      detail::ChargeScalarLoop(ctx, mg, 8);
    }
  });

  std::map<std::pair<int64_t, int>, Money> merged;
  for (size_t t = 0; t < w.count(); ++t) {
    for (const auto& e : aggs[t]->entries()) {
      merged[{e.key / 4096, static_cast<int>(e.key % 4096)}] += e.aggs[0];
    }
  }

  Q9Result result;
  for (const auto& [key, profit] : merged) {
    Q9Row row;
    row.nation =
        std::string(db_.nation.name.Get(static_cast<size_t>(key.first)));
    row.year = key.second;
    row.profit = profit;
    result.rows.push_back(row);
  }
  std::sort(result.rows.begin(), result.rows.end(),
            [](const Q9Row& a, const Q9Row& b) {
              if (a.nation != b.nation) return a.nation < b.nation;
              return a.year > b.year;
            });
  return result;
}

}  // namespace uolap::tectorwise
