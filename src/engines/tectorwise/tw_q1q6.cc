// Tectorwise TPC-H Q1 and Q6.

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "engines/tectorwise/primitives.h"
#include "engines/tectorwise/tw_engine.h"
#include "storage/column_view.h"

namespace uolap::tectorwise {

using engine::AggHashTable;
using engine::PartitionRange;
using engine::Q1Result;
using engine::Q1Row;
using engine::RowRange;
using engine::Workers;
using storage::Resident;
using storage::SimVector;
using tpch::Money;

Q1Result TectorwiseEngine::Q1(Workers& w) const {
  const auto& l = db_.lineitem;
  const size_t n = l.size();
  const tpch::Date cut = engine::Q1ShipdateCut();

  std::vector<std::unique_ptr<AggHashTable<5>>> aggs(w.count());
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion agg_region(core, "agg");
    const RowRange r = PartitionRange(n, t, w.count());
    core.SetCodeRegion({"tw/q1", 6144});
    VecCtx ctx{&core, simd_};

    SimVector<uint32_t> sel(core, kVecSize);
    SimVector<int64_t> keys(core, kVecSize), disc_price(core, kVecSize),
        charge(core, kVecSize);
    aggs[t] = std::make_unique<AggHashTable<5>>(core, 8);
    AggHashTable<5>& agg = *aggs[t];
    const auto ship = Resident(l.shipdate, core);
    const auto flag = Resident(l.returnflag, core);
    const auto status = Resident(l.linestatus, core);
    const auto qty = Resident(l.quantity, core);
    const auto ep = Resident(l.extendedprice, core);
    const auto disc = Resident(l.discount, core);
    const auto tax = Resident(l.tax, core);

    for (size_t base = r.begin; base < r.end; base += kVecSize) {
      const size_t m = std::min(kVecSize, r.end - base);
      // Filter primitive: shipdate <= cut (~99% selectivity, easy branch).
      const size_t ms =
          SelPredFull(ctx, engine::branch_site::kSelectionP1, ship + base, m,
                      sel.ptr(), [cut](tpch::Date d) { return d <= cut; });

      // Key and arithmetic primitives over the selection vector. The
      // selection vector and the dense outputs are sequential (batched);
      // the column reads under the selection are gathers (per element).
      detail::ChargeCallOverhead(ctx);
      detail::TouchVecLoad(ctx, sel.ptr(), ms);
      for (size_t k = 0; k < ms; ++k) {
        const uint32_t i = sel[k];
        const int64_t f = detail::LoadElem(ctx, flag + (base + i));
        const int64_t s = detail::LoadElem(ctx, status + (base + i));
        keys[k] = (f << 8) | s;
      }
      detail::TouchVecStore(ctx, keys.ptr(), ms);
      if (ctx.simd) {
        detail::ChargeSimdLoop(ctx, ms, 5);
      } else {
        detail::ChargeScalarLoop(ctx, ms, 3);
      }

      detail::ChargeCallOverhead(ctx);
      detail::TouchVecLoad(ctx, sel.ptr(), ms);
      for (size_t k = 0; k < ms; ++k) {
        const uint32_t i = sel[k];
        const Money price = detail::LoadElem(ctx, ep + (base + i));
        const int64_t d = detail::LoadElem(ctx, disc + (base + i));
        const int64_t tx = detail::LoadElem(ctx, tax + (base + i));
        const Money dp = tpch::DiscountedPrice(price, d);
        disc_price[k] = dp;
        charge[k] = dp * (100 + tx) / 100;
      }
      detail::TouchVecStore(ctx, disc_price.ptr(), ms);
      detail::TouchVecStore(ctx, charge.ptr(), ms);
      if (ctx.simd) {
        detail::ChargeSimdLoop(ctx, ms, 8);
      } else {
        core::InstrMix per;
        per.alu = 5;
        per.mul = 4;
        core.RetireN(per, ms);
      }

      // Aggregation: hash the key vector, then update the group slots.
      detail::TouchVecLoad(ctx, disc_price.ptr(), ms);
      detail::TouchVecLoad(ctx, charge.ptr(), ms);
      for (size_t k = 0; k < ms; ++k) {
        const uint32_t i = sel[k];
        auto* entry = agg.FindOrCreate(
            core, engine::branch_site::kAggChain, keys[k]);
        agg.Add(core, entry, 0, detail::LoadElem(ctx, qty + (base + i)));
        agg.Add(core, entry, 1, detail::LoadElem(ctx, ep + (base + i)));
        agg.Add(core, entry, 2, disc_price[k]);
        agg.Add(core, entry, 3, charge[k]);
        agg.Add(core, entry, 4, 1);
      }
      detail::ChargeScalarLoop(ctx, ms, 2);
    }
  });

  std::map<int64_t, Q1Row> merged;
  for (size_t t = 0; t < w.count(); ++t) {
    for (const auto& e : aggs[t]->entries()) {
      Q1Row& row = merged[e.key];
      row.returnflag = static_cast<int8_t>(e.key >> 8);
      row.linestatus = static_cast<int8_t>(e.key & 0xFF);
      row.sum_qty += e.aggs[0];
      row.sum_base_price += e.aggs[1];
      row.sum_disc_price += e.aggs[2];
      row.sum_charge += e.aggs[3];
      row.count += e.aggs[4];
    }
  }

  Q1Result result;
  for (const auto& [key, row] : merged) result.rows.push_back(row);
  std::sort(result.rows.begin(), result.rows.end(),
            [](const Q1Row& a, const Q1Row& b) {
              return std::tie(a.returnflag, a.linestatus) <
                     std::tie(b.returnflag, b.linestatus);
            });
  return result;
}

int64_t TectorwiseEngine::GroupBy(Workers& w, int64_t num_groups) const {
  UOLAP_CHECK(num_groups >= 1);
  const auto& l = db_.lineitem;
  const size_t n = l.size();

  std::vector<std::unique_ptr<AggHashTable<1>>> aggs(w.count());
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion groupby_region(core, "groupby");
    const engine::RowRange r = PartitionRange(n, t, w.count());
    core.SetCodeRegion({"tw/groupby", 4096});
    VecCtx ctx{&core, simd_};
    core.SetMlpHint(simd_ ? core::kMlpSimdGather : core::kMlpVectorProbe);

    aggs[t] = std::make_unique<AggHashTable<1>>(
        core, static_cast<size_t>(std::min<int64_t>(
                  num_groups, static_cast<int64_t>(r.size())) + 1));
    AggHashTable<1>& agg = *aggs[t];
    SimVector<int64_t> keys(core, kVecSize), vals(core, kVecSize);
    const auto ok = Resident(l.orderkey, core);
    const auto ep = Resident(l.extendedprice, core);
    for (size_t base = r.begin; base < r.end; base += kVecSize) {
      const size_t m = std::min(kVecSize, r.end - base);
      // Hash primitive: key vector from l_orderkey. Inputs and outputs
      // are all dense sequential runs — fully batched.
      detail::ChargeCallOverhead(ctx);
      detail::TouchVecLoad(ctx, ok + base, m);
      detail::TouchVecLoad(ctx, ep + base, m);
      for (size_t k = 0; k < m; ++k) {
        keys[k] = engine::groupby::GroupKey(ok[base + k], num_groups);
        vals[k] = ep[base + k];
      }
      detail::TouchVecStore(ctx, keys.ptr(), m);
      detail::TouchVecStore(ctx, vals.ptr(), m);
      if (ctx.simd) {
        detail::ChargeSimdLoop(ctx, m, 7);
      } else {
        core::InstrMix per;
        per.mul = 4;
        per.alu = 4;
        core.RetireN(per, m);
      }
      // Grouped update loop.
      detail::TouchVecLoad(ctx, keys.ptr(), m);
      detail::TouchVecLoad(ctx, vals.ptr(), m);
      for (size_t k = 0; k < m; ++k) {
        auto* entry = agg.FindOrCreate(
            core, engine::branch_site::kGroupByChain, keys[k]);
        agg.Add(core, entry, 0, vals[k]);
      }
      detail::ChargeScalarLoop(ctx, m, 1);
    }
    core.SetMlpHint(core::kMlpDefault);
  });

  std::map<int64_t, int64_t> merged;
  for (size_t t = 0; t < w.count(); ++t) {
    for (const auto& e : aggs[t]->entries()) merged[e.key] += e.aggs[0];
  }

  int64_t checksum = 0;
  for (const auto& [key, sum] : merged) {
    checksum = engine::groupby::Combine(checksum, key, sum);
  }
  return checksum;
}

Money TectorwiseEngine::Q6(Workers& w, const engine::Q6Params& p) const {
  const auto& l = db_.lineitem;
  const size_t n = l.size();

  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion scan_region(core, "select");
    const RowRange r = PartitionRange(n, t, w.count());
    core.SetCodeRegion({p.predicated ? "tw/q6-predicated" : "tw/q6", 5120});
    VecCtx ctx{&core, simd_};

    SimVector<uint32_t> sel1(core, kVecSize), sel2(core, kVecSize),
        sel3(core, kVecSize);
    const auto ship = Resident(l.shipdate, core);
    const auto disc = Resident(l.discount, core);
    const auto qty = Resident(l.quantity, core);
    const auto ep = Resident(l.extendedprice, core);

    Money acc = 0;
    for (size_t base = r.begin; base < r.end; base += kVecSize) {
      const size_t m = std::min(kVecSize, r.end - base);
      size_t m1, m2, m3;
      const auto date_pred = [&p](tpch::Date d) {
        return d >= p.date_lo && d < p.date_hi;
      };
      const auto disc_pred = [&p](int64_t d) {
        return d >= p.discount_lo && d <= p.discount_hi;
      };
      const auto qty_pred = [&p](int64_t q) { return q < p.quantity_lim; };
      if (!p.predicated) {
        // Three branched primitives; the predictor sees the individual
        // selectivities (~14% / ~27% / ~46%) — the paper's Q6 story.
        m1 = SelPredFull(ctx, engine::branch_site::kQ6P1, ship + base, m,
                         sel1.ptr(), date_pred, /*alu_per_elem=*/2);
        m2 = SelPred(ctx, engine::branch_site::kQ6P2, disc + base,
                     sel1.ptr(), m1, sel2.ptr(), disc_pred,
                     /*alu_per_elem=*/2);
        m3 = SelPred(ctx, engine::branch_site::kQ6P3, qty + base, sel2.ptr(),
                     m2, sel3.ptr(), qty_pred);
      } else {
        m1 = SelPredPredicatedFull(ctx, ship + base, m, sel1.ptr(),
                                   date_pred);
        m2 = SelPredPredicated(ctx, disc + base, sel1.ptr(), m1, sel2.ptr(),
                               disc_pred);
        m3 = SelPredPredicated(ctx, qty + base, sel2.ptr(), m2, sel3.ptr(),
                               qty_pred);
      }
      if (m3 == 0) continue;
      // sum(extendedprice * discount) over the final selection vector.
      detail::ChargeCallOverhead(ctx);
      detail::TouchVecLoad(ctx, sel3.ptr(), m3);
      for (size_t k = 0; k < m3; ++k) {
        const uint32_t i = sel3[k];
        acc += detail::LoadElem(ctx, ep + (base + i)) *
               detail::LoadElem(ctx, disc + (base + i));
      }
      if (ctx.simd) {
        detail::ChargeSimdLoop(ctx, m3, 4, /*chain=*/1);
      } else {
        core::InstrMix per;
        per.mul = 1;
        per.alu = 2;
        per.chain_cycles = 1;
        core.RetireN(per, m3);
      }
    }
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

}  // namespace uolap::tectorwise
