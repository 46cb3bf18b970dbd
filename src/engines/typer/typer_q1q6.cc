// Typer's TPC-H Q1 (low-cardinality group-by) and Q6 (selective filter).

#include <algorithm>
#include <map>
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
using engine::PartitionRange;
using engine::Q1Result;
using engine::Q1Row;
using engine::RowRange;
using engine::Workers;
using storage::ColumnView;
using tpch::Money;

namespace {
constexpr size_t kBlock = 1024;  // batched-charge block, see typer_scan.cc
}  // namespace

Q1Result TyperEngine::Q1(Workers& w) const {
  const auto& l = db_.lineitem;
  const size_t n = l.size();
  const tpch::Date cut = engine::Q1ShipdateCut();

  // Worker-local aggregation tables (4 groups each), merged natively: the
  // merge of a handful of groups is noise next to the scan.
  std::vector<std::unique_ptr<AggHashTable<5>>> aggs;
  for (size_t t = 0; t < w.count(); ++t) {
    aggs.push_back(std::make_unique<AggHashTable<5>>(*w.cores[t], 8));
  }

  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion agg_region(core, "agg");
    const RowRange r = PartitionRange(n, t, w.count());
    core.SetCodeRegion({"typer/q1", 1536});
    core.SetMlpHint(core::kMlpDefault);

    ColumnView<tpch::Date> ship(l.shipdate, &core);
    ColumnView<int8_t> flag(l.returnflag, &core);
    ColumnView<int8_t> status(l.linestatus, &core);
    ColumnView<int64_t> qty(l.quantity, &core);
    ColumnView<Money> ep(l.extendedprice, &core);
    ColumnView<int64_t> disc(l.discount, &core);
    ColumnView<int64_t> tax(l.tax, &core);

    AggHashTable<5>& agg = *aggs[t];
    uint64_t passes = 0;
    for (size_t b = r.begin; b < r.end; b += kBlock) {
      const size_t e = std::min(r.end, b + kBlock);
      ship.Touch(b, e - b);  // the filter column is read for every tuple
      for (size_t i = b; i < e; ++i) {
        const bool pass = ship.GetRaw(i) <= cut;
        core.Branch(engine::branch_site::kSelectionP1, pass);
        if (!pass) continue;
        ++passes;
        const int64_t key = (static_cast<int64_t>(flag.Get(i)) << 8) |
                            static_cast<int64_t>(status.Get(i));
        auto* entry =
            agg.FindOrCreate(core, engine::branch_site::kAggChain, key);
        const Money base = ep.Get(i);
        const int64_t d = disc.Get(i);
        const Money discounted = tpch::DiscountedPrice(base, d);
        const Money charged = discounted * (100 + tax.Get(i)) / 100;
        agg.Add(core, entry, 0, qty.Get(i));
        agg.Add(core, entry, 1, base);
        agg.Add(core, entry, 2, discounted);
        agg.Add(core, entry, 3, charged);
        agg.Add(core, entry, 4, 1);
      }
    }
    // Per tuple: shipdate compare + loop control; per pass: key packing,
    // the discount/charge arithmetic (two multiplies, two divides folded
    // to multiply-by-reciprocal by the compiler -> mul), accumulator
    // chain.
    InstrMix per_tuple;
    per_tuple.alu = 2;
    per_tuple.branch = 1;
    core.RetireN(per_tuple, r.size());
    InstrMix per_pass;
    per_pass.alu = 8;
    per_pass.mul = 4;
    per_pass.chain_cycles = 2;
    core.RetireN(per_pass, passes);
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

int64_t TyperEngine::GroupBy(Workers& w, int64_t num_groups) const {
  UOLAP_CHECK(num_groups >= 1);
  const auto& l = db_.lineitem;
  const size_t n = l.size();

  // Worker-local aggregation; group keys overlap across workers (hashed),
  // so the final merge is a native map combine (uncharged, negligible
  // next to the scan). A worker's key space is bounded by num_groups.
  std::vector<std::unique_ptr<AggHashTable<1>>> aggs;
  for (size_t t = 0; t < w.count(); ++t) {
    const RowRange r = PartitionRange(n, t, w.count());
    aggs.push_back(std::make_unique<AggHashTable<1>>(
        *w.cores[t],
        static_cast<size_t>(std::min<int64_t>(
                                num_groups, static_cast<int64_t>(r.size())) +
                            1)));
  }

  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion groupby_region(core, "groupby");
    const RowRange r = PartitionRange(n, t, w.count());
    core.SetCodeRegion({"typer/groupby", 1280});
    core.SetMlpHint(core::kMlpScalarProbe);

    ColumnView<int64_t> ok(l.orderkey, &core);
    ColumnView<Money> ep(l.extendedprice, &core);

    AggHashTable<1>& agg = *aggs[t];
    for (size_t b = r.begin; b < r.end; b += kBlock) {
      const size_t e = std::min(r.end, b + kBlock);
      ok.Touch(b, e - b);
      ep.Touch(b, e - b);
      for (size_t i = b; i < e; ++i) {
        const int64_t key =
            engine::groupby::GroupKey(ok.GetRaw(i), num_groups);
        auto* entry = agg.FindOrCreate(
            core, engine::branch_site::kGroupByChain, key);
        agg.Add(core, entry, 0, ep.GetRaw(i));
      }
    }
    // Per tuple: the group-key hash + modulo (compiled to multiply) and
    // loop control.
    InstrMix per_tuple;
    per_tuple.mul = 4;
    per_tuple.alu = 4;
    per_tuple.branch = 1;
    core.RetireN(per_tuple, r.size());
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

Money TyperEngine::Q6(Workers& w, const engine::Q6Params& p) const {
  const auto& l = db_.lineitem;
  const size_t n = l.size();

  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion scan_region(core, "select");
    const RowRange r = PartitionRange(n, t, w.count());
    core.SetCodeRegion({p.predicated ? "typer/q6-predicated" : "typer/q6",
                        1024});
    core.SetMlpHint(core::kMlpDefault);

    ColumnView<tpch::Date> ship(l.shipdate, &core);
    ColumnView<int64_t> disc(l.discount, &core);
    ColumnView<int64_t> qty(l.quantity, &core);
    ColumnView<Money> ep(l.extendedprice, &core);

    Money acc = 0;
    uint64_t passes = 0;
    if (!p.predicated) {
      // shipdate/discount/quantity feed the fused condition for every
      // tuple (batched); extendedprice only behind the branch.
      for (size_t b = r.begin; b < r.end; b += kBlock) {
        const size_t e = std::min(r.end, b + kBlock);
        ship.Touch(b, e - b);
        disc.Touch(b, e - b);
        qty.Touch(b, e - b);
        for (size_t i = b; i < e; ++i) {
          const tpch::Date s = ship.GetRaw(i);
          const int64_t d = disc.GetRaw(i);
          // Compiled: one fused condition, combined selectivity ~2%.
          const bool pass = (s >= p.date_lo) & (s < p.date_hi) &
                            (d >= p.discount_lo) & (d <= p.discount_hi) &
                            (qty.GetRaw(i) < p.quantity_lim);
          core.Branch(engine::branch_site::kQ6Combined, pass);
          if (pass) {
            acc += ep.Get(i) * d;
            ++passes;
          }
        }
      }
      InstrMix per_tuple;
      per_tuple.alu = 9 + 1;  // five compares, four ands, loop share
      core.RetireN(per_tuple, r.size());
      InstrMix loop4;
      loop4.branch = 1;
      core.RetireN(loop4, r.size() / 4);
      InstrMix per_pass;
      per_pass.mul = 1;
      per_pass.chain_cycles = 1;
      core.RetireN(per_pass, passes);
    } else {
      for (size_t b = r.begin; b < r.end; b += kBlock) {
        const size_t e = std::min(r.end, b + kBlock);
        ship.Touch(b, e - b);
        disc.Touch(b, e - b);
        qty.Touch(b, e - b);
        ep.Touch(b, e - b);
        for (size_t i = b; i < e; ++i) {
          const tpch::Date s = ship.GetRaw(i);
          const int64_t d = disc.GetRaw(i);
          const int64_t mask = static_cast<int64_t>(
              (s >= p.date_lo) & (s < p.date_hi) & (d >= p.discount_lo) &
              (d <= p.discount_hi) & (qty.GetRaw(i) < p.quantity_lim));
          acc += mask * (ep.GetRaw(i) * d);
          passes += static_cast<uint64_t>(mask);
        }
      }
      InstrMix per_tuple;
      per_tuple.alu = 9 + 2;
      per_tuple.mul = 2;
      per_tuple.chain_cycles = 1;
      core.RetireN(per_tuple, r.size());
      InstrMix loop4;
      loop4.branch = 1;
      core.RetireN(loop4, r.size() / 4);
    }
    partial[t] = acc;
  });

  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

}  // namespace uolap::typer
