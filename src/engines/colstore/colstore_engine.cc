#include "engines/colstore/colstore_engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "core/calibration.h"
#include "engine/hash_table.h"
#include "storage/column_view.h"

namespace uolap::colstore {

using core::InstrMix;
using engine::PartitionRange;
using engine::RowRange;
using engine::Workers;
using storage::ColumnView;
using tpch::Money;

namespace {

/// Batch size of the columnstore extension's batch-mode operators.
constexpr size_t kBatch = 1024;

/// Interpreted per-element cost of one batch column operation: datum
/// access through the host engine's type machinery. ~10x the compiled
/// engine's per-element cost, matching the paper's order-of-magnitude gap.
InstrMix ColOpElemMix() {
  InstrMix m;
  m.alu = 20;
  m.other = 24;
  m.complex = 1;
  m.branch = 2;
  m.chain_cycles = 10;
  return m;
}

/// Fixed per-batch operator dispatch cost through the host engine.
InstrMix BatchDispatchMix() {
  InstrMix m;
  m.alu = 400;
  m.other = 600;
  m.complex = 60;
  m.branch = 80;
  return m;
}

/// Between batches the execution excurses through the host engine's glue
/// code: a region too large for L1I, producing DBMS C's (small) Icache
/// stall share.
constexpr uint64_t kGlueFootprint = 128 * 1024;
constexpr uint64_t kColOpFootprint = 6 * 1024;

void GlueExcursion(core::Core& core) {
  const core::CodeRegion saved = core.code_region();
  core.SetCodeRegion({"dbmsc/host-glue", kGlueFootprint});
  InstrMix glue;
  glue.alu = 1500;
  glue.other = 2200;
  glue.complex = 200;
  glue.branch = 300;
  core.Retire(glue);
  core.SetCodeRegion(saved);
}

/// The columnstore extension's batch hash join runs each probe through
/// the host engine's join runtime: heavier per-tuple interpretation than
/// its scan primitives. Calibrated against the paper's Fig. 14: DBMS C is
/// ~6.3x slower than Typer on the large join (slower than DBMS R's bulk
/// join path).
InstrMix JoinProbeElemMix() {
  InstrMix m;
  m.alu = 140;
  m.other = 170;
  m.complex = 16;
  m.branch = 20;
  m.chain_cycles = 110;
  return m;
}

/// Rare data-dependent edge-path branches (null/overflow handling): a
/// pseudo-random ~12% pattern the predictor cannot fully learn — the
/// source of DBMS C's branch-misprediction stall share.
class EdgePaths {
 public:
  explicit EdgePaths(uint64_t seed) : rng_(seed) {}
  void Touch(core::Core& core, uint32_t site) {
    core.Branch(site, rng_.Bernoulli(0.12));
  }

 private:
  uolap::Rng rng_;
};

}  // namespace

Money ColstoreEngine::Projection(Workers& w, int degree) const {
  UOLAP_CHECK(degree >= 1 && degree <= 4);
  const auto& l = db_.lineitem;
  const size_t n = l.size();

  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(n, t, w.count());
    core::ScopedRegion op_region(core, "project");
    core.SetCodeRegion({"dbmsc/projection", kColOpFootprint});
    core.SetMlpHint(core::kMlpDefault);
    EdgePaths edges(0xC01 + t);

    ColumnView<Money> ep(l.extendedprice, &core);
    ColumnView<int64_t> disc(l.discount, &core);
    ColumnView<int64_t> tax(l.tax, &core);
    ColumnView<int64_t> qty(l.quantity, &core);
    storage::SimVector<int64_t> inter(core, kBatch);

    Money acc = 0;
    for (size_t base = r.begin; base < r.end; base += kBatch) {
      const size_t m = std::min(kBatch, r.end - base);
      GlueExcursion(core);
      // One interpreted batch op per projected column plus the aggregate.
      // Each op reads its column and writes the intermediate buffer
      // strictly sequentially, so both streams are charged as batches.
      for (int c = 0; c < degree; ++c) {
        core.Retire(BatchDispatchMix());
        switch (c) {
          case 0: ep.Touch(base, m); break;
          case 1: disc.Touch(base, m); break;
          case 2: tax.Touch(base, m); break;
          case 3: qty.Touch(base, m); break;
        }
        core.StoreSeq(inter.At(0), 8, m);
        for (size_t k = 0; k < m; ++k) {
          const size_t i = base + k;
          int64_t v = 0;
          switch (c) {
            case 0: v = ep.GetRaw(i); break;
            case 1: v = disc.GetRaw(i); break;
            case 2: v = tax.GetRaw(i); break;
            case 3: v = qty.GetRaw(i); break;
          }
          inter[k] = (c == 0) ? v : inter[k] + v;
          edges.Touch(core, engine::branch_site::kColstoreSel);
        }
        core.RetireN(ColOpElemMix(), m);
      }
      core.Retire(BatchDispatchMix());
      core.LoadSeq(inter.At(0), 8, m);
      for (size_t k = 0; k < m; ++k) {
        acc += inter[k];
      }
      core.RetireN(ColOpElemMix(), m);
    }
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

Money ColstoreEngine::Selection(Workers& w,
                                const engine::SelectionParams& p) const {
  UOLAP_CHECK_MSG(!p.predicated,
                  "DBMS C has no user-controllable predication mode");
  const auto& l = db_.lineitem;
  const size_t n = l.size();

  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(n, t, w.count());
    core::ScopedRegion op_region(core, "select");
    core.SetCodeRegion({"dbmsc/selection", kColOpFootprint});
    core.SetMlpHint(core::kMlpDefault);
    EdgePaths edges(0xC02 + t);

    ColumnView<tpch::Date> ship(l.shipdate, &core);
    ColumnView<tpch::Date> commit(l.commitdate, &core);
    ColumnView<tpch::Date> receipt(l.receiptdate, &core);
    ColumnView<Money> ep(l.extendedprice, &core);
    ColumnView<int64_t> disc(l.discount, &core);
    ColumnView<int64_t> tax(l.tax, &core);
    ColumnView<int64_t> qty(l.quantity, &core);
    storage::SimVector<uint32_t> sel(core, kBatch);
    core::SeqCursor sel_cur;  // the compacted selection-vector write stream

    Money acc = 0;
    for (size_t base = r.begin; base < r.end; base += kBatch) {
      const size_t m = std::min(kBatch, r.end - base);
      GlueExcursion(core);
      // Batch filter: three interpreted predicate ops, each branching per
      // element at its individual selectivity. The first pass reads its
      // column unconditionally (batched); later passes read the selection
      // vector sequentially (batched) and gather their column per element.
      size_t ms = 0;
      core.Retire(BatchDispatchMix());
      ship.Touch(base, m);
      for (size_t k = 0; k < m; ++k) {
        const size_t i = base + k;
        const bool pass = ship.GetRaw(i) < p.ship_cut;
        core.Branch(engine::branch_site::kSelectionP1, pass);
        if (pass) {
          core.StoreRange(sel_cur, sel.At(ms), 4, 1);
          sel[ms++] = static_cast<uint32_t>(k);
        }
      }
      core.RetireN(ColOpElemMix(), m);
      size_t ms2 = 0;
      core.Retire(BatchDispatchMix());
      if (ms != 0) core.LoadSeq(sel.At(0), 4, ms);
      for (size_t k = 0; k < ms; ++k) {
        const size_t i = base + sel[k];
        const bool pass = commit.Get(i) < p.commit_cut;
        core.Branch(engine::branch_site::kSelectionP2, pass);
        if (pass) sel[ms2++] = sel[k];
      }
      core.RetireN(ColOpElemMix(), ms);
      size_t ms3 = 0;
      core.Retire(BatchDispatchMix());
      if (ms2 != 0) core.LoadSeq(sel.At(0), 4, ms2);
      for (size_t k = 0; k < ms2; ++k) {
        const size_t i = base + sel[k];
        const bool pass = receipt.Get(i) < p.receipt_cut;
        core.Branch(engine::branch_site::kSelectionP3, pass);
        if (pass) sel[ms3++] = sel[k];
      }
      core.RetireN(ColOpElemMix(), ms2);

      // Interpreted projection + aggregation over the qualifying rows.
      core.Retire(BatchDispatchMix());
      for (size_t k = 0; k < ms3; ++k) {
        const size_t i = base + sel[k];
        acc += ep.Get(i) + disc.Get(i) + tax.Get(i) + qty.Get(i);
        edges.Touch(core, engine::branch_site::kColstoreSel);
      }
      core.RetireN(ColOpElemMix().Scaled(4), ms3);
    }
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

Money ColstoreEngine::Join(Workers& w, engine::JoinSize size) const {
  const std::vector<int64_t>* build_keys = nullptr;
  const std::vector<int64_t>* probe_keys = nullptr;
  // The columns summed for every match.
  std::vector<const std::vector<int64_t>*> sum_cols;
  const auto& l = db_.lineitem;
  switch (size) {
    case engine::JoinSize::kSmall:
      build_keys = &db_.nation.nationkey;
      probe_keys = &db_.supplier.nationkey;
      sum_cols = {&db_.supplier.acctbal, &db_.supplier.suppkey};
      break;
    case engine::JoinSize::kMedium:
      build_keys = &db_.supplier.suppkey;
      probe_keys = &db_.partsupp.suppkey;
      sum_cols = {&db_.partsupp.availqty, &db_.partsupp.supplycost};
      break;
    case engine::JoinSize::kLarge:
      build_keys = &db_.orders.orderkey;
      probe_keys = &l.orderkey;
      sum_cols = {&l.extendedprice, &l.discount, &l.tax, &l.quantity};
      break;
  }

  engine::JoinHashTable ht(*w.cores[0], build_keys->size());
  for (size_t t = 0; t < w.count(); ++t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(build_keys->size(), t, w.count());
    core::ScopedRegion op_region(core, "build");
    core.SetCodeRegion({"dbmsc/join-build", kColOpFootprint});
    core.SetMlpHint(core::kMlpScalarProbe);
    ColumnView<int64_t> keys(*build_keys, &core);
    for (size_t i = r.begin; i < r.end; ++i) {
      ht.Insert(core, keys.Get(i), 1);
      core.Retire(ColOpElemMix());
    }
  }

  const size_t n = probe_keys->size();
  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(n, t, w.count());
    core::ScopedRegion op_region(core, "probe");
    core.SetCodeRegion({"dbmsc/join-probe", kColOpFootprint});
    core.SetMlpHint(core::kMlpScalarProbe);
    EdgePaths edges(0xC03 + t);
    ColumnView<int64_t> keys(*probe_keys, &core);
    std::vector<ColumnView<int64_t>> sums;
    for (const auto* c : sum_cols) sums.emplace_back(*c, &core);
    Money acc = 0;
    for (size_t base = r.begin; base < r.end; base += kBatch) {
      const size_t m = std::min(kBatch, r.end - base);
      GlueExcursion(core);
      core.Retire(BatchDispatchMix());
      keys.Touch(base, m);  // the probe-key column is read every tuple
      for (size_t k = 0; k < m; ++k) {
        const size_t i = base + k;
        int64_t unused;
        if (!ht.ProbeFirst(core, engine::branch_site::kJoinChain,
                           keys.GetRaw(i), &unused)) {
          continue;
        }
        for (const ColumnView<int64_t>& v : sums) acc += v.Get(i);
        edges.Touch(core, engine::branch_site::kColstoreSel);
      }
      core.RetireN(JoinProbeElemMix(), m);
    }
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

int64_t ColstoreEngine::GroupBy(Workers& w, int64_t num_groups) const {
  UOLAP_CHECK(num_groups >= 1);
  const auto& l = db_.lineitem;
  const size_t n = l.size();
  // Per-worker aggregation tables; a worker's key space is bounded by
  // num_groups.
  std::vector<std::unique_ptr<engine::AggHashTable<1>>> aggs;
  for (size_t t = 0; t < w.count(); ++t) {
    const RowRange r = PartitionRange(n, t, w.count());
    aggs.push_back(std::make_unique<engine::AggHashTable<1>>(
        *w.cores[t],
        static_cast<size_t>(std::min<int64_t>(
            num_groups, static_cast<int64_t>(r.size())) + 1)));
  }
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(n, t, w.count());
    core::ScopedRegion op_region(core, "groupby");
    core.SetCodeRegion({"dbmsc/groupby", kColOpFootprint});
    core.SetMlpHint(core::kMlpScalarProbe);
    ColumnView<int64_t> ok(l.orderkey, &core);
    ColumnView<Money> ep(l.extendedprice, &core);
    engine::AggHashTable<1>& agg = *aggs[t];
    for (size_t base = r.begin; base < r.end; base += kBatch) {
      const size_t m = std::min(kBatch, r.end - base);
      GlueExcursion(core);
      core.Retire(BatchDispatchMix());
      ok.Touch(base, m);
      ep.Touch(base, m);
      for (size_t k = 0; k < m; ++k) {
        const size_t i = base + k;
        const int64_t key =
            engine::groupby::GroupKey(ok.GetRaw(i), num_groups);
        auto* entry = agg.FindOrCreate(
            core, engine::branch_site::kGroupByChain, key);
        agg.Add(core, entry, 0, ep.GetRaw(i));
      }
      core.RetireN(ColOpElemMix().Scaled(2), m);
    }
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

engine::Q1Result ColstoreEngine::Q1(Workers& w) const {
  const auto& l = db_.lineitem;
  const size_t n = l.size();
  const tpch::Date cut = engine::Q1ShipdateCut();

  std::vector<std::unique_ptr<engine::AggHashTable<5>>> aggs;
  for (size_t t = 0; t < w.count(); ++t) {
    aggs.push_back(std::make_unique<engine::AggHashTable<5>>(*w.cores[t], 8));
  }
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(n, t, w.count());
    core::ScopedRegion op_region(core, "agg");
    core.SetCodeRegion({"dbmsc/q1", kColOpFootprint});
    core.SetMlpHint(core::kMlpDefault);
    EdgePaths edges(0xC04 + t);

    ColumnView<tpch::Date> ship(l.shipdate, &core);
    ColumnView<int8_t> flag(l.returnflag, &core);
    ColumnView<int8_t> status(l.linestatus, &core);
    ColumnView<int64_t> qty(l.quantity, &core);
    ColumnView<Money> ep(l.extendedprice, &core);
    ColumnView<int64_t> disc(l.discount, &core);
    ColumnView<int64_t> tax(l.tax, &core);
    engine::AggHashTable<5>& agg = *aggs[t];

    for (size_t base = r.begin; base < r.end; base += kBatch) {
      const size_t m = std::min(kBatch, r.end - base);
      GlueExcursion(core);
      core.Retire(BatchDispatchMix());
      ship.Touch(base, m);  // the filter column is read for every tuple
      for (size_t k = 0; k < m; ++k) {
        const size_t i = base + k;
        const bool pass = ship.GetRaw(i) <= cut;
        core.Branch(engine::branch_site::kSelectionP1, pass);
        if (!pass) continue;
        const int64_t key = (static_cast<int64_t>(flag.Get(i)) << 8) |
                            static_cast<int64_t>(status.Get(i));
        const Money base_price = ep.Get(i);
        const int64_t d = disc.Get(i);
        const Money dp = tpch::DiscountedPrice(base_price, d);
        auto* entry =
            agg.FindOrCreate(core, engine::branch_site::kAggChain, key);
        agg.Add(core, entry, 0, qty.Get(i));
        agg.Add(core, entry, 1, base_price);
        agg.Add(core, entry, 2, dp);
        agg.Add(core, entry, 3, dp * (100 + tax.Get(i)) / 100);
        agg.Add(core, entry, 4, 1);
        edges.Touch(core, engine::branch_site::kColstoreSel);
      }
      core.RetireN(ColOpElemMix().Scaled(6), m);
    }
  });
  std::map<int64_t, engine::Q1Row> merged;
  for (size_t t = 0; t < w.count(); ++t) {
    for (const auto& e : aggs[t]->entries()) {
      engine::Q1Row& row = merged[e.key];
      row.returnflag = static_cast<int8_t>(e.key >> 8);
      row.linestatus = static_cast<int8_t>(e.key & 0xFF);
      row.sum_qty += e.aggs[0];
      row.sum_base_price += e.aggs[1];
      row.sum_disc_price += e.aggs[2];
      row.sum_charge += e.aggs[3];
      row.count += e.aggs[4];
    }
  }

  engine::Q1Result result;
  for (const auto& [key, row] : merged) result.rows.push_back(row);
  std::sort(result.rows.begin(), result.rows.end(),
            [](const engine::Q1Row& a, const engine::Q1Row& b) {
              return std::tie(a.returnflag, a.linestatus) <
                     std::tie(b.returnflag, b.linestatus);
            });
  return result;
}

Money ColstoreEngine::Q6(Workers& w, const engine::Q6Params& p) const {
  UOLAP_CHECK_MSG(!p.predicated,
                  "DBMS C has no user-controllable predication mode");
  const auto& l = db_.lineitem;
  const size_t n = l.size();

  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(n, t, w.count());
    core::ScopedRegion op_region(core, "select");
    core.SetCodeRegion({"dbmsc/q6", kColOpFootprint});
    core.SetMlpHint(core::kMlpDefault);

    ColumnView<tpch::Date> ship(l.shipdate, &core);
    ColumnView<int64_t> disc(l.discount, &core);
    ColumnView<int64_t> qty(l.quantity, &core);
    ColumnView<Money> ep(l.extendedprice, &core);

    Money acc = 0;
    for (size_t base = r.begin; base < r.end; base += kBatch) {
      const size_t m = std::min(kBatch, r.end - base);
      GlueExcursion(core);
      core.Retire(BatchDispatchMix());
      ship.Touch(base, m);  // the first predicate column, read every tuple
      for (size_t k = 0; k < m; ++k) {
        const size_t i = base + k;
        const tpch::Date s = ship.GetRaw(i);
        const bool pass_date = s >= p.date_lo && s < p.date_hi;
        core.Branch(engine::branch_site::kQ6P1, pass_date);
        if (!pass_date) continue;
        const int64_t d = disc.Get(i);
        const bool pass_disc = d >= p.discount_lo && d <= p.discount_hi;
        core.Branch(engine::branch_site::kQ6P2, pass_disc);
        if (!pass_disc) continue;
        const bool pass_qty = qty.Get(i) < p.quantity_lim;
        core.Branch(engine::branch_site::kQ6P3, pass_qty);
        if (!pass_qty) continue;
        acc += ep.Get(i) * d;
      }
      core.RetireN(ColOpElemMix().Scaled(2), m);
    }
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

}  // namespace uolap::colstore
