#include "engines/rowstore/rowstore_engine.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "core/calibration.h"
#include "engine/hash_table.h"
#include "engines/rowstore/expr.h"
#include "storage/column_view.h"

namespace uolap::rowstore {

using core::InstrMix;
using engine::PartitionRange;
using engine::RowRange;
using engine::Workers;
using storage::ColumnView;
using storage::RowRef;
using storage::RowSchema;
using storage::RowTableStorage;
using storage::RowTableView;
using tpch::Money;

namespace {

// ---------------------------------------------------------------------------
// Calibrated per-tuple overheads of the commercial row store (closed
// source; see DESIGN.md's substitution table). Targets, from the paper:
//  - projection: ~2 orders of magnitude slower than Typer, Retiring ~50%
//    (Figs. 1/6), stalls split between Dcache and Execution (Fig. 2);
//  - large join: ~4.5x slower than Typer (Fig. 14);
//  - no significant Icache stalls (hot path loops within ~24 KB).
// ---------------------------------------------------------------------------

/// Cost of one Volcano Next() virtual dispatch (per operator per tuple).
InstrMix IterNextMix() {
  InstrMix m;
  m.alu = 8;
  m.other = 10;
  m.complex = 2;
  m.branch = 2;
  m.chain_cycles = 8;
  return m;
}

/// Per-tuple system overhead of the scan: buffer-pool fix/unfix, latching,
/// tuple header decode, visibility check.
InstrMix ScanOverheadMix() {
  InstrMix m;
  m.alu = 320;
  m.other = 420;
  m.complex = 24;
  m.branch = 48;
  m.chain_cycles = 240;
  return m;
}

/// Extra interpretation cost per *column access* through the full
/// expression machinery (type lookup, nullability check, datum boxing).
InstrMix ColumnAccessMix() {
  InstrMix m;
  m.alu = 130;
  m.other = 170;
  m.complex = 12;
  m.branch = 16;
  m.chain_cycles = 90;
  return m;
}

/// Optimized SARG fast-path predicate check (commercial systems do not run
/// simple `col < const` predicates through the full interpreter).
InstrMix SargMix() {
  InstrMix m;
  m.alu = 10;
  m.other = 8;
  m.chain_cycles = 4;
  return m;
}

/// When the optimizer is forced into a hash join (as the paper does), the
/// commercial engine runs it through its bulk/block operator, bypassing
/// most of the per-tuple Volcano machinery. Calibrated against the
/// paper's Fig. 14: DBMS R is only ~4.5x slower than Typer on the large
/// join (vs ~2 orders of magnitude on projection).
InstrMix BulkJoinTupleMix() {
  InstrMix m;
  m.alu = 70;
  m.other = 80;
  m.complex = 6;
  m.branch = 10;
  m.chain_cycles = 14;
  return m;
}

/// Scattered pointer-chasing loads into the execution-state arena per
/// tuple (plan state, expression contexts, control blocks).
constexpr int kStateLoadsPerTuple = 8;
/// Arena size: larger than the L3 so a fraction of the state misses to
/// DRAM — the source of DBMS R's Dcache stall share.
constexpr size_t kStateArenaBytes = 48ull << 20;

/// Hot code path of the row store: large (the "instruction footprint")
/// but smaller than L1I+L2 so Icache stalls stay minor, matching the
/// paper's contrast with OLTP systems.
constexpr uint64_t kRowstoreCodeFootprint = 24 * 1024;

/// Touches `kStateLoadsPerTuple` pseudo-random 8-byte words of the arena
/// placed at simulated address `arena`.
inline void TouchState(core::Core& core, uint64_t arena, uint64_t* cursor) {
  for (int i = 0; i < kStateLoadsPerTuple; ++i) {
    *cursor = *cursor * 6364136223846793005ULL + 1442695040888963407ULL;
    const size_t idx = (*cursor >> 17) % (kStateArenaBytes / 8);
    core.Load(arena + idx * 8, 8);
  }
}

}  // namespace

RowstoreEngine::RowstoreEngine(const tpch::Database& db) : OlapEngine(db) {
  // Materialize the row-store images of the tables the micro-benchmarks
  // scan. (Q1/Q6/selection/projection drive lineitem; the joins also
  // drive supplier and partsupp.)
  {
    RowSchema s;
    lf_.orderkey = s.AddField("l_orderkey", 8);
    lf_.partkey = s.AddField("l_partkey", 8);
    lf_.suppkey = s.AddField("l_suppkey", 8);
    lf_.quantity = s.AddField("l_quantity", 8);
    lf_.extendedprice = s.AddField("l_extendedprice", 8);
    lf_.discount = s.AddField("l_discount", 8);
    lf_.tax = s.AddField("l_tax", 8);
    lf_.shipdate = s.AddField("l_shipdate", 4);
    lf_.commitdate = s.AddField("l_commitdate", 4);
    lf_.receiptdate = s.AddField("l_receiptdate", 4);
    lf_.returnflag = s.AddField("l_returnflag", 1);
    lf_.linestatus = s.AddField("l_linestatus", 1);
    lineitem_ = std::make_unique<RowTableStorage>(std::move(s));
    const auto& l = db.lineitem;
    std::vector<uint8_t> buf(lineitem_->schema().tuple_bytes());
    for (size_t i = 0; i < l.size(); ++i) {
      auto put = [&buf, this](int f, const void* v, size_t sz) {
        std::memcpy(buf.data() + lineitem_->schema().field(f).offset, v, sz);
      };
      put(lf_.orderkey, &l.orderkey[i], 8);
      put(lf_.partkey, &l.partkey[i], 8);
      put(lf_.suppkey, &l.suppkey[i], 8);
      put(lf_.quantity, &l.quantity[i], 8);
      put(lf_.extendedprice, &l.extendedprice[i], 8);
      put(lf_.discount, &l.discount[i], 8);
      put(lf_.tax, &l.tax[i], 8);
      put(lf_.shipdate, &l.shipdate[i], 4);
      put(lf_.commitdate, &l.commitdate[i], 4);
      put(lf_.receiptdate, &l.receiptdate[i], 4);
      put(lf_.returnflag, &l.returnflag[i], 1);
      put(lf_.linestatus, &l.linestatus[i], 1);
      lineitem_->Append(buf.data());
    }
  }
  {
    RowSchema s;
    sf_.suppkey = s.AddField("s_suppkey", 8);
    sf_.nationkey = s.AddField("s_nationkey", 8);
    sf_.acctbal = s.AddField("s_acctbal", 8);
    supplier_ = std::make_unique<RowTableStorage>(std::move(s));
    const auto& t = db.supplier;
    std::vector<uint8_t> buf(supplier_->schema().tuple_bytes());
    for (size_t i = 0; i < t.size(); ++i) {
      std::memcpy(buf.data() + 0, &t.suppkey[i], 8);
      std::memcpy(buf.data() + 8, &t.nationkey[i], 8);
      std::memcpy(buf.data() + 16, &t.acctbal[i], 8);
      supplier_->Append(buf.data());
    }
  }
  {
    RowSchema s;
    pf_.partkey = s.AddField("ps_partkey", 8);
    pf_.suppkey = s.AddField("ps_suppkey", 8);
    pf_.availqty = s.AddField("ps_availqty", 8);
    pf_.supplycost = s.AddField("ps_supplycost", 8);
    partsupp_ = std::make_unique<RowTableStorage>(std::move(s));
    const auto& t = db.partsupp;
    std::vector<uint8_t> buf(partsupp_->schema().tuple_bytes());
    for (size_t i = 0; i < t.size(); ++i) {
      std::memcpy(buf.data() + 0, &t.partkey[i], 8);
      std::memcpy(buf.data() + 8, &t.suppkey[i], 8);
      std::memcpy(buf.data() + 16, &t.availqty[i], 8);
      std::memcpy(buf.data() + 24, &t.supplycost[i], 8);
      partsupp_->Append(buf.data());
    }
  }
}

Money RowstoreEngine::Projection(Workers& w, int degree) const {
  UOLAP_CHECK(degree >= 1 && degree <= 4);
  // SELECT SUM(expr) FROM lineitem: Scan -> Agg(expr) with the sum
  // expression interpreted per tuple.
  auto make_expr = [this, degree]() {
    std::unique_ptr<Expr> e = Expr::ColI64(lf_.extendedprice);
    if (degree >= 2) {
      e = Expr::Binary(Expr::Op::kAdd, std::move(e),
                       Expr::ColI64(lf_.discount));
    }
    if (degree >= 3) {
      e = Expr::Binary(Expr::Op::kAdd, std::move(e), Expr::ColI64(lf_.tax));
    }
    if (degree >= 4) {
      e = Expr::Binary(Expr::Op::kAdd, std::move(e),
                       Expr::ColI64(lf_.quantity));
    }
    return e;
  };

  const size_t n = lineitem_->num_tuples();
  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(n, t, w.count());
    core::ScopedRegion op_region(core, "project");
    core.SetCodeRegion({"dbmsr/projection", kRowstoreCodeFootprint});
    core.SetMlpHint(core::kMlpDefault);
    const std::unique_ptr<Expr> expr = make_expr();
    PlaceExpr(core, *expr);
    const RowTableView rows(*lineitem_, &core);
    const uint64_t arena =
        core.placement().Resident(&state_arena_key_, kStateArenaBytes);
    uint64_t cursor = 0x1234 + t;
    Money acc = 0;
    for (size_t i = r.begin; i < r.end; ++i) {
      core.Retire(IterNextMix());  // Agg::Next
      core.Retire(IterNextMix());  // Scan::Next
      core.Retire(ScanOverheadMix());
      TouchState(core, arena, &cursor);
      const RowRef tuple = rows.TupleForScan(i);
      acc += EvalExpr(core, *expr, rows, tuple);
      core.RetireN(ColumnAccessMix(), static_cast<uint64_t>(degree));
    }
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

Money RowstoreEngine::Selection(Workers& w,
                                const engine::SelectionParams& p) const {
  UOLAP_CHECK_MSG(!p.predicated,
                  "DBMS R has no user-controllable predication mode");
  const size_t n = lineitem_->num_tuples();
  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(n, t, w.count());
    core::ScopedRegion op_region(core, "select");
    core.SetCodeRegion({"dbmsr/selection", kRowstoreCodeFootprint});
    core.SetMlpHint(core::kMlpDefault);
    // Sum expression (interpreted); predicates go through the SARG fast
    // path, as a commercial optimizer would plan `col < const`.
    const std::unique_ptr<Expr> expr = Expr::Binary(
        Expr::Op::kAdd,
        Expr::Binary(Expr::Op::kAdd, Expr::ColI64(lf_.extendedprice),
                     Expr::ColI64(lf_.discount)),
        Expr::Binary(Expr::Op::kAdd, Expr::ColI64(lf_.tax),
                     Expr::ColI64(lf_.quantity)));
    PlaceExpr(core, *expr);
    const RowTableView rows(*lineitem_, &core);
    const uint64_t arena =
        core.placement().Resident(&state_arena_key_, kStateArenaBytes);
    uint64_t cursor = 0x9876 + t;
    Money acc = 0;
    for (size_t i = r.begin; i < r.end; ++i) {
      core.Retire(IterNextMix());  // Agg::Next
      core.Retire(IterNextMix());  // Filter::Next
      core.Retire(IterNextMix());  // Scan::Next
      core.Retire(ScanOverheadMix());
      TouchState(core, arena, &cursor);
      const RowRef tuple = rows.TupleForScan(i);
      // Three SARG checks, evaluated eagerly, one branch on the result.
      const bool pass =
          (rows.ReadI32(tuple, lf_.shipdate) < p.ship_cut) &
          (rows.ReadI32(tuple, lf_.commitdate) < p.commit_cut) &
          (rows.ReadI32(tuple, lf_.receiptdate) < p.receipt_cut);
      core.RetireN(SargMix(), 3);
      core.Branch(engine::branch_site::kRowstoreExpr, pass);
      if (pass) {
        acc += EvalExpr(core, *expr, rows, tuple);
        core.RetireN(ColumnAccessMix(), 4);
      }
    }
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

Money RowstoreEngine::Join(Workers& w, engine::JoinSize size) const {
  // Scan(probe) -> HashJoin(build) -> Agg(expr over probe columns).
  // The build side goes through the same scan machinery.
  struct Side {
    const RowTableStorage* probe = nullptr;
    int key_field = 0;
    std::unique_ptr<Expr> sum_expr;
    const std::vector<int64_t>* build_keys = nullptr;
  };
  Side side;
  switch (size) {
    case engine::JoinSize::kSmall:
      side.probe = supplier_.get();
      side.key_field = sf_.nationkey;
      side.sum_expr =
          Expr::Binary(Expr::Op::kAdd, Expr::ColI64(sf_.acctbal),
                       Expr::ColI64(sf_.suppkey));
      side.build_keys = &db_.nation.nationkey;
      break;
    case engine::JoinSize::kMedium:
      side.probe = partsupp_.get();
      side.key_field = pf_.suppkey;
      side.sum_expr =
          Expr::Binary(Expr::Op::kAdd, Expr::ColI64(pf_.availqty),
                       Expr::ColI64(pf_.supplycost));
      side.build_keys = &db_.supplier.suppkey;
      break;
    case engine::JoinSize::kLarge:
      side.probe = lineitem_.get();
      side.key_field = lf_.orderkey;
      side.sum_expr = Expr::Binary(
          Expr::Op::kAdd,
          Expr::Binary(Expr::Op::kAdd, Expr::ColI64(lf_.extendedprice),
                       Expr::ColI64(lf_.discount)),
          Expr::Binary(Expr::Op::kAdd, Expr::ColI64(lf_.tax),
                       Expr::ColI64(lf_.quantity)));
      side.build_keys = &db_.orders.orderkey;
      break;
  }

  engine::JoinHashTable ht(*w.cores[0], side.build_keys->size());
  for (size_t t = 0; t < w.count(); ++t) {
    core::Core& core = *w.cores[t];
    const RowRange r =
        PartitionRange(side.build_keys->size(), t, w.count());
    core::ScopedRegion op_region(core, "build");
    core.SetCodeRegion({"dbmsr/join-build", kRowstoreCodeFootprint});
    core.SetMlpHint(core::kMlpScalarProbe);
    const ColumnView<int64_t> keys(*side.build_keys, &core);
    for (size_t i = r.begin; i < r.end; ++i) {
      core.Retire(BulkJoinTupleMix());
      ht.Insert(core, keys.Get(i), 1);
    }
  }

  const size_t n = side.probe->num_tuples();
  // The probe fans out; the sum expression tree is shared read-only.
  PlaceExpr(*w.cores[0], *side.sum_expr);
  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(n, t, w.count());
    core::ScopedRegion op_region(core, "probe");
    core.SetCodeRegion({"dbmsr/join-probe", kRowstoreCodeFootprint});
    core.SetMlpHint(core::kMlpScalarProbe);
    const RowTableView rows(*side.probe, &core);
    Money acc = 0;
    for (size_t i = r.begin; i < r.end; ++i) {
      // Bulk/block hash-join path: light per-tuple machinery.
      core.Retire(BulkJoinTupleMix());
      const RowRef tuple = rows.TupleForScan(i);
      const int64_t key = rows.ReadI64(tuple, side.key_field);
      int64_t unused;
      const bool matched = ht.ProbeFirst(
          core, engine::branch_site::kJoinChain, key, &unused);
      if (matched) {
        // The sum expression still runs through the interpreter, but on
        // the bulk path its per-column datum boxing is amortized.
        acc += EvalExpr(core, *side.sum_expr, rows, tuple);
      }
    }
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

int64_t RowstoreEngine::GroupBy(Workers& w, int64_t num_groups) const {
  UOLAP_CHECK(num_groups >= 1);
  const size_t n = lineitem_->num_tuples();
  // Per-worker aggregation tables; a worker's key space is bounded by
  // num_groups.
  std::vector<std::unique_ptr<engine::AggHashTable<1>>> aggs(w.count());
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(n, t, w.count());
    core::ScopedRegion op_region(core, "groupby");
    core.SetCodeRegion({"dbmsr/groupby", 24 * 1024});
    core.SetMlpHint(core::kMlpScalarProbe);
    aggs[t] = std::make_unique<engine::AggHashTable<1>>(
        core, static_cast<size_t>(std::min<int64_t>(
                  num_groups, static_cast<int64_t>(r.size())) + 1));
    engine::AggHashTable<1>& agg = *aggs[t];
    const RowTableView rows(*lineitem_, &core);
    const uint64_t arena =
        core.placement().Resident(&state_arena_key_, kStateArenaBytes);
    uint64_t cursor = 0x6B + t;
    for (size_t i = r.begin; i < r.end; ++i) {
      core.Retire(IterNextMix());  // Agg::Next
      core.Retire(IterNextMix());  // Scan::Next
      core.Retire(ScanOverheadMix());
      TouchState(core, arena, &cursor);
      const RowRef tuple = rows.TupleForScan(i);
      const int64_t key = engine::groupby::GroupKey(
          rows.ReadI64(tuple, lf_.orderkey), num_groups);
      const Money ep = rows.ReadI64(tuple, lf_.extendedprice);
      core.RetireN(ColumnAccessMix(), 2);
      auto* entry = agg.FindOrCreate(
          core, engine::branch_site::kGroupByChain, key);
      agg.Add(core, entry, 0, ep);
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

engine::Q1Result RowstoreEngine::Q1(Workers& w) const {
  const size_t n = lineitem_->num_tuples();
  const tpch::Date cut = engine::Q1ShipdateCut();
  std::vector<std::unique_ptr<engine::AggHashTable<5>>> aggs(w.count());
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(n, t, w.count());
    core::ScopedRegion op_region(core, "agg");
    core.SetCodeRegion({"dbmsr/q1", kRowstoreCodeFootprint + 8192});
    core.SetMlpHint(core::kMlpDefault);
    aggs[t] = std::make_unique<engine::AggHashTable<5>>(core, 8);
    engine::AggHashTable<5>& agg = *aggs[t];
    const RowTableView rows(*lineitem_, &core);
    const uint64_t arena =
        core.placement().Resident(&state_arena_key_, kStateArenaBytes);
    uint64_t cursor = 0x31 + t;
    for (size_t i = r.begin; i < r.end; ++i) {
      core.Retire(IterNextMix());
      core.Retire(IterNextMix());
      core.Retire(ScanOverheadMix());
      TouchState(core, arena, &cursor);
      const RowRef tuple = rows.TupleForScan(i);
      const bool pass = rows.ReadI32(tuple, lf_.shipdate) <= cut;
      core.Retire(SargMix());
      core.Branch(engine::branch_site::kRowstoreExpr, pass);
      if (!pass) continue;
      const int64_t flag = rows.ReadI8(tuple, lf_.returnflag);
      const int64_t status = rows.ReadI8(tuple, lf_.linestatus);
      const Money ep = rows.ReadI64(tuple, lf_.extendedprice);
      const int64_t d = rows.ReadI64(tuple, lf_.discount);
      const int64_t tax = rows.ReadI64(tuple, lf_.tax);
      const int64_t qty = rows.ReadI64(tuple, lf_.quantity);
      core.RetireN(ColumnAccessMix(), 6);
      const Money dp = tpch::DiscountedPrice(ep, d);
      auto* entry = agg.FindOrCreate(core, engine::branch_site::kAggChain,
                                     (flag << 8) | status);
      agg.Add(core, entry, 0, qty);
      agg.Add(core, entry, 1, ep);
      agg.Add(core, entry, 2, dp);
      agg.Add(core, entry, 3, dp * (100 + tax) / 100);
      agg.Add(core, entry, 4, 1);
      InstrMix arith;
      arith.alu = 6;
      arith.mul = 4;
      core.Retire(arith);
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

Money RowstoreEngine::Q6(Workers& w, const engine::Q6Params& p) const {
  UOLAP_CHECK_MSG(!p.predicated,
                  "DBMS R has no user-controllable predication mode");
  const size_t n = lineitem_->num_tuples();
  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(n, t, w.count());
    core::ScopedRegion op_region(core, "select");
    core.SetCodeRegion({"dbmsr/q6", kRowstoreCodeFootprint});
    core.SetMlpHint(core::kMlpDefault);
    const RowTableView rows(*lineitem_, &core);
    const uint64_t arena =
        core.placement().Resident(&state_arena_key_, kStateArenaBytes);
    uint64_t cursor = 0x66 + t;
    Money acc = 0;
    for (size_t i = r.begin; i < r.end; ++i) {
      core.Retire(IterNextMix());
      core.Retire(IterNextMix());
      core.Retire(ScanOverheadMix());
      TouchState(core, arena, &cursor);
      const RowRef tuple = rows.TupleForScan(i);
      const auto ship = rows.ReadI32(tuple, lf_.shipdate);
      const int64_t d = rows.ReadI64(tuple, lf_.discount);
      const int64_t qty = rows.ReadI64(tuple, lf_.quantity);
      const bool pass = (ship >= p.date_lo) & (ship < p.date_hi) &
                        (d >= p.discount_lo) & (d <= p.discount_hi) &
                        (qty < p.quantity_lim);
      core.RetireN(SargMix(), 5);
      core.Branch(engine::branch_site::kRowstoreExpr, pass);
      if (pass) {
        const Money ep =
            rows.ReadI64(tuple, lf_.extendedprice);
        core.RetireN(ColumnAccessMix(), 2);
        InstrMix mul;
        mul.mul = 1;
        core.Retire(mul);
        acc += ep * d;
      }
    }
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

}  // namespace uolap::rowstore
