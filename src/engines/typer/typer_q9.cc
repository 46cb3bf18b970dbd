// Typer's TPC-H Q9: the join-intensive query. Plan (standard left-deep):
//   lineitem |x| part(green) |x| partsupp |x| orders |x| supplier |x| nation
// with a (nation, year) group-by on top. All joins are hash joins; the
// probe pipeline is one fused loop over lineitem.

#include <algorithm>
#include <cstring>
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
using engine::JoinHashTable;
using engine::PartitionRange;
using engine::Q9Result;
using engine::Q9Row;
using engine::RowRange;
using engine::Workers;
using storage::ColumnView;
using tpch::Money;

namespace {

/// Simulated substring search for "green" over a part name: loads the
/// bytes and charges roughly one compare per character (the compiled
/// memmem loop). `names_addr` is the simulated address of names.blob().
bool NameContainsGreen(core::Core& core, const tpch::StringColumn& names,
                       uint64_t names_addr, size_t i) {
  const char* data = names.DataPtr(i);
  const uint32_t len = names.Length(i);
  core.Load(names_addr + names.Offset(i), len);
  InstrMix m;
  m.alu = len;
  core.Retire(m);
  static constexpr char kNeedle[] = "green";
  if (len < 5) return false;
  for (uint32_t pos = 0; pos + 5 <= len; ++pos) {
    if (std::memcmp(data + pos, kNeedle, 5) == 0) return true;
  }
  return false;
}

}  // namespace

Q9Result TyperEngine::Q9(Workers& w) const {
  const auto& part = db_.part;
  const auto& ps = db_.partsupp;
  const auto& sup = db_.supplier;
  const auto& ord = db_.orders;
  const auto& l = db_.lineitem;
  const int64_t num_supp = static_cast<int64_t>(sup.size());

  // --- build: part filter (p_name like '%green%') -> partkey set ---
  JoinHashTable green_parts(*w.cores[0], part.size() / 16 + 16);
  for (size_t t = 0; t < w.count(); ++t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion filter_region(core, "filter");
    const RowRange r = PartitionRange(part.size(), t, w.count());
    core.SetCodeRegion({"typer/q9-part-filter", 1024});
    core.SetMlpHint(core::kMlpDefault);
    ColumnView<int64_t> pk(part.partkey, &core);
    const uint64_t names = core.placement().Resident(
        part.name.blob().data(), part.name.blob().size());
    for (size_t i = r.begin; i < r.end; ++i) {
      const bool green = NameContainsGreen(core, part.name, names, i);
      core.Branch(engine::branch_site::kQ9PartFilter, green);
      if (green) green_parts.Insert(core, pk.Get(i), 1);
    }
    InstrMix loop;
    loop.alu = 2;
    loop.branch = 1;
    core.RetireN(loop, r.size());
  }

  // --- build: supplier -> nationkey ---
  JoinHashTable supp_nation(*w.cores[0], sup.size());
  // --- build: partsupp (partkey, suppkey) -> supplycost ---
  JoinHashTable ps_cost(*w.cores[0], ps.size());
  // --- build: orders -> orderdate ---
  JoinHashTable order_date(*w.cores[0], ord.size());
  for (size_t t = 0; t < w.count(); ++t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion build_region(core, "build");
    core.SetCodeRegion({"typer/q9-builds", 1024});
    core.SetMlpHint(core::kMlpScalarProbe);
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
      InstrMix key_mix;  // composite key: pk * (S+1) + sk
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
  }

  // --- probe pipeline over lineitem, (nationkey, year) aggregation ---
  // Per-worker aggregation tables; the (nation, year) group count is far
  // below the 256 reserved entries.
  std::vector<std::unique_ptr<AggHashTable<1>>> aggs(w.count());
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion probe_region(core, "probe");
    const RowRange r = PartitionRange(l.size(), t, w.count());
    core.SetCodeRegion({"typer/q9-probe", 2048});
    core.SetMlpHint(core::kMlpScalarProbe);
    aggs[t] = std::make_unique<AggHashTable<1>>(core, 256);

    ColumnView<int64_t> pk(l.partkey, &core);
    ColumnView<int64_t> sk(l.suppkey, &core);
    ColumnView<int64_t> ok(l.orderkey, &core);
    ColumnView<Money> ep(l.extendedprice, &core);
    ColumnView<int64_t> disc(l.discount, &core);
    ColumnView<int64_t> qty(l.quantity, &core);

    AggHashTable<1>& agg = *aggs[t];
    uint64_t green_hits = 0;
    constexpr size_t kBlock = 1024;
    for (size_t blk = r.begin; blk < r.end; blk += kBlock) {
      const size_t blk_end = std::min(r.end, blk + kBlock);
      pk.Touch(blk, blk_end - blk);  // probe key, read for every tuple
      for (size_t i = blk; i < blk_end; ++i) {
        int64_t unused;
        const bool is_green = green_parts.ProbeFirst(
            core, engine::branch_site::kQ9Chain1, pk.GetRaw(i), &unused);
        if (!is_green) continue;
        ++green_hits;

        const int64_t ps_key = pk.GetRaw(i) * (num_supp + 1) + sk.Get(i);
        int64_t supplycost = 0;
        ps_cost.ProbeFirst(core, engine::branch_site::kQ9Chain2, ps_key,
                           &supplycost);
        int64_t odate64 = 0;
        order_date.ProbeFirst(core, engine::branch_site::kQ9Chain3,
                              ok.Get(i), &odate64);
        const tpch::Date odate = static_cast<tpch::Date>(odate64);
        int64_t nationkey = 0;
        supp_nation.ProbeFirst(core, engine::branch_site::kQ9Chain4,
                               sk.GetRaw(i), &nationkey);

        const int year = tpch::DateYear(odate);
        const Money amount = tpch::DiscountedPrice(ep.Get(i), disc.Get(i)) -
                             supplycost * qty.Get(i);
        auto* entry = agg.FindOrCreate(
            core, engine::branch_site::kQ9AggChain, nationkey * 4096 + year);
        agg.Add(core, entry, 0, amount);
      }
    }
    InstrMix per_tuple;
    per_tuple.alu = 2;
    per_tuple.branch = 1;
    core.RetireN(per_tuple, r.size());
    InstrMix per_hit;  // composite key, year extraction, profit arithmetic
    per_hit.alu = 14;
    per_hit.mul = 4;
    per_hit.chain_cycles = 2;
    core.RetireN(per_hit, green_hits);
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
    row.nation = std::string(db_.nation.name.Get(
        static_cast<size_t>(key.first)));
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

}  // namespace uolap::typer
