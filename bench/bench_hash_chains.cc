// Reproduces the paper's Section 6 hash-chain analysis: the group-by's
// hash table is more irregular than the join's (correlated group keys
// collide more than dbgen's evenly distributed primary/foreign keys),
// which is why the high-cardinality group-by suffers more collisions.
// Paper numbers: join chains 0..1, mean 0.44, stddev 0.49; group-by
// chains 0..7, mean 0.23, stddev 0.5.

#include <cstdio>

#include "common/table_printer.h"
#include "core/machine.h"
#include "engine/hash_table.h"
#include "harness/context.h"

namespace {

using uolap::TablePrinter;
using uolap::engine::AggHashTable;
using uolap::engine::ChainStats;
using uolap::engine::JoinHashTable;

std::vector<std::string> StatRow(const std::string& label,
                                 const ChainStats& s) {
  return {label,
          std::to_string(s.entries),
          std::to_string(s.buckets),
          TablePrinter::Fmt(s.mean, 2),
          TablePrinter::Fmt(s.stddev, 2),
          std::to_string(s.max)};
}

}  // namespace

int main(int argc, char** argv) {
  uolap::harness::BenchContext ctx(argc, argv, /*default_sf=*/0.5);
  ctx.PrintHeader("Section 6 (text): hash-chain statistics");

  uolap::core::Core scratch(ctx.machine());

  // Join table: the large join's build side (dense unique orderkeys).
  JoinHashTable join_ht(scratch, ctx.db().orders.size());
  for (size_t i = 0; i < ctx.db().orders.size(); ++i) {
    join_ht.Insert(scratch, ctx.db().orders.orderkey[i], 1);
  }

  // Group-by table: Q18's phase-1 aggregation keys (l_orderkey occurrences
  // collapse onto ~orders-many groups through FindOrCreate).
  AggHashTable<1> groupby_ht(scratch, ctx.db().orders.size());
  const auto& l = ctx.db().lineitem;
  for (size_t i = 0; i < l.size(); ++i) {
    auto* e = groupby_ht.FindOrCreate(scratch, 1, l.orderkey[i]);
    groupby_ht.Add(scratch, e, 0, l.quantity[i]);
  }

  // A deliberately correlated group-by (the paper's point about groups
  // sharing common attribute values): key = (returnflag, linestatus,
  // quantity bucket) — low-entropy keys.
  AggHashTable<1> corr_ht(scratch, 1024);
  for (size_t i = 0; i < l.size(); ++i) {
    const int64_t key = (static_cast<int64_t>(l.returnflag[i]) << 16) |
                        (static_cast<int64_t>(l.linestatus[i]) << 8) |
                        (l.quantity[i] / 5);
    auto* e = corr_ht.FindOrCreate(scratch, 2, key);
    corr_ht.Add(scratch, e, 0, 1);
  }

  TablePrinter t(
      "Hash-chain statistics (paper: group-by chains are more irregular "
      "than join chains)");
  t.SetHeader({"table", "entries", "buckets", "mean", "stddev", "max"});
  t.AddRow(StatRow("join build (orders, unique keys)",
                   join_ht.ComputeChainStats()));
  t.AddRow(StatRow("group-by (Q18 phase 1, orderkey)",
                   groupby_ht.ComputeChainStats()));
  t.AddRow(StatRow("group-by (correlated low-entropy keys)",
                   corr_ht.ComputeChainStats()));
  ctx.Emit(t);
  return 0;
}
