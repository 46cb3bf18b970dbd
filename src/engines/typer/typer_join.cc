// Typer's hash-join micro-benchmarks (small / medium / large).

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
using engine::JoinSize;
using engine::PartitionRange;
using engine::RowRange;
using engine::Workers;
using storage::ColumnView;
using tpch::Money;

namespace {

constexpr size_t kBlock = 1024;  // batched-charge block, see typer_scan.cc

/// Builds `ht` from key/payload columns, the build side partitioned across
/// the workers (modelling a shared parallel build: each worker's slice is
/// driven through its own core against the one shared table). The table is
/// shared mutable state, so this phase always runs serially — only probe
/// phases fan out via ForEach.
void SharedBuild(Workers& w, JoinHashTable* ht,
                 const std::vector<int64_t>& keys,
                 const std::vector<int64_t>& payloads,
                 const char* region_name) {
  const size_t n = keys.size();
  for (size_t t = 0; t < w.count(); ++t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion build_region(core, "build");
    const RowRange r = PartitionRange(n, t, w.count());
    core.SetCodeRegion({region_name, 768});
    core.SetMlpHint(core::kMlpScalarProbe);
    ColumnView<int64_t> key(keys, &core);
    ColumnView<int64_t> pay(payloads, &core);
    for (size_t i = r.begin; i < r.end; ++i) {
      ht->Insert(core, key.Get(i), pay.Get(i));
    }
    InstrMix loop;
    loop.alu = 1;
    loop.branch = 1;
    core.RetireN(loop, r.size());
  }
}

}  // namespace

Money TyperEngine::Join(Workers& w, JoinSize size) const {
  switch (size) {
    case JoinSize::kSmall: {
      // supplier JOIN nation ON nationkey; SUM(s_acctbal + s_suppkey).
      JoinHashTable ht(*w.cores[0], db_.nation.size());
      SharedBuild(w, &ht, db_.nation.nationkey, db_.nation.regionkey,
                  "typer/join-build-small");
      const auto& s = db_.supplier;
      std::vector<Money> partial(w.count(), 0);
      w.ForEach([&](size_t t) {
        core::Core& core = *w.cores[t];
        core::ScopedRegion probe_region(core, "probe");
        const RowRange r = PartitionRange(s.size(), t, w.count());
        core.SetCodeRegion({"typer/join-probe-small", 1024});
        core.SetMlpHint(core::kMlpScalarProbe);
        ColumnView<int64_t> nk(s.nationkey, &core);
        ColumnView<Money> bal(s.acctbal, &core);
        ColumnView<int64_t> sk(s.suppkey, &core);
        Money acc = 0;
        for (size_t b = r.begin; b < r.end; b += kBlock) {
          const size_t e = std::min(r.end, b + kBlock);
          nk.Touch(b, e - b);  // the probe-key column is read every tuple
          ht.ProbeFirstBlock(
              core, engine::branch_site::kJoinChain, core::kMlpScalarProbe,
              b, e, [&](size_t i) { return nk.GetRaw(i); },
              [&](size_t i, int64_t) { acc += bal.Get(i) + sk.Get(i); });
        }
        InstrMix per_tuple;
        per_tuple.alu = 3;
        per_tuple.branch = 1;
        per_tuple.chain_cycles = 1;
        core.RetireN(per_tuple, r.size());
        partial[t] = acc;
      });
      Money total = 0;
      for (Money a : partial) total += a;
      return total;
    }
    case JoinSize::kMedium: {
      // partsupp JOIN supplier ON suppkey; SUM(ps_availqty+ps_supplycost).
      JoinHashTable ht(*w.cores[0], db_.supplier.size());
      SharedBuild(w, &ht, db_.supplier.suppkey, db_.supplier.nationkey,
                  "typer/join-build-medium");
      const auto& ps = db_.partsupp;
      std::vector<Money> partial(w.count(), 0);
      w.ForEach([&](size_t t) {
        core::Core& core = *w.cores[t];
        core::ScopedRegion probe_region(core, "probe");
        const RowRange r = PartitionRange(ps.size(), t, w.count());
        core.SetCodeRegion({"typer/join-probe-medium", 1024});
        core.SetMlpHint(core::kMlpScalarProbe);
        ColumnView<int64_t> sk(ps.suppkey, &core);
        ColumnView<int64_t> avail(ps.availqty, &core);
        ColumnView<Money> cost(ps.supplycost, &core);
        Money acc = 0;
        for (size_t b = r.begin; b < r.end; b += kBlock) {
          const size_t e = std::min(r.end, b + kBlock);
          sk.Touch(b, e - b);
          ht.ProbeFirstBlock(
              core, engine::branch_site::kJoinChain, core::kMlpScalarProbe,
              b, e, [&](size_t i) { return sk.GetRaw(i); },
              [&](size_t i, int64_t) { acc += avail.Get(i) + cost.Get(i); });
        }
        InstrMix per_tuple;
        per_tuple.alu = 3;
        per_tuple.branch = 1;
        per_tuple.chain_cycles = 1;
        core.RetireN(per_tuple, r.size());
        partial[t] = acc;
      });
      Money total = 0;
      for (Money a : partial) total += a;
      return total;
    }
    case JoinSize::kLarge: {
      // lineitem JOIN orders ON orderkey; SUM of the four projection
      // columns of the matching lineitems.
      JoinHashTable ht(*w.cores[0], db_.orders.size());
      SharedBuild(w, &ht, db_.orders.orderkey, db_.orders.custkey,
                  "typer/join-build-large");
      const auto& l = db_.lineitem;
      std::vector<Money> partial(w.count(), 0);
      w.ForEach([&](size_t t) {
        core::Core& core = *w.cores[t];
        const RowRange r = PartitionRange(l.size(), t, w.count());
        core.SetCodeRegion({"typer/join-probe-large", 1280});
        core.SetMlpHint(core::kMlpScalarProbe);
        ColumnView<int64_t> ok(l.orderkey, &core);
        ColumnView<Money> ep(l.extendedprice, &core);
        ColumnView<int64_t> disc(l.discount, &core);
        ColumnView<int64_t> tax(l.tax, &core);
        ColumnView<int64_t> qty(l.quantity, &core);
        Money acc = 0;
        {
          core::ScopedRegion probe_region(core, "probe");
          for (size_t b = r.begin; b < r.end; b += kBlock) {
            const size_t e = std::min(r.end, b + kBlock);
            ok.Touch(b, e - b);
            ht.ProbeFirstBlock(
                core, engine::branch_site::kJoinChain, core::kMlpScalarProbe,
                b, e, [&](size_t i) { return ok.GetRaw(i); },
                [&](size_t i, int64_t) {
                  acc += ep.Get(i) + disc.Get(i) + tax.Get(i) + qty.Get(i);
                });
          }
          InstrMix per_tuple;
          per_tuple.alu = 3;
          per_tuple.branch = 1;
          per_tuple.chain_cycles = 1;
          core.RetireN(per_tuple, r.size());
        }
        {
          core::ScopedRegion mat_region(core, "materialize");
          InstrMix per_match;  // the 4-column sum
          per_match.alu = 4;
          core.RetireN(per_match, r.size());  // FK join: every probe matches
        }
        partial[t] = acc;
      });
      Money total = 0;
      for (Money a : partial) total += a;
      return total;
    }
  }
  UOLAP_CHECK_MSG(false, "unreachable join size");
  return 0;
}

Money TyperEngine::JoinLargeInterleaved(Workers& w) const {
  // The "opportunity" the paper points to for random-access joins
  // (Section 5, citing Jonathan et al. and Psaropoulos et al.): interleave
  // groups of probes so that their long-latency misses overlap instead of
  // serializing. Modelled as group prefetching with a group size of 8:
  //  - the bucket/entry chases of 8 probes are in flight together
  //    (SetMlpHint(kMlpSimdGather) during the probe phase);
  //  - each probe pays a little extra bookkeeping (stage state, prefetch
  //    instructions) and loses its serial chase chain.
  JoinHashTable ht(*w.cores[0], db_.orders.size());
  SharedBuild(w, &ht, db_.orders.orderkey, db_.orders.custkey,
              "typer/join-build-large");
  const auto& l = db_.lineitem;
  constexpr size_t kGroup = 8;
  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(l.size(), t, w.count());
    core.SetCodeRegion({"typer/join-probe-interleaved", 2048});
    core.SetMlpHint(core::kMlpSimdGather);
    ColumnView<int64_t> ok(l.orderkey, &core);
    ColumnView<Money> ep(l.extendedprice, &core);
    ColumnView<int64_t> disc(l.discount, &core);
    ColumnView<int64_t> tax(l.tax, &core);
    ColumnView<int64_t> qty(l.quantity, &core);
    Money acc = 0;
    {
      core::ScopedRegion probe_region(core, "probe");
      for (size_t base = r.begin; base < r.end; base += kGroup) {
        const size_t m = std::min(kGroup, r.end - base);
        ok.Touch(base, m);  // the group's keys are gathered up front
        ht.ProbeFirstBlock(
            core, engine::branch_site::kJoinChain, core::kMlpSimdGather,
            base, base + m, [&](size_t i) { return ok.GetRaw(i); },
            [&](size_t i, int64_t) {
              acc += ep.Get(i) + disc.Get(i) + tax.Get(i) + qty.Get(i);
            });
        // Group-state management + software prefetch issue per probe; the
        // serial chase chain of the plain probe is overlapped away, so no
        // extra chain cycles are charged here.
        InstrMix per_group;
        per_group.alu = static_cast<uint64_t>(m) * 5;
        per_group.other = static_cast<uint64_t>(m) * 3;
        per_group.branch = static_cast<uint64_t>(m);
        core.RetireN(per_group, 1);
      }
    }
    {
      core::ScopedRegion mat_region(core, "materialize");
      InstrMix per_match;
      per_match.alu = 4;
      core.RetireN(per_match, r.size());
    }
    core.SetMlpHint(core::kMlpDefault);
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

}  // namespace uolap::typer
