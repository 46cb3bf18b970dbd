// Tectorwise hash-join micro-benchmarks.

#include <vector>

#include "common/macros.h"
#include "engines/tectorwise/primitives.h"
#include "engines/tectorwise/tw_engine.h"
#include "storage/column_view.h"

namespace uolap::tectorwise {

using engine::JoinHashTable;
using engine::JoinSize;
using engine::PartitionRange;
using engine::RowRange;
using engine::Workers;
using storage::ColumnView;
using storage::Resident;
using storage::SimVector;
using tpch::Money;

namespace {

void SharedBuild(Workers& w, bool simd, JoinHashTable* ht,
                 const std::vector<int64_t>& keys,
                 const std::vector<int64_t>& payloads,
                 const char* region_name) {
  const size_t n = keys.size();
  for (size_t t = 0; t < w.count(); ++t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion build_region(core, "build");
    const RowRange r = PartitionRange(n, t, w.count());
    core.SetCodeRegion({region_name, 2048});
    core.SetMlpHint(simd ? core::kMlpSimdGather : core::kMlpVectorProbe);
    ColumnView<int64_t> key(keys, &core);
    ColumnView<int64_t> pay(payloads, &core);
    for (size_t i = r.begin; i < r.end; ++i) {
      ht->Insert(core, key.Get(i), pay.Get(i));
    }
    core::InstrMix loop;
    loop.alu = 1;
    loop.branch = 1;
    core.RetireN(loop, r.size());
    core.SetMlpHint(core::kMlpDefault);
  }
}

/// Probe phase of the large join (lineitem |x| orders), vectorized: probe
/// primitive producing a match selection vector, then the four-column
/// selected projection.
Money LargeJoinProbe(const tpch::Database& db, Workers& w, bool simd,
                     const JoinHashTable& ht) {
  const auto& l = db.lineitem;
  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    const RowRange r = PartitionRange(l.size(), t, w.count());
    core.SetCodeRegion({"tw/join-probe-large", 4096});
    VecCtx ctx{&core, simd};

    SimVector<uint32_t> match_sel(core, kVecSize);
    SimVector<int64_t> payloads(core, kVecSize), v1(core, kVecSize),
        v2(core, kVecSize), v3(core, kVecSize);
    const auto ok = Resident(l.orderkey, core);
    const auto ep = Resident(l.extendedprice, core);
    const auto disc = Resident(l.discount, core);
    const auto tax = Resident(l.tax, core);
    const auto qty = Resident(l.quantity, core);

    Money acc = 0;
    for (size_t base = r.begin; base < r.end; base += kVecSize) {
      const size_t m = std::min(kVecSize, r.end - base);
      size_t matches;
      {
        core::ScopedRegion probe_region(core, "probe");
        matches = HtProbeSel(ctx, engine::branch_site::kJoinChain, ht,
                             ok + base, 0, {}, m, match_sel.ptr(),
                             payloads.ptr());
      }
      if (matches == 0) continue;
      core::ScopedRegion mat_region(core, "materialize");
      MapAddSel(ctx, v1.ptr(), ep + base, disc + base, match_sel.ptr(),
                matches);
      MapAddDenseGather(ctx, v2.ptr(), v1.ptr(), tax + base, match_sel.ptr(),
                        matches);
      MapAddDenseGather(ctx, v3.ptr(), v2.ptr(), qty + base, match_sel.ptr(),
                        matches);
      acc += SumColumn(ctx, v3.ptr(), matches);
    }
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

}  // namespace

Money TectorwiseEngine::Join(Workers& w, JoinSize size) const {
  switch (size) {
    case JoinSize::kSmall: {
      JoinHashTable ht(*w.cores[0], db_.nation.size());
      SharedBuild(w, simd_, &ht, db_.nation.nationkey, db_.nation.regionkey,
                  "tw/join-build-small");
      const auto& s = db_.supplier;
      std::vector<Money> partial(w.count(), 0);
      w.ForEach([&](size_t t) {
        core::Core& core = *w.cores[t];
        core::ScopedRegion probe_region(core, "probe");
        const RowRange r = PartitionRange(s.size(), t, w.count());
        core.SetCodeRegion({"tw/join-probe-small", 3072});
        VecCtx ctx{&core, simd_};
        SimVector<uint32_t> match_sel(core, kVecSize);
        SimVector<int64_t> v1(core, kVecSize);
        const auto keys = Resident(s.nationkey, core);
        const auto a = Resident(s.acctbal, core);
        const auto b = Resident(s.suppkey, core);
        Money acc = 0;
        for (size_t base = r.begin; base < r.end; base += kVecSize) {
          const size_t m = std::min(kVecSize, r.end - base);
          const size_t matches =
              HtProbeSel(ctx, engine::branch_site::kJoinChain, ht,
                         keys + base, 0, {}, m, match_sel.ptr(), {});
          if (matches == 0) continue;
          MapAddSel(ctx, v1.ptr(), a + base, b + base, match_sel.ptr(),
                    matches);
          acc += SumColumn(ctx, v1.ptr(), matches);
        }
        partial[t] = acc;
      });
      Money total = 0;
      for (Money a : partial) total += a;
      return total;
    }
    case JoinSize::kMedium: {
      JoinHashTable ht(*w.cores[0], db_.supplier.size());
      SharedBuild(w, simd_, &ht, db_.supplier.suppkey,
                  db_.supplier.nationkey, "tw/join-build-medium");
      const auto& ps = db_.partsupp;
      std::vector<Money> partial(w.count(), 0);
      w.ForEach([&](size_t t) {
        core::Core& core = *w.cores[t];
        core::ScopedRegion probe_region(core, "probe");
        const RowRange r = PartitionRange(ps.size(), t, w.count());
        core.SetCodeRegion({"tw/join-probe-medium", 3072});
        VecCtx ctx{&core, simd_};
        SimVector<uint32_t> match_sel(core, kVecSize);
        SimVector<int64_t> v1(core, kVecSize);
        const auto keys = Resident(ps.suppkey, core);
        const auto a = Resident(ps.availqty, core);
        const auto b = Resident(ps.supplycost, core);
        Money acc = 0;
        for (size_t base = r.begin; base < r.end; base += kVecSize) {
          const size_t m = std::min(kVecSize, r.end - base);
          const size_t matches =
              HtProbeSel(ctx, engine::branch_site::kJoinChain, ht,
                         keys + base, 0, {}, m, match_sel.ptr(), {});
          if (matches == 0) continue;
          MapAddSel(ctx, v1.ptr(), a + base, b + base, match_sel.ptr(),
                    matches);
          acc += SumColumn(ctx, v1.ptr(), matches);
        }
        partial[t] = acc;
      });
      Money total = 0;
      for (Money a : partial) total += a;
      return total;
    }
    case JoinSize::kLarge: {
      JoinHashTable ht(*w.cores[0], db_.orders.size());
      SharedBuild(w, simd_, &ht, db_.orders.orderkey, db_.orders.custkey,
                  "tw/join-build-large");
      return LargeJoinProbe(db_, w, simd_, ht);
    }
  }
  UOLAP_CHECK_MSG(false, "unreachable join size");
  return 0;
}

Money TectorwiseEngine::LargeJoinProbeOnly(Workers& w) const {
  // Build natively (uncharged) so the profile isolates the probe phase,
  // as the paper's Section 8.2 does.
  JoinHashTable ht(*w.cores[0], db_.orders.size());
  core::Core scratch(w.cores[0]->config());
  for (size_t i = 0; i < db_.orders.size(); ++i) {
    ht.Insert(scratch, db_.orders.orderkey[i], db_.orders.custkey[i]);
  }
  return LargeJoinProbe(db_, w, simd_, ht);
}

}  // namespace uolap::tectorwise
