// Tectorwise projection and selection micro-benchmarks: vector-at-a-time
// pipelines with materialized intermediates and selection vectors.

#include <vector>

#include "common/macros.h"
#include "engines/tectorwise/primitives.h"
#include "engines/tectorwise/tw_engine.h"
#include "storage/column_view.h"

namespace uolap::tectorwise {

using engine::PartitionRange;
using engine::RowRange;
using engine::Workers;
using storage::Resident;
using storage::SimVector;
using tpch::Money;

Money TectorwiseEngine::Projection(Workers& w, int degree) const {
  UOLAP_CHECK(degree >= 1 && degree <= 4);
  const auto& l = db_.lineitem;
  const size_t n = l.size();

  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion scan_region(core, "project");
    const RowRange r = PartitionRange(n, t, w.count());
    core.SetCodeRegion({"tw/projection", 4096});
    VecCtx ctx{&core, simd_};

    // Reused intermediate vectors: the materialization that throttles
    // Tectorwise's memory pressure (Section 3).
    SimVector<int64_t> v1(core, kVecSize), v2(core, kVecSize),
        v3(core, kVecSize);
    const auto ep = Resident(l.extendedprice, core);
    const auto disc = Resident(l.discount, core);
    const auto tax = Resident(l.tax, core);
    const auto qty = Resident(l.quantity, core);

    Money acc = 0;
    for (size_t base = r.begin; base < r.end; base += kVecSize) {
      const size_t m = std::min(kVecSize, r.end - base);
      switch (degree) {
        case 1:
          acc += SumColumn(ctx, ep + base, m);
          break;
        case 2:
          MapAdd(ctx, v1.ptr(), ep + base, disc + base, m);
          acc += SumColumn(ctx, v1.ptr(), m);
          break;
        case 3:
          MapAdd(ctx, v1.ptr(), ep + base, disc + base, m);
          MapAdd(ctx, v2.ptr(), v1.ptr(), tax + base, m);
          acc += SumColumn(ctx, v2.ptr(), m);
          break;
        case 4:
          MapAdd(ctx, v1.ptr(), ep + base, disc + base, m);
          MapAdd(ctx, v2.ptr(), v1.ptr(), tax + base, m);
          MapAdd(ctx, v3.ptr(), v2.ptr(), qty + base, m);
          acc += SumColumn(ctx, v3.ptr(), m);
          break;
        default:
          UOLAP_CHECK(false);
      }
    }
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

Money TectorwiseEngine::Selection(Workers& w,
                                  const engine::SelectionParams& p) const {
  const auto& l = db_.lineitem;
  const size_t n = l.size();

  std::vector<Money> partial(w.count(), 0);
  w.ForEach([&](size_t t) {
    core::Core& core = *w.cores[t];
    core::ScopedRegion scan_region(core, "select");
    const RowRange r = PartitionRange(n, t, w.count());
    core.SetCodeRegion({p.predicated ? "tw/selection-predicated"
                                     : "tw/selection-branched",
                        5120});
    VecCtx ctx{&core, simd_};

    SimVector<uint32_t> sel1(core, kVecSize), sel2(core, kVecSize),
        sel3(core, kVecSize);
    SimVector<int64_t> v1(core, kVecSize), v2(core, kVecSize),
        v3(core, kVecSize);
    const auto ship = Resident(l.shipdate, core);
    const auto commit = Resident(l.commitdate, core);
    const auto receipt = Resident(l.receiptdate, core);
    const auto ep = Resident(l.extendedprice, core);
    const auto disc = Resident(l.discount, core);
    const auto tax = Resident(l.tax, core);
    const auto qty = Resident(l.quantity, core);

    Money acc = 0;
    for (size_t base = r.begin; base < r.end; base += kVecSize) {
      const size_t m = std::min(kVecSize, r.end - base);
      size_t m1, m2, m3;
      if (!p.predicated) {
        // Each predicate is its own branched primitive: the predictor
        // faces the individual selectivity three times.
        m1 = SelLess(ctx, engine::branch_site::kSelectionP1, ship + base,
                     p.ship_cut, sel1.ptr(), m);
        m2 = SelLessOnSel(ctx, engine::branch_site::kSelectionP2,
                          commit + base, p.commit_cut, sel1.ptr(), m1,
                          sel2.ptr());
        m3 = SelLessOnSel(ctx, engine::branch_site::kSelectionP3,
                          receipt + base, p.receipt_cut, sel2.ptr(), m2,
                          sel3.ptr());
      } else {
        m1 = SelLessPredicated(ctx, ship + base, p.ship_cut, sel1.ptr(), m);
        m2 = SelLessPredicatedOnSel(ctx, commit + base, p.commit_cut,
                                    sel1.ptr(), m1, sel2.ptr());
        m3 = SelLessPredicatedOnSel(ctx, receipt + base, p.receipt_cut,
                                    sel2.ptr(), m2, sel3.ptr());
      }
      if (m3 == 0) continue;
      MapAddSel(ctx, v1.ptr(), ep + base, disc + base, sel3.ptr(), m3);
      MapAddDenseGather(ctx, v2.ptr(), v1.ptr(), tax + base, sel3.ptr(), m3);
      MapAddDenseGather(ctx, v3.ptr(), v2.ptr(), qty + base, sel3.ptr(), m3);
      acc += SumColumn(ctx, v3.ptr(), m3);
    }
    partial[t] = acc;
  });
  Money total = 0;
  for (Money a : partial) total += a;
  return total;
}

}  // namespace uolap::tectorwise
