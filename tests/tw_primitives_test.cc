// Unit tests for the Tectorwise primitive library: every primitive's
// result must be correct, SIMD flavours must be result-identical to the
// scalar ones, and the instrumentation must actually fire.

#include "engines/tectorwise/primitives.h"

#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/config.h"

namespace uolap::tectorwise {
namespace {

core::Core MakeCore() { return core::Core(core::MachineConfig::Broadwell()); }

/// A test vector as a primitive argument, placed fresh on ctx's core.
template <typename T>
storage::SimPtr<T> Sim(std::vector<T>& v, VecCtx ctx) {
  return {v.data(), ctx.core->placement().Fresh(v.size() * sizeof(T))};
}

class PrimitivesTest : public ::testing::TestWithParam<bool> {
 protected:
  bool simd() const { return GetParam(); }
};

TEST_P(PrimitivesTest, MapAddAddsElementwise) {
  core::Core core = MakeCore();
  VecCtx ctx{&core, simd()};
  std::vector<int64_t> a = {1, 2, 3, 4}, b = {10, 20, 30, 40}, out(4);
  MapAdd(ctx, Sim(out, ctx), Sim(a, ctx), Sim(b, ctx), 4);
  EXPECT_EQ(out, (std::vector<int64_t>{11, 22, 33, 44}));
}

TEST_P(PrimitivesTest, MapAddMixedWidths) {
  core::Core core = MakeCore();
  VecCtx ctx{&core, simd()};
  std::vector<int64_t> a = {100, 200};
  std::vector<int32_t> b = {1, 2};
  std::vector<int64_t> out(2);
  MapAdd(ctx, Sim(out, ctx), Sim(a, ctx), Sim(b, ctx), 2);
  EXPECT_EQ(out, (std::vector<int64_t>{101, 202}));
}

TEST_P(PrimitivesTest, SumColumn) {
  core::Core core = MakeCore();
  VecCtx ctx{&core, simd()};
  std::vector<int64_t> a(100);
  std::iota(a.begin(), a.end(), 1);
  EXPECT_EQ(SumColumn(ctx, Sim(a, ctx), a.size()), 5050);
}

TEST_P(PrimitivesTest, SelLessSelectsQualifyingIndices) {
  core::Core core = MakeCore();
  VecCtx ctx{&core, false};  // branched variant is scalar-only semantics
  std::vector<int32_t> col = {5, 1, 9, 2, 7};
  std::vector<uint32_t> sel(5);
  const size_t m =
      SelLess(ctx, 1, Sim(col, ctx), 6, Sim(sel, ctx), col.size());
  ASSERT_EQ(m, 3u);
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(sel[1], 1u);
  EXPECT_EQ(sel[2], 3u);
}

TEST_P(PrimitivesTest, SelLessPredicatedMatchesBranched) {
  core::Core core_a = MakeCore();
  core::Core core_b = MakeCore();
  VecCtx branched{&core_a, false};
  VecCtx predicated{&core_b, simd()};
  Rng rng(3);
  std::vector<int32_t> col(kVecSize);
  for (auto& v : col) v = static_cast<int32_t>(rng.Uniform(0, 100));
  std::vector<uint32_t> sel_a(kVecSize), sel_b(kVecSize);
  const size_t ma = SelLess(branched, 1, Sim(col, branched), 50,
                            Sim(sel_a, branched), col.size());
  const size_t mb = SelLessPredicated(predicated, Sim(col, predicated), 50,
                                      Sim(sel_b, predicated), col.size());
  ASSERT_EQ(ma, mb);
  for (size_t i = 0; i < ma; ++i) EXPECT_EQ(sel_a[i], sel_b[i]);
}

TEST_P(PrimitivesTest, SelChainOnSelComposes) {
  core::Core core = MakeCore();
  VecCtx ctx{&core, false};
  std::vector<int32_t> c1 = {1, 5, 1, 5, 1, 5};
  std::vector<int32_t> c2 = {9, 1, 1, 9, 9, 1};
  std::vector<uint32_t> s1(6), s2(6);
  const size_t m1 =
      SelLess(ctx, 1, Sim(c1, ctx), 3, Sim(s1, ctx), 6);  // 0,2,4
  ASSERT_EQ(m1, 3u);
  const size_t m2 =
      SelLessOnSel(ctx, 2, Sim(c2, ctx), 3, Sim(s1, ctx), m1, Sim(s2, ctx));
  ASSERT_EQ(m2, 1u);  // only index 2 has both < 3
  EXPECT_EQ(s2[0], 2u);
}

TEST_P(PrimitivesTest, MapAddSelGathers) {
  core::Core core = MakeCore();
  VecCtx ctx{&core, simd()};
  std::vector<int64_t> a = {1, 2, 3, 4}, b = {10, 20, 30, 40}, out(2);
  std::vector<uint32_t> sel = {1, 3};
  MapAddSel(ctx, Sim(out, ctx), Sim(a, ctx), Sim(b, ctx), Sim(sel, ctx),
            2);
  EXPECT_EQ(out, (std::vector<int64_t>{22, 44}));
}

TEST_P(PrimitivesTest, MapAddDenseGather) {
  core::Core core = MakeCore();
  VecCtx ctx{&core, simd()};
  std::vector<int64_t> dense = {100, 200};
  std::vector<int64_t> col = {1, 2, 3, 4};
  std::vector<uint32_t> sel = {0, 3};
  std::vector<int64_t> out(2);
  MapAddDenseGather(ctx, Sim(out, ctx), Sim(dense, ctx), Sim(col, ctx),
                    Sim(sel, ctx), 2);
  EXPECT_EQ(out, (std::vector<int64_t>{101, 204}));
}

TEST_P(PrimitivesTest, HtProbeSelFindsMatches) {
  core::Core core = MakeCore();
  VecCtx ctx{&core, simd()};
  engine::JoinHashTable ht(core, 16);
  for (int64_t k = 0; k < 16; ++k) ht.Insert(core, k * 2, k * 100);
  std::vector<int64_t> keys = {0, 1, 4, 31, 30};
  std::vector<uint32_t> sel(5);
  std::vector<int64_t> payloads(5);
  const size_t m =
      HtProbeSel(ctx, 16, ht, Sim(keys, ctx), 0, {}, keys.size(),
                 Sim(sel, ctx), Sim(payloads, ctx));
  ASSERT_EQ(m, 3u);  // keys 0, 4, 30 are present
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(payloads[0], 0);
  EXPECT_EQ(sel[1], 2u);
  EXPECT_EQ(payloads[1], 200);
  EXPECT_EQ(sel[2], 4u);
  EXPECT_EQ(payloads[2], 1500);
}

TEST_P(PrimitivesTest, HtProbeSelThroughSelectionVector) {
  core::Core core = MakeCore();
  VecCtx ctx{&core, simd()};
  engine::JoinHashTable ht(core, 4);
  ht.Insert(core, 7, 70);
  std::vector<int64_t> keys = {1, 7, 7, 2};
  std::vector<uint32_t> sel_in = {1, 3};
  std::vector<uint32_t> sel_out(2);
  std::vector<int64_t> payloads(2);
  const size_t m =
      HtProbeSel(ctx, 32, ht, Sim(keys, ctx), 0, Sim(sel_in, ctx),
                 sel_in.size(), Sim(sel_out, ctx), Sim(payloads, ctx));
  ASSERT_EQ(m, 1u);
  EXPECT_EQ(sel_out[0], 1u);
  EXPECT_EQ(payloads[0], 70);
}

TEST(PrimitivesInstrumentationTest, SimdRetiresFewerInstructions) {
  std::vector<int64_t> a(kVecSize, 1), b(kVecSize, 2), out(kVecSize);
  auto instr = [&](bool simd) {
    core::Core core = MakeCore();
    VecCtx ctx{&core, simd};
    for (int rep = 0; rep < 16; ++rep) {
      MapAdd(ctx, Sim(out, ctx), Sim(a, ctx), Sim(b, ctx), kVecSize);
    }
    core.Finalize();
    return core.counters().mix.TotalInstructions();
  };
  const auto scalar = instr(false);
  const auto simd = instr(true);
  // ~8 lanes per vector op: a large instruction reduction (paper: the
  // retiring-time cut of Fig. 22).
  EXPECT_LT(static_cast<double>(simd), 0.4 * static_cast<double>(scalar));
}

TEST(PrimitivesInstrumentationTest, SimdKeepsMemoryTraffic) {
  std::vector<int64_t> big(1 << 20, 1);
  auto dram_lines = [&](bool simd) {
    core::Core core = MakeCore();
    VecCtx ctx{&core, simd};
    int64_t sink = 0;
    const storage::SimPtr<int64_t> col = Sim(big, ctx);
    for (size_t base = 0; base < big.size(); base += kVecSize) {
      sink += SumColumn(ctx, col + base, kVecSize);
    }
    core.Finalize();
    EXPECT_GT(sink, 0);
    return core.counters().mem.dram_lines;
  };
  const auto scalar = dram_lines(false);
  const auto simd = dram_lines(true);
  // Same data must move regardless of instruction encoding.
  EXPECT_NEAR(static_cast<double>(simd), static_cast<double>(scalar),
              static_cast<double>(scalar) * 0.02);
}

INSTANTIATE_TEST_SUITE_P(ScalarAndSimd, PrimitivesTest,
                         ::testing::Values(false, true));

}  // namespace
}  // namespace uolap::tectorwise
