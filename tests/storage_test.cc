#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/core.h"
#include "storage/column_view.h"
#include "storage/row_store.h"

namespace uolap::storage {
namespace {

TEST(ColumnViewTest, GetReturnsValuesAndDrivesAccesses) {
  core::Core core(core::MachineConfig::Broadwell());
  std::vector<int64_t> data = {10, 20, 30};
  ColumnView<int64_t> view(data, &core);
  EXPECT_EQ(view.Get(0), 10);
  EXPECT_EQ(view.Get(2), 30);
  EXPECT_EQ(view.GetRaw(1), 20);  // raw: no access
  core.Finalize();
  EXPECT_EQ(core.counters().mix.load, 2u);
}

TEST(ColumnViewTest, RepeatViewsShareTheResidentAddress) {
  core::Core core(core::MachineConfig::Broadwell());
  std::vector<int64_t> data(100, 1);
  ColumnView<int64_t> a(data, &core);
  ColumnView<int64_t> b(data, &core);
  EXPECT_EQ(a.At(0), b.At(0));
  EXPECT_EQ(a.At(10), a.At(0) + 80);
}

TEST(SimVectorTest, ChargesByIndexAndGrowsIntoAFreshRange) {
  core::Core core(core::MachineConfig::Broadwell());
  SimVector<int64_t> v(core, 8);
  v[3] = 42;
  EXPECT_EQ(v[3], 42);
  EXPECT_EQ(v.At(3), v.At(0) + 24);
  const uint64_t first = v.At(0);
  SimVector<int64_t> other(core, 8);
  EXPECT_GE(other.At(0), first + 8 * sizeof(int64_t));
  v.push_back(7);  // past the 8 reserved elements: a new range
  EXPECT_EQ(v.size(), 9u);
  EXPECT_EQ(v[8], 7);
  EXPECT_GT(v.At(0), other.At(7));
}

class RowStoreTest : public ::testing::Test {
 protected:
  RowSchema MakeSchema() {
    RowSchema s;
    a_ = s.AddField("a", 8);
    b_ = s.AddField("b", 4);
    c_ = s.AddField("c", 1);
    return s;
  }
  void AppendTuple(RowTableStorage* t, int64_t a, int32_t b, int8_t c) {
    std::vector<uint8_t> buf(t->schema().tuple_bytes());
    std::memcpy(buf.data() + t->schema().field(a_).offset, &a, 8);
    std::memcpy(buf.data() + t->schema().field(b_).offset, &b, 4);
    std::memcpy(buf.data() + t->schema().field(c_).offset, &c, 1);
    t->Append(buf.data());
  }
  int a_ = 0, b_ = 0, c_ = 0;
};

TEST_F(RowStoreTest, SchemaLayout) {
  RowSchema s = MakeSchema();
  EXPECT_EQ(s.tuple_bytes(), 13u);
  EXPECT_EQ(s.field(a_).offset, 0u);
  EXPECT_EQ(s.field(b_).offset, 8u);
  EXPECT_EQ(s.field(c_).offset, 12u);
  EXPECT_EQ(s.num_fields(), 3u);
}

TEST_F(RowStoreTest, AppendAndReadBack) {
  RowTableStorage t(MakeSchema());
  core::Core core(core::MachineConfig::Broadwell());
  for (int i = 0; i < 100; ++i) {
    AppendTuple(&t, i * 100, i, static_cast<int8_t>(i % 128));
  }
  EXPECT_EQ(t.num_tuples(), 100u);
  const RowTableView rows(t, &core);
  for (size_t i = 0; i < 100; ++i) {
    const RowRef tuple = rows.TupleForScan(i);
    EXPECT_EQ(rows.ReadI64(tuple, a_), static_cast<int64_t>(i) * 100);
    EXPECT_EQ(rows.ReadI32(tuple, b_), static_cast<int32_t>(i));
    EXPECT_EQ(rows.ReadI8(tuple, c_), static_cast<int8_t>(i % 128));
  }
}

TEST_F(RowStoreTest, SpillsAcrossPages) {
  RowTableStorage t(MakeSchema());
  core::Core core(core::MachineConfig::Broadwell());
  // 13B tuples + 2B slots: ~546 per 8 KB page; insert far more.
  const int n = 5000;
  for (int i = 0; i < n; ++i) AppendTuple(&t, i, i, 0);
  EXPECT_GT(t.num_pages(), 8u);
  // Spot-check tuples across page boundaries: the simulated image lays
  // the pages back to back.
  const RowTableView rows(t, &core);
  for (size_t i : {0u, 545u, 546u, 547u, 4999u}) {
    const RowRef tuple = rows.TupleForScan(i);
    EXPECT_EQ(rows.ReadI64(tuple, a_), static_cast<int64_t>(i));
  }
  // The first tuple of page 1 sits one page after the first of page 0.
  EXPECT_EQ(rows.TupleForScan(546).addr - rows.TupleForScan(0).addr,
            RowTableStorage::kPageBytes);
}

TEST_F(RowStoreTest, ScanDrivesSimulatedAccesses) {
  RowTableStorage t(MakeSchema());
  core::Core core(core::MachineConfig::Broadwell());
  AppendTuple(&t, 1, 2, 3);
  RowTableView(t, &core).TupleForScan(0);
  core.Finalize();
  // Page header + slot entry.
  EXPECT_GE(core.counters().mix.load, 2u);
}

TEST_F(RowStoreTest, RejectsOversizedTuple) {
  RowSchema s;
  s.AddField("huge", 9000);
  EXPECT_DEATH(RowTableStorage{std::move(s)}, "larger than a page");
}

}  // namespace
}  // namespace uolap::storage
