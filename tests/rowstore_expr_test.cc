// Unit tests for the DBMS R expression interpreter over slotted pages.

#include "engines/rowstore/expr.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"

namespace uolap::rowstore {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() : core_(core::MachineConfig::Broadwell()) {
    storage::RowSchema schema;
    a_ = schema.AddField("a", 8);
    b_ = schema.AddField("b", 8);
    c32_ = schema.AddField("c32", 4);
    d8_ = schema.AddField("d8", 1);
    table_ = std::make_unique<storage::RowTableStorage>(std::move(schema));
  }

  void AddTuple(int64_t a, int64_t b, int32_t c, int8_t d) {
    std::vector<uint8_t> buf(table_->schema().tuple_bytes());
    std::memcpy(buf.data() + table_->schema().field(a_).offset, &a, 8);
    std::memcpy(buf.data() + table_->schema().field(b_).offset, &b, 8);
    std::memcpy(buf.data() + table_->schema().field(c32_).offset, &c, 4);
    std::memcpy(buf.data() + table_->schema().field(d8_).offset, &d, 1);
    table_->Append(buf.data());
  }

  int64_t Eval(Expr& e, size_t row = 0) {
    PlaceExpr(core_, e);
    const storage::RowTableView rows(*table_, &core_);
    return EvalExpr(core_, e, rows, rows.TupleForScan(row));
  }

  core::Core core_;
  std::unique_ptr<storage::RowTableStorage> table_;
  int a_, b_, c32_, d8_;
};

TEST_F(ExprTest, ColumnLeaves) {
  AddTuple(42, -7, 123, 'x');
  EXPECT_EQ(Eval(*Expr::ColI64(a_)), 42);
  EXPECT_EQ(Eval(*Expr::ColI64(b_)), -7);
  EXPECT_EQ(Eval(*Expr::ColI32(c32_)), 123);
  EXPECT_EQ(Eval(*Expr::ColI8(d8_)), 'x');
}

TEST_F(ExprTest, ConstLeaf) {
  AddTuple(0, 0, 0, 0);
  EXPECT_EQ(Eval(*Expr::Const(99)), 99);
}

TEST_F(ExprTest, Arithmetic) {
  AddTuple(10, 3, 0, 0);
  auto add = Expr::Binary(Expr::Op::kAdd, Expr::ColI64(a_), Expr::ColI64(b_));
  auto sub = Expr::Binary(Expr::Op::kSub, Expr::ColI64(a_), Expr::ColI64(b_));
  auto mul = Expr::Binary(Expr::Op::kMul, Expr::ColI64(a_), Expr::ColI64(b_));
  auto div = Expr::Binary(Expr::Op::kDiv, Expr::ColI64(a_), Expr::ColI64(b_));
  EXPECT_EQ(Eval(*add), 13);
  EXPECT_EQ(Eval(*sub), 7);
  EXPECT_EQ(Eval(*mul), 30);
  EXPECT_EQ(Eval(*div), 3);
}

TEST_F(ExprTest, Comparisons) {
  AddTuple(10, 3, 0, 0);
  EXPECT_EQ(Eval(*Expr::Binary(Expr::Op::kLt, Expr::ColI64(b_),
                               Expr::ColI64(a_))),
            1);
  EXPECT_EQ(Eval(*Expr::Binary(Expr::Op::kLt, Expr::ColI64(a_),
                               Expr::ColI64(b_))),
            0);
  EXPECT_EQ(Eval(*Expr::Binary(Expr::Op::kLe, Expr::ColI64(a_),
                               Expr::Const(10))),
            1);
  EXPECT_EQ(Eval(*Expr::Binary(Expr::Op::kGe, Expr::ColI64(a_),
                               Expr::Const(11))),
            0);
}

TEST_F(ExprTest, EagerAnd) {
  AddTuple(1, 0, 0, 0);
  auto both = Expr::Binary(Expr::Op::kAnd, Expr::ColI64(a_),
                           Expr::ColI64(b_));
  EXPECT_EQ(Eval(*both), 0);
  auto both_true = Expr::Binary(Expr::Op::kAnd, Expr::ColI64(a_),
                                Expr::Const(5));
  EXPECT_EQ(Eval(*both_true), 1);
}

TEST_F(ExprTest, NestedTreeMatchesHandComputation) {
  AddTuple(7, 5, 2, 1);
  // (a + b) * (c32 - d8) = 12 * 1 = 12
  auto tree = Expr::Binary(
      Expr::Op::kMul,
      Expr::Binary(Expr::Op::kAdd, Expr::ColI64(a_), Expr::ColI64(b_)),
      Expr::Binary(Expr::Op::kSub, Expr::ColI32(c32_), Expr::ColI8(d8_)));
  EXPECT_EQ(Eval(*tree), 12);
}

TEST_F(ExprTest, InterpretationChargesInstructions) {
  AddTuple(1, 2, 3, 4);
  auto tree = Expr::Binary(Expr::Op::kAdd, Expr::ColI64(a_),
                           Expr::ColI64(b_));
  core_.Finalize();
  const auto before = core_.counters().mix.TotalInstructions();
  Eval(*tree);
  core_.Finalize();
  const auto after = core_.counters().mix.TotalInstructions();
  // 3 nodes, each with a multi-instruction interpretation cost + loads.
  EXPECT_GT(after - before, 20u);
  EXPECT_GT(core_.counters().mix.complex, 0u);
}

TEST_F(ExprTest, PerRowEvaluation) {
  for (int64_t i = 0; i < 100; ++i) AddTuple(i, i * 2, 0, 0);
  auto sum = Expr::Binary(Expr::Op::kAdd, Expr::ColI64(a_),
                          Expr::ColI64(b_));
  int64_t total = 0;
  for (size_t row = 0; row < 100; ++row) total += Eval(*sum, row);
  EXPECT_EQ(total, 3 * 99 * 100 / 2);
}

}  // namespace
}  // namespace uolap::rowstore
