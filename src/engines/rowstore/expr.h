#ifndef UOLAP_ENGINES_ROWSTORE_EXPR_H_
#define UOLAP_ENGINES_ROWSTORE_EXPR_H_

#include <cstdint>
#include <memory>

#include "core/core.h"
#include "storage/row_store.h"

namespace uolap::rowstore {

/// Interpreted expression tree, evaluated tuple-at-a-time — the classical
/// commercial-row-store execution style whose per-tuple instruction count
/// dwarfs the compiled engines' (the paper's "large instruction footprint"
/// finding). Every Eval walks the tree: node loads, type dispatch, operand
/// recursion.
struct Expr {
  enum class Op : uint8_t {
    kColI64,   ///< 8-byte column at field index `col`
    kColI32,   ///< 4-byte column
    kColI8,    ///< 1-byte column
    kConst,    ///< constant `value`
    kAdd,
    kSub,
    kMul,
    kDiv,
    kLt,       ///< lhs <  rhs
    kLe,       ///< lhs <= rhs
    kGe,       ///< lhs >= rhs
    kAnd,
  };

  Op op;
  int col = -1;
  int64_t value = 0;
  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;
  /// Simulated address of this node (PlaceExpr).
  uint64_t addr = 0;

  static std::unique_ptr<Expr> ColI64(int field);
  static std::unique_ptr<Expr> ColI32(int field);
  static std::unique_ptr<Expr> ColI8(int field);
  static std::unique_ptr<Expr> Const(int64_t v);
  static std::unique_ptr<Expr> Binary(Op op, std::unique_ptr<Expr> l,
                                      std::unique_ptr<Expr> r);
};

/// Gives every node of the tree rooted at `e` a simulated address: one
/// fresh block on `core`, nodes in pre-order, the way a plan's expression
/// arena lays them out. Call once per tree before evaluating it.
void PlaceExpr(core::Core& core, Expr& e);

/// Evaluates `e` against `tuple` of `table`, charging the interpretation
/// cost per node: the node load, the microcoded dispatch, and the operand
/// arithmetic, plus the serial dependency of a tree walk.
int64_t EvalExpr(core::Core& core, const Expr& e,
                 const storage::RowTableView& table, storage::RowRef tuple);

}  // namespace uolap::rowstore

#endif  // UOLAP_ENGINES_ROWSTORE_EXPR_H_
