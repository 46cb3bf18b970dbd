#include "engines/rowstore/expr.h"

#include "common/macros.h"

namespace uolap::rowstore {

std::unique_ptr<Expr> Expr::ColI64(int field) {
  auto e = std::make_unique<Expr>();
  e->op = Op::kColI64;
  e->col = field;
  return e;
}

std::unique_ptr<Expr> Expr::ColI32(int field) {
  auto e = std::make_unique<Expr>();
  e->op = Op::kColI32;
  e->col = field;
  return e;
}

std::unique_ptr<Expr> Expr::ColI8(int field) {
  auto e = std::make_unique<Expr>();
  e->op = Op::kColI8;
  e->col = field;
  return e;
}

std::unique_ptr<Expr> Expr::Const(int64_t v) {
  auto e = std::make_unique<Expr>();
  e->op = Op::kConst;
  e->value = v;
  return e;
}

std::unique_ptr<Expr> Expr::Binary(Op op, std::unique_ptr<Expr> l,
                                   std::unique_ptr<Expr> r) {
  auto e = std::make_unique<Expr>();
  e->op = op;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  return e;
}

namespace {
size_t CountNodes(const Expr* e) {
  return e == nullptr ? 0 : 1 + CountNodes(e->lhs.get()) +
                                CountNodes(e->rhs.get());
}
uint64_t AssignAddrs(Expr* e, uint64_t addr) {
  if (e == nullptr) return addr;
  e->addr = addr;
  return AssignAddrs(e->rhs.get(),
                     AssignAddrs(e->lhs.get(), addr + sizeof(Expr)));
}
}  // namespace

void PlaceExpr(core::Core& core, Expr& e) {
  AssignAddrs(&e, core.placement().Fresh(CountNodes(&e) * sizeof(Expr)));
}

int64_t EvalExpr(core::Core& core, const Expr& e,
                 const storage::RowTableView& table, storage::RowRef tuple) {
  // Interpretation cost of this node: load the node, microcoded dispatch
  // on the operator tag, recursion bookkeeping. The tree walk is a serial
  // dependency chain (chain_cycles).
  core.Load(e.addr, sizeof(Expr));
  core::InstrMix node;
  node.complex = 1;
  node.alu = 3;
  node.other = 4;
  node.branch = 1;
  node.chain_cycles = 3;
  core.Retire(node);

  switch (e.op) {
    case Expr::Op::kColI64:
      return table.ReadI64(tuple, e.col);
    case Expr::Op::kColI32:
      return table.ReadI32(tuple, e.col);
    case Expr::Op::kColI8:
      return table.ReadI8(tuple, e.col);
    case Expr::Op::kConst:
      return e.value;
    case Expr::Op::kAdd:
      return EvalExpr(core, *e.lhs, table, tuple) +
             EvalExpr(core, *e.rhs, table, tuple);
    case Expr::Op::kSub:
      return EvalExpr(core, *e.lhs, table, tuple) -
             EvalExpr(core, *e.rhs, table, tuple);
    case Expr::Op::kMul:
      return EvalExpr(core, *e.lhs, table, tuple) *
             EvalExpr(core, *e.rhs, table, tuple);
    case Expr::Op::kDiv: {
      const int64_t denom = EvalExpr(core, *e.rhs, table, tuple);
      UOLAP_DCHECK(denom != 0);
      core::InstrMix div;
      div.div = 1;
      core.Retire(div);
      return EvalExpr(core, *e.lhs, table, tuple) / denom;
    }
    case Expr::Op::kLt:
      return EvalExpr(core, *e.lhs, table, tuple) <
                     EvalExpr(core, *e.rhs, table, tuple)
                 ? 1
                 : 0;
    case Expr::Op::kLe:
      return EvalExpr(core, *e.lhs, table, tuple) <=
                     EvalExpr(core, *e.rhs, table, tuple)
                 ? 1
                 : 0;
    case Expr::Op::kGe:
      return EvalExpr(core, *e.lhs, table, tuple) >=
                     EvalExpr(core, *e.rhs, table, tuple)
                 ? 1
                 : 0;
    case Expr::Op::kAnd: {
      // Both operands are evaluated (no short-circuit): the interpreter's
      // boolean AND is eager, so the only data-dependent branch of a
      // filter is on its final result.
      const int64_t a = EvalExpr(core, *e.lhs, table, tuple);
      const int64_t b = EvalExpr(core, *e.rhs, table, tuple);
      return (a != 0) & (b != 0) ? 1 : 0;
    }
  }
  UOLAP_CHECK_MSG(false, "unreachable expression op");
  return 0;
}

}  // namespace uolap::rowstore
