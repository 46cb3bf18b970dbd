// Reproduces the paper's Section 6 (TPC-H analysis):
//   Figure 15: CPU cycles breakdown for Q1/Q6/Q9/Q18, Typer / Tectorwise
//   Figure 16: stall cycles breakdown for Q1/Q6/Q9/Q18
//   + the in-text bandwidth observation (all queries < 1 GB/s except
//     Typer Q6 at 4.7 GB/s — low memory pressure from hash computations).
//
// Default sf: 1.0 (Q18's inner group-by then has 1.5M groups, exactly the
// paper's "high-cardinality group by (1.5 million groups)").

#include <functional>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "engine/query.h"
#include "harness/context.h"
#include "harness/profile.h"

namespace {

using uolap::TablePrinter;
using uolap::engine::OlapEngine;
using uolap::engine::Workers;
using uolap::harness::BenchContext;

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_sf=*/1.0);
  ctx.PrintHeader("Figures 15-16: TPC-H queries (Section 6)");

  const auto q6 = uolap::engine::MakeQ6Params();
  using QueryFn = std::function<void(OlapEngine&, Workers&)>;
  const std::vector<std::pair<std::string, QueryFn>> queries = {
      {"Q1", [](OlapEngine& e, Workers& w) { e.Q1(w); }},
      {"Q6", [&q6](OlapEngine& e, Workers& w) { e.Q6(w, q6); }},
      {"Q9", [](OlapEngine& e, Workers& w) { e.Q9(w); }},
      {"Q18", [](OlapEngine& e, Workers& w) { e.Q18(w); }},
  };

  std::vector<BenchContext::Cell> cells;
  for (const char* key : {"typer", "tectorwise"}) {
    OlapEngine* e = &ctx.engine(key);
    for (const auto& [name, fn] : queries) {
      cells.push_back({.label = e->name() + " " + name,
                       .body = [e, &fn](Workers& w) { fn(*e, w); }});
    }
  }
  const std::vector<uolap::obs::RunRecord> res = ctx.ProfileCells(cells);

  {
    TablePrinter t(
        "Figure 15: CPU cycles breakdown for TPC-H queries (Typer and "
        "Tectorwise)");
    t.SetHeader(uolap::harness::CpuCyclesHeader("system/query"));
    for (size_t i = 0; i < cells.size(); ++i) {
      t.AddRow(uolap::harness::CpuCyclesRow(cells[i].label,
                                            res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 16: Stall cycles breakdown for TPC-H queries (Typer and "
        "Tectorwise)");
    t.SetHeader(uolap::harness::StallHeader("system/query"));
    for (size_t i = 0; i < cells.size(); ++i) {
      t.AddRow(uolap::harness::StallRow(cells[i].label,
                                        res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Section 6 (text): single-core bandwidth for TPC-H queries "
        "(paper: <1 GB/s everywhere except Typer Q6 at 4.7 GB/s)");
    t.SetHeader({"system/query", "Bandwidth (GB/s)"});
    for (size_t i = 0; i < cells.size(); ++i) {
      t.AddRow({cells[i].label,
                TablePrinter::Fmt(res[i].cores[0].whole.bandwidth_gbps, 2)});
    }
    ctx.Emit(t);
  }
  return 0;
}
