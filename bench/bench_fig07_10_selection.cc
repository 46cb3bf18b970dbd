// Reproduces the paper's Section 4 (selection micro-benchmark):
//   Figure 7:  CPU cycles breakdown, DBMS R / DBMS C, selectivity 10/50/90%
//   Figure 8:  stall cycles breakdown, DBMS R / DBMS C
//   Figure 9:  CPU cycles breakdown, Typer / Tectorwise
//   Figure 10: stall cycles breakdown, Typer / Tectorwise
//   + the in-text single-core bandwidth numbers (Typer 3/5/5 GB/s,
//     Tectorwise 2.5/3/3 GB/s at 10/50/90%).
//
// Default sf: 0.5.

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
  BenchContext ctx(argc, argv, /*default_sf=*/0.5);
  ctx.PrintHeader("Figures 7-10: selection micro-benchmark (Section 4)");

  const std::vector<double> selectivities = {0.1, 0.5, 0.9};

  // Cells 0-5: DBMS R and DBMS C, 6-11: Typer and Tectorwise; each engine
  // at every selectivity.
  std::vector<BenchContext::Cell> cells;
  for (const char* key : {"rowstore", "colstore", "typer", "tectorwise"}) {
    OlapEngine* e = &ctx.engine(key);
    for (double s : selectivities) {
      cells.push_back(
          {.label = e->name() + " " + TablePrinter::Pct(s, 0),
           .body = [e, params = uolap::engine::MakeSelectionParams(
                           ctx.db(), s)](Workers& w) {
             e->Selection(w, params);
           }});
    }
  }
  const std::vector<uolap::obs::RunRecord> res = ctx.ProfileCells(cells);

  {
    TablePrinter t(
        "Figure 7: CPU cycles breakdown for selection as selectivity "
        "increases (DBMS R and DBMS C)");
    t.SetHeader(uolap::harness::CpuCyclesHeader("system/selectivity"));
    for (size_t i = 0; i < 6; ++i) {
      t.AddRow(uolap::harness::CpuCyclesRow(cells[i].label,
                                            res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 8: Stall cycles breakdown for selection (DBMS R and "
        "DBMS C)");
    t.SetHeader(uolap::harness::StallHeader("system/selectivity"));
    for (size_t i = 0; i < 6; ++i) {
      t.AddRow(uolap::harness::StallRow(cells[i].label,
                                        res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 9: CPU cycles breakdown for selection (Typer and "
        "Tectorwise)");
    t.SetHeader(uolap::harness::CpuCyclesHeader("system/selectivity"));
    for (size_t i = 6; i < 12; ++i) {
      t.AddRow(uolap::harness::CpuCyclesRow(cells[i].label,
                                            res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 10: Stall cycles breakdown for selection (Typer and "
        "Tectorwise)");
    t.SetHeader(uolap::harness::StallHeader("system/selectivity"));
    for (size_t i = 6; i < 12; ++i) {
      t.AddRow(uolap::harness::StallRow(cells[i].label,
                                        res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Section 4 (text): single-core bandwidth for branched selection "
        "(paper: Typer 3/5/5, Tectorwise 2.5/3/3 GB/s)");
    t.SetHeader({"system/selectivity", "Bandwidth (GB/s)"});
    for (size_t i = 6; i < 12; ++i) {
      t.AddRow({cells[i].label,
                TablePrinter::Fmt(res[i].cores[0].whole.bandwidth_gbps, 2)});
    }
    ctx.Emit(t);
  }
  {
    // The paper's in-text claim: the commercial systems are 1.6x-40x
    // slower than the high-performance engines on selection.
    TablePrinter t(
        "Section 4 (text): commercial slowdown vs Typer for selection");
    t.SetHeader({"system/selectivity", "Slowdown vs Typer"});
    for (size_t i = 0; i < 6; ++i) {
      // Typer at the same selectivity.
      const double base = res[6 + i % 3].cores[0].whole.total_cycles;
      t.AddRow({cells[i].label,
                TablePrinter::Fmt(
                    res[i].cores[0].whole.total_cycles / base, 1) + "x"});
    }
    ctx.Emit(t);
  }
  return 0;
}
