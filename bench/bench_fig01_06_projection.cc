// Reproduces the paper's Section 3 (projection micro-benchmark):
//   Figure 1: CPU cycles breakdown, DBMS R / DBMS C, projectivity 1-4
//   Figure 2: stall cycles breakdown, DBMS R / DBMS C
//   Figure 3: CPU cycles breakdown, Typer / Tectorwise
//   Figure 4: stall cycles breakdown, Typer / Tectorwise
//   Figure 5: single-core sequential bandwidth, Typer / Tectorwise
//   Figure 6: normalized response time (Typer = 1), all four systems
//
// Default sf: 0.5 (scan working sets are far beyond the 35 MB L3; the
// per-tuple behaviour is scale-invariant).

#include <string>
#include <vector>

#include "common/table_printer.h"
#include "harness/context.h"
#include "harness/profile.h"

namespace {

using uolap::TablePrinter;
using uolap::core::ProfileResult;
using uolap::engine::OlapEngine;
using uolap::engine::Workers;
using uolap::harness::BenchContext;

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_sf=*/0.5);
  ctx.PrintHeader("Figures 1-6: projection micro-benchmark (Section 3)");

  // Cells 0-7: DBMS R and DBMS C, 8-15: Typer and Tectorwise; each engine
  // at projectivity 1-4.
  std::vector<BenchContext::Cell> cells;
  for (const char* key : {"rowstore", "colstore", "typer", "tectorwise"}) {
    OlapEngine* e = &ctx.engine(key);
    for (int d = 1; d <= 4; ++d) {
      cells.push_back({.label = e->name() + " p" + std::to_string(d),
                       .body = [e, d](Workers& w) { e->Projection(w, d); }});
    }
  }
  const std::vector<uolap::obs::RunRecord> res = ctx.ProfileCells(cells);

  {
    TablePrinter t(
        "Figure 1: CPU cycles breakdown for projection as projectivity "
        "increases (DBMS R and DBMS C)");
    t.SetHeader(uolap::harness::CpuCyclesHeader("system/projectivity"));
    for (size_t i = 0; i < 8; ++i) {
      t.AddRow(uolap::harness::CpuCyclesRow(cells[i].label,
                                            res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 2: Stall cycles breakdown for projection (DBMS R and "
        "DBMS C)");
    t.SetHeader(uolap::harness::StallHeader("system/projectivity"));
    for (size_t i = 0; i < 8; ++i) {
      t.AddRow(uolap::harness::StallRow(cells[i].label,
                                        res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 3: CPU cycles breakdown for projection (Typer and "
        "Tectorwise)");
    t.SetHeader(uolap::harness::CpuCyclesHeader("system/projectivity"));
    for (size_t i = 8; i < 16; ++i) {
      t.AddRow(uolap::harness::CpuCyclesRow(cells[i].label,
                                            res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 4: Stall cycles breakdown for projection (Typer and "
        "Tectorwise)");
    t.SetHeader(uolap::harness::StallHeader("system/projectivity"));
    for (size_t i = 8; i < 16; ++i) {
      t.AddRow(uolap::harness::StallRow(cells[i].label,
                                        res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 5: Single-core sequential bandwidth for projection "
        "(MAX = 12 GB/s per core on Broadwell)");
    t.SetHeader({"system/projectivity", "Bandwidth (GB/s)", "MAX (GB/s)"});
    for (size_t i = 8; i < 16; ++i) {
      t.AddRow({cells[i].label,
                TablePrinter::Fmt(res[i].cores[0].whole.bandwidth_gbps, 2),
                TablePrinter::Fmt(
                    ctx.machine().bandwidth.per_core_seq_gbps, 1)});
    }
    ctx.Emit(t);
  }
  {
    // Figure 6 uses projectivity 4, normalized to Typer.
    const double base = res[11].cores[0].whole.total_cycles;  // Typer p4
    TablePrinter t(
        "Figure 6: Normalized response time breakdown for projection "
        "degree 4 (Typer = 1)");
    t.SetHeader({"system", "Normalized total", "Retiring", "Stall"});
    auto add = [&](const std::string& name, const ProfileResult& r) {
      t.AddRow({name, TablePrinter::Fmt(r.total_cycles / base, 1),
                TablePrinter::Fmt(r.cycles.retiring / base, 1),
                TablePrinter::Fmt(r.cycles.StallCycles() / base, 1)});
    };
    add("DBMS R", res[3].cores[0].whole);
    add("DBMS C", res[7].cores[0].whole);
    add("Typer", res[11].cores[0].whole);
    add("Tectorwise", res[15].cores[0].whole);
    ctx.Emit(t);
  }
  return 0;
}
