// Reproduces the paper's Section 5 (join micro-benchmark):
//   Figure 11: CPU cycles breakdown, DBMS R / DBMS C, join size S/M/L
//   Figure 12: CPU cycles breakdown, Typer / Tectorwise
//   Figure 13: stall cycles breakdown, Typer / Tectorwise
//   Figure 14: large join: single-core random bandwidth + normalized
//              response time (all four systems)
//
// Default sf: 1.0 (the large join's build table must exceed the 35 MB L3
// to reproduce the random-access story; at sf=1 it is ~50 MB).

#include <string>
#include <vector>

#include "common/table_printer.h"
#include "engine/query.h"
#include "harness/context.h"
#include "harness/profile.h"

namespace {

using uolap::TablePrinter;
using uolap::core::ProfileResult;
using uolap::engine::JoinSize;
using uolap::engine::OlapEngine;
using uolap::engine::Workers;
using uolap::harness::BenchContext;

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_sf=*/1.0);
  ctx.PrintHeader("Figures 11-14: join micro-benchmark (Section 5)");

  const std::vector<JoinSize> sizes = {JoinSize::kSmall, JoinSize::kMedium,
                                       JoinSize::kLarge};

  // Cells 0-5: DBMS R and DBMS C, 6-11: Typer and Tectorwise; each engine
  // at every join size.
  std::vector<BenchContext::Cell> cells;
  for (const char* key : {"rowstore", "colstore", "typer", "tectorwise"}) {
    OlapEngine* e = &ctx.engine(key);
    for (JoinSize s : sizes) {
      cells.push_back(
          {.label = e->name() + " " + uolap::engine::JoinSizeName(s),
           .body = [e, s](Workers& w) { e->Join(w, s); }});
    }
  }
  const std::vector<uolap::obs::RunRecord> res = ctx.ProfileCells(cells);

  {
    TablePrinter t(
        "Figure 11: CPU cycles breakdown for join (DBMS R and DBMS C)");
    t.SetHeader(uolap::harness::CpuCyclesHeader("system/join size"));
    for (size_t i = 0; i < 6; ++i) {
      t.AddRow(uolap::harness::CpuCyclesRow(cells[i].label,
                                            res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 12: CPU cycles breakdown for join (Typer and Tectorwise)");
    t.SetHeader(uolap::harness::CpuCyclesHeader("system/join size"));
    for (size_t i = 6; i < 12; ++i) {
      t.AddRow(uolap::harness::CpuCyclesRow(cells[i].label,
                                            res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 13: Stall cycles breakdown for join (Typer and "
        "Tectorwise)");
    t.SetHeader(uolap::harness::StallHeader("system/join size"));
    for (size_t i = 6; i < 12; ++i) {
      t.AddRow(uolap::harness::StallRow(cells[i].label,
                                        res[i].cores[0].whole.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 14 (left): single-core random-access bandwidth for the "
        "large join (MAX = 7 GB/s per core on Broadwell)");
    t.SetHeader({"system", "Bandwidth (GB/s)", "MAX (GB/s)"});
    t.AddRow({"Typer",
              TablePrinter::Fmt(res[8].cores[0].whole.bandwidth_gbps, 2),
              TablePrinter::Fmt(ctx.machine().bandwidth.per_core_rand_gbps,
                                1)});
    t.AddRow({"Tectorwise",
              TablePrinter::Fmt(res[11].cores[0].whole.bandwidth_gbps, 2),
              TablePrinter::Fmt(ctx.machine().bandwidth.per_core_rand_gbps,
                                1)});
    ctx.Emit(t);
  }
  {
    const double base = res[8].cores[0].whole.total_cycles;  // Typer large
    TablePrinter t(
        "Figure 14 (right): normalized response time breakdown for the "
        "large join (Typer = 1; paper: DBMS R 4.5x, DBMS C 6.3x)");
    t.SetHeader({"system", "Normalized total", "Retiring", "Stall"});
    auto add = [&](const std::string& name, const ProfileResult& r) {
      t.AddRow({name, TablePrinter::Fmt(r.total_cycles / base, 1),
                TablePrinter::Fmt(r.cycles.retiring / base, 1),
                TablePrinter::Fmt(r.cycles.StallCycles() / base, 1)});
    };
    add("DBMS R", res[2].cores[0].whole);
    add("DBMS C", res[5].cores[0].whole);
    add("Typer", res[8].cores[0].whole);
    add("Tectorwise", res[11].cores[0].whole);
    ctx.Emit(t);
  }
  {
    // Per-operator Top-Down attribution of the large join (the region
    // profiler's headline view): build vs probe vs materialize, with the
    // exclusive cycles summing back to the whole-run total.
    ctx.Emit(uolap::harness::RegionTable(
        "Large join, per-operator Top-Down attribution (Typer)",
        res[8].cores[0].regions));
    ctx.Emit(uolap::harness::RegionTable(
        "Large join, per-operator Top-Down attribution (Tectorwise)",
        res[11].cores[0].regions));
  }
  return 0;
}
