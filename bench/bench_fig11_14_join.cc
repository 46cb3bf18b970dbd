// Reproduces the paper's Section 5 (join micro-benchmark):
//   Figure 11: CPU cycles breakdown, DBMS R / DBMS C, join size S/M/L
//   Figure 12: CPU cycles breakdown, Typer / Tectorwise
//   Figure 13: stall cycles breakdown, Typer / Tectorwise
//   Figure 14: large join: single-core random bandwidth + normalized
//              response time (all four systems)
//
// Default sf: 1.0 (the large join's build table must exceed the 35 MB L3
// to reproduce the random-access story; at sf=1 it is ~50 MB).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/table_printer.h"
#include "engine/query.h"
#include "harness/context.h"
#include "harness/profile.h"
#include "obs/record.h"

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

  struct Cell {
    std::string label;
    ProfileResult r;
    uolap::obs::RegionTree regions;
  };
  auto profile_all = [&](std::vector<OlapEngine*> engines) {
    std::vector<Cell> cells;
    for (OlapEngine* e : engines) {
      for (JoinSize s : sizes) {
        std::printf("# running %s %s join...\n", e->name().c_str(),
                    uolap::engine::JoinSizeName(s).c_str());
        std::fflush(stdout);
        const std::string label =
            e->name() + " " + uolap::engine::JoinSizeName(s);
        uolap::obs::RunRecord run = uolap::harness::ProfileSingleObs(
            ctx.machine(), ctx.obs_options(), label,
            [&](Workers& w) { e->Join(w, s); });
        cells.push_back({label, run.cores[0].whole, run.cores[0].regions});
        ctx.RecordRun(std::move(run));
      }
    }
    return cells;
  };

  const std::vector<Cell> comm =
      profile_all({&ctx.engine("rowstore"), &ctx.engine("colstore")});
  const std::vector<Cell> fast =
      profile_all({&ctx.engine("typer"), &ctx.engine("tectorwise")});

  {
    TablePrinter t(
        "Figure 11: CPU cycles breakdown for join (DBMS R and DBMS C)");
    t.SetHeader(uolap::harness::CpuCyclesHeader("system/join size"));
    for (const auto& c : comm) {
      t.AddRow(uolap::harness::CpuCyclesRow(c.label, c.r.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 12: CPU cycles breakdown for join (Typer and Tectorwise)");
    t.SetHeader(uolap::harness::CpuCyclesHeader("system/join size"));
    for (const auto& c : fast) {
      t.AddRow(uolap::harness::CpuCyclesRow(c.label, c.r.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 13: Stall cycles breakdown for join (Typer and "
        "Tectorwise)");
    t.SetHeader(uolap::harness::StallHeader("system/join size"));
    for (const auto& c : fast) {
      t.AddRow(uolap::harness::StallRow(c.label, c.r.cycles));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 14 (left): single-core random-access bandwidth for the "
        "large join (MAX = 7 GB/s per core on Broadwell)");
    t.SetHeader({"system", "Bandwidth (GB/s)", "MAX (GB/s)"});
    t.AddRow({"Typer", TablePrinter::Fmt(fast[2].r.bandwidth_gbps, 2),
              TablePrinter::Fmt(ctx.machine().bandwidth.per_core_rand_gbps,
                                1)});
    t.AddRow({"Tectorwise", TablePrinter::Fmt(fast[5].r.bandwidth_gbps, 2),
              TablePrinter::Fmt(ctx.machine().bandwidth.per_core_rand_gbps,
                                1)});
    ctx.Emit(t);
  }
  {
    const double base = fast[2].r.total_cycles;  // Typer large
    TablePrinter t(
        "Figure 14 (right): normalized response time breakdown for the "
        "large join (Typer = 1; paper: DBMS R 4.5x, DBMS C 6.3x)");
    t.SetHeader({"system", "Normalized total", "Retiring", "Stall"});
    auto add = [&](const std::string& name, const ProfileResult& r) {
      t.AddRow({name, TablePrinter::Fmt(r.total_cycles / base, 1),
                TablePrinter::Fmt(r.cycles.retiring / base, 1),
                TablePrinter::Fmt(r.cycles.StallCycles() / base, 1)});
    };
    add("DBMS R", comm[2].r);
    add("DBMS C", comm[5].r);
    add("Typer", fast[2].r);
    add("Tectorwise", fast[5].r);
    ctx.Emit(t);
  }
  {
    // Per-operator Top-Down attribution of the large join (the region
    // profiler's headline view): build vs probe vs materialize, with the
    // exclusive cycles summing back to the whole-run total.
    ctx.Emit(uolap::harness::RegionTable(
        "Large join, per-operator Top-Down attribution (Typer)",
        fast[2].regions));
    ctx.Emit(uolap::harness::RegionTable(
        "Large join, per-operator Top-Down attribution (Tectorwise)",
        fast[5].regions));
  }
  return 0;
}
