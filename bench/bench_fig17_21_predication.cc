// Reproduces the paper's Section 7 (predication):
//   Figure 17/18: Typer branched vs branch-free selection — response time
//                 and stall time breakdowns
//   Figure 19/20: the same for Tectorwise
//   Figure 21:    single-core bandwidth of the predicated selection
//   + the in-text predicated-Q6 observations (Typer -11%, Tectorwise -52%;
//     bandwidth 4.7 -> 6.9 GB/s and 1 -> 4.7 GB/s).
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
using uolap::core::ProfileResult;
using uolap::engine::OlapEngine;
using uolap::engine::Workers;
using uolap::harness::BenchContext;

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_sf=*/0.5);
  ctx.PrintHeader("Figures 17-21: predication (Section 7)");

  const std::vector<double> selectivities = {0.1, 0.5, 0.9};

  // Cells 0-5: Typer, 6-11: Tectorwise, each at every (selectivity,
  // variant); 12-15: Typer then Tectorwise Q6, branched and predicated.
  std::vector<std::string> variants;
  for (double s : selectivities) {
    for (bool predicated : {false, true}) {
      variants.push_back(TablePrinter::Pct(s, 0) +
                         (predicated ? " Br.-free" : " Br."));
    }
  }
  const std::vector<OlapEngine*> engines = {&ctx.engine("typer"),
                                            &ctx.engine("tectorwise")};
  std::vector<BenchContext::Cell> cells;
  for (OlapEngine* e : engines) {
    for (size_t v = 0; v < variants.size(); ++v) {
      cells.push_back(
          {.label = e->name() + " " + variants[v],
           .body = [e, params = uolap::engine::MakeSelectionParams(
                           ctx.db(), selectivities[v / 2],
                           /*predicated=*/v % 2 == 1)](Workers& w) {
             e->Selection(w, params);
           }});
    }
  }
  for (OlapEngine* e : engines) {
    for (bool predicated : {false, true}) {
      cells.push_back(
          {.label = e->name() +
                    (predicated ? " Q6 predicated" : " Q6 branched"),
           .body = [e, params = uolap::engine::MakeQ6Params(predicated)](
                       Workers& w) { e->Q6(w, params); }});
    }
  }
  const std::vector<uolap::obs::RunRecord> res = ctx.ProfileCells(cells);

  auto emit_pair = [&](const char* fig_resp, const char* fig_stall,
                       const char* name, size_t first) {
    {
      TablePrinter t(std::string(fig_resp) + ": response time breakdown, " +
                     name + " branched vs branch-free selection");
      t.SetHeader(uolap::harness::TimeHeader("selectivity/variant"));
      for (size_t v = 0; v < variants.size(); ++v) {
        t.AddRow(uolap::harness::TimeRow(variants[v],
                                         res[first + v].cores[0].whole));
      }
      ctx.Emit(t);
    }
    {
      TablePrinter t(std::string(fig_stall) + ": stall time breakdown, " +
                     name + " branched vs branch-free selection");
      t.SetHeader(uolap::harness::StallHeader("selectivity/variant"));
      for (size_t v = 0; v < variants.size(); ++v) {
        t.AddRow(uolap::harness::StallRow(
            variants[v], res[first + v].cores[0].whole.cycles));
      }
      ctx.Emit(t);
    }
  };
  emit_pair("Figure 17", "Figure 18", "Typer", 0);
  emit_pair("Figure 19", "Figure 20", "Tectorwise", 6);

  {
    TablePrinter t(
        "Figure 21: single-core bandwidth for the predicated selection "
        "(MAX = 12 GB/s; paper: Typer stable/high, Tectorwise lower with "
        "a peak at 50%)");
    t.SetHeader({"system/selectivity", "Bandwidth (GB/s)"});
    for (size_t e = 0; e < engines.size(); ++e) {
      for (size_t i = 0; i < selectivities.size(); ++i) {
        const ProfileResult& branch_free =
            res[6 * e + 2 * i + 1].cores[0].whole;
        t.AddRow({engines[e]->name() + " " +
                      TablePrinter::Pct(selectivities[i], 0),
                  TablePrinter::Fmt(branch_free.bandwidth_gbps, 2)});
      }
    }
    ctx.Emit(t);
  }

  {
    // Predicated Q6 (in-text): response-time change and bandwidth.
    TablePrinter t(
        "Section 7 (text): predicated TPC-H Q6 (paper: Typer -11%, "
        "Tectorwise -52%; bandwidth 4.7->6.9 and 1->4.7 GB/s)");
    t.SetHeader({"system", "Branched ms", "Predicated ms", "Change",
                 "Branched GB/s", "Predicated GB/s"});
    for (size_t i = 0; i < engines.size(); ++i) {
      const ProfileResult& branched = res[12 + 2 * i].cores[0].whole;
      const ProfileResult& predicated = res[13 + 2 * i].cores[0].whole;
      const double change =
          (predicated.total_cycles - branched.total_cycles) /
          branched.total_cycles;
      t.AddRow({engines[i]->name(), TablePrinter::Fmt(branched.time_ms, 1),
                TablePrinter::Fmt(predicated.time_ms, 1),
                TablePrinter::Pct(change, 0),
                TablePrinter::Fmt(branched.bandwidth_gbps, 2),
                TablePrinter::Fmt(predicated.bandwidth_gbps, 2)});
    }
    ctx.Emit(t);
  }
  return 0;
}
