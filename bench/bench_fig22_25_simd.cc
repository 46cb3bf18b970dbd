// Reproduces the paper's Section 8 (SIMD, on the Skylake server):
//   Figure 22: normalized response time, Tectorwise projection + predicated
//              selection, with and without AVX-512
//   Figure 23: normalized stall time for the same
//   Figure 24: single-core bandwidth with and without SIMD
//   Figure 25: large-join probe phase with and without SIMD (normalized
//              response + bandwidth)
//
// Default sf: 0.5; the machine defaults to Skylake here (the paper's SIMD
// experiments cannot run on Broadwell, which lacks AVX-512).

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/table_printer.h"
#include "engine/query.h"
#include "engines/tectorwise/tw_engine.h"
#include "harness/context.h"
#include "harness/profile.h"

namespace {

using uolap::TablePrinter;
using uolap::core::ProfileResult;
using uolap::engine::Workers;
using uolap::harness::BenchContext;
using uolap::tectorwise::TectorwiseEngine;

}  // namespace

int main(int argc, char** argv) {
  // Inject the Skylake default while still honouring an explicit
  // --machine flag.
  std::vector<char*> args(argv, argv + argc);
  std::string default_machine = "--machine=skylake";
  bool has_machine = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--machine", 0) == 0) has_machine = true;
  }
  if (!has_machine) args.push_back(default_machine.data());

  BenchContext ctx(static_cast<int>(args.size()), args.data(),
                   /*default_sf=*/0.5);
  ctx.PrintHeader("Figures 22-25: SIMD (Section 8, Skylake server)");

  // The Tectorwise-specific LargeJoinProbeOnly entry point needs the
  // concrete engine type.
  auto* scalar = static_cast<TectorwiseEngine*>(&ctx.engine("tectorwise"));
  auto* simd =
      static_cast<TectorwiseEngine*>(&ctx.engine("tectorwise+simd"));

  // Each workload runs scalar (cell 2k) and with SIMD (cell 2k + 1);
  // workloads 0-3 make Figures 22-24, the join probe Figure 25.
  using TwFn = std::function<void(TectorwiseEngine&, Workers&)>;
  std::vector<std::pair<std::string, TwFn>> workloads = {
      {"Proj.", [](TectorwiseEngine& e, Workers& w) { e.Projection(w, 4); }}};
  for (double s : {0.1, 0.5, 0.9}) {
    workloads.push_back(
        {"Sel. " + TablePrinter::Pct(s, 0),
         [params = uolap::engine::MakeSelectionParams(
              ctx.db(), s, /*predicated=*/true)](TectorwiseEngine& e,
                                                 Workers& w) {
           e.Selection(w, params);
         }});
  }
  workloads.push_back({"join-probe", [](TectorwiseEngine& e, Workers& w) {
                         e.LargeJoinProbeOnly(w);
                       }});
  std::vector<BenchContext::Cell> cells;
  for (const auto& [label, fn] : workloads) {
    for (TectorwiseEngine* e : {scalar, simd}) {
      cells.push_back({.label = label + (e == simd ? " simd" : " scalar"),
                       .body = [e, &fn](Workers& w) { fn(*e, w); }});
    }
  }
  const std::vector<uolap::obs::RunRecord> res = ctx.ProfileCells(cells);
  constexpr size_t kFig22To24Workloads = 4;

  {
    TablePrinter t(
        "Figure 22: normalized response time, Tectorwise with and without "
        "SIMD (without = 1; paper: -22% proj, -42/-23/-21% selection)");
    t.SetHeader({"workload", "W/o SIMD", "W/ SIMD", "W/ SIMD Retiring",
                 "W/ SIMD Stall"});
    for (size_t k = 0; k < kFig22To24Workloads; ++k) {
      const ProfileResult& with = res[2 * k + 1].cores[0].whole;
      const double base = res[2 * k].cores[0].whole.total_cycles;
      t.AddRow({workloads[k].first, "1.00",
                TablePrinter::Fmt(with.total_cycles / base, 2),
                TablePrinter::Fmt(with.cycles.retiring / base, 2),
                TablePrinter::Fmt(with.cycles.StallCycles() / base, 2)});
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 23: normalized stall time with and without SIMD (stall "
        "time without SIMD = 1; paper: Dcache up, Execution down)");
    t.SetHeader({"workload", "variant", "Execution", "Dcache", "Decoding",
                 "Icache", "Branch misp."});
    for (size_t k = 0; k < kFig22To24Workloads; ++k) {
      const double base = res[2 * k].cores[0].whole.cycles.StallCycles();
      auto row = [&](const char* variant, const ProfileResult& r) {
        const auto& b = r.cycles;
        t.AddRow({workloads[k].first, variant,
                  TablePrinter::Fmt(b.execution / base, 2),
                  TablePrinter::Fmt(b.dcache / base, 2),
                  TablePrinter::Fmt(b.decoding / base, 2),
                  TablePrinter::Fmt(b.icache / base, 2),
                  TablePrinter::Fmt(b.branch_misp / base, 2)});
      };
      row("W/o SIMD", res[2 * k].cores[0].whole);
      row("W/ SIMD", res[2 * k + 1].cores[0].whole);
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 24: single-core bandwidth with and without SIMD "
        "(MAX = 10 GB/s per core on Skylake)");
    t.SetHeader({"workload", "W/o SIMD (GB/s)", "W/ SIMD (GB/s)"});
    for (size_t k = 0; k < kFig22To24Workloads; ++k) {
      t.AddRow({workloads[k].first,
                TablePrinter::Fmt(res[2 * k].cores[0].whole.bandwidth_gbps, 2),
                TablePrinter::Fmt(
                    res[2 * k + 1].cores[0].whole.bandwidth_gbps, 2)});
    }
    ctx.Emit(t);
  }
  {
    const ProfileResult& without = res[8].cores[0].whole;
    const ProfileResult& with = res[9].cores[0].whole;
    const double base = without.total_cycles;
    TablePrinter t(
        "Figure 25: large-join probe phase with and without SIMD "
        "(paper: -27% response, +50% bandwidth)");
    t.SetHeader({"variant", "Normalized response", "Retiring", "Dcache",
                 "Bandwidth (GB/s)"});
    auto row = [&](const char* variant, const ProfileResult& r) {
      t.AddRow({variant, TablePrinter::Fmt(r.total_cycles / base, 2),
                TablePrinter::Fmt(r.cycles.retiring / base, 2),
                TablePrinter::Fmt(r.cycles.dcache / base, 2),
                TablePrinter::Fmt(r.bandwidth_gbps, 2)});
    };
    row("W/o SIMD", without);
    row("W/ SIMD", with);
    ctx.Emit(t);
  }
  return 0;
}
