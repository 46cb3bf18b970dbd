// Reproduces the paper's Section 9 (hardware prefetchers):
//   Figure 26: response time breakdown of the projection (degree 4) under
//   the six prefetcher configurations: all disabled, only L1 NL, only
//   L1 streamer, only L2 NL, only L2 streamer, all enabled.
//   + the in-text claims: prefetchers cut Dcache stalls ~85% and response
//   time ~73% for the projection, but only ~20% for the large join.
//
// Default sf: 0.25 (six configurations x multiple queries).

#include <string>
#include <utility>
#include <vector>

#include "common/table_printer.h"
#include "core/config.h"
#include "harness/context.h"
#include "harness/profile.h"

namespace {

using uolap::TablePrinter;
using uolap::core::MachineConfig;
using uolap::core::PrefetcherConfig;
using uolap::core::ProfileResult;
using uolap::engine::OlapEngine;
using uolap::engine::Workers;
using uolap::harness::BenchContext;

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_sf=*/0.25);
  ctx.PrintHeader("Figure 26: hardware prefetchers (Section 9)");

  const std::vector<std::pair<std::string, PrefetcherConfig>> configs = {
      {"All disabled", PrefetcherConfig::AllDisabled()},
      {"L1 NL", PrefetcherConfig::Only(false, false, false, true)},
      {"L1 Str.", PrefetcherConfig::Only(false, false, true, false)},
      {"L2 NL", PrefetcherConfig::Only(false, true, false, false)},
      {"L2 Str.", PrefetcherConfig::Only(true, false, false, false)},
      {"All enabled", PrefetcherConfig::AllEnabled()},
  };

  // Cells 0-5: the Typer projection under each configuration; 6-9: the
  // Typer then Tectorwise large join with all prefetchers off, then on.
  auto with_prefetchers = [&](const PrefetcherConfig& pf) {
    MachineConfig cfg = ctx.machine();
    cfg.prefetchers = pf;
    return cfg;
  };
  std::vector<BenchContext::Cell> cells;
  OlapEngine* typer = &ctx.engine("typer");
  for (const auto& [name, pf] : configs) {
    cells.push_back({.label = name,
                     .body = [typer](Workers& w) { typer->Projection(w, 4); },
                     .machine = with_prefetchers(pf)});
  }
  const std::vector<OlapEngine*> join_engines = {typer,
                                                 &ctx.engine("tectorwise")};
  for (OlapEngine* e : join_engines) {
    for (bool on : {false, true}) {
      cells.push_back(
          {.label = e->name() +
                    (on ? " join, prefetch on" : " join, prefetch off"),
           .body = [e](Workers& w) {
             e->Join(w, uolap::engine::JoinSize::kLarge);
           },
           .machine = with_prefetchers(on ? PrefetcherConfig::AllEnabled()
                                          : PrefetcherConfig::AllDisabled())});
    }
  }
  const std::vector<uolap::obs::RunRecord> res = ctx.ProfileCells(cells);

  {
    TablePrinter t(
        "Figure 26: response time breakdown for the six prefetcher "
        "configurations, Typer projection degree 4 (paper: all-enabled "
        "cuts response ~73% vs all-disabled; L2 streamer alone is as good "
        "as all four)");
    t.SetHeader(uolap::harness::TimeHeader("prefetcher config"));
    for (size_t i = 0; i < configs.size(); ++i) {
      t.AddRow(
          uolap::harness::TimeRow(configs[i].first, res[i].cores[0].whole));
    }
    ctx.Emit(t);
  }
  {
    const ProfileResult& off = res[0].cores[0].whole;
    const ProfileResult& on = res[configs.size() - 1].cores[0].whole;
    TablePrinter t(
        "Section 9 (text): prefetcher effectiveness for the projection");
    t.SetHeader({"metric", "value", "paper"});
    t.AddRow({"response time reduction (all-on vs all-off)",
              TablePrinter::Pct(1.0 - on.total_cycles / off.total_cycles, 0),
              "~73%"});
    t.AddRow({"Dcache stall reduction",
              TablePrinter::Pct(1.0 - on.cycles.dcache / off.cycles.dcache,
                                0),
              "~85%"});
    ctx.Emit(t);
  }
  {
    // Joins: prefetchers help only ~20% (random accesses).
    TablePrinter t(
        "Section 9 (text): prefetchers and the large join (paper: ~20% "
        "response-time reduction for both engines)");
    t.SetHeader({"system", "All disabled ms", "All enabled ms",
                 "Reduction"});
    for (size_t i = 0; i < join_engines.size(); ++i) {
      const ProfileResult& off = res[configs.size() + 2 * i].cores[0].whole;
      const ProfileResult& on = res[configs.size() + 2 * i + 1].cores[0].whole;
      t.AddRow({join_engines[i]->name(), TablePrinter::Fmt(off.time_ms, 1),
                TablePrinter::Fmt(on.time_ms, 1),
                TablePrinter::Pct(1.0 - on.total_cycles / off.total_cycles,
                                  0)});
    }
    ctx.Emit(t);
  }
  return 0;
}
