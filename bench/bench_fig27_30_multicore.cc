// Reproduces the paper's Section 10 (multi-core execution):
//   Figure 27: CPU cycles breakdown, TPC-H at 14 threads, Typer/Tectorwise
//   Figure 28: stall cycles breakdown for the same
//   Figure 29: per-socket bandwidth vs thread count, projection degree 4
//              (paper: Typer saturates 66 GB/s at 8 cores, Tectorwise 12)
//   Figure 30: per-socket bandwidth vs thread count, large join
//              (paper: both far below the 60 GB/s random maximum, ~21 GB/s)
//   + the in-text SIMD / hyper-threading what-ifs.
//
// Default sf: 1.0 (the join build table must exceed the L3). The paper runs SF 70 on 14 physical cores; the
// saturation points depend only on per-core demand vs socket ceilings,
// which are scale-invariant once working sets exceed the caches.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "core/calibration.h"
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
  ctx.PrintHeader("Figures 27-30: multi-core execution (Section 10)");

  const int max_threads =
      static_cast<int>(ctx.machine().cores_per_socket);  // 14

  // --- Figures 27/28: TPC-H at 14 threads ---
  const auto q6 = uolap::engine::MakeQ6Params();
  using QueryFn = std::function<void(OlapEngine&, Workers&)>;
  const std::vector<std::pair<std::string, QueryFn>> queries = {
      {"Q1", [](OlapEngine& e, Workers& w) { e.Q1(w); }},
      {"Q6", [&q6](OlapEngine& e, Workers& w) { e.Q6(w, q6); }},
      {"Q9", [](OlapEngine& e, Workers& w) { e.Q9(w); }},
      {"Q18", [](OlapEngine& e, Workers& w) { e.Q18(w); }},
  };

  // One fan-out for the whole bench. Cells 0-7: TPC-H at max_threads;
  // then Figure 29's and Figure 30's sweeps, Typer and Tectorwise at each
  // thread count; last, the SIMD what-if pair.
  std::vector<BenchContext::Cell> cells;
  OlapEngine* typer = &ctx.engine("typer");
  OlapEngine* tectorwise = &ctx.engine("tectorwise");
  for (OlapEngine* e : {typer, tectorwise}) {
    for (const auto& [name, fn] : queries) {
      cells.push_back({.label = e->name() + " " + name,
                       .body = [e, &fn](Workers& w) { fn(*e, w); },
                       .threads = max_threads});
    }
  }
  const std::vector<int> thread_counts = {1, 4, 8, 12, 14};
  auto add_sweep = [&](const std::string& workload, QueryFn fn) {
    for (int n : thread_counts) {
      for (OlapEngine* e : {typer, tectorwise}) {
        cells.push_back({.label = e->name() + " " + workload,
                         .body = [e, fn](Workers& w) { fn(*e, w); },
                         .threads = n});
      }
    }
  };
  const size_t fig29_first = cells.size();
  add_sweep("proj4", [](OlapEngine& e, Workers& w) { e.Projection(w, 4); });
  const size_t fig30_first = cells.size();
  add_sweep("large join", [](OlapEngine& e, Workers& w) {
    e.Join(w, uolap::engine::JoinSize::kLarge);
  });
  const size_t whatif_first = cells.size();
  OlapEngine* tectorwise_simd = &ctx.engine("tectorwise+simd");
  for (OlapEngine* e : {tectorwise, tectorwise_simd}) {
    cells.push_back(
        {.label = e == tectorwise ? "Tectorwise large join 14t"
                                  : "Tectorwise SIMD large join 14t",
         .body = [e](Workers& w) {
           e->Join(w, uolap::engine::JoinSize::kLarge);
         },
         .threads = max_threads});
  }
  const std::vector<uolap::obs::RunRecord> res = ctx.ProfileCells(cells);

  {
    TablePrinter t(
        "Figure 27: CPU cycles breakdown for multi-core (14-thread) "
        "TPC-H (Typer and Tectorwise)");
    t.SetHeader(uolap::harness::CpuCyclesHeader("system/query"));
    for (size_t i = 0; i < fig29_first; ++i) {
      t.AddRow(uolap::harness::CpuCyclesRow(cells[i].label,
                                            res[i].Aggregate()));
    }
    ctx.Emit(t);
  }
  {
    TablePrinter t(
        "Figure 28: Stall cycles breakdown for multi-core (14-thread) "
        "TPC-H (Typer and Tectorwise)");
    t.SetHeader(uolap::harness::StallHeader("system/query"));
    for (size_t i = 0; i < fig29_first; ++i) {
      t.AddRow(
          uolap::harness::StallRow(cells[i].label, res[i].Aggregate()));
    }
    ctx.Emit(t);
  }

  // --- Figures 29/30: bandwidth vs thread count ---
  auto emit_sweep = [&](const std::string& title, const std::string& max_note,
                        size_t first) {
    TablePrinter t(title);
    t.SetHeader({"threads", "Typer (GB/s)", "Tectorwise (GB/s)", max_note});
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      const int n = thread_counts[i];
      t.AddRow({std::to_string(n),
                TablePrinter::Fmt(
                    res[first + 2 * i].socket_bandwidth_gbps, 1),
                TablePrinter::Fmt(
                    res[first + 2 * i + 1].socket_bandwidth_gbps, 1),
                n == thread_counts.front()
                    ? TablePrinter::Fmt(
                          ctx.machine().bandwidth.per_socket_seq_gbps, 0)
                    : ""});
    }
    ctx.Emit(t);
  };

  emit_sweep(
      "Figure 29: per-socket bandwidth vs threads, projection degree 4 "
      "(MAX = 66 GB/s sequential; paper: Typer saturates at 8 cores, "
      "Tectorwise at 12)",
      "MAX seq", fig29_first);
  emit_sweep(
      "Figure 30: per-socket bandwidth vs threads, large join "
      "(MAX = 60 GB/s random; paper: both engines far below, ~21 GB/s at "
      "14 threads)",
      "MAX seq", fig30_first);

  {
    // Section 10 in-text what-ifs: SIMD probe bandwidth at 14 threads and
    // the analytical hyper-threading uplift.
    const uolap::obs::RunRecord& scalar_join = res[whatif_first];
    const uolap::obs::RunRecord& simd_join = res[whatif_first + 1];
    TablePrinter t(
        "Section 10 (text): what-ifs (paper: SIMD raises Tectorwise's "
        "join bandwidth 21 -> 31.5 GB/s; hyper-threading adds ~1.3x)");
    t.SetHeader({"scenario", "socket GB/s"});
    t.AddRow({"Tectorwise large join, 14 threads",
              TablePrinter::Fmt(scalar_join.socket_bandwidth_gbps, 1)});
    t.AddRow({"  + SIMD",
              TablePrinter::Fmt(simd_join.socket_bandwidth_gbps, 1)});
    t.AddRow({"  + SIMD + hyper-threading (analytical 1.3x, capped at the "
              "random ceiling)",
              TablePrinter::Fmt(
                  std::min(simd_join.socket_bandwidth_gbps *
                               uolap::core::kHyperThreadingBandwidthUplift,
                           ctx.machine().bandwidth.per_socket_rand_gbps),
                  1)});
    ctx.Emit(t);
  }
  return 0;
}
