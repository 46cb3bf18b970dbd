// Ablations beyond the paper's figures, exercising claims the paper makes
// in text or cites as opportunities:
//
//   (a) Group-by cardinality sweep — the paper ran a group-by
//       micro-benchmark and omitted it ("behaves similarly to the join").
//       The sweep shows the transition from the Q1-like execution-bound
//       profile (few groups, cache-resident) to the Q18/join-like
//       Dcache-bound profile (many groups).
//   (b) Interleaved (coroutine-style) probes and the radix-partitioned
//       join for the large join — the opportunities the paper cites
//       ([13, 21, 22] and [20]): overlapping probe misses, or converting
//       them into sequential partitioning passes.
//   (c) Page-size ablation — the engines rely on transparent huge pages;
//       forcing 4 KB pages exposes TLB-walk time inside the Dcache
//       component for the random-access join.
//   (d) Roofline placement of representative queries — the quantitative
//       form of the paper's "disproportional compute and memory demands"
//       conclusion.
//
// Default sf: 0.5 (1.0 recommended for the join ablations).

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/table_printer.h"
#include "core/roofline.h"
#include "engine/query.h"
#include "engines/typer/typer_engine.h"
#include "harness/context.h"
#include "harness/profile.h"

namespace {

using uolap::TablePrinter;
using uolap::core::ProfileResult;
using uolap::engine::Workers;
using uolap::harness::BenchContext;

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_sf=*/0.5);
  ctx.PrintHeader("Ablations: group-by sweep, interleaving, page size, "
                  "roofline");
  // The interleaved/radix variants are Typer-specific entry points beyond
  // the OlapEngine interface, so resolve the concrete type once.
  auto& typer = static_cast<uolap::typer::TyperEngine&>(ctx.engine("typer"));

  const int64_t num_orders = static_cast<int64_t>(ctx.db().orders.size());
  const std::vector<std::pair<std::string, int64_t>> cards = {
      {"4 groups (Q1-like)", 4},
      {"1K groups", 1024},
      {"64K groups", 64 * 1024},
      {"1 per order (Q18-like)", num_orders},
  };
  uolap::core::MachineConfig huge_pages = ctx.machine();
  huge_pages.page_bytes = 2ull * 1024 * 1024;
  auto large_join = [&typer](Workers& w) {
    typer.Join(w, uolap::engine::JoinSize::kLarge);
  };
  auto* tectorwise = &ctx.engine("tectorwise");
  // The roofline workloads of (d).
  const std::vector<std::pair<std::string, std::function<void(Workers&)>>>
      roofline = {
          {"Typer projection p4",
           [&typer](Workers& w) { typer.Projection(w, 4); }},
          {"Tectorwise projection p4",
           [tectorwise](Workers& w) { tectorwise->Projection(w, 4); }},
          {"Typer large join", large_join},
          {"Typer Q1", [&typer](Workers& w) { typer.Q1(w); }},
      };

  // Every ablation's cells in one fan-out: (a) at 0-3, then (b), (c), (d).
  std::vector<BenchContext::Cell> cells;
  for (const auto& [label, groups] : cards) {
    cells.push_back({.label = "group-by " + label,
                     .body = [&typer, g = groups](Workers& w) {
                       typer.GroupBy(w, g);
                     }});
  }
  const size_t interleave_first = cells.size();
  cells.push_back({.label = "join scalar probes", .body = large_join});
  cells.push_back({.label = "join interleaved probes",
                   .body = [&typer](Workers& w) {
                     typer.JoinLargeInterleaved(w);
                   }});
  cells.push_back({.label = "join radix-partitioned",
                   .body = [&typer](Workers& w) { typer.JoinLargeRadix(w); }});
  const size_t pages_first = cells.size();
  cells.push_back({.label = "join 4KB pages", .body = large_join});
  cells.push_back(
      {.label = "join 2MB pages", .body = large_join, .machine = huge_pages});
  const size_t roofline_first = cells.size();
  for (const auto& [name, fn] : roofline) {
    cells.push_back({.label = "roofline " + name, .body = fn});
  }
  const std::vector<uolap::obs::RunRecord> res = ctx.ProfileCells(cells);

  // --- (a) group-by cardinality sweep ---
  {
    TablePrinter cpu(
        "Ablation (a): group-by cardinality sweep, Typer (paper: group-by "
        "behaves like the join once the table leaves the cache)");
    cpu.SetHeader({"cardinality", "Stall", "Retiring", "Execution",
                   "Dcache", "Branch misp."});
    for (size_t i = 0; i < cards.size(); ++i) {
      const auto& b = res[i].cores[0].whole.cycles;
      cpu.AddRow({cards[i].first, TablePrinter::Pct(b.StallRatio()),
                  TablePrinter::Pct(b.Frac(b.retiring)),
                  TablePrinter::Pct(b.StallFrac(b.execution)),
                  TablePrinter::Pct(b.StallFrac(b.dcache)),
                  TablePrinter::Pct(b.StallFrac(b.branch_misp))});
    }
    ctx.Emit(cpu);
  }

  // --- (b) interleaved probes ---
  {
    const ProfileResult& base = res[interleave_first].cores[0].whole;
    const ProfileResult& inter = res[interleave_first + 1].cores[0].whole;
    const ProfileResult& radix = res[interleave_first + 2].cores[0].whole;
    TablePrinter t(
        "Ablation (b): interleaved (coroutine-style) probes and the "
        "radix-partitioned join — the opportunities the paper cites "
        "([13, 21, 22], [20]). Radix pays off once the plain join's table "
        "is DRAM-resident (sf >= 1).");
    t.SetHeader({"variant", "time (ms)", "Dcache % of cycles",
                 "bandwidth (GB/s)"});
    auto add = [&](const char* name, const ProfileResult& r) {
      t.AddRow({name, TablePrinter::Fmt(r.time_ms, 1),
                TablePrinter::Pct(r.cycles.Frac(r.cycles.dcache)),
                TablePrinter::Fmt(r.bandwidth_gbps, 2)});
    };
    add("scalar probes", base);
    add("interleaved probes (group of 8)", inter);
    add("radix-partitioned (2^8 partitions, [20])", radix);
    t.AddRow({"interleaving speedup",
              TablePrinter::Fmt(base.total_cycles / inter.total_cycles, 2) +
                  "x",
              "", ""});
    t.AddRow({"radix speedup",
              TablePrinter::Fmt(base.total_cycles / radix.total_cycles, 2) +
                  "x",
              "", ""});
    ctx.Emit(t);
  }

  // --- (c) page-size ablation ---
  {
    TablePrinter t(
        "Ablation (c): page size and the random-access join — an "
        "opportunity the paper leaves on the table: huge pages remove the "
        "TLB-walk share of the Dcache stalls");
    t.SetHeader({"pages", "time (ms)", "TLB walks", "TLB cycles"});
    auto add = [&](const char* name, const ProfileResult& r) {
      t.AddRow({name, TablePrinter::Fmt(r.time_ms, 1),
                std::to_string(r.counters.mem.page_walks),
                TablePrinter::Fmt(r.counters.mem.tlb_cycles, 0)});
    };
    add("4 KB (default: no madvise)", res[pages_first].cores[0].whole);
    add("2 MB (huge pages)", res[pages_first + 1].cores[0].whole);
    ctx.Emit(t);
  }

  // --- (d) roofline placement ---
  {
    TablePrinter t(
        "Ablation (d): roofline placement — the paper's 'disproportional "
        "compute and memory demands' made quantitative");
    t.SetHeader({"workload", "intensity (instr/B)", "achieved IPC",
                 "roof IPC", "verdict"});
    for (size_t i = 0; i < roofline.size(); ++i) {
      const auto p = uolap::core::ComputeRoofline(
          res[roofline_first + i].cores[0].whole, ctx.machine());
      t.AddRow({roofline[i].first, TablePrinter::Fmt(p.intensity, 2),
                TablePrinter::Fmt(p.achieved_ipc, 2),
                TablePrinter::Fmt(p.roof_ipc, 2),
                p.memory_bound ? "memory roof" : "compute roof"});
    }
    ctx.Emit(t);
  }
  return 0;
}
