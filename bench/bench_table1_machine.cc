// Validates the machine model against the paper's Table 1 the way the
// authors did with Intel MLC: a pointer-chase "latency measurement"
// through the simulated hierarchy and streaming/random "bandwidth
// measurements" against the model's ceilings.

#include <cstdio>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "common/table_printer.h"
#include "core/machine.h"
#include "core/topdown.h"
#include "harness/context.h"

namespace {

using uolap::Rng;
using uolap::TablePrinter;
using uolap::core::Core;
using uolap::core::MachineConfig;

/// Dependent pointer chase over a working set of `bytes`, reporting the
/// average simulated access cost in cycles (MLC's idle-latency method).
/// The chased lines sit at the core's placement addresses, so the table
/// is a function of the machine config alone.
double ChaseLatencyCycles(const MachineConfig& cfg, size_t bytes) {
  Core core(cfg);
  core.SetMlpHint(1.0);  // a dependent chase has no MLP
  const size_t lines = bytes / 64;
  std::vector<size_t> next(lines);
  // A maximally irregular permutation (Sattolo's algorithm).
  std::iota(next.begin(), next.end(), 0);
  Rng rng(7);
  for (size_t i = lines - 1; i > 0; --i) {
    std::swap(next[i], next[static_cast<size_t>(
                           rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
  }
  const uint64_t arena = core.placement().Fresh(lines * 64);
  // Warm up: touch everything once.
  for (size_t i = 0; i < lines; ++i) core.Load(arena + i * 64, 8);
  core.Finalize();
  const double warm_cycles =
      core.counters().mem.rand_dcache_cycles +
      core.counters().mem.exec_chase_cycles + core.counters().mem.tlb_cycles;
  // Measured chase.
  const int hops = 200000;
  size_t p = 0;
  for (int i = 0; i < hops; ++i) {
    core.Load(arena + next[p] * 64, 8);
    p = next[p];
  }
  core.Finalize();
  const double total_cycles = core.counters().mem.rand_dcache_cycles +
                              core.counters().mem.exec_chase_cycles +
                              core.counters().mem.tlb_cycles;
  return (total_cycles - warm_cycles) / hops;
}

}  // namespace

int main(int argc, char** argv) {
  uolap::harness::BenchContext ctx(argc, argv, /*default_sf=*/0.01);
  ctx.PrintHeader("Table 1: machine-model validation (MLC-style)");
  const MachineConfig& cfg = ctx.machine();

  {
    TablePrinter t("Table 1 (a): configured server parameters");
    t.SetHeader({"parameter", "value"});
    t.AddRow({"machine", cfg.name});
    t.AddRow({"sockets", std::to_string(cfg.sockets)});
    t.AddRow({"cores per socket", std::to_string(cfg.cores_per_socket)});
    t.AddRow({"clock (GHz)", TablePrinter::Fmt(cfg.freq_ghz, 2)});
    t.AddRow({"L1I/L1D (KB)",
              std::to_string(cfg.l1i.size_bytes / 1024) + " / " +
                  std::to_string(cfg.l1d.size_bytes / 1024)});
    t.AddRow({"L2 (KB)", std::to_string(cfg.l2.size_bytes / 1024)});
    t.AddRow({"L3 (MB)",
              std::to_string(cfg.l3.size_bytes / (1024 * 1024))});
    t.AddRow({"L1/L2/L3 miss latency (cycles)",
              std::to_string(cfg.l1d.miss_latency_cycles) + " / " +
                  std::to_string(cfg.l2.miss_latency_cycles) + " / " +
                  std::to_string(cfg.l3.miss_latency_cycles)});
    t.AddRow({"per-core BW seq/rand (GB/s)",
              TablePrinter::Fmt(cfg.bandwidth.per_core_seq_gbps, 0) + " / " +
                  TablePrinter::Fmt(cfg.bandwidth.per_core_rand_gbps, 0)});
    t.AddRow({"per-socket BW seq/rand (GB/s)",
              TablePrinter::Fmt(cfg.bandwidth.per_socket_seq_gbps, 0) +
                  " / " +
                  TablePrinter::Fmt(cfg.bandwidth.per_socket_rand_gbps, 0)});
    ctx.Emit(t);
  }

  {
    TablePrinter t(
        "Table 1 (b): measured load-to-use latency by working-set size "
        "(dependent pointer chase; expected: ~0 in L1, then the "
        "cumulative miss latencies)");
    t.SetHeader({"working set", "measured cycles/access", "expected level"});
    struct Probe {
      const char* label;
      size_t bytes;
      const char* level;
    };
    const Probe probes[] = {
        {"16 KB", 16 << 10, "L1 (0 extra)"},
        {"128 KB", 128 << 10, "L2 (~16)"},
        {"8 MB", 8 << 20, "L3 (~42)"},
        {"256 MB", 256 << 20, "DRAM (~202)"},
    };
    for (const Probe& p : probes) {
      t.AddRow({p.label, TablePrinter::Fmt(ChaseLatencyCycles(cfg, p.bytes),
                                           1),
                p.level});
    }
    ctx.Emit(t);
  }

  {
    // Streaming "bandwidth measurement": a pure sequential scan with
    // negligible compute must run at the per-core sequential ceiling.
    Core core(cfg);
    const uint64_t bytes = 256 << 20;
    const uint64_t data = core.placement().Fresh(bytes);
    for (uint64_t off = 0; off < bytes; off += 64) core.Load(data + off, 8);
    core.Finalize();
    uolap::core::TopDownModel model(cfg);
    const auto r = model.Analyze(core.counters());
    TablePrinter t(
        "Table 1 (c): measured streaming bandwidth (MLC-style; must match "
        "the per-core sequential ceiling)");
    t.SetHeader({"metric", "GB/s"});
    t.AddRow({"measured", TablePrinter::Fmt(r.bandwidth_gbps, 2)});
    t.AddRow({"configured ceiling",
              TablePrinter::Fmt(cfg.bandwidth.per_core_seq_gbps, 1)});
    ctx.Emit(t);
  }
  return 0;
}
