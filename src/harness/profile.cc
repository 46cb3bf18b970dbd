#include "harness/profile.h"

namespace uolap::harness {

using uolap::TablePrinter;

std::vector<std::string> CpuCyclesHeader(const std::string& key_name) {
  return {key_name, "Stall", "Retiring"};
}

std::vector<std::string> CpuCyclesRow(const std::string& key,
                                      const core::CycleBreakdown& b) {
  return {key, TablePrinter::Pct(b.StallRatio()),
          TablePrinter::Pct(b.Frac(b.retiring))};
}

std::vector<std::string> StallHeader(const std::string& key_name) {
  return {key_name, "Execution", "Dcache", "Decoding", "Icache",
          "Branch misp."};
}

std::vector<std::string> StallRow(const std::string& key,
                                  const core::CycleBreakdown& b) {
  return {key,
          TablePrinter::Pct(b.StallFrac(b.execution)),
          TablePrinter::Pct(b.StallFrac(b.dcache)),
          TablePrinter::Pct(b.StallFrac(b.decoding)),
          TablePrinter::Pct(b.StallFrac(b.icache)),
          TablePrinter::Pct(b.StallFrac(b.branch_misp))};
}

std::vector<std::string> TimeHeader(const std::string& key_name) {
  return {key_name,  "Total ms", "Retiring ms", "Branch ms",
          "Icache ms", "Decoding ms", "Dcache ms", "Execution ms"};
}

namespace {
double ToMs(double cycles, const core::ProfileResult& r) {
  return r.total_cycles > 0 ? r.time_ms * cycles / r.total_cycles : 0.0;
}
}  // namespace

std::vector<std::string> TimeRow(const std::string& key,
                                 const core::ProfileResult& r) {
  const auto& b = r.cycles;
  return {key,
          TablePrinter::Fmt(r.time_ms, 1),
          TablePrinter::Fmt(ToMs(b.retiring, r), 1),
          TablePrinter::Fmt(ToMs(b.branch_misp, r), 1),
          TablePrinter::Fmt(ToMs(b.icache, r), 1),
          TablePrinter::Fmt(ToMs(b.decoding, r), 1),
          TablePrinter::Fmt(ToMs(b.dcache, r), 1),
          TablePrinter::Fmt(ToMs(b.execution, r), 1)};
}

TablePrinter RegionTable(const std::string& title,
                         const obs::RegionTree& tree) {
  TablePrinter t(title);
  t.SetHeader({"region", "visits", "Mcycles", "% run", "IPC", "Retiring",
               "Branch", "Icache", "Decoding", "Dcache", "Execution"});
  const double run_cycles = tree.root().incl_cycles.Total();
  for (const obs::RegionNode& n : tree.nodes) {
    const core::CycleBreakdown& b = n.excl_cycles;
    const double cycles = b.Total();
    const double instr =
        static_cast<double>(n.exclusive.mix.TotalInstructions());
    t.AddRow({std::string(static_cast<size_t>(n.depth) * 2, ' ') + n.name,
              std::to_string(n.visits),
              TablePrinter::Fmt(cycles / 1e6, 2),
              TablePrinter::Pct(run_cycles > 0 ? cycles / run_cycles : 0.0),
              TablePrinter::Fmt(cycles > 0 ? instr / cycles : 0.0, 2),
              TablePrinter::Pct(b.Frac(b.retiring)),
              TablePrinter::Pct(b.Frac(b.branch_misp)),
              TablePrinter::Pct(b.Frac(b.icache)),
              TablePrinter::Pct(b.Frac(b.decoding)),
              TablePrinter::Pct(b.Frac(b.dcache)),
              TablePrinter::Pct(b.Frac(b.execution))});
  }
  return t;
}

}  // namespace uolap::harness
