#ifndef UOLAP_HARNESS_PROFILE_H_
#define UOLAP_HARNESS_PROFILE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/table_printer.h"
#include "core/machine.h"
#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "obs/attribution.h"
#include "obs/record.h"

namespace uolap::harness {

/// Recording options for the profiling entry points.
struct ObsOptions {
  /// Counter-timeline sampling interval in retired instructions
  /// (0 = timeline off). See RegionProfiler::Options.
  uint64_t sample_interval_instructions = 0;
};

/// Runs `fn(Workers&)` across `threads` fresh simulated cores through
/// obs::ProfileRun and returns its RunRecord. One core is the standard
/// measurement of every figure in Sections 3-9; several cores are the
/// Section 10 measurement.
///
/// By default the global ThreadPool is attached as the Workers executor,
/// so engine `ForEach` bodies (one per simulated worker core) run on their
/// own OS threads. Simulation state and the region profilers are strictly
/// per-core under the ForEach contract, so the result is bit-identical to
/// a serial run: pass `executor = nullptr` to force serial execution (the
/// determinism tests assert the equivalence).
template <typename Fn>
obs::RunRecord Profile(
    const core::MachineConfig& cfg, int threads, const ObsOptions& opts,
    const std::string& label, Fn&& fn,
    engine::ParallelExecutor* executor = &engine::ThreadPool::Global()) {
  return obs::ProfileRun(
      cfg, threads, opts.sample_interval_instructions, label,
      [&fn, executor](core::Machine& machine) {
        std::vector<core::Core*> cores;
        cores.reserve(machine.num_cores());
        for (size_t i = 0; i < machine.num_cores(); ++i) {
          cores.push_back(&machine.core(i));
        }
        engine::Workers w(std::move(cores));
        w.executor = executor;
        fn(w);
      });
}

/// Single-core Profile (cores[0].whole carries the Top-Down analysis).
/// One core runs serially under any executor; passing none keeps
/// single-core callers from starting the global pool.
template <typename Fn>
obs::RunRecord ProfileSingleObs(const core::MachineConfig& cfg,
                                const ObsOptions& opts,
                                const std::string& label, Fn&& fn) {
  return Profile(cfg, 1, opts, label, std::forward<Fn>(fn),
                 /*executor=*/nullptr);
}

// --- standard row formats shared by the figure tables ---------------------

/// Header/row pair for the paper's "CPU cycles breakdown" bars
/// (Stall vs Retiring).
std::vector<std::string> CpuCyclesHeader(const std::string& key_name);
std::vector<std::string> CpuCyclesRow(const std::string& key,
                                      const core::CycleBreakdown& b);

/// Header/row pair for the paper's "stall cycles breakdown" bars
/// (five components normalized to total stall cycles).
std::vector<std::string> StallHeader(const std::string& key_name);
std::vector<std::string> StallRow(const std::string& key,
                                  const core::CycleBreakdown& b);

/// Header/row for response-time breakdowns in milliseconds (Figures that
/// plot absolute or normalized time with the component split inside).
std::vector<std::string> TimeHeader(const std::string& key_name);
std::vector<std::string> TimeRow(const std::string& key,
                                 const core::ProfileResult& r);

/// Per-operator Top-Down table for an analyzed region tree: one indented
/// row per node with its exclusive cycle share, IPC, and the six-component
/// breakdown (as fractions of the node's exclusive cycles). The exclusive
/// cycle column sums to the whole-run total — the tentpole invariant that
/// makes the per-operator view a true decomposition.
TablePrinter RegionTable(const std::string& title,
                         const obs::RegionTree& tree);

}  // namespace uolap::harness

#endif  // UOLAP_HARNESS_PROFILE_H_
