#ifndef UOLAP_HARNESS_PROFILE_H_
#define UOLAP_HARNESS_PROFILE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/validation.h"
#include "common/table_printer.h"
#include "core/machine.h"
#include "engine/engine.h"
#include "harness/thread_pool.h"
#include "obs/attribution.h"
#include "obs/record.h"
#include "obs/region_profiler.h"

namespace uolap::harness {

/// Audits a finalized machine plus the per-core Top-Down results (see
/// audit/invariants.h for the rule catalog). Used by every Profile* entry
/// point when validation is enabled; the caller reports the outcome.
inline audit::AuditReport AuditRun(const core::Machine& machine,
                                   const core::ProfileResult* results,
                                   size_t num_results,
                                   const std::string& label) {
  audit::AuditReport report = audit::AuditMachine(machine, label);
  for (size_t i = 0; i < num_results; ++i) {
    audit::CheckBreakdown(results[i], machine.config().freq_ghz,
                          label + "/core" + std::to_string(i) + "/topdown",
                          &report);
  }
  return report;
}

/// Runs `fn(Workers&)` on one fresh simulated core and returns the
/// Top-Down analysis — the standard single-core measurement of every
/// figure in Sections 3-9.
template <typename Fn>
core::ProfileResult ProfileSingle(const core::MachineConfig& cfg, Fn&& fn) {
  core::Machine machine(cfg, 1);
  if (audit::ValidationEnabled()) audit::ArmMachine(machine);
  engine::Workers w(machine.core(0));
  fn(w);
  machine.FinalizeAll();
  core::ProfileResult result = machine.AnalyzeCore(0);
  if (audit::ValidationEnabled()) {
    audit::ReportViolations(AuditRun(machine, &result, 1, "single"),
                            "ProfileSingle");
  }
  return result;
}

/// Runs `fn(Workers&)` across `threads` fresh cores and returns the
/// socket-contention analysis — the Section 10 measurement.
///
/// By default the global ThreadPool is attached as the Workers executor,
/// so engine `ForEach` bodies (one per simulated worker core) run on their
/// own OS threads. Simulation state is strictly per-core under the ForEach
/// contract, so the result is bit-identical to a serial run — pass
/// `executor = nullptr` to force serial execution (the determinism test
/// asserts the equivalence).
template <typename Fn>
core::MultiCoreResult ProfileMulti(const core::MachineConfig& cfg,
                                   int threads, Fn&& fn,
                                   engine::ParallelExecutor* executor) {
  core::Machine machine(cfg, static_cast<uint32_t>(threads));
  if (audit::ValidationEnabled()) audit::ArmMachine(machine);
  std::vector<core::Core*> cores;
  cores.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) cores.push_back(&machine.core(i));
  engine::Workers w(cores);
  w.executor = executor;
  fn(w);
  machine.FinalizeAll();
  core::MultiCoreResult multi = machine.AnalyzeAll();
  if (audit::ValidationEnabled()) {
    audit::ReportViolations(
        AuditRun(machine, multi.per_core.data(), multi.per_core.size(),
                 "multi"),
        "ProfileMulti");
  }
  return multi;
}

template <typename Fn>
core::MultiCoreResult ProfileMulti(const core::MachineConfig& cfg,
                                   int threads, Fn&& fn) {
  return ProfileMulti(cfg, threads, std::forward<Fn>(fn),
                      &ThreadPool::Global());
}

// --- observability-enabled variants ---------------------------------------

/// Recording options for the Obs profiling entry points.
struct ObsOptions {
  /// Counter-timeline sampling interval in retired instructions
  /// (0 = timeline off). See RegionProfiler::Options.
  uint64_t sample_interval_instructions = 0;
};

/// ProfileSingle with a RegionProfiler attached: returns the whole-run
/// analysis plus the per-region tree / timeline / events as an
/// obs::RunRecord (cores[0].whole carries the ProfileResult). Region
/// breakdowns are already attributed (AnalyzeTree has run).
template <typename Fn>
obs::RunRecord ProfileSingleObs(const core::MachineConfig& cfg,
                                const ObsOptions& opts,
                                const std::string& label, Fn&& fn) {
  return obs::ProfileSolo(cfg, opts.sample_interval_instructions, label,
                          [&fn](core::Core& core) {
                            engine::Workers w(core);
                            fn(w);
                          });
}

/// ProfileMulti with one RegionProfiler per simulated core. The profilers
/// are strictly per-core observers, so the threaded run stays bit-identical
/// to a serial one (pass `executor = nullptr` to check). Returns the
/// contention analysis plus the full RunRecord.
template <typename Fn>
std::pair<core::MultiCoreResult, obs::RunRecord> ProfileMultiObs(
    const core::MachineConfig& cfg, int threads, const ObsOptions& opts,
    const std::string& label, Fn&& fn, engine::ParallelExecutor* executor) {
  core::Machine machine(cfg, static_cast<uint32_t>(threads));
  if (audit::ValidationEnabled()) audit::ArmMachine(machine);
  std::vector<core::Core*> cores;
  std::vector<std::unique_ptr<obs::RegionProfiler>> profilers;
  cores.reserve(static_cast<size_t>(threads));
  profilers.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    cores.push_back(&machine.core(i));
    profilers.push_back(std::make_unique<obs::RegionProfiler>(
        machine.core(i),
        obs::RegionProfiler::Options{opts.sample_interval_instructions}));
  }
  engine::Workers w(cores);
  w.executor = executor;
  fn(w);
  machine.FinalizeAll();
  core::MultiCoreResult multi = machine.AnalyzeAll();

  obs::RunRecord run;
  run.label = label;
  run.threads = threads;
  run.config = cfg;
  run.bw_scale = multi.bandwidth_scale;
  run.makespan_cycles = multi.makespan_cycles;
  run.time_ms = multi.time_ms;
  run.socket_bandwidth_gbps = multi.socket_bandwidth_gbps;
  run.cores.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    obs::CoreRecord rec;
    rec.whole = multi.per_core[static_cast<size_t>(i)];
    rec.regions = profilers[static_cast<size_t>(i)]->Finish();
    obs::AnalyzeTree(cfg, &rec.regions, run.bw_scale);
    rec.timeline = profilers[static_cast<size_t>(i)]->timeline();
    rec.events = profilers[static_cast<size_t>(i)]->events();
    rec.begin = profilers[static_cast<size_t>(i)]->begin_counters();
    run.cores.push_back(std::move(rec));
  }
  if (audit::ValidationEnabled()) {
    audit::AuditReport rep = AuditRun(machine, multi.per_core.data(),
                                      multi.per_core.size(), label);
    run.audited = true;
    run.audit_checks = rep.checks;
    run.violations = rep.violations;
    audit::ReportViolations(rep, label);
  }
  return {std::move(multi), std::move(run)};
}

template <typename Fn>
std::pair<core::MultiCoreResult, obs::RunRecord> ProfileMultiObs(
    const core::MachineConfig& cfg, int threads, const ObsOptions& opts,
    const std::string& label, Fn&& fn) {
  return ProfileMultiObs(cfg, threads, opts, label, std::forward<Fn>(fn),
                         &ThreadPool::Global());
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
/// Same but normalized against `base_cycles` (e.g. Figure 6/14/22/25).
std::vector<std::string> NormTimeRow(const std::string& key,
                                     const core::ProfileResult& r,
                                     double base_cycles);

/// Per-operator Top-Down table for an analyzed region tree: one indented
/// row per node with its exclusive cycle share, IPC, and the six-component
/// breakdown (as fractions of the node's exclusive cycles). The exclusive
/// cycle column sums to the whole-run total — the tentpole invariant that
/// makes the per-operator view a true decomposition.
TablePrinter RegionTable(const std::string& title,
                         const obs::RegionTree& tree);

}  // namespace uolap::harness

#endif  // UOLAP_HARNESS_PROFILE_H_
