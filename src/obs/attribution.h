#ifndef UOLAP_OBS_ATTRIBUTION_H_
#define UOLAP_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/invariants.h"
#include "audit/validation.h"
#include "core/config.h"
#include "core/counters.h"
#include "core/machine.h"
#include "core/multicore.h"
#include "core/topdown.h"
#include "obs/record.h"
#include "obs/region_profiler.h"

namespace uolap::obs {

/// Splits the whole-run Top-Down breakdown `Analyze(total, bw_scale)`
/// across counter deltas `parts` (which must tile `total`, e.g. the
/// exclusive deltas of a region tree) so the parts sum back to the whole
/// exactly (up to floating-point addition order, << 1e-9 relative). Every
/// term comes from core::TopDownModel::Terms, of the parts and the total:
///
///  - components that the model computes as a sum over events (retiring,
///    branch mispredictions, icache, execution, and the latency-accumulated
///    dcache terms) are each delta's own terms — they are linear, so the
///    shares are the model's own answer for that interval;
///  - components with a nonlinearity across the whole run (decode
///    back-pressure `max(0, decode - retiring)`, the random-access
///    bandwidth clamp `max(latency, bytes/bw)`, and the sequential
///    throughput residual `max(0, mem_time - overlap * t_other)`) are
///    distributed proportionally to each delta's standalone demand for
///    that component — the per-region view VTune-style sampling would give,
///    while keeping leaf-sum == whole-run refutable.
///
/// This is what makes the per-operator breakdowns trustworthy as a
/// decomposition: nothing is double-counted and nothing is dropped.
std::vector<core::CycleBreakdown> AttributeCycles(
    const core::MachineConfig& config, const core::CoreCounters& total,
    const std::vector<core::CoreCounters>& parts, double bw_scale = 1.0);

/// Fills `excl_cycles`/`incl_cycles` of every node from the raw counters:
/// exclusive breakdowns via AttributeCycles over all nodes' exclusive
/// deltas (so they sum to the whole-run breakdown), inclusive breakdowns
/// as the subtree sums. `bw_scale` must match the scale the run was
/// analyzed with (1.0 single-core; MultiCoreResult::bandwidth_scale for
/// contended multi-core runs).
void AnalyzeTree(const core::MachineConfig& config, RegionTree* tree,
                 double bw_scale = 1.0);

/// The one profiled-run recipe. Every measured run is recorded here: a
/// figure bench's single-core cell, a Section 10 contention sweep, the
/// serving runtime's per-class solo runs and the perf smoke.
///
/// Builds a fresh `threads`-core machine, attaches one RegionProfiler per
/// core, runs `body(core::Machine&)`, then finalizes and analyzes every
/// core under the socket-bandwidth contention model. On one core that
/// model keeps the bandwidth scale at 1.0 (one core's demand stays below
/// the socket ceiling), so the result is the plain Top-Down analysis.
/// Returns the RunRecord: the contention summary plus one CoreRecord per
/// core, its regions attributed at the run's bandwidth scale. When
/// validation is on, the machine is armed before the body runs and the
/// record carries the audit (AuditMachine plus CheckBreakdown per core);
/// violations are reported under `label`.
///
/// The profilers are strictly per-core observers, so a body that runs its
/// cores on several OS threads records the same bytes as a serial one.
template <typename Body>
RunRecord ProfileRun(const core::MachineConfig& cfg, int threads,
                     uint64_t sample_interval_instructions,
                     const std::string& label, Body&& body) {
  core::Machine machine(cfg, static_cast<uint32_t>(threads));
  const bool audited = audit::ValidationEnabled();
  if (audited) audit::ArmMachine(machine);
  std::vector<std::unique_ptr<RegionProfiler>> profilers;
  profilers.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    profilers.push_back(std::make_unique<RegionProfiler>(
        machine.core(i),
        RegionProfiler::Options{sample_interval_instructions}));
  }
  std::forward<Body>(body)(machine);
  machine.FinalizeAll();
  core::MultiCoreResult multi = machine.AnalyzeAll();

  RunRecord run;
  run.label = label;
  run.threads = threads;
  run.config = cfg;
  run.bw_scale = multi.bandwidth_scale;
  run.makespan_cycles = multi.makespan_cycles;
  run.time_ms = multi.time_ms;
  run.socket_bandwidth_gbps = multi.socket_bandwidth_gbps;
  run.cores.reserve(profilers.size());
  for (size_t i = 0; i < profilers.size(); ++i) {
    CoreRecord rec;
    rec.whole = std::move(multi.per_core[i]);
    rec.regions = profilers[i]->Finish();
    AnalyzeTree(cfg, &rec.regions, run.bw_scale);
    rec.timeline = profilers[i]->timeline();
    rec.events = profilers[i]->events();
    rec.begin = profilers[i]->begin_counters();
    run.cores.push_back(std::move(rec));
  }
  if (audited) {
    audit::AuditReport rep = audit::AuditMachine(machine, label);
    for (size_t i = 0; i < run.cores.size(); ++i) {
      audit::CheckBreakdown(run.cores[i].whole, cfg.freq_ghz,
                            label + "/core" + std::to_string(i) + "/topdown",
                            &rep);
    }
    run.audited = true;
    run.audit_checks = rep.checks;
    run.violations = rep.violations;
    audit::ReportViolations(rep, label);
  }
  return run;
}

}  // namespace uolap::obs

#endif  // UOLAP_OBS_ATTRIBUTION_H_
