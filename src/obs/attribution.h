#ifndef UOLAP_OBS_ATTRIBUTION_H_
#define UOLAP_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "audit/invariants.h"
#include "audit/validation.h"
#include "core/config.h"
#include "core/counters.h"
#include "core/machine.h"
#include "core/topdown.h"
#include "obs/record.h"
#include "obs/region_profiler.h"

namespace uolap::obs {

/// Splits the whole-run Top-Down breakdown `Analyze(total, bw_scale)`
/// across counter deltas `parts` (which must tile `total`, e.g. the
/// exclusive deltas of a region tree) so the parts sum back to the whole
/// exactly (up to floating-point addition order, << 1e-9 relative):
///
///  - components that the model computes as a sum over events (retiring,
///    branch mispredictions, icache, execution, and the latency-accumulated
///    dcache terms) are evaluated directly on each delta — they are linear,
///    so the shares are the model's own answer for that interval;
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

/// The solo-profile recipe: runs `body(core::Core&)` on a fresh
/// single-core machine with a RegionProfiler attached and returns the
/// whole-run analysis plus the per-region tree / timeline / events as a
/// RunRecord (cores[0].whole carries the ProfileResult; region breakdowns
/// are already attributed). Audited when validation is enabled. Both
/// harness::ProfileSingleObs and the serving runtime's per-class solo
/// runs use it, so the two record the same thing.
template <typename Body>
RunRecord ProfileSolo(const core::MachineConfig& cfg,
                      uint64_t sample_interval_instructions,
                      const std::string& label, Body&& body) {
  core::Machine machine(cfg, 1);
  if (audit::ValidationEnabled()) audit::ArmMachine(machine);
  RegionProfiler profiler(
      machine.core(0), RegionProfiler::Options{sample_interval_instructions});
  std::forward<Body>(body)(machine.core(0));
  machine.FinalizeAll();

  RunRecord run;
  run.label = label;  // threads = 1 and bw_scale = 1.0 are the defaults
  run.config = cfg;
  CoreRecord rec;
  rec.whole = machine.AnalyzeCore(0);
  rec.regions = profiler.Finish();
  AnalyzeTree(cfg, &rec.regions);
  rec.timeline = profiler.timeline();
  rec.events = profiler.events();
  rec.begin = profiler.begin_counters();
  run.makespan_cycles = rec.whole.total_cycles;
  run.time_ms = rec.whole.time_ms;
  run.socket_bandwidth_gbps = rec.whole.bandwidth_gbps;
  run.cores.push_back(std::move(rec));
  if (audit::ValidationEnabled()) {
    audit::AuditReport rep = audit::AuditMachine(machine, label);
    audit::CheckBreakdown(run.cores[0].whole, cfg.freq_ghz,
                          label + "/core0/topdown", &rep);
    run.audited = true;
    run.audit_checks = rep.checks;
    run.violations = rep.violations;
    audit::ReportViolations(rep, label);
  }
  return run;
}

}  // namespace uolap::obs

#endif  // UOLAP_OBS_ATTRIBUTION_H_
