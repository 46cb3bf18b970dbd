#ifndef UOLAP_OBS_RECORD_H_
#define UOLAP_OBS_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "audit/invariants.h"
#include "core/config.h"
#include "core/counters.h"
#include "core/topdown.h"
#include "obs/metrics.h"
#include "obs/region_profiler.h"
#include "obs/slo.h"

namespace uolap::obs {

/// Everything recorded for one simulated core of one profiled run.
struct CoreRecord {
  core::ProfileResult whole;  ///< whole-run Top-Down analysis
  RegionTree regions;         ///< analyzed region tree (AnalyzeTree done)
  std::vector<TimelineSample> timeline;
  std::vector<RegionEvent> events;
  core::CoreCounters begin;  ///< profiler attach baseline (usually zero)
};

/// One profiled run (one obs::ProfileRun invocation).
struct RunRecord {
  std::string label;
  int threads = 1;
  core::MachineConfig config;
  /// Bandwidth-contention scale the cores were analyzed with (1.0 for
  /// single-core runs, MultiCoreResult::bandwidth_scale otherwise).
  double bw_scale = 1.0;
  std::vector<CoreRecord> cores;

  // Socket summary of the contention analysis (core::MultiCoreModel):
  // the slowest core's cycles and time, and the DRAM traffic over them.
  double makespan_cycles = 0;
  double time_ms = 0;
  double socket_bandwidth_gbps = 0;

  /// Component-wise sum of the cores' whole-run breakdowns, in core order:
  /// the multi-core CPU/stall breakdowns of the paper's Figs. 27/28.
  core::CycleBreakdown Aggregate() const {
    core::CycleBreakdown sum;
    for (const CoreRecord& c : cores) sum += c.whole.cycles;
    return sum;
  }

  // Model-invariant validation results for this run (empty violations and
  // audit_checks == 0 when validation was off; see audit/validation.h).
  bool audited = false;
  uint64_t audit_checks = 0;
  std::vector<audit::Violation> violations;
};

// --- serving-runtime records (src/server) ---------------------------------

/// Per-tenant latency/throughput statistics of one serving run.
struct TenantRecord {
  std::string name;
  std::string engine;  ///< registry key the tenant targets
  uint64_t submitted = 0;
  uint64_t completed = 0;
  // Robustness outcome counts (schema v5). The admission accounting
  // invariant: admitted = submitted - rejected
  //                     = completed + shed + timed_out + failed.
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t timed_out = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double throughput_qps = 0;
  /// Log2 latency histogram: bucket 0 counts latencies < 1 ms, bucket i
  /// counts [2^(i-1), 2^i) ms.
  std::vector<uint64_t> latency_histogram;
};

/// Aggregate load on one engine key across all tenants.
struct EngineLoadRecord {
  std::string engine;
  uint64_t completed = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double throughput_qps = 0;
};

/// One distinct (engine, QuerySpec) class with solo-vs-co-run attribution:
/// the class's Top-Down Dcache share analyzed alone (bw_scale = 1) and at
/// the work-weighted bandwidth scale its executions actually saw.
struct QueryClassRecord {
  std::string label;  ///< "<engine key>/<QuerySpec::Label()>"
  std::string engine;
  uint64_t executions = 0;
  double solo_ms = 0;         ///< service time running alone
  double corun_ms = 0;        ///< mean observed co-run service time
  double avg_bw_scale = 1.0;  ///< work-weighted contention scale observed
  double solo_dcache_frac = 0;
  double corun_dcache_frac = 0;
};

/// (virtual time, occupancy) sample; recorded when occupancy changes.
struct QueueSample {
  double vtime_ms = 0;
  uint32_t running = 0;
  uint32_t queued = 0;

  friend bool operator==(const QueueSample&, const QueueSample&) = default;
};

/// Latency percentiles of one subject (tenant or class) inside one epoch
/// window. Only subjects with completions in the window are recorded.
struct WindowStat {
  std::string subject;
  uint64_t completed = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;

  friend bool operator==(const WindowStat&, const WindowStat&) = default;
};

/// One SLO epoch: a fixed-width virtual-time window with its own latency
/// percentiles and queue-depth extremes, the granularity `uolap_report
/// slo` evaluates SLO specs at.
struct EpochRecord {
  int index = 0;
  double start_ms = 0;
  double end_ms = 0;
  uint64_t completed = 0;  ///< completions inside the window, all traffic
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  uint32_t max_running = 0;
  uint32_t max_queued = 0;
  std::vector<WindowStat> tenants;  ///< name-sorted, sparse
  std::vector<WindowStat> classes;  ///< label-sorted, sparse

  friend bool operator==(const EpochRecord&, const EpochRecord&) = default;
};

/// One sampled query's span tree in virtual time: admission → core
/// assignment → completion. Exported to the Chrome trace (queue + exec
/// spans nested under a whole-query span), not to the profile JSON.
struct QuerySpan {
  uint64_t seq = 0;  ///< global admission order, the head-sampling key
  std::string tenant;
  std::string cls;  ///< query-class label ("<engine>/<spec label>")
  double arrival_ms = 0;
  double start_ms = 0;  ///< core assignment (end of queue wait)
  double end_ms = 0;
  int core = -1;  ///< core slot the query executed on (-1: never started)
  /// Terminal disposition (schema v5): "ok", "rejected", "shed",
  /// "timed_out", or "failed".
  std::string outcome = "ok";
  uint32_t attempts = 1;  ///< execution attempts (> 1 after retries)

  friend bool operator==(const QuerySpan&, const QuerySpan&) = default;
};

/// Everything the serving runtime reports for one Server::TryRun(); exported
/// as the profile JSON's "server" block (schema v4) when enabled.
struct ServerRecord {
  bool enabled = false;  ///< false when the session recorded no serving run
  int cores = 0;
  double vtime_ms = 0;  ///< virtual time at the last completion
  uint64_t submitted = 0;
  uint64_t completed = 0;
  // Robustness totals (schema v5); see TenantRecord for the invariant.
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t timed_out = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t faults_injected = 0;
  uint64_t slowdowns_injected = 0;
  uint64_t brownout_downgrades = 0;
  std::string shed_policy = "none";  ///< AdmissionConfig policy name
  std::string fault_plan;            ///< canonical FaultPlan ("" = off)
  double throughput_qps = 0;
  double avg_socket_gbps = 0;
  double peak_socket_gbps = 0;
  bool saturated = false;  ///< peak demand hit the socket ceiling
  double p50_ms = 0;       ///< overall latency percentiles, all traffic
  double p95_ms = 0;
  double p99_ms = 0;
  std::vector<TenantRecord> tenants;
  std::vector<EngineLoadRecord> engines;
  std::vector<QueryClassRecord> classes;
  std::vector<QueueSample> queue_timeline;

  // Serving telemetry (schema v4): SLO epoch windows, sampled query
  // spans, and the SLO verdicts computed at the end of the run.
  double epoch_ms = 0;  ///< epoch width; 0 = epoch windows disabled
  std::vector<EpochRecord> epochs;
  uint64_t trace_sample_n = 0;  ///< head sampling 1/N; 0 = spans disabled
  std::vector<QuerySpan> spans;
  std::vector<SloSpec> slos;
  std::vector<SloResult> slo_results;
};

/// A bench invocation's worth of recorded runs plus its metadata; the unit
/// both exporters consume.
struct ProfileSession {
  std::string bench;  ///< bench binary / session name
  std::string machine;
  double freq_ghz = 0;
  double scale_factor = 0;
  uint64_t seed = 0;
  bool quick = false;
  double wall_ms = 0;  ///< host wall-clock of the whole bench run
  std::vector<RunRecord> runs;
  ServerRecord server;  ///< serving-run statistics (enabled == recorded)
  /// Registry snapshot taken at flush; serialized as the profile JSON v4
  /// "metrics" block when non-empty.
  MetricsSnapshot metrics;
};

}  // namespace uolap::obs

#endif  // UOLAP_OBS_RECORD_H_
