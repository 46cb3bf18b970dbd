#ifndef UOLAP_OBS_METRIC_NAMES_H_
#define UOLAP_OBS_METRIC_NAMES_H_

// Central registry of every metric name published into
// obs::MetricsRegistry. All names live here — uolap-analyze's
// CON-METRIC-NAME rule (scripts/analyze) flags metric-publication call
// sites that pass a raw string literal instead of one of these constants,
// and checks that every constant matches the canonical grammar:
//
//   ^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$
//
// (lower_snake segments joined by dots; the Prometheus exposition maps
// dots to underscores). Keeping the names in one header makes the full
// metric surface reviewable in one place and collision-proof.

namespace uolap::obs::metric_names {

// --- engine dispatch path (engine::OlapEngine::Run) -----------------------
/// Queries dispatched through the unified QuerySpec entry point,
/// labelled query=<QueryIdName>.
inline constexpr char kEngineDispatchTotal[] = "engine.dispatch_total";

// --- serving runtime (server::Server) -------------------------------------
/// Queries admitted per tenant (label tenant=<name>).
inline constexpr char kServerQueriesSubmitted[] =
    "server.queries_submitted_total";
/// Queries drained per tenant (label tenant=<name>).
inline constexpr char kServerQueriesCompleted[] =
    "server.queries_completed_total";
/// End-to-end latency (queue wait + service), virtual ms, per tenant.
inline constexpr char kServerLatencyMs[] = "server.latency_ms";
/// Time between admission and core assignment, virtual ms, per tenant.
inline constexpr char kServerQueueWaitMs[] = "server.queue_wait_ms";
/// Deepest FIFO backlog observed during the run (gauge, max-merged).
inline constexpr char kServerQueueDepthPeak[] = "server.queue_depth_peak";
/// Virtual time of the last completion (gauge).
inline constexpr char kServerVtimeMs[] = "server.vtime_ms";
/// Peak socket bandwidth demand observed (gauge, GB/s).
inline constexpr char kServerSocketGbpsPeak[] = "server.socket_gbps_peak";
/// SLO-window epochs closed during the run.
inline constexpr char kServerEpochsTotal[] = "server.epochs_total";
/// Epoch-level SLO violations, labelled slo=<spec>.
inline constexpr char kServerSloViolations[] = "server.slo_violations_total";
/// Query span trees recorded under --trace-sample.
inline constexpr char kServerSpansRecorded[] = "server.spans_recorded_total";

// --- serving robustness (DESIGN.md §9) ------------------------------------
/// Queries refused at admission (predicted deadline miss), per tenant.
inline constexpr char kServerQueriesRejected[] =
    "server.queries_rejected_total";
/// Queries dropped from the queue under the shed policy, per tenant.
inline constexpr char kServerQueriesShed[] = "server.queries_shed_total";
/// Queries cancelled at an operator-region boundary past their deadline,
/// per tenant.
inline constexpr char kServerQueriesTimedOut[] =
    "server.queries_timed_out_total";
/// Queries whose transient failures exhausted the retry budget, per
/// tenant.
inline constexpr char kServerQueriesFailed[] = "server.queries_failed_total";
/// Retry attempts scheduled after transient failures, per tenant.
inline constexpr char kServerRetriesTotal[] = "server.retries_total";
/// Backoff waits before retries, virtual ms, per tenant.
inline constexpr char kServerBackoffMs[] = "server.backoff_ms";
/// Transient failures injected by the fault plan, per tenant.
inline constexpr char kServerFaultsInjected[] =
    "server.faults_injected_total";
/// Slowdown epochs injected by the fault plan, per tenant.
inline constexpr char kServerSlowdownsInjected[] =
    "server.slowdowns_injected_total";
/// Brown-out engine downgrades applied at schedule time, per tenant.
inline constexpr char kServerBrownoutDowngrades[] =
    "server.brownout_downgrades_total";
/// Checkpoint snapshots written at epoch boundaries.
inline constexpr char kServerCheckpointsTotal[] =
    "server.checkpoints_total";
/// Event-journal records emitted (admission/completion/shed/...).
inline constexpr char kServerJournalRecordsTotal[] =
    "server.journal_records_total";

// --- bench harness (harness::BenchContext) --------------------------------
/// Profiled runs recorded into the session (BenchContext::RecordRun,
/// which ProfileCells calls).
inline constexpr char kHarnessRunsRecorded[] = "harness.runs_recorded_total";
/// Result tables emitted by the bench (BenchContext::Emit).
inline constexpr char kHarnessTablesEmitted[] =
    "harness.tables_emitted_total";

}  // namespace uolap::obs::metric_names

#endif  // UOLAP_OBS_METRIC_NAMES_H_
