#ifndef UOLAP_SERVER_LOOP_STATE_H_
#define UOLAP_SERVER_LOOP_STATE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "obs/record.h"

namespace uolap::server {

/// The complete mutable state of the serving fluid loop (Server::TryRun),
/// made explicit so checkpointing can capture it at an epoch boundary and
/// recovery can restore it bit for bit. It is the run's only ledger: every
/// fact the loop records lives here, once, and the ServerRecord and every
/// server.* metric are projections of it computed when the run drains.
/// Everything else the loop touches is configuration (immutable for the
/// run), a function of configuration (submission caps, Zipf CDFs), a
/// function of other fields here (completion and retry counts, the
/// per-tenant, per-class, per-engine and per-epoch latency series,
/// histograms, current and peak occupancy, the admission sequence number,
/// the epoch index, the journal record count), or per-iteration scratch.
/// DESIGN.md §10 documents the capture-vs-derive split.

/// A query in flight. `remaining` is the fraction of the class's work
/// outstanding; under bandwidth scale s it drains at rate 1/g(s) per
/// cycle, where g(s) is the class's Top-Down total at that scale.
struct QueryInstance {
  int tenant = -1;  ///< -1 marks a free core slot
  uint64_t cls = 0;
  int client = -1;  ///< closed-loop client index (-1 when open-loop)
  uint64_t seq = 0;  ///< global admission order (span sampling key)
  double arrival = 0;
  double start = 0;
  double remaining = 1.0;
  double scale_cycles = 0;  ///< integral of s over the run time
  double run_cycles = 0;
  // --- robustness (DESIGN.md §9) ---
  int attempt = 1;  ///< 1-based execution attempt
  /// Absolute deadline in cycles (infinity = none).
  double deadline = std::numeric_limits<double>::infinity();
  double est_ms = 0;  ///< load-model estimate stamped at enqueue
  /// Once the deadline passes mid-run this holds the work fraction left
  /// at the next operator-region boundary (cancellation lands there);
  /// -1 while no cancellation is pending.
  double cancel_remaining = -1;
  double retry_ready = 0;  ///< absolute cycles a retry backoff expires at
  bool will_fail = false;  ///< fault plan fails this attempt at its end
  double slow = 1.0;       ///< fault-plan service-time multiplier

  friend bool operator==(const QueryInstance&, const QueryInstance&) = default;
};

/// Per-tenant loop state: the seeded RNG stream, outcome and fault
/// accounting, the retry backoffs, and the arrival process heads. The
/// tenant's completions are the LoopState::completions naming it.
struct TenantLoopState {
  Rng rng{0};
  uint64_t submitted = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t timed_out = 0;
  uint64_t failed = 0;
  uint64_t faults_injected = 0;
  uint64_t slowdowns_injected = 0;
  uint64_t brownout_downgrades = 0;
  /// Cycles; open-loop stream head (infinity once capped/closed-loop).
  double next_open_arrival = std::numeric_limits<double>::infinity();
  std::vector<double> client_wake;  ///< cycles; closed-loop clients
  std::vector<double> backoff_ms;   ///< one per retry, in retry order

  friend bool operator==(const TenantLoopState&, const TenantLoopState&) =
      default;
};

/// One finished query.
struct CompletionRecord {
  uint32_t tenant = 0;
  uint32_t cls = 0;  ///< the class that ran, after any brown-out downgrade
  double latency_ms = 0;     ///< arrival to completion
  double queue_wait_ms = 0;  ///< arrival to the finishing attempt's start

  friend bool operator==(const CompletionRecord&, const CompletionRecord&) =
      default;
};

/// Per-class contention accounting.
struct ClassLoopStats {
  uint64_t executions = 0;
  double service_cycles = 0;  ///< observed (contended) service time
  double scale_cycles = 0;
  double run_cycles = 0;

  friend bool operator==(const ClassLoopStats&, const ClassLoopStats&) =
      default;
};

/// The open SLO epoch window: its completions are
/// LoopState::completions from `first_completion` to the end; occupancy
/// extremes accumulate here.
struct EpochAccState {
  uint64_t first_completion = 0;
  uint32_t max_running = 0;
  uint32_t max_queued = 0;

  friend bool operator==(const EpochAccState&, const EpochAccState&) = default;
};

/// Everything Server::TryRun mutates between events.
struct LoopState {
  double vtime = 0;  ///< cycles
  std::vector<TenantLoopState> tenants;
  std::vector<ClassLoopStats> classes;
  std::vector<QueryInstance> slots;        ///< one per pool core
  std::vector<QueryInstance> queue;        ///< FIFO; queue_head pops
  std::vector<QueryInstance> retry_queue;  ///< drained in (ready, seq) order
  uint64_t queue_head = 0;
  double queued_est_ms = 0;  ///< estimated service time sitting in queue
  std::vector<CompletionRecord> completions;  ///< completion order
  uint64_t checkpoints = 0;  ///< snapshots written, this one included
  double total_bytes = 0;
  double peak_gbps = 0;
  bool saturated = false;
  /// Occupancy samples, appended whenever occupancy changes; the last one
  /// is the current (running, queued) level.
  std::vector<obs::QueueSample> timeline;
  std::vector<obs::QuerySpan> spans;
  EpochAccState acc;
  double epoch_start = 0;  ///< cycles
  std::vector<obs::EpochRecord> epochs;  ///< closed; size = epoch index

  friend bool operator==(const LoopState&, const LoopState&) = default;
};

}  // namespace uolap::server

#endif  // UOLAP_SERVER_LOOP_STATE_H_
