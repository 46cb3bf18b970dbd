#ifndef UOLAP_SERVER_SERVING_H_
#define UOLAP_SERVER_SERVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/counters.h"
#include "core/topdown.h"
#include "engine/engine.h"
#include "engine/query_spec.h"
#include "engine/registry.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "obs/slo.h"
#include "server/admission.h"
#include "server/checkpoint.h"
#include "server/fault.h"

namespace uolap::server {

/// One tenant: a client population issuing queries from a catalog against
/// one registry engine key.
///
///  - Open loop (`arrival_qps > 0`): queries arrive as a Poisson process
///    in *virtual* time, independent of completions — the "heavy traffic"
///    regime where queueing delay appears once the core pool or the
///    socket bandwidth saturates.
///  - Closed loop (`concurrency > 0`): that many clients each keep one
///    query in flight, waiting an exponential think time between a
///    completion and the next submission.
///
/// Which catalog entry a submission draws follows a Zipf(zipf_s) law over
/// the catalog order (0 = uniform); all randomness comes from the
/// tenant's seeded generator, so a serving run is a pure function of its
/// configuration.
struct TenantConfig {
  std::string name;
  std::string engine;                      ///< EngineRegistry key
  std::vector<engine::QuerySpec> catalog;  ///< the query classes in the mix
  double zipf_s = 0.0;       ///< catalog skew: P(i) proportional 1/(i+1)^s
  double arrival_qps = 0.0;  ///< open-loop Poisson rate (virtual qps)
  int concurrency = 0;       ///< closed-loop client count
  double think_ms = 0.0;     ///< closed-loop mean think time
  uint64_t max_queries = 0;  ///< submissions cap (0 = server default)
  uint64_t seed = 0;         ///< tenant RNG stream (0 = derived from index)
};

/// Serving-runtime configuration: the simulated machine, the core pool
/// the scheduler multiplexes queries onto, and the admission default.
struct ServerConfig {
  core::MachineConfig machine;
  int cores = 8;  ///< concurrency of the pool (<= machine.cores_per_socket)
  uint64_t default_max_queries = 32;  ///< per-tenant cap when unset
  /// Counter-timeline sampling interval of the per-class profiles
  /// (0 = timelines off); see obs::RegionProfiler::Options.
  uint64_t sample_interval_instructions = 0;

  // --- serving telemetry (DESIGN.md §8) ---------------------------------
  /// SLO epoch width in virtual ms; the run records per-epoch latency
  /// windows and queue-depth extremes at this granularity. 0 disables
  /// epoch windows (and with them SLO evaluation).
  double epoch_ms = 0;
  /// Head-based span sampling: every N-th admitted query (global
  /// admission order, starting with the first) gets a QuerySpan recorded.
  /// 1 traces everything, 0 disables tracing.
  uint64_t trace_sample_n = 0;
  /// Declarative SLOs evaluated against the epoch windows when Run()
  /// finishes; results land in ServerRecord::slo_results.
  std::vector<obs::SloSpec> slos;
  /// Registry the run publishes its metrics into; nullptr uses
  /// obs::MetricsRegistry::Global().
  obs::MetricsRegistry* metrics = nullptr;

  // --- robustness (DESIGN.md §9) ----------------------------------------
  // All four default to off, in which case the run is bit-identical to
  // the pre-robustness runtime.
  /// Deadline-aware admission control and load shedding.
  AdmissionConfig admission;
  /// Bounded retry of transiently failed attempts.
  RetryPolicy retry;
  /// Queue-depth-triggered engine downgrade.
  BrownoutConfig brownout;
  /// Deterministic fault injection.
  FaultPlan faults;

  // --- crash consistency (DESIGN.md §10) --------------------------------
  /// Epoch-boundary snapshots + CRC-framed event journal + resume.
  /// Defaults to off, in which case the run performs no persistence I/O
  /// and is bit-identical to the pre-checkpoint runtime.
  CheckpointConfig checkpoint;
};

/// The outcome of one Server::Run().
struct ServeResult {
  /// Latency percentiles, throughput, contention attribution and the
  /// queue-depth timeline — the profile JSON's "server" block.
  obs::ServerRecord record;
  /// One solo profile per distinct (engine, QuerySpec) class, labelled
  /// "serve/<engine>/<class>", plus a "... [corun]" re-analysis at the
  /// class's observed contention scale for every class that ran
  /// contended. Feed these to the session exporter alongside the record.
  std::vector<obs::RunRecord> class_runs;
};

/// Deterministic virtual-time serving runtime over the QuerySpec dispatch
/// API. The runtime never names a concrete engine or query: tenants
/// reference engines by registry key and queries as QuerySpecs.
///
/// Model (DESIGN.md section 6): every distinct (engine, QuerySpec) class
/// is executed once on a fresh single-core simulated machine through
/// `OlapEngine::Run`, which yields its full counter set. The serving run
/// itself is then a fluid event simulation: admitted queries occupy pool
/// cores FIFO; between consecutive events the co-running set is fixed,
/// and a damped fixed point (mirroring core::MultiCoreModel) finds the
/// bandwidth scale `s` at which the set's aggregate DRAM demand fits the
/// blended socket ceiling. Each running query advances through its work
/// at rate 1/g(s), where g(s) is its class's Top-Down total re-analyzed
/// at scale s — so co-running tenants genuinely dilate each other's
/// service times, and the dilation lands in the Dcache component exactly
/// as the paper's Section 10 contention model prescribes.
///
/// Everything is virtual time; no host clock, no ambient RNG. Two Run()
/// calls on the same Server produce bit-identical results (class profiles
/// are simulated once and cached; the fluid loop is pure arithmetic).
///
/// The classes are simulated on `executor`, concurrently: each runs on a
/// machine of its own and writes only its own slot, while class indices
/// are assigned serially, so the output does not depend on the schedule.
/// A null executor simulates them one after another.
class Server {
 public:
  Server(const ServerConfig& config, engine::EngineRegistry& registry,
         engine::ParallelExecutor* executor = &engine::ThreadPool::Global());

  /// Registers a tenant. Call before Run(). CHECK-fails on an empty
  /// catalog, an unknown engine key, a spec the engine does not support,
  /// or a tenant that is neither open- nor closed-loop.
  void AddTenant(TenantConfig tenant);

  /// Simulates the serving run to completion (every tenant submits its
  /// max_queries and drains). CHECK-fails on checkpoint/recovery errors;
  /// use TryRun() to handle them as Status.
  ServeResult Run();

  /// Run() with recoverable failure semantics: checkpoint I/O errors,
  /// resume against a missing/invalid/mismatched checkpoint directory,
  /// and journal divergence come back as a non-OK Status instead of
  /// aborting. With checkpointing off this never fails.
  StatusOr<ServeResult> TryRun();

  const ServerConfig& config() const { return config_; }

 private:
  struct QueryClass {
    std::string label;   ///< "<engine key>/<QuerySpec::Label()>"
    std::string engine;  ///< registry key
    engine::QuerySpec spec;
    double bytes_seq = 0;  ///< seq-class DRAM bytes (incl. waste/wb)
    double bytes_rand = 0;
    /// The solo run's profile: whole-run analysis, regions and timeline.
    obs::RunRecord solo_run;
    engine::QueryResult result;  ///< the verified solo answer
    /// Ascending progress fractions of the solo run's top-level region
    /// boundaries (always ends with 1.0): the points where a timed-out
    /// query may actually stop — cancellation lands on operator
    /// boundaries, not mid-operator.
    std::vector<double> cancel_fractions;
    /// Index into classes_ of the brown-out downgrade class (-1 = none).
    int downgrade = -1;
    /// solo().counters re-analyzed at bandwidth scale 1.0: the service
    /// time of an uncontended instance, which every contention solve
    /// starts from.
    double full_bw_cycles = 0;

    /// Analyze(counters, 1.0) of the solo execution; `.counters` is its
    /// full counter set.
    const core::ProfileResult& solo() const { return solo_run.cores[0].whole; }
  };

  /// One Run()'s event machine (defined in serving.cc).
  class ServeLoop;

  /// Simulates every distinct class referenced by the tenants (idempotent).
  void EnsureClasses();
  /// Simulates classes_[first..], appended unsimulated by EnsureClasses,
  /// on the executor.
  void SimulateClasses(size_t first);
  /// Executes one class solo on a fresh machine and records its profile.
  void SimulateClass(const engine::OlapEngine& eng, QueryClass* cls) const;

  ServerConfig config_;
  engine::EngineRegistry& registry_;
  engine::ParallelExecutor* executor_;
  std::vector<TenantConfig> tenants_;
  /// tenant -> catalog index -> index into classes_.
  std::vector<std::vector<size_t>> tenant_classes_;
  std::vector<QueryClass> classes_;
  bool classes_ready_ = false;
};

}  // namespace uolap::server

#endif  // UOLAP_SERVER_SERVING_H_
