#ifndef UOLAP_ENGINE_ENGINE_H_
#define UOLAP_ENGINE_ENGINE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/core.h"
#include "engine/query.h"
#include "engine/query_spec.h"
#include "engine/results.h"
#include "tpch/schema.h"

namespace uolap::engine {

/// Runs `n` independent work items, possibly concurrently. Implemented by
/// ThreadPool (engine/thread_pool.h); engines and the serving runtime take
/// this interface, so a caller may pass nullptr for serial execution or a
/// pool of its own. `Run` must invoke
/// `body(0) .. body(n-1)` exactly once each and return only after all have
/// completed; any assignment of items to OS threads is allowed.
class ParallelExecutor {
 public:
  virtual ~ParallelExecutor() = default;
  virtual void Run(size_t n, const std::function<void(size_t)>& body) = 0;
};

/// The cores participating in one query execution. Single-core runs pass
/// one core; multi-core runs pass one per simulated thread. Engines
/// partition the work morsel-style internally: scans and probe sides split
/// by row range, shared hash-table builds split by build-side range (each
/// slice inserted through its worker's core), group-bys aggregated into
/// worker-local tables and merged natively (exact because the driving
/// table is clustered on the group key or the group count is tiny).
struct Workers {
  std::vector<core::Core*> cores;
  /// When set, `ForEach` runs the worker bodies concurrently (one OS
  /// thread per simulated core). Null means serial execution; results and
  /// counters are bit-identical either way.
  ParallelExecutor* executor = nullptr;

  explicit Workers(core::Core& single) : cores{&single} {}
  explicit Workers(std::vector<core::Core*> many) : cores(std::move(many)) {}
  size_t count() const { return cores.size(); }

  /// Runs `body(t)` for every worker `t` in [0, count()). Parallel when an
  /// executor is attached and there is more than one worker, serial
  /// otherwise. Bodies must confine all mutable state to `cores[t]` plus
  /// worker-private data: shared structures may only be read. Scratch a
  /// body allocates is placed by `cores[t]` (core::Placement), in its own
  /// address range and in program order, so where malloc puts it and when
  /// other workers run are both invisible to the model. Under that
  /// contract the per-core simulated state is untouched by scheduling,
  /// which is what makes threaded runs bit-deterministic.
  template <typename Body>
  void ForEach(Body&& body) const {
    const size_t n = count();
    if (executor != nullptr && n > 1) {
      executor->Run(n, [&body](size_t t) { body(t); });
    } else {
      for (size_t t = 0; t < n; ++t) body(t);
    }
  }
};

/// Common interface of the four profiled systems. Every method executes
/// the query for real (results are verified across engines) while driving
/// its accesses/branches/instructions through the workers' simulated
/// cores.
class OlapEngine {
 public:
  explicit OlapEngine(const tpch::Database& db) : db_(db) {}
  virtual ~OlapEngine() = default;

  OlapEngine(const OlapEngine&) = delete;
  OlapEngine& operator=(const OlapEngine&) = delete;

  virtual std::string name() const = 0;

  /// Whether this engine implements `id`. The base implementation admits
  /// everything but the TPC-H queries only the high-performance engines
  /// carry (Q9/Q18); those engines override.
  virtual bool Supports(QueryId id) const;

  /// Unified dispatch: executes `spec` by delegating to the matching
  /// per-query virtual (the virtuals stay the single implementation of the
  /// engine code, so dispatched and direct calls are bit-identical — the
  /// engine_dispatch_test differential asserts it). Engine-neutral drivers
  /// such as the serving runtime only see this entry point.
  ///
  /// Returns InvalidArgument when `spec.Validate()` fails and
  /// Unimplemented when this engine does not support the query — the
  /// error channel the serving runtime's degradation paths flow through
  /// instead of the former CHECK-abort.
  [[nodiscard]] StatusOr<QueryResult> Run(const QuerySpec& spec,
                                          Workers& w) const;

  /// Projection micro-benchmark: SUM over the first `degree` (1..4) of
  /// l_extendedprice, l_discount, l_tax, l_quantity.
  virtual tpch::Money Projection(Workers& w, int degree) const = 0;

  /// Selection micro-benchmark (degree-4 projection + 3 date predicates).
  virtual tpch::Money Selection(Workers& w,
                                const SelectionParams& params) const = 0;

  /// Join micro-benchmark (hash join + SUM projection).
  virtual tpch::Money Join(Workers& w, JoinSize size) const = 0;

  /// Group-by micro-benchmark (the paper ran it and omitted the figures:
  /// "it behaves similarly to the join at the micro-architectural
  /// level"). Groups lineitem by hash(l_orderkey) % num_groups and sums
  /// l_extendedprice per group. Returns an order-independent checksum of
  /// (group key, group sum) pairs so results are differential-testable.
  virtual int64_t GroupBy(Workers& w, int64_t num_groups) const = 0;

  /// TPC-H Q1 (low-cardinality group-by, 4 groups).
  virtual Q1Result Q1(Workers& w) const = 0;

  /// TPC-H Q6 (highly selective filter). Returns sum(extendedprice *
  /// discount) in cent-percent units (divide by 100 for cents).
  virtual tpch::Money Q6(Workers& w, const Q6Params& params) const = 0;

  /// TPC-H Q9 (join-intensive). Only the high-performance engines
  /// implement this (the paper profiles TPC-H only on those).
  virtual Q9Result Q9(Workers& w) const;

  /// TPC-H Q18 (high-cardinality group-by).
  virtual Q18Result Q18(Workers& w) const;

  const tpch::Database& db() const { return db_; }

 protected:
  const tpch::Database& db_;
};

/// Shared definition of the group-by micro-benchmark's group key and
/// result checksum (identical across engines by construction).
namespace groupby {
inline int64_t GroupKey(int64_t orderkey, int64_t num_groups) {
  return static_cast<int64_t>(Mix64(static_cast<uint64_t>(orderkey)) %
                              static_cast<uint64_t>(num_groups));
}
/// Order-independent checksum over (key, sum) pairs.
inline int64_t Combine(int64_t checksum, int64_t key, int64_t sum) {
  return checksum ^ static_cast<int64_t>(
                        Mix64(static_cast<uint64_t>(key) * 0x9E3779B1u ^
                              static_cast<uint64_t>(sum)));
}
}  // namespace groupby

/// Branch-site identifiers; giving each engine/operator distinct sites
/// keeps predictor interference realistic but controlled.
// Hash-probe sites derive up to 8 per-step sub-sites (site + 0..7), so
// base sites are spaced 16 apart.
namespace branch_site {
inline constexpr uint32_t kSelectionP1 = 100;
inline constexpr uint32_t kSelectionP2 = 116;
inline constexpr uint32_t kSelectionP3 = 132;
inline constexpr uint32_t kSelectionCombined = 148;
inline constexpr uint32_t kJoinChain = 164;
inline constexpr uint32_t kJoinBuildChain = 180;
inline constexpr uint32_t kAggChain = 196;
inline constexpr uint32_t kQ6P1 = 212;
inline constexpr uint32_t kQ6P2 = 228;
inline constexpr uint32_t kQ6P3 = 244;
inline constexpr uint32_t kQ6P4 = 260;
inline constexpr uint32_t kQ6Combined = 276;
inline constexpr uint32_t kQ9PartFilter = 292;
inline constexpr uint32_t kQ9Chain1 = 308;
inline constexpr uint32_t kQ9Chain2 = 324;
inline constexpr uint32_t kQ9Chain3 = 340;
inline constexpr uint32_t kQ9Chain4 = 356;
inline constexpr uint32_t kQ9AggChain = 372;
inline constexpr uint32_t kQ18AggChain = 388;
inline constexpr uint32_t kQ18Filter = 404;
inline constexpr uint32_t kQ18Chain = 420;
inline constexpr uint32_t kRowstoreExpr = 436;
inline constexpr uint32_t kColstoreSel = 452;
inline constexpr uint32_t kGroupByChain = 468;
}  // namespace branch_site

}  // namespace uolap::engine

#endif  // UOLAP_ENGINE_ENGINE_H_
