#ifndef UOLAP_ENGINE_QUERY_SPEC_H_
#define UOLAP_ENGINE_QUERY_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"
#include "engine/query.h"
#include "engine/results.h"
#include "tpch/schema.h"

namespace uolap::engine {

/// Every workload an OlapEngine can execute, as data. The serving runtime
/// and other engine-neutral drivers dispatch through QuerySpec +
/// OlapEngine::Run instead of naming the per-query virtuals.
enum class QueryId {
  kProjection,  ///< SUM over the first `projection_degree` lineitem columns
  kSelection,   ///< degree-4 projection + 3 date predicates
  kJoin,        ///< hash join + SUM projection
  kGroupBy,     ///< hash aggregation, `num_groups` groups
  kQ1,          ///< TPC-H Q1
  kQ6,          ///< TPC-H Q6
  kQ9,          ///< TPC-H Q9 (high-performance engines only)
  kQ18,         ///< TPC-H Q18 (high-performance engines only)
};

/// Stable lower-case name ("projection", "q6", ...).
std::string QueryIdName(QueryId id);

/// Terminal disposition of a dispatched query, recorded by the serving
/// runtime. Everything except kOk means the query produced no answer;
/// `QueryResult::error` says why.
enum class QueryOutcome {
  kOk,        ///< completed and produced a verified result
  kRejected,  ///< refused at admission (predicted deadline miss)
  kShed,      ///< dropped from the queue under load-shedding policy
  kTimedOut,  ///< cancelled at an operator-region boundary past deadline
  kFailed,    ///< transient engine failures exhausted the retry budget
};

/// Stable lower-case name ("ok", "rejected", "shed", "timed_out",
/// "failed") used in profile JSON, span traces, and report rollups.
std::string_view QueryOutcomeName(QueryOutcome outcome);

/// A fully parameterized query: the tagged id plus the parameter fields it
/// reads (the others are ignored but kept value-initialized so specs
/// compare and label deterministically). Build one with the factory
/// helpers below. A spec describes only the workload: deadlines are
/// serving policy (server::AdmissionConfig), not part of the query.
struct QuerySpec {
  QueryId id = QueryId::kQ6;

  int projection_degree = 4;               ///< kProjection
  SelectionParams selection{};             ///< kSelection
  JoinSize join_size = JoinSize::kLarge;   ///< kJoin
  int64_t num_groups = 1024;               ///< kGroupBy
  Q6Params q6{};                           ///< kQ6

  static QuerySpec Projection(int degree);
  static QuerySpec Selection(const SelectionParams& params);
  static QuerySpec Join(JoinSize size);
  static QuerySpec GroupBy(int64_t num_groups);
  static QuerySpec Q1();
  static QuerySpec Q6(const Q6Params& params);
  static QuerySpec Q9();
  static QuerySpec Q18();

  /// Structural validation: a known id and in-range parameters.
  Status Validate() const;

  /// Deterministic label of the query class, e.g. "selection/s0.10" or
  /// "join/large" — stable across runs, so it can key schedules, profile
  /// run labels and registry-level caches.
  std::string Label() const;
};

/// The answer of one dispatched query. `value` holds the alternative the
/// query id implies: the scalar alternative carries both Money answers
/// (projection/selection/join/Q6) and the group-by checksum — tpch::Money
/// *is* int64_t, so the id, not the type, disambiguates.
struct QueryResult {
  QueryId id = QueryId::kQ6;
  std::variant<int64_t, Q1Result, Q9Result, Q18Result> value;

  /// kOk from OlapEngine::Run; the serving runtime stamps the degraded
  /// outcomes on results it synthesizes for shed/timed-out/failed queries.
  QueryOutcome outcome = QueryOutcome::kOk;
  /// Empty when outcome == kOk; otherwise a short reason string.
  std::string error;

  bool ok() const { return outcome == QueryOutcome::kOk; }

  tpch::Money money() const { return std::get<int64_t>(value); }
  int64_t checksum() const { return std::get<int64_t>(value); }
  const Q1Result& q1() const { return std::get<Q1Result>(value); }
  const Q9Result& q9() const { return std::get<Q9Result>(value); }
  const Q18Result& q18() const { return std::get<Q18Result>(value); }

  friend bool operator==(const QueryResult&, const QueryResult&) = default;
};

}  // namespace uolap::engine

#endif  // UOLAP_ENGINE_QUERY_SPEC_H_
