#ifndef UOLAP_ENGINES_TYPER_TYPER_ENGINE_H_
#define UOLAP_ENGINES_TYPER_TYPER_ENGINE_H_

#include <string>

#include "engine/engine.h"

namespace uolap::typer {

/// Compiled-execution OLAP engine in the style of HyPer / the Typer
/// prototype of Kersten et al.: every query is one fused, tight loop over
/// the base columns with no operator boundaries and no materialized
/// intermediates.
///
/// Micro-architecturally relevant properties (all load-bearing for the
/// paper's findings):
///  - tiny code footprint per query (~1 KB: the generated loop);
///  - conjunctive predicates evaluated with bitwise `&` into a single
///    data-dependent branch, so the predictor sees the *combined*
///    selectivity (Section 4's 10% x 10% x 10% = 0.1% argument);
///  - scalar accumulators carry a 1-cycle loop dependency chain;
///  - loops are unrolled 4x by the compiler, so loop-control overhead is
///    0.25 branch + 0.5 ALU per tuple.
class TyperEngine : public engine::OlapEngine {
 public:
  explicit TyperEngine(const tpch::Database& db) : OlapEngine(db) {}

  std::string name() const override { return "Typer"; }
  /// Implements every QuerySpec workload, including Q9/Q18.
  bool Supports(engine::QueryId) const override { return true; }

  tpch::Money Projection(engine::Workers& w, int degree) const override;
  tpch::Money Selection(engine::Workers& w,
                        const engine::SelectionParams& params) const override;
  tpch::Money Join(engine::Workers& w, engine::JoinSize size) const override;
  int64_t GroupBy(engine::Workers& w, int64_t num_groups) const override;

  /// The interleaved-probe variant of the large join: processes probes in
  /// groups with staged software prefetching, the coroutine/interleaving
  /// technique of the paper's Section 5 citations ([13, 21, 22]). Same
  /// result as Join(kLarge); much higher memory-level parallelism.
  tpch::Money JoinLargeInterleaved(engine::Workers& w) const;

  /// Radix-partitioned variant of the large join (Manegold et al., the
  /// paper's reference [20]): partitions both sides in sequential passes
  /// so the per-partition joins probe cache-resident tables. Trades the
  /// chaining join's random DRAM latency for sequential bandwidth.
  tpch::Money JoinLargeRadix(engine::Workers& w,
                             uint32_t radix_bits = 8) const;
  engine::Q1Result Q1(engine::Workers& w) const override;
  tpch::Money Q6(engine::Workers& w,
                 const engine::Q6Params& params) const override;
  engine::Q9Result Q9(engine::Workers& w) const override;
  engine::Q18Result Q18(engine::Workers& w) const override;
};

}  // namespace uolap::typer

#endif  // UOLAP_ENGINES_TYPER_TYPER_ENGINE_H_
