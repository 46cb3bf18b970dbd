#ifndef UOLAP_ENGINES_TECTORWISE_TW_ENGINE_H_
#define UOLAP_ENGINES_TECTORWISE_TW_ENGINE_H_

#include <string>

#include "engine/engine.h"

namespace uolap::tectorwise {

/// Vectorized OLAP engine in the style of VectorWise / the Tectorwise
/// prototype of Kersten et al.: operators process vectors of 1024 values
/// through pre-compiled primitives, communicating through materialized
/// intermediate vectors and selection vectors.
///
/// Micro-architecturally relevant properties:
///  - every predicate is evaluated by its own primitive, so the branch
///    predictor faces each predicate's *individual* selectivity
///    (Section 4/6);
///  - intermediates are materialized: extra loads/stores that throttle the
///    memory pressure the engine can generate (Sections 3/7's
///    "materialization overheads");
///  - with `simd = true` every primitive uses its AVX-512 flavour: ~8x
///    fewer instructions per vector, hash-probe gathers with high MLP
///    (Section 8; run it on MachineConfig::Skylake()).
class TectorwiseEngine : public engine::OlapEngine {
 public:
  explicit TectorwiseEngine(const tpch::Database& db, bool simd = false)
      : OlapEngine(db), simd_(simd) {}

  std::string name() const override {
    return simd_ ? "Tectorwise-SIMD" : "Tectorwise";
  }
  /// Implements every QuerySpec workload, including Q9/Q18.
  bool Supports(engine::QueryId) const override { return true; }
  bool simd() const { return simd_; }

  tpch::Money Projection(engine::Workers& w, int degree) const override;
  tpch::Money Selection(engine::Workers& w,
                        const engine::SelectionParams& params) const override;
  tpch::Money Join(engine::Workers& w, engine::JoinSize size) const override;
  int64_t GroupBy(engine::Workers& w, int64_t num_groups) const override;
  engine::Q1Result Q1(engine::Workers& w) const override;
  tpch::Money Q6(engine::Workers& w,
                 const engine::Q6Params& params) const override;
  engine::Q9Result Q9(engine::Workers& w) const override;
  engine::Q18Result Q18(engine::Workers& w) const override;

  /// Probes only (build reused): used by the SIMD join experiment
  /// (Section 8.2 compares only the probe phases).
  tpch::Money LargeJoinProbeOnly(engine::Workers& w) const;

 private:
  bool simd_;
};

}  // namespace uolap::tectorwise

#endif  // UOLAP_ENGINES_TECTORWISE_TW_ENGINE_H_
