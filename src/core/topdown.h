#ifndef UOLAP_CORE_TOPDOWN_H_
#define UOLAP_CORE_TOPDOWN_H_

#include <cstdint>

#include "core/config.h"
#include "core/counters.h"

namespace uolap::core {

/// The six-component CPU-cycles breakdown the paper reports for every
/// experiment: Retiring plus the five stall categories of its Section 2
/// methodology (VTune general-exploration / Top-Down).
struct CycleBreakdown {
  double retiring = 0;
  double branch_misp = 0;
  double icache = 0;
  double decoding = 0;
  double dcache = 0;
  double execution = 0;

  double Total() const {
    return retiring + branch_misp + icache + decoding + dcache + execution;
  }
  double StallCycles() const { return Total() - retiring; }
  /// Stall / total, the paper's headline "x% of CPU cycles on stalls".
  double StallRatio() const {
    const double t = Total();
    return t > 0 ? StallCycles() / t : 0.0;
  }
  /// Component as a fraction of total cycles.
  double Frac(double component) const {
    const double t = Total();
    return t > 0 ? component / t : 0.0;
  }
  /// Component as a fraction of stall cycles (the paper's stall-breakdown
  /// figures are normalized this way).
  double StallFrac(double component) const {
    const double s = StallCycles();
    return s > 0 ? component / s : 0.0;
  }

  CycleBreakdown& operator+=(const CycleBreakdown& o) {
    retiring += o.retiring;
    branch_misp += o.branch_misp;
    icache += o.icache;
    decoding += o.decoding;
    dcache += o.dcache;
    execution += o.execution;
    return *this;
  }
};

/// The outcome of profiling one run on one core.
struct ProfileResult {
  CycleBreakdown cycles;
  double total_cycles = 0;
  double time_ms = 0;
  double dram_bytes = 0;
  double bandwidth_gbps = 0;  ///< total DRAM traffic / wall time
  double ipc = 0;
  uint64_t instructions = 0;
  CoreCounters counters;
};

/// The per-component terms Analyze combines, for one counter set at one
/// bandwidth scale. The linear terms are sums over events, so they add up
/// across counter deltas. The last three are the counter set's standalone
/// demand for a component that is nonlinear across a run;
/// obs::AttributeCycles splits a run's total of each in proportion to them.
struct TopDownTerms {
  double instructions = 0;
  // Linear terms.
  double retiring = 0;
  double branch_misp = 0;
  double icache = 0;
  double execution = 0;
  double dcache_linear = 0;  ///< seq residual + stream startup + TLB
  // Nonlinear demands.
  double decoding = 0;   ///< max(0, decode cycles - retiring)
  double rand = 0;       ///< max(rand latency, rand bytes / rand bw)
  double seq_bytes = 0;  ///< streamer-serviced bytes (seq throughput)
};

/// Combines a core's raw counters with the machine parameters into the
/// paper's cycle breakdown: the one place counters become cycles. See
/// DESIGN.md Section 3 for the model; all hardware constants come from
/// MachineConfig (the paper's Table 1), all behavioural constants from
/// calibration.h.
class TopDownModel {
 public:
  explicit TopDownModel(const MachineConfig& config) : config_(config) {}

  /// `bw_scale` scales the per-core bandwidth ceilings; the multi-core
  /// model uses it to express socket-level contention (< 1.0 when the
  /// socket is oversubscribed).
  ProfileResult Analyze(const CoreCounters& c, double bw_scale = 1.0) const;

  /// The terms Analyze(c, bw_scale) is built from. Its Dcache is
  /// dcache_linear + rand + the sequential throughput residual
  /// max(0, seq_bytes / seq bw - overlap * (every other cycle)).
  TopDownTerms Terms(const CoreCounters& c, double bw_scale = 1.0) const;

 private:
  const MachineConfig config_;
};

}  // namespace uolap::core

#endif  // UOLAP_CORE_TOPDOWN_H_
