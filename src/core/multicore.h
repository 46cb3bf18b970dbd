#ifndef UOLAP_CORE_MULTICORE_H_
#define UOLAP_CORE_MULTICORE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/config.h"
#include "core/counters.h"
#include "core/topdown.h"

namespace uolap::core {

/// Result of combining N concurrently running cores under the shared
/// per-socket memory-bandwidth ceiling (the paper's Section 10 analysis).
struct MultiCoreResult {
  std::vector<ProfileResult> per_core;
  double makespan_cycles = 0;  ///< slowest core's cycles == wall time
  double time_ms = 0;
  double total_dram_bytes = 0;
  /// Average per-socket bandwidth over the makespan: the series of the
  /// paper's Figs. 29/30.
  double socket_bandwidth_gbps = 0;
  /// Final per-core bandwidth scale after contention (1.0 == unconstrained).
  double bandwidth_scale = 1.0;
  bool socket_saturated = false;
  int threads = 0;
};

/// Outcome of SolveContention.
struct ContentionSolution {
  double scale = 1.0;     ///< per-core bandwidth scale; 1.0 == unconstrained
  double socket_bpc = 0;  ///< blended socket ceiling, bytes per cycle
};

/// The shared-bandwidth contention solve of MultiCoreModel and the serving
/// runtime. The socket ceiling blends the sequential and random maxima by
/// the byte mix (`seq_bytes`: MemCounters::DramSeqStreamBytes(),
/// `rand_bytes`: random demand); a damped fixed point then finds the scale
/// at which the aggregate DRAM byte rate `demand_at(scale)`, in bytes per
/// cycle, fits it. State `demand_at` leaves behind is the last iterate's.
template <typename DemandAt>
ContentionSolution SolveContention(const MachineConfig& config,
                                   double seq_bytes, double rand_bytes,
                                   DemandAt&& demand_at) {
  const double total_bytes = seq_bytes + rand_bytes;
  const double seq_frac = total_bytes > 0 ? seq_bytes / total_bytes : 1.0;
  ContentionSolution sol;
  sol.socket_bpc = seq_frac * config.SocketSeqBytesPerCycle() +
                   (1.0 - seq_frac) * config.SocketRandBytesPerCycle();
  for (int iter = 0; iter < 40; ++iter) {
    const double demand_bpc = demand_at(sol.scale);
    if (demand_bpc <= sol.socket_bpc * 1.001) {
      if (sol.scale >= 0.999 || demand_bpc >= sol.socket_bpc * 0.98) break;
      // Undershooting after an earlier cut: relax (damped).
      sol.scale = std::min(1.0, sol.scale * 1.05);
      continue;
    }
    // Oversubscribed: shrink everyone's share (damped toward the fixed
    // point so the loop converges monotonically in practice).
    sol.scale *= std::pow(sol.socket_bpc / demand_bpc, 0.7);
  }
  return sol;
}

/// Analytic shared-bandwidth contention model: per-core demands feed a
/// fixed point against the socket ceiling; when the sum of unconstrained
/// demands exceeds it, every core's memory time inflates proportionally.
/// This reproduces the paper's saturation points (projection: 8 cores for
/// Typer, 12 for Tectorwise at 66 GB/s) and the join's underutilization.
class MultiCoreModel {
 public:
  explicit MultiCoreModel(const MachineConfig& config) : config_(config) {}

  MultiCoreResult Analyze(const std::vector<CoreCounters>& cores) const;

 private:
  const MachineConfig config_;
};

}  // namespace uolap::core

#endif  // UOLAP_CORE_MULTICORE_H_
