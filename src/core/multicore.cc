#include "core/multicore.h"

#include <algorithm>

#include "common/macros.h"

namespace uolap::core {

MultiCoreResult MultiCoreModel::Analyze(
    const std::vector<CoreCounters>& cores) const {
  UOLAP_CHECK(!cores.empty());
  MultiCoreResult result;
  result.threads = static_cast<int>(cores.size());

  TopDownModel model(config_);
  double seq_bytes = 0;
  double rand_bytes = 0;
  for (const CoreCounters& c : cores) {
    seq_bytes += static_cast<double>(c.mem.DramSeqStreamBytes());
    rand_bytes += static_cast<double>(c.mem.dram_demand_bytes_rand);
  }
  const double total_bytes = seq_bytes + rand_bytes;

  double makespan = 0;
  const ContentionSolution sol = SolveContention(
      config_, seq_bytes, rand_bytes, [&](double scale) {
        result.per_core.clear();
        makespan = 0;
        for (const CoreCounters& c : cores) {
          result.per_core.push_back(model.Analyze(c, scale));
          makespan = std::max(makespan, result.per_core.back().total_cycles);
        }
        return makespan > 0 ? total_bytes / makespan : 0.0;
      });

  result.makespan_cycles = makespan;
  result.time_ms = makespan / (config_.freq_ghz * 1e6);
  result.total_dram_bytes = total_bytes;
  result.socket_bandwidth_gbps =
      makespan > 0 ? total_bytes * config_.freq_ghz / makespan : 0.0;
  result.bandwidth_scale = sol.scale;
  result.socket_saturated =
      result.socket_bandwidth_gbps >= 0.95 * sol.socket_bpc * config_.freq_ghz;
  return result;
}

}  // namespace uolap::core
