#ifndef UOLAP_CORE_MACHINE_H_
#define UOLAP_CORE_MACHINE_H_

#include <memory>
#include <vector>

#include "common/macros.h"
#include "core/config.h"
#include "core/core.h"
#include "core/multicore.h"
#include "core/topdown.h"

namespace uolap::core {

/// Owns the simulated cores for one profiled run. Single-core experiments
/// use `core(0)`; multi-core experiments give each worker its own core and
/// combine them through the contention model.
///
/// Simplification vs. real hardware: each simulated core carries a full
/// private hierarchy including its own L3 image. Multi-core L3 capacity
/// sharing is second-order for the paper's Section 10 experiments (working
/// sets far exceed the L3 either way); the shared resource that matters —
/// socket memory bandwidth — is modelled explicitly.
///
/// Core `i` places its structures in its own simulated address range
/// (Placement), so what a worker allocates never depends on what another
/// worker allocated or when.
class Machine {
 public:
  explicit Machine(const MachineConfig& config, uint32_t num_cores = 1)
      : config_(config) {
    UOLAP_CHECK(num_cores >= 1);
    UOLAP_CHECK_MSG(num_cores <= config.cores_per_socket,
                    "experiments are numa-localized to one socket");
    cores_.reserve(num_cores);
    for (uint32_t i = 0; i < num_cores; ++i) {
      cores_.push_back(std::make_unique<Core>(config, i));
    }
  }

  Core& core(size_t i) {
    UOLAP_CHECK(i < cores_.size());
    return *cores_[i];
  }
  const Core& core(size_t i) const {
    UOLAP_CHECK(i < cores_.size());
    return *cores_[i];
  }
  size_t num_cores() const { return cores_.size(); }
  const MachineConfig& config() const { return config_; }

  /// Finalizes every core (flushes stream/ifetch state).
  void FinalizeAll() {
    for (auto& c : cores_) c->Finalize();
  }

  /// Top-Down analysis of one core.
  ProfileResult AnalyzeCore(size_t i) const {
    TopDownModel model(config_);
    return model.Analyze(cores_[i]->counters());
  }

  /// Combined analysis of all cores under socket bandwidth contention.
  MultiCoreResult AnalyzeAll() const {
    std::vector<CoreCounters> counters;
    counters.reserve(cores_.size());
    for (const auto& c : cores_) counters.push_back(c->counters());
    MultiCoreModel model(config_);
    return model.Analyze(counters);
  }

 private:
  const MachineConfig config_;
  std::vector<std::unique_ptr<Core>> cores_;
};

}  // namespace uolap::core

#endif  // UOLAP_CORE_MACHINE_H_
