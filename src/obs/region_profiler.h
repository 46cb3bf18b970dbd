#ifndef UOLAP_OBS_REGION_PROFILER_H_
#define UOLAP_OBS_REGION_PROFILER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/core.h"
#include "core/counters.h"
#include "core/observer.h"
#include "core/topdown.h"

namespace uolap::obs {

/// One node of a per-core region tree. Node 0 is always the implicit root
/// `<run>` spanning the whole profiled run; engine/bench annotations
/// (`core::ScopedRegion`) create children. Re-entering the same name under
/// the same parent merges into one node (`visits` counts the intervals).
struct RegionNode {
  std::string name;
  int parent = -1;  ///< index into RegionTree::nodes; -1 for the root
  int depth = 0;
  std::vector<int> children;
  uint64_t visits = 0;

  /// Counter delta summed over all visits (self + descendants).
  core::CoreCounters inclusive;
  /// `inclusive` minus the children's inclusive deltas: what this node
  /// executed outside any child region. Leaf exclusive == inclusive.
  core::CoreCounters exclusive;

  /// Filled by AnalyzeTree(): the whole-run Top-Down breakdown attributed
  /// to this node's exclusive / inclusive share (see attribution.h; the
  /// exclusive breakdowns of all nodes sum to the whole-run breakdown).
  core::CycleBreakdown excl_cycles;
  core::CycleBreakdown incl_cycles;
};

/// The per-core result of a recorded run. Nodes are in creation order, so
/// a child's index is always greater than its parent's.
struct RegionTree {
  std::vector<RegionNode> nodes;

  const RegionNode& root() const { return nodes.front(); }
};

/// Cumulative counter snapshot taken when the retired-instruction count
/// crossed a sampling threshold. Consecutive samples' deltas yield the
/// per-interval IPC / miss-rate / DRAM-byte series (the paper's
/// bandwidth-over-time view); exporters derive those via
/// attribution/TopDown on each delta.
struct TimelineSample {
  uint64_t instructions = 0;
  core::CoreCounters counters;
};

/// One region push or pop, in record order, with the cumulative snapshot
/// at that point — the raw material for Chrome-trace duration events.
struct RegionEvent {
  int node = 0;
  bool begin = false;
  core::CoreCounters snapshot;
};

/// Records a region tree (and optionally a counter timeline) for one
/// simulated core by observing its push/pop markers and batched
/// accounting points. obs::ProfileRun (obs/attribution.h) attaches one
/// profiler per core; all state is per-core, which preserves the
/// bit-determinism of threaded multi-core runs.
///
/// Usage:
///   RegionProfiler prof(core, {.sample_interval_instructions = 1 << 20});
///   ... run the workload (engines push/pop regions) ...
///   core.Finalize();
///   RegionTree tree = prof.Finish();
///
/// Error handling is non-fatal: a PopRegion with no matching push is
/// ignored and recorded in `status()`; regions still open at Finish() are
/// closed there and likewise flagged. Counters are never affected.
class RegionProfiler : public core::CoreObserver {
 public:
  struct Options {
    /// Snapshot the counter timeline every this many retired instructions
    /// (0 = timeline off). Samples are taken at the first batched
    /// accounting point at or after each threshold, so the effective
    /// granularity has one retire/range batch of slop.
    uint64_t sample_interval_instructions = 0;
  };

  explicit RegionProfiler(core::Core& core) : RegionProfiler(core, Options()) {}
  RegionProfiler(core::Core& core, Options options);
  ~RegionProfiler() override;

  RegionProfiler(const RegionProfiler&) = delete;
  RegionProfiler& operator=(const RegionProfiler&) = delete;

  // CoreObserver:
  void OnRegionPush(std::string_view name) override;
  void OnRegionPop() override;
  void OnProgress() override;

  /// Detaches from the core and returns the recorded tree. Call after
  /// `Core::Finalize()` so the root interval includes the finalize flush.
  /// The returned tree carries raw counters only; run
  /// `AnalyzeTree` (attribution.h) to fill the cycle breakdowns.
  RegionTree Finish();

  /// OK, or the first structural error observed (unbalanced pop, regions
  /// left open at Finish).
  const Status& status() const { return status_; }

  const std::vector<TimelineSample>& timeline() const { return timeline_; }
  const std::vector<RegionEvent>& events() const { return events_; }
  /// Snapshot taken at attach time (all-zero for a fresh core); timeline
  /// and event snapshots are cumulative from core birth, so exporters
  /// subtract this baseline.
  const core::CoreCounters& begin_counters() const { return begin_; }

 private:
  int ChildNamed(int parent, std::string_view name);

  core::Core& core_;
  const Options options_;
  Status status_;

  std::vector<RegionNode> nodes_;
  struct StackEntry {
    int node;
    core::CoreCounters entry_snapshot;
  };
  std::vector<StackEntry> stack_;
  core::CoreCounters begin_;
  std::vector<TimelineSample> timeline_;
  std::vector<RegionEvent> events_;
  uint64_t next_sample_ = 0;
  bool finished_ = false;
};

}  // namespace uolap::obs

#endif  // UOLAP_OBS_REGION_PROFILER_H_
