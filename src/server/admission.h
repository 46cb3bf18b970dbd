#ifndef UOLAP_SERVER_ADMISSION_H_
#define UOLAP_SERVER_ADMISSION_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace uolap::server {

/// Where the server is allowed to drop work when the load model predicts
/// a deadline miss.
enum class ShedPolicy {
  kNone,    ///< admit everything (the pre-robustness behavior)
  kReject,  ///< refuse at admission only
  kShed,    ///< drop from the queue at schedule time only
  kBoth,    ///< reject at admission and shed from the queue
};

/// Stable lower-case name ("none", "reject", "shed", "both").
std::string_view ShedPolicyName(ShedPolicy policy);
/// Inverse of ShedPolicyName (for `uolap_serve --shed-policy`).
StatusOr<ShedPolicy> ParseShedPolicy(std::string_view name);

/// Deadline-aware admission configuration.
struct AdmissionConfig {
  ShedPolicy policy = ShedPolicy::kNone;
  /// Virtual-time deadline of every query, measured from arrival
  /// (0 = none: queries are never rejected/shed/timed out).
  double default_deadline_ms = 0;
};

/// Bounded retry of transient engine failures; the backoff between
/// attempts follows the fixed RetryBackoffMs schedule.
struct RetryPolicy {
  int max_retries = 0;  ///< extra attempts after the first
};

/// Brown-out mode: when the instantaneous queue depth reaches
/// `queue_depth`, queries scheduled from the queue are downgraded to the
/// mapped (cheaper) engine when their class has a mapping — trading
/// answer cost for queue drain, deterministically.
struct BrownoutConfig {
  int queue_depth = 0;  ///< trigger depth (0 = brown-out off)
  /// engine registry key -> cheaper engine registry key.
  std::map<std::string, std::string> downgrade;
};

/// Backoff before retry `attempt` (1-based): 1 ms * 2^(attempt-1)
/// * (1 + 0.5 * unit_jitter), with `unit_jitter` a caller-supplied
/// uniform draw in [0, 1) from the seeded RNG. Pure so the schedule is
/// golden-testable.
double RetryBackoffMs(int attempt, double unit_jitter);

/// The counter-derived load model behind admission decisions: a per-class
/// running mean of observed service time (seeded by the class's solo
/// profile — the same per-class latency series the metrics registry
/// publishes), combined with the queued work ahead of a candidate. Pure
/// bookkeeping over simulated quantities: deterministic.
class AdmissionController {
 public:
  explicit AdmissionController(int cores) : cores_(cores < 1 ? 1 : cores) {}

  /// Registers class `cls` with its a-priori service-time estimate in ms
  /// (its solo profile time).
  void SeedClass(size_t cls, double est_ms);

  /// Folds one observed completion of `cls` into the running mean.
  void RecordCompletion(size_t cls, double service_ms);

  /// Current mean service-time estimate of `cls` in ms.
  double MeanServiceMs(size_t cls) const;

  /// Predicted response time of a candidate of class `cls` arriving with
  /// `queued_work_ms` of estimated work ahead of it: the queue drains
  /// across the pool, then the candidate runs.
  double PredictResponseMs(size_t cls, double queued_work_ms) const;

  /// Whether the load model predicts the candidate misses `deadline_ms`
  /// (0 = no deadline, never misses).
  bool WouldMissDeadline(size_t cls, double queued_work_ms,
                         double deadline_ms) const;

  struct ClassModel {
    double est_ms = 0;   ///< current mean estimate
    uint64_t count = 0;  ///< observed completions folded in

    friend bool operator==(const ClassModel&, const ClassModel&) = default;
  };

  /// Full load-model state, for checkpointing. Restoring a saved vector
  /// continues the running means exactly where they left off.
  const std::vector<ClassModel>& models() const { return classes_; }
  void RestoreModels(std::vector<ClassModel> models) {
    classes_ = std::move(models);
  }

 private:
  int cores_;
  std::vector<ClassModel> classes_;
};

}  // namespace uolap::server

#endif  // UOLAP_SERVER_ADMISSION_H_
