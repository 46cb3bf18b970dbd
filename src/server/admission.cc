#include "server/admission.h"

namespace uolap::server {

std::string_view ShedPolicyName(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kNone:
      return "none";
    case ShedPolicy::kReject:
      return "reject";
    case ShedPolicy::kShed:
      return "shed";
    case ShedPolicy::kBoth:
      return "both";
  }
  return "?";
}

StatusOr<ShedPolicy> ParseShedPolicy(std::string_view name) {
  if (name == "none" || name.empty()) return ShedPolicy::kNone;
  if (name == "reject") return ShedPolicy::kReject;
  if (name == "shed") return ShedPolicy::kShed;
  if (name == "both") return ShedPolicy::kBoth;
  return Status::InvalidArgument("unknown shed policy: " + std::string(name));
}

double RetryBackoffMs(int attempt, double unit_jitter) {
  double wait = 1.0;
  for (int i = 1; i < attempt; ++i) wait *= 2.0;
  return wait * (1.0 + 0.5 * unit_jitter);
}

void AdmissionController::SeedClass(size_t cls, double est_ms) {
  if (classes_.size() <= cls) classes_.resize(cls + 1);
  classes_[cls].est_ms = est_ms;
  classes_[cls].count = 0;
}

void AdmissionController::RecordCompletion(size_t cls, double service_ms) {
  if (classes_.size() <= cls) classes_.resize(cls + 1);
  ClassModel& m = classes_[cls];
  // The seed estimate counts as one observation, so early completions
  // move the mean without erasing the solo-profile prior.
  const double n = static_cast<double>(m.count) + 1.0;
  m.est_ms = (m.est_ms * n + service_ms) / (n + 1.0);
  ++m.count;
}

double AdmissionController::MeanServiceMs(size_t cls) const {
  if (cls >= classes_.size()) return 0;
  return classes_[cls].est_ms;
}

double AdmissionController::PredictResponseMs(size_t cls,
                                              double queued_work_ms) const {
  return queued_work_ms / static_cast<double>(cores_) + MeanServiceMs(cls);
}

bool AdmissionController::WouldMissDeadline(size_t cls, double queued_work_ms,
                                            double deadline_ms) const {
  if (!(deadline_ms > 0)) return false;
  return PredictResponseMs(cls, queued_work_ms) > deadline_ms;
}

}  // namespace uolap::server
