#ifndef UOLAP_CORE_BRANCH_PREDICTOR_H_
#define UOLAP_CORE_BRANCH_PREDICTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uolap::core {

/// A gshare conditional-branch predictor: a table of 2-bit saturating
/// counters indexed by (branch site id XOR global history).
///
/// Engines feed it only their *data-dependent* branches (predicate tests,
/// hash-chain continuation checks); perfectly predictable loop back-edges
/// are accounted as plain branch instructions in the instruction mix. This
/// is exactly where the paper's selection analysis lives: a Bernoulli(p)
/// predicate stream mispredicts most around p = 50% and almost never at the
/// combined 0.1% selectivity a compiled engine evaluates (Section 4).
class BranchPredictor {
 public:
  /// `table_bits` counters of 2 bits each; `history_bits` of global history.
  explicit BranchPredictor(uint32_t table_bits = 16,
                           uint32_t history_bits = 12);

  /// Records the outcome of one dynamic branch at static site `site_id`.
  /// Returns true if the predictor mispredicted it.
  bool Record(uint32_t site_id, bool taken) {
    const uint32_t index =
        (site_id ^ (history_ << history_shift_)) & table_mask_;
    uint8_t& counter = table_[index];
    const bool predicted_taken = counter >= 2;
    const bool mispredicted = predicted_taken != taken;
    if (taken) {
      if (counter < 3) ++counter;
    } else {
      if (counter > 0) --counter;
    }
    history_ = ((history_ << 1) | static_cast<uint32_t>(taken)) & history_mask_;
    ++branches_;
    if (mispredicted) ++mispredicts_;
    return mispredicted;
  }

  uint64_t branches() const { return branches_; }
  uint64_t mispredicts() const { return mispredicts_; }

  // --- introspection (audit layer / tests) ----------------------------
  size_t table_size() const { return table_.size(); }
  uint8_t counter_at(size_t i) const { return table_[i]; }
  uint32_t history() const { return history_; }
  uint32_t history_mask() const { return history_mask_; }

  /// Test-only corruption hook (audit failure-path tests): writes a raw
  /// value into one 2-bit counter slot, legal or not.
  void TestOnlySetCounter(size_t i, uint8_t value) { table_[i] = value; }
  double MispredictRate() const {
    return branches_ == 0
               ? 0.0
               : static_cast<double>(mispredicts_) / static_cast<double>(branches_);
  }

 private:
  std::vector<uint8_t> table_;
  uint32_t table_mask_;
  uint32_t history_mask_;
  uint32_t history_shift_;
  uint32_t history_ = 0;
  uint64_t branches_ = 0;
  uint64_t mispredicts_ = 0;
};

}  // namespace uolap::core

#endif  // UOLAP_CORE_BRANCH_PREDICTOR_H_
