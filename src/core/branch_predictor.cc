#include "core/branch_predictor.h"

#include "common/macros.h"

namespace uolap::core {

BranchPredictor::BranchPredictor(uint32_t table_bits, uint32_t history_bits) {
  UOLAP_CHECK(table_bits >= 4 && table_bits <= 24);
  UOLAP_CHECK(history_bits <= table_bits);
  table_.assign(1u << table_bits, 1);  // weakly not-taken
  table_mask_ = (1u << table_bits) - 1;
  history_mask_ = (1u << history_bits) - 1;
  // Align the history with the high bits of the index so that site ids
  // (which tend to be small integers) and history interfere the way gshare
  // intends.
  history_shift_ = table_bits - history_bits;
}

}  // namespace uolap::core
