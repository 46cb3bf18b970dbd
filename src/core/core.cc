#include "core/core.h"

#include <algorithm>
#include <cmath>

namespace uolap::core {

namespace {
// Dividing by a power of two is exactly a multiply by its (exactly
// representable) reciprocal, so precomputing it is bit-identical; any
// other divisor falls back to the divide.
double RecipIfPow2(double v) {
  const double r = 1.0 / v;
  return v * r == 1.0 && 1.0 / r == v ? r : 0.0;
}
double DivByPort(double x, double port, double recip) {
  return recip != 0.0 ? x * recip : x / port;
}
}  // namespace

Core::Core(const MachineConfig& config, uint32_t index)
    : config_(config), memory_(config), predictor_(), placement_(index) {
  RecomputeIfetchFractions();
  const ExecConfig& xc = config_.exec;
  inv_alu_ = RecipIfPow2(xc.alu_ports);
  inv_mul_ = RecipIfPow2(xc.mul_ports);
  inv_load_ = RecipIfPow2(xc.load_ports);
  inv_store_ = RecipIfPow2(xc.store_ports);
  inv_agu_ = RecipIfPow2(xc.agu_ports);
  inv_simd_ = RecipIfPow2(
      xc.simd_width_bits >= 512 ? 1.0 : static_cast<double>(xc.simd_ports));
  inv_issue_ = RecipIfPow2(xc.issue_width);
}

void Core::RecomputeIfetchFractions() {
  // Analytic instruction-fetch model: the region's loop body is walked
  // cyclically; with true-LRU a cyclic walk larger than a level gets the
  // capacity-proportional hit fraction at that level.
  const double footprint =
      std::max<double>(64.0, static_cast<double>(region_.footprint_bytes));
  const double f_l1 =
      std::min(1.0, static_cast<double>(config_.l1i.size_bytes) / footprint);
  const double f_l2 =
      std::min(1.0, static_cast<double>(config_.l2.size_bytes) / footprint);
  const double f_l3 =
      std::min(1.0, static_cast<double>(config_.l3.size_bytes) / footprint);
  ifrac_l1_ = f_l1;
  ifrac_l2_ = std::max(0.0, f_l2 - f_l1);
  ifrac_l3_ = std::max(0.0, f_l3 - f_l2);
  ifrac_dram_ = std::max(0.0, 1.0 - f_l3);
}

void Core::AccessRun(SeqCursor* cur, uint64_t addr, uint32_t elem_bytes,
                     uint64_t count, bool is_store) {
  if (count == 0) return;
  if (is_store) {
    mix_.store += count;
    pending_.store += count;
  } else {
    mix_.load += count;
    pending_.load += count;
  }
  MemCounters* mc = memory_.mutable_counters();
  uint64_t a = addr;
  uint64_t left = count;
  while (left > 0) {
    const uint64_t off = a & 63;
    if (UOLAP_UNLIKELY(off + elem_bytes > 64)) {
      // Line-straddling element: identical to Load()'s straddle arm — walk
      // every touched line, leave the memo untouched.
      memory_.AccessData(a, elem_bytes, is_store);
      a += elem_bytes;
      --left;
      continue;
    }
    // `k` elements lie fully inside the current line. The first one
    // replicates the per-element filter logic exactly; the remaining k-1
    // are same-line repeats, i.e. L1 hits by construction.
    const uint64_t line = a >> 6;
    uint64_t k = (64 - off - elem_bytes) / elem_bytes + 1;
    if (k > left) k = left;
    SeqCursor& memo = cur != nullptr ? *cur : FilterSlot(line);
    uint64_t hits = k;
    if (memo.line == line) {
      if (is_store && !memo.dirty) {
        memo.dirty = true;
        memory_.AccessDataLine(line, /*is_store=*/true);
        --hits;
      }
    } else {
      memo.line = line;
      memo.dirty = is_store;
      memory_.AccessDataLine(line, is_store);
      --hits;
    }
    mc->data_accesses += hits;
    mc->l1d_hits += hits;
    a += k * elem_bytes;
    left -= k;
  }
  if (UOLAP_UNLIKELY(observer_ != nullptr)) observer_->OnProgress();
}

void Core::Retire(const InstrMix& mix) {
  mix_ += mix;
  ClosePhase(mix);

  // Analytic instruction-fetch model; the per-level fractions of the
  // current code region are precomputed in RecomputeIfetchFractions.
  const double lines =
      static_cast<double>(mix.TotalInstructions()) * kAvgInstrBytes / 64.0;
  if (lines > 0) {
    ifetch_l1_ += lines * ifrac_l1_;
    ifetch_l2_ += lines * ifrac_l2_;
    ifetch_l3_ += lines * ifrac_l3_;
    ifetch_dram_ += lines * ifrac_dram_;
  }
  if (UOLAP_UNLIKELY(observer_ != nullptr)) observer_->OnProgress();
}

void Core::ClosePhase(const InstrMix& retired) {
  // Phase mix: explicitly retired instructions plus the memory/branch
  // instructions auto-counted since the previous Retire.
  InstrMix phase = pending_;
  phase += retired;
  pending_ = InstrMix{};

  const ExecConfig& xc = config_.exec;
  const double simd_ports =
      xc.simd_width_bits >= 512 ? 1.0 : static_cast<double>(xc.simd_ports);
  const double port_cycles = std::max(
      {DivByPort(static_cast<double>(phase.alu), xc.alu_ports, inv_alu_),
       DivByPort(static_cast<double>(phase.mul), xc.mul_ports, inv_mul_) +
           static_cast<double>(phase.div) * xc.div_latency,
       DivByPort(static_cast<double>(phase.load), xc.load_ports, inv_load_),
       DivByPort(static_cast<double>(phase.store), xc.store_ports, inv_store_),
       DivByPort(static_cast<double>(phase.load + phase.store), xc.agu_ports,
                 inv_agu_),
       DivByPort(static_cast<double>(phase.simd), simd_ports, inv_simd_)});
  const double exec_base =
      std::max(port_cycles, static_cast<double>(phase.chain_cycles));
  const double retiring = DivByPort(
      static_cast<double>(phase.TotalInstructions()), xc.issue_width,
      inv_issue_);
  exec_stall_cycles_ += std::max(0.0, exec_base - retiring);
}

void Core::Finalize() {
  // Account any trailing auto-counted instructions as their own phase.
  ClosePhase(InstrMix{});
  memory_.Finalize();
  MemCounters* mc = memory_.mutable_counters();
  mc->code_fetches += static_cast<uint64_t>(
      std::llround(ifetch_l1_ + ifetch_l2_ + ifetch_l3_ + ifetch_dram_));
  mc->l1i_hits += static_cast<uint64_t>(std::llround(ifetch_l1_));
  mc->l1i_l2_hits += static_cast<uint64_t>(std::llround(ifetch_l2_));
  mc->l1i_l3_hits += static_cast<uint64_t>(std::llround(ifetch_l3_));
  mc->l1i_dram += static_cast<uint64_t>(std::llround(ifetch_dram_));
  ifetch_l1_ = ifetch_l2_ = ifetch_l3_ = ifetch_dram_ = 0;
}

CoreCounters Core::SnapshotCounters() const {
  // Same flush arithmetic as Finalize(), applied to a copy: after
  // Finalize() has zeroed the accumulators this degenerates to counters().
  CoreCounters c = counters();
  MemCounters& mc = c.mem;
  mc.code_fetches += static_cast<uint64_t>(
      std::llround(ifetch_l1_ + ifetch_l2_ + ifetch_l3_ + ifetch_dram_));
  mc.l1i_hits += static_cast<uint64_t>(std::llround(ifetch_l1_));
  mc.l1i_l2_hits += static_cast<uint64_t>(std::llround(ifetch_l2_));
  mc.l1i_l3_hits += static_cast<uint64_t>(std::llround(ifetch_l3_));
  mc.l1i_dram += static_cast<uint64_t>(std::llround(ifetch_dram_));
  return c;
}

CoreCounters Core::counters() const {
  CoreCounters c;
  c.mix = mix_;
  c.branch_events = branch_events_;
  c.branch_mispredicts = branch_mispredicts_;
  c.exec_stall_cycles = exec_stall_cycles_;
  c.mem = memory_.counters();
  return c;
}

}  // namespace uolap::core
