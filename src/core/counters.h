#ifndef UOLAP_CORE_COUNTERS_H_
#define UOLAP_CORE_COUNTERS_H_

#include <cstdint>

namespace uolap::core {

/// Retired-instruction ledger. Engines describe the *non-memory,
/// non-data-dependent-branch* instructions of their loops via
/// `Core::Retire`; loads, stores and data-dependent branches are accounted
/// automatically by `Core::Load/Store/Branch` so the mix always matches the
/// memory/branch events driven through the simulated hardware.
struct InstrMix {
  uint64_t alu = 0;      ///< simple integer/logic ops (1/cycle per ALU port)
  uint64_t mul = 0;      ///< integer multiplies (1 port)
  uint64_t div = 0;      ///< integer divides (long latency, unpipelined)
  uint64_t load = 0;     ///< memory loads (auto-counted by Core::Load)
  uint64_t store = 0;    ///< memory stores (auto-counted by Core::Store)
  uint64_t branch = 0;   ///< branches (back-edges via Retire; data-dependent
                         ///< ones auto-counted by Core::Branch)
  uint64_t simd = 0;     ///< vector ALU operations
  uint64_t complex = 0;  ///< microcoded/complex-decode instructions
  uint64_t other = 0;    ///< anything else (moves, lea, ...)

  /// Loop-carried dependency-chain cycles contributed (e.g. one cycle per
  /// iteration for a scalar `sum += x` accumulator). This models the
  /// serialization that port counts alone cannot see.
  uint64_t chain_cycles = 0;

  uint64_t TotalInstructions() const {
    return alu + mul + div + load + store + branch + simd + complex + other;
  }

  InstrMix& operator+=(const InstrMix& o) {
    alu += o.alu;
    mul += o.mul;
    div += o.div;
    load += o.load;
    store += o.store;
    branch += o.branch;
    simd += o.simd;
    complex += o.complex;
    other += o.other;
    chain_cycles += o.chain_cycles;
    return *this;
  }

  /// Counter delta (later snapshot minus earlier snapshot of the same
  /// core); every field is monotone over a run, so deltas never underflow.
  InstrMix& operator-=(const InstrMix& o) {
    alu -= o.alu;
    mul -= o.mul;
    div -= o.div;
    load -= o.load;
    store -= o.store;
    branch -= o.branch;
    simd -= o.simd;
    complex -= o.complex;
    other -= o.other;
    chain_cycles -= o.chain_cycles;
    return *this;
  }

  /// Bit-exact equality (the dispatch differential test compares full
  /// counter sets between dispatched and direct query executions).
  friend bool operator==(const InstrMix&, const InstrMix&) = default;

  /// The per-iteration mix multiplied by `n` iterations.
  InstrMix Scaled(uint64_t n) const {
    InstrMix m;
    m.alu = alu * n;
    m.mul = mul * n;
    m.div = div * n;
    m.load = load * n;
    m.store = store * n;
    m.branch = branch * n;
    m.simd = simd * n;
    m.complex = complex * n;
    m.other = other * n;
    m.chain_cycles = chain_cycles * n;
    return m;
  }
};

/// Everything the memory system observes while a core executes. The
/// Top-Down model consumes this verbatim; nothing here is a "cycle" yet
/// except the access-time accumulations that depend on the per-phase MLP
/// hint active when the access happened.
struct MemCounters {
  // --- data-side access counts by the level that serviced them ---
  uint64_t data_accesses = 0;
  uint64_t l1d_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t l3_hits = 0;
  uint64_t dram_lines = 0;

  // --- classification of below-L1 services: sequential (established
  //     stream) vs random ---
  uint64_t l2_hits_seq = 0;
  uint64_t l2_hits_rand = 0;
  uint64_t l3_hits_seq = 0;
  uint64_t l3_hits_rand = 0;
  uint64_t dram_seq_l2_streamer = 0;  ///< covered by the L2 streamer
  uint64_t dram_seq_l1_streamer = 0;  ///< covered only by the DCU streamer
  uint64_t dram_seq_next_line = 0;    ///< covered only by a next-line pf
  uint64_t dram_seq_uncovered = 0;    ///< sequential but no prefetcher on
  uint64_t dram_rand = 0;             ///< random demand miss to DRAM

  // --- access-time stall accumulation (divided by the MLP hint that was
  //     active; see calibration.h) ---
  double rand_dcache_cycles = 0;    ///< random L2/L3/DRAM latency component
  double exec_chase_cycles = 0;     ///< L1-resident dependent pointer chases
  double seq_residual_cycles = 0;   ///< partially covered sequential lines
  double stream_startup_cycles = 0; ///< first-lines cost of new streams

  // --- DRAM bandwidth accounting ---
  uint64_t dram_demand_bytes_seq = 0;
  uint64_t dram_demand_bytes_rand = 0;
  uint64_t dram_prefetch_waste_bytes = 0;
  uint64_t dram_writeback_bytes = 0;

  // --- TLB ---
  uint64_t dtlb_hits = 0;
  uint64_t stlb_hits = 0;
  uint64_t page_walks = 0;
  double tlb_cycles = 0;

  // --- instruction-side (analytic; flushed by Core::Finalize) ---
  uint64_t code_fetches = 0;
  uint64_t l1i_hits = 0;
  uint64_t l1i_l2_hits = 0;
  uint64_t l1i_l3_hits = 0;
  uint64_t l1i_dram = 0;

  // --- stream detector bookkeeping ---
  uint64_t streams_established = 0;
  uint64_t streams_killed = 0;

  uint64_t TotalDramBytes() const {
    return dram_demand_bytes_seq + dram_demand_bytes_rand +
           dram_prefetch_waste_bytes + dram_writeback_bytes;
  }
  /// DRAM bytes that ride the sequential stream for bandwidth purposes:
  /// sequential demand plus prefetch waste and writebacks.
  uint64_t DramSeqStreamBytes() const {
    return dram_demand_bytes_seq + dram_prefetch_waste_bytes +
           dram_writeback_bytes;
  }

  MemCounters& operator+=(const MemCounters& o);
  /// Snapshot delta; see InstrMix::operator-=.
  MemCounters& operator-=(const MemCounters& o);

  /// Bit-exact equality; see InstrMix.
  friend bool operator==(const MemCounters&, const MemCounters&) = default;
};

/// Full per-core counter set handed to the Top-Down model.
struct CoreCounters {
  InstrMix mix;
  uint64_t branch_events = 0;       ///< data-dependent branches simulated
  uint64_t branch_mispredicts = 0;  ///< ... of which mispredicted
  /// Execution-port / dependency-chain stall cycles accumulated per
  /// retirement phase (each Core::Retire call closes one phase; see
  /// Core::Retire). Phase-granular accounting matters: slack in a
  /// load-heavy scan phase cannot hide port pressure in a store-heavy
  /// materialization phase.
  double exec_stall_cycles = 0;
  MemCounters mem;

  CoreCounters& operator+=(const CoreCounters& o) {
    mix += o.mix;
    branch_events += o.branch_events;
    branch_mispredicts += o.branch_mispredicts;
    exec_stall_cycles += o.exec_stall_cycles;
    mem += o.mem;
    return *this;
  }

  /// Snapshot delta; see InstrMix::operator-=.
  CoreCounters& operator-=(const CoreCounters& o) {
    mix -= o.mix;
    branch_events -= o.branch_events;
    branch_mispredicts -= o.branch_mispredicts;
    exec_stall_cycles -= o.exec_stall_cycles;
    mem -= o.mem;
    return *this;
  }

  /// Bit-exact equality; see InstrMix.
  friend bool operator==(const CoreCounters&, const CoreCounters&) = default;
};

inline CoreCounters operator-(CoreCounters a, const CoreCounters& b) {
  a -= b;
  return a;
}

}  // namespace uolap::core

#endif  // UOLAP_CORE_COUNTERS_H_
