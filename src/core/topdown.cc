#include "core/topdown.h"

#include <algorithm>

#include "core/calibration.h"

namespace uolap::core {

namespace {

// Inlined into Analyze too, which runs on every serving event.
[[gnu::always_inline]] inline TopDownTerms ComputeTerms(
    const MachineConfig& config, const CoreCounters& c, double bw_scale) {
  const ExecConfig& xc = config.exec;
  const MemCounters& m = c.mem;
  TopDownTerms t;
  t.instructions = static_cast<double>(c.mix.TotalInstructions());

  // --- Retiring: useful cycles at full issue width ---
  t.retiring = t.instructions / xc.issue_width;

  // --- Decoding: complex/microcoded instructions throttle the frontend ---
  const double simple = t.instructions - static_cast<double>(c.mix.complex);
  const double decode_cycles =
      simple / xc.decode_width +
      static_cast<double>(c.mix.complex) * xc.complex_decode_cost;
  t.decoding = std::max(0.0, decode_cycles - t.retiring);

  // --- Branch mispredictions ---
  t.branch_misp =
      static_cast<double>(c.branch_mispredicts) * xc.branch_misp_penalty;

  // --- Instruction cache ---
  t.icache = (static_cast<double>(m.l1i_l2_hits) * config.L2HitCycles() +
              static_cast<double>(m.l1i_l3_hits) * config.L3HitCycles() +
              static_cast<double>(m.l1i_dram) * config.DramCycles()) *
             (1.0 - kIcacheOverlap);

  // --- Execution: per-phase port-group/dependency-chain stalls
  //     (accumulated by Core::ClosePhase) plus L1-resident pointer-chase
  //     serialization observed by the memory model ---
  t.execution = c.exec_stall_cycles + m.exec_chase_cycles;

  // --- Dcache: latency-bound components accumulated at access time ---
  t.dcache_linear =
      m.seq_residual_cycles + m.stream_startup_cycles + m.tlb_cycles;

  // Random component: latency-bound, but cannot beat the random-access
  // bandwidth ceiling (queueing).
  const double rand_bw =
      std::max(1e-9, config.RandBytesPerCycle() * bw_scale);
  t.rand = std::max(m.rand_dcache_cycles,
                    static_cast<double>(m.dram_demand_bytes_rand) / rand_bw);

  // Streamer-serviced sequential traffic: covered demand lines + trailing
  // prefetch waste + dirty writebacks.
  t.seq_bytes =
      static_cast<double>(m.dram_seq_l2_streamer + m.dram_seq_l1_streamer) *
          64.0 +
      static_cast<double>(m.dram_prefetch_waste_bytes) +
      static_cast<double>(m.dram_writeback_bytes);
  return t;
}

}  // namespace

TopDownTerms TopDownModel::Terms(const CoreCounters& c,
                                 double bw_scale) const {
  return ComputeTerms(config_, c, bw_scale);
}

ProfileResult TopDownModel::Analyze(const CoreCounters& c,
                                    double bw_scale) const {
  const TopDownTerms t = ComputeTerms(config_, c, bw_scale);
  ProfileResult r;
  r.counters = c;
  r.instructions = c.mix.TotalInstructions();

  double dcache = t.dcache_linear + t.rand;

  // Sequential throughput model: the memory pipeline must move all
  // serviced bytes at the per-core sequential bandwidth; only a fraction
  // of the core's other work overlaps with it (prefetchers are "not fast
  // enough": kSeqComputeOverlap < 1).
  const double seq_bw = std::max(1e-9, config_.SeqBytesPerCycle() * bw_scale);
  const double mem_time = t.seq_bytes / seq_bw;
  const double t_other = t.retiring + t.decoding + t.branch_misp + t.icache +
                         t.execution + dcache;
  dcache += std::max(0.0, mem_time - kSeqComputeOverlap * t_other);

  r.cycles.retiring = t.retiring;
  r.cycles.decoding = t.decoding;
  r.cycles.branch_misp = t.branch_misp;
  r.cycles.icache = t.icache;
  r.cycles.execution = t.execution;
  r.cycles.dcache = dcache;

  r.total_cycles = r.cycles.Total();
  r.time_ms = r.total_cycles / (config_.freq_ghz * 1e6);
  r.dram_bytes = static_cast<double>(c.mem.TotalDramBytes());
  r.bandwidth_gbps =
      r.total_cycles > 0 ? r.dram_bytes * config_.freq_ghz / r.total_cycles
                         : 0.0;
  r.ipc = r.total_cycles > 0 ? t.instructions / r.total_cycles : 0.0;
  return r;
}

}  // namespace uolap::core
