#ifndef UOLAP_CORE_CONFIG_H_
#define UOLAP_CORE_CONFIG_H_

#include <cstdint>
#include <string>

namespace uolap::core {

/// Geometry and miss latency of one cache level.
///
/// `miss_latency_cycles` is the *additional* latency paid when this level
/// misses and the next level is consulted, matching how the paper's Table 1
/// reports the Broadwell hierarchy (L1 16-cycle, L2 26-cycle, L3 160-cycle
/// miss latencies; cumulative DRAM latency = 16+26+160 = 202 cycles at
/// 2.4 GHz, i.e. ~84 ns, which agrees with MLC-measured DRAM latency).
struct CacheConfig {
  uint64_t size_bytes = 0;
  uint32_t associativity = 8;
  uint32_t line_bytes = 64;
  uint32_t miss_latency_cycles = 0;

  uint64_t num_sets() const {
    return size_bytes / (static_cast<uint64_t>(associativity) * line_bytes);
  }
};

/// Which of the four Intel hardware prefetchers are enabled. These map
/// one-to-one to the MSR 0x1A4 bits the paper toggles in its Section 9
/// experiments.
struct PrefetcherConfig {
  bool l2_streamer = true;    ///< MSR bit 0: L2 hardware (streamer) prefetcher
  bool l2_next_line = true;   ///< MSR bit 1: L2 adjacent-line prefetcher
  bool l1_streamer = true;    ///< MSR bit 2: DCU streamer (L1 IP) prefetcher
  bool l1_next_line = true;   ///< MSR bit 3: DCU next-line prefetcher

  /// How many cache lines the L2 streamer runs ahead of the demand stream.
  uint32_t streamer_distance_lines = 20;

  bool AnyEnabled() const {
    return l2_streamer || l2_next_line || l1_streamer || l1_next_line;
  }
  bool AnyStreamer() const { return l2_streamer || l1_streamer; }
  bool AnyNextLine() const { return l2_next_line || l1_next_line; }

  static PrefetcherConfig AllEnabled() { return PrefetcherConfig{}; }
  static PrefetcherConfig AllDisabled() {
    return PrefetcherConfig{false, false, false, false, 20};
  }
  static PrefetcherConfig Only(bool l2_str, bool l2_nl, bool l1_str,
                               bool l1_nl) {
    return PrefetcherConfig{l2_str, l2_nl, l1_str, l1_nl, 20};
  }
};

/// Out-of-order execution engine widths and penalties.
struct ExecConfig {
  uint32_t issue_width = 4;          ///< retired uops per cycle (4-wide)
  uint32_t decode_width = 4;         ///< simple-instruction decode per cycle
  uint32_t alu_ports = 4;            ///< integer ALU ports (BDW: p0,1,5,6)
  uint32_t load_ports = 2;           ///< load AGU/data ports (p2,p3)
  uint32_t store_ports = 1;          ///< store data port (p4)
  uint32_t agu_ports = 2;            ///< address-generation units shared by
                                     ///< loads and stores (p7 helps only
                                     ///< simple stores; modelled as 2)
  uint32_t mul_ports = 1;            ///< integer multiply (p1)
  uint32_t simd_ports = 2;           ///< vector ALU ports
  uint32_t simd_width_bits = 256;    ///< AVX2 on Broadwell, 512 on Skylake
  uint32_t branch_misp_penalty = 15; ///< pipeline refill cycles
  uint32_t div_latency = 20;         ///< 64-bit integer divide
  uint32_t complex_decode_cost = 1;  ///< decode cycles per complex instr
};

/// Maximum sustainable memory bandwidths, exactly as reported in the
/// paper's Table 1 (measured with Intel MLC).
struct BandwidthConfig {
  double per_core_seq_gbps = 12.0;
  double per_core_rand_gbps = 7.0;
  double per_socket_seq_gbps = 66.0;
  double per_socket_rand_gbps = 60.0;
};

/// Full machine description. The two presets carry the parameters of the
/// paper's Broadwell (Table 1) and Skylake (Section 2, Hardware) servers.
struct MachineConfig {
  std::string name = "broadwell";
  double freq_ghz = 2.4;
  uint32_t sockets = 2;
  uint32_t cores_per_socket = 14;
  bool hyper_threading = false;  ///< disabled in all paper experiments

  CacheConfig l1i;
  CacheConfig l1d;
  CacheConfig l2;
  CacheConfig l3;
  bool l3_inclusive = true;

  /// DTLB/STLB geometry. 4 KB pages by default: the paper's Ubuntu setup
  /// uses THP=madvise, and none of the engines madvise their allocations,
  /// so random-access working sets pay real TLB walks (visible inside the
  /// Dcache component). The huge-page what-if lives in bench_ablations.
  uint64_t page_bytes = 4096;
  uint32_t dtlb_entries = 64;
  uint32_t dtlb_ways = 4;
  uint32_t stlb_entries = 1536;
  uint32_t stlb_ways = 12;  // 128 sets x 12 ways, as on Skylake
  uint32_t stlb_hit_cycles = 7;
  uint32_t page_walk_cycles = 30;

  PrefetcherConfig prefetchers;
  ExecConfig exec;
  BandwidthConfig bandwidth;

  /// 2x14-core Intel Xeon E5-2680 v4 as in the paper's Table 1.
  static MachineConfig Broadwell();
  /// The paper's Skylake SIMD server: AVX-512, 1 MB L2, 16 MB non-inclusive
  /// L3, 10 GB/s per-core and 87 GB/s per-socket sequential bandwidth,
  /// similar random-access bandwidth to Broadwell.
  static MachineConfig Skylake();

  /// Cumulative load-to-use latency (cycles) of a hit in each level beyond
  /// L1 (L1 hits are part of the pipelined execution model, not a stall).
  uint32_t L2HitCycles() const { return l1d.miss_latency_cycles; }
  uint32_t L3HitCycles() const {
    return l1d.miss_latency_cycles + l2.miss_latency_cycles;
  }
  uint32_t DramCycles() const {
    return l1d.miss_latency_cycles + l2.miss_latency_cycles +
           l3.miss_latency_cycles;
  }

  /// Bandwidths converted to bytes per core-cycle at `freq_ghz`.
  double SeqBytesPerCycle() const {
    return bandwidth.per_core_seq_gbps / freq_ghz;
  }
  double RandBytesPerCycle() const {
    return bandwidth.per_core_rand_gbps / freq_ghz;
  }
  double SocketSeqBytesPerCycle() const {
    return bandwidth.per_socket_seq_gbps / freq_ghz;
  }
  double SocketRandBytesPerCycle() const {
    return bandwidth.per_socket_rand_gbps / freq_ghz;
  }
};

}  // namespace uolap::core

#endif  // UOLAP_CORE_CONFIG_H_
