#include "core/config.h"

#include <gtest/gtest.h>

namespace uolap::core {
namespace {

TEST(MachineConfigTest, BroadwellMatchesPaperTable1) {
  const MachineConfig m = MachineConfig::Broadwell();
  EXPECT_EQ(m.sockets, 2u);
  EXPECT_EQ(m.cores_per_socket, 14u);
  EXPECT_DOUBLE_EQ(m.freq_ghz, 2.4);
  EXPECT_EQ(m.l1d.size_bytes, 32u * 1024);
  EXPECT_EQ(m.l1d.miss_latency_cycles, 16u);
  EXPECT_EQ(m.l2.size_bytes, 256u * 1024);
  EXPECT_EQ(m.l2.miss_latency_cycles, 26u);
  EXPECT_EQ(m.l3.size_bytes, 35ull * 1024 * 1024);
  EXPECT_EQ(m.l3.miss_latency_cycles, 160u);
  EXPECT_TRUE(m.l3_inclusive);
  EXPECT_DOUBLE_EQ(m.bandwidth.per_core_seq_gbps, 12.0);
  EXPECT_DOUBLE_EQ(m.bandwidth.per_core_rand_gbps, 7.0);
  EXPECT_DOUBLE_EQ(m.bandwidth.per_socket_seq_gbps, 66.0);
  EXPECT_DOUBLE_EQ(m.bandwidth.per_socket_rand_gbps, 60.0);
  EXPECT_EQ(m.exec.simd_width_bits, 256u);  // no AVX-512 on Broadwell
}

TEST(MachineConfigTest, SkylakeMatchesPaperSection2) {
  const MachineConfig m = MachineConfig::Skylake();
  EXPECT_EQ(m.l2.size_bytes, 1024u * 1024);     // "significantly larger L2"
  EXPECT_EQ(m.l3.size_bytes, 16ull * 1024 * 1024);  // smaller L3
  EXPECT_FALSE(m.l3_inclusive);                 // non-inclusive
  EXPECT_DOUBLE_EQ(m.bandwidth.per_core_seq_gbps, 10.0);   // smaller/core
  EXPECT_DOUBLE_EQ(m.bandwidth.per_socket_seq_gbps, 87.0);  // larger/socket
  EXPECT_EQ(m.exec.simd_width_bits, 512u);      // AVX-512
}

TEST(MachineConfigTest, CumulativeLatencies) {
  const MachineConfig m = MachineConfig::Broadwell();
  EXPECT_EQ(m.L2HitCycles(), 16u);
  EXPECT_EQ(m.L3HitCycles(), 42u);
  EXPECT_EQ(m.DramCycles(), 202u);
  // ~84ns at 2.4 GHz: consistent with MLC-measured DRAM latency.
  EXPECT_NEAR(m.DramCycles() / m.freq_ghz, 84.0, 1.0);
}

TEST(MachineConfigTest, BandwidthUnitConversions) {
  const MachineConfig m = MachineConfig::Broadwell();
  EXPECT_DOUBLE_EQ(m.SeqBytesPerCycle(), 5.0);   // 12 GB/s / 2.4 GHz
  EXPECT_NEAR(m.RandBytesPerCycle(), 7.0 / 2.4, 1e-12);
  EXPECT_DOUBLE_EQ(m.SocketSeqBytesPerCycle(), 27.5);
}

TEST(CacheConfigTest, SetCounts) {
  const MachineConfig m = MachineConfig::Broadwell();
  EXPECT_EQ(m.l1d.num_sets(), 64u);    // 32KB / 8 ways / 64B
  EXPECT_EQ(m.l2.num_sets(), 512u);
  EXPECT_EQ(m.l3.num_sets(), 28672u);  // non-power-of-two (sliced LLC)
}

TEST(PrefetcherConfigTest, Predicates) {
  EXPECT_TRUE(PrefetcherConfig::AllEnabled().AnyEnabled());
  EXPECT_TRUE(PrefetcherConfig::AllEnabled().AnyStreamer());
  EXPECT_FALSE(PrefetcherConfig::AllDisabled().AnyEnabled());
  const auto nl_only = PrefetcherConfig::Only(false, true, false, false);
  EXPECT_TRUE(nl_only.AnyNextLine());
  EXPECT_FALSE(nl_only.AnyStreamer());
}

TEST(ExecConfigTest, Defaults) {
  const ExecConfig xc;
  EXPECT_EQ(xc.issue_width, 4u);
  EXPECT_EQ(xc.load_ports, 2u);
  EXPECT_EQ(xc.store_ports, 1u);
  EXPECT_EQ(xc.agu_ports, 2u);
  EXPECT_EQ(xc.branch_misp_penalty, 15u);
}

}  // namespace
}  // namespace uolap::core
