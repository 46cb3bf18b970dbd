#include "core/memory_system.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/config.h"

namespace uolap::core {
namespace {

constexpr uint64_t kLine = 64;

MachineConfig SmallMachine() {
  // A miniature hierarchy so tests can exercise capacity behaviour cheaply.
  MachineConfig m = MachineConfig::Broadwell();
  m.l1d = CacheConfig{4 * 1024, 8, 64, 16};   // 64 lines
  m.l2 = CacheConfig{16 * 1024, 8, 64, 26};   // 256 lines
  m.l3 = CacheConfig{64 * 1024, 16, 64, 160}; // 1024 lines
  return m;
}

TEST(MemorySystemTest, SequentialScanDetectedAsStream) {
  MemorySystem ms(MachineConfig::Broadwell());
  for (uint64_t i = 0; i < 1000; ++i) ms.AccessDataLine(i, false);
  ms.Finalize();
  const MemCounters& c = ms.counters();
  EXPECT_GE(c.streams_established, 1u);
  // Nearly all DRAM lines covered by the L2 streamer.
  EXPECT_GT(c.dram_seq_l2_streamer, 950u);
  EXPECT_LT(c.dram_rand, 20u);
}

TEST(MemorySystemTest, RandomAccessesAreNotStreams) {
  MemorySystem ms(MachineConfig::Broadwell());
  uolap::Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    ms.AccessDataLine(static_cast<uint64_t>(rng.Uniform(0, 1 << 26)), false);
  }
  ms.Finalize();
  const MemCounters& c = ms.counters();
  EXPECT_GT(c.dram_rand, 4500u);
  EXPECT_LT(c.dram_seq_l2_streamer, 100u);
}

TEST(MemorySystemTest, CacheResidentSetStopsGoingToDram) {
  MemorySystem ms(SmallMachine());
  // 32 lines fit in the 64-line L1.
  for (int round = 0; round < 10; ++round) {
    for (uint64_t i = 0; i < 32; ++i) ms.AccessDataLine(i, false);
  }
  const MemCounters& c = ms.counters();
  EXPECT_EQ(c.dram_lines, 32u);  // compulsory misses only
  EXPECT_GT(c.l1d_hits, 32u * 8);
}

TEST(MemorySystemTest, PrefetcherTogglesChangeClassification) {
  MachineConfig no_pf = MachineConfig::Broadwell();
  no_pf.prefetchers = PrefetcherConfig::AllDisabled();
  MemorySystem ms(no_pf);
  for (uint64_t i = 0; i < 1000; ++i) ms.AccessDataLine(i, false);
  ms.Finalize();
  const MemCounters& c = ms.counters();
  EXPECT_EQ(c.dram_seq_l2_streamer, 0u);
  EXPECT_GT(c.dram_seq_uncovered, 900u);
  // No streamer => no prefetch waste.
  EXPECT_EQ(c.dram_prefetch_waste_bytes, 0u);
}

TEST(MemorySystemTest, NextLineOnlyClassification) {
  MachineConfig m = MachineConfig::Broadwell();
  m.prefetchers = PrefetcherConfig::Only(false, true, false, false);
  MemorySystem ms(m);
  for (uint64_t i = 0; i < 1000; ++i) ms.AccessDataLine(i, false);
  ms.Finalize();
  EXPECT_GT(ms.counters().dram_seq_next_line, 900u);
  EXPECT_EQ(ms.counters().dram_seq_l2_streamer, 0u);
}

TEST(MemorySystemTest, L1StreamerOnlyClassification) {
  MachineConfig m = MachineConfig::Broadwell();
  m.prefetchers = PrefetcherConfig::Only(false, false, true, false);
  MemorySystem ms(m);
  for (uint64_t i = 0; i < 1000; ++i) ms.AccessDataLine(i, false);
  ms.Finalize();
  EXPECT_GT(ms.counters().dram_seq_l1_streamer, 900u);
}

TEST(MemorySystemTest, UncoveredSeqCostsMoreThanCovered) {
  auto run = [](const PrefetcherConfig& pf) {
    MachineConfig m = MachineConfig::Broadwell();
    m.prefetchers = pf;
    MemorySystem ms(m);
    for (uint64_t i = 0; i < 5000; ++i) ms.AccessDataLine(i, false);
    ms.Finalize();
    return ms.counters().seq_residual_cycles;
  };
  const double all_on = run(PrefetcherConfig::AllEnabled());
  const double nl_only = run(PrefetcherConfig::Only(false, true, false, false));
  const double all_off = run(PrefetcherConfig::AllDisabled());
  EXPECT_LT(all_on, nl_only);
  EXPECT_LT(nl_only, all_off);
}

TEST(MemorySystemTest, InterleavedColumnStreamsAllDetected) {
  // Four column scans interleaved, as a projection query generates.
  MemorySystem ms(MachineConfig::Broadwell());
  const uint64_t base[4] = {0, 1 << 20, 2 << 20, 3 << 20};
  for (uint64_t i = 0; i < 500; ++i) {
    for (int col = 0; col < 4; ++col) {
      ms.AccessDataLine(base[col] + i, false);
    }
  }
  ms.Finalize();
  const MemCounters& c = ms.counters();
  EXPECT_GE(c.streams_established, 4u);
  EXPECT_GT(c.dram_seq_l2_streamer, 1900u);
}

TEST(MemorySystemTest, SingleLineSkipKeepsStreamAlive) {
  // 90%-selectivity-style scan: occasionally skip one line.
  MemorySystem ms(MachineConfig::Broadwell());
  uint64_t line = 0;
  uolap::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    line += rng.Bernoulli(0.1) ? 2 : 1;
    ms.AccessDataLine(line, false);
  }
  ms.Finalize();
  const MemCounters& c = ms.counters();
  EXPECT_GT(static_cast<double>(c.dram_seq_l2_streamer) /
                static_cast<double>(c.dram_lines),
            0.9);
}

TEST(MemorySystemTest, SparseScanBreaksStreamsAndWastesPrefetch) {
  // 10%-selectivity gather: large skips kill streams repeatedly.
  MemorySystem ms(MachineConfig::Broadwell());
  uint64_t line = 0;
  uolap::Rng rng(4);
  for (int i = 0; i < 3000; ++i) {
    line += 1 + static_cast<uint64_t>(rng.Uniform(3, 12));
    ms.AccessDataLine(line, false);
  }
  ms.Finalize();
  const MemCounters& c = ms.counters();
  EXPECT_GT(c.dram_rand, 2000u);
}

TEST(MemorySystemTest, DirtyWritebacksReachDram) {
  MachineConfig m = SmallMachine();
  MemorySystem ms(m);
  // Write a region much larger than L3 (1024 lines): dirty lines must be
  // written back as they are evicted.
  for (uint64_t i = 0; i < 8192; ++i) ms.AccessDataLine(i, true);
  ms.Finalize();
  EXPECT_GT(ms.counters().dram_writeback_bytes, 6000u * kLine);
}

TEST(MemorySystemTest, TlbMissesOnHugeRandomFootprint) {
  MachineConfig m = MachineConfig::Broadwell();
  m.page_bytes = 4096;  // force 4 KB pages to exercise the TLB
  MemorySystem ms(m);
  uolap::Rng rng(5);
  // 1M distinct pages >> 1536 STLB entries.
  for (int i = 0; i < 20000; ++i) {
    const uint64_t page = static_cast<uint64_t>(rng.Uniform(0, 1 << 20));
    ms.AccessDataLine(page * (4096 / kLine), false);
  }
  EXPECT_GT(ms.counters().page_walks, 15000u);
  EXPECT_GT(ms.counters().tlb_cycles, 0.0);
}

TEST(MemorySystemTest, HugePagesMakeTlbQuiet) {
  MachineConfig m = MachineConfig::Broadwell();
  m.page_bytes = 2ull * 1024 * 1024;  // the huge-page what-if
  MemorySystem ms(m);
  // 64 MB of sequential data = 32 huge pages, well within the DTLB.
  for (uint64_t i = 0; i < (64ull << 20) / kLine; i += 8) {
    ms.AccessDataLine(i, false);
  }
  const MemCounters& c = ms.counters();
  EXPECT_LT(c.page_walks, 100u);
}

TEST(MemorySystemTest, MlpHintScalesRandomCost) {
  auto cost = [](double mlp) {
    MemorySystem ms(MachineConfig::Broadwell());
    ms.SetMlpHint(mlp);
    uolap::Rng rng(6);
    for (int i = 0; i < 2000; ++i) {
      ms.AccessDataLine(static_cast<uint64_t>(rng.Uniform(0, 1 << 26)),
                        false);
    }
    return ms.counters().rand_dcache_cycles;
  };
  EXPECT_NEAR(cost(2.0) / cost(4.0), 2.0, 0.2);
}

TEST(MemorySystemTest, HotLineReaccessIsCheapL1Hit) {
  MemorySystem ms(MachineConfig::Broadwell());
  for (int i = 0; i < 1000; ++i) ms.AccessDataLine(12345, false);
  const MemCounters& c = ms.counters();
  EXPECT_EQ(c.l1d_hits, 999u);
  // Re-accesses must not be billed as pointer chases forever; only the
  // initial classification window may charge a few.
  EXPECT_LT(c.exec_chase_cycles, 10 * kL1ChaseCycles);
}

TEST(MemorySystemTest, BackwardStreamsDetected) {
  // Slotted pages fill tuples back-to-front: descending line sequences
  // must be prefetcher-covered like ascending ones.
  MemorySystem ms(MachineConfig::Broadwell());
  for (uint64_t i = 0; i < 1000; ++i) {
    ms.AccessDataLine(1'000'000 - i, false);
  }
  ms.Finalize();
  const MemCounters& c = ms.counters();
  EXPECT_GT(c.dram_seq_l2_streamer, 950u);
  EXPECT_LT(c.dram_rand, 20u);
}

TEST(MemorySystemTest, DirectionLockPreventsPingPong) {
  // An alternating up/down pattern is NOT a stream.
  MemorySystem ms(MachineConfig::Broadwell());
  for (uint64_t i = 0; i < 500; ++i) {
    ms.AccessDataLine(1'000'000 + i, false);
    ms.AccessDataLine(2'000'000 - i, false);
  }
  ms.Finalize();
  // Both directions tracked as separate streams, each covered.
  EXPECT_GE(ms.counters().streams_established, 2u);
}

}  // namespace
}  // namespace uolap::core
