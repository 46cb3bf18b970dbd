// Core::Prefetch is a host hint with no simulated effect. A stream run
// with hints interleaved — at the stream's own future addresses, at
// addresses it never touches, and at addresses whose L3 quotient does not
// fit the 32-bit tag (a Load there aborts) — must leave every counter and
// every way of every cache and TLB bit-identical to the same stream run
// without hints, and no hint may abort.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/config.h"
#include "core/core.h"

namespace uolap::core {
namespace {

/// An address whose L3 quotient (line / 28672 Broadwell sets) overflows
/// the 32-bit tag.
constexpr uint64_t kL3Sets = 28672;
constexpr uint64_t kOverflowAddr = (uint64_t{0xFFFFFFFF} * kL3Sets + 5) << 6;

/// One access of a test stream.
struct Access {
  uint64_t addr;
  uint32_t bytes;
  bool store;
};

/// Mixed-width random loads and stores (straddles included) over a 32 MB
/// arena: most miss the L2 and many the L3, and the stores dirty lines so
/// writebacks run.
std::vector<Access> RandomStream(uint64_t base) {
  Rng rng(17);
  std::vector<Access> s;
  const uint32_t widths[] = {1, 4, 8, 16};
  for (int i = 0; i < 60000; ++i) {
    const uint64_t off = rng.Next() % (32u << 20);
    s.push_back({base + off, widths[rng.Next() % 4], rng.Next() % 4 == 0});
  }
  return s;
}

/// An 8-byte sequential scan over 8 MB with a store stream interleaved,
/// the stream-detector shape.
std::vector<Access> SequentialStream(uint64_t base) {
  std::vector<Access> s;
  for (uint64_t i = 0; i < (8u << 20) / 8; i += 3) {
    s.push_back({base + i * 8, 8, false});
    if (i % 64 == 0) s.push_back({base + (16u << 20) + i, 8, true});
  }
  return s;
}

/// Hints the stream's own access `kLookahead` ahead, a never-touched
/// address, the tag-overflowing address and the address-space extremes.
void Hint(const Core& core, const std::vector<Access>& s, size_t i,
          Rng& rng) {
  constexpr size_t kLookahead = 8;
  if (i + kLookahead < s.size()) core.Prefetch(s[i + kLookahead].addr);
  core.Prefetch(rng.Next());
  core.Prefetch(kOverflowAddr + (i << 6));
  core.Prefetch(0);
  core.Prefetch(~uint64_t{0});
}

void Drive(Core& core, const std::vector<Access>& s, bool hinted) {
  Rng rng(99);
  if (hinted) core.Prefetch(kOverflowAddr);  // before any access
  for (size_t i = 0; i < s.size(); ++i) {
    if (hinted) Hint(core, s, i, rng);
    if (s[i].store) {
      core.Store(s[i].addr, s[i].bytes);
    } else {
      core.Load(s[i].addr, s[i].bytes);
    }
  }
  core.Finalize();
  if (hinted) Hint(core, s, 0, rng);  // after the run, too
}

template <typename Cache>
void ExpectSameWays(const Cache& a, const Cache& b, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.num_sets(), b.num_sets());
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.misses(), b.misses());
  int differing = 0;
  for (uint64_t set = 0; set < a.num_sets(); ++set) {
    for (uint32_t way = 0; way < a.ways(); ++way) {
      const CacheWayState x = a.way_state(set, way);
      const CacheWayState y = b.way_state(set, way);
      if (x.valid != y.valid || x.dirty != y.dirty || x.key != y.key ||
          x.rank != y.rank) {
        ++differing;
      }
    }
  }
  EXPECT_EQ(differing, 0);
}

void ExpectIdentical(const Core& plain, const Core& hinted) {
  EXPECT_TRUE(plain.counters() == hinted.counters());
  EXPECT_EQ(plain.counters().mem.data_accesses,
            hinted.counters().mem.data_accesses);
  const MemorySystem& a = plain.memory();
  const MemorySystem& b = hinted.memory();
  ExpectSameWays(a.l1d(), b.l1d(), "l1d");
  ExpectSameWays(a.l2(), b.l2(), "l2");
  ExpectSameWays(a.l3(), b.l3(), "l3");
  ExpectSameWays(a.dtlb(), b.dtlb(), "dtlb");
  ExpectSameWays(a.stlb(), b.stlb(), "stlb");
  EXPECT_EQ(a.stream_clock(), b.stream_clock());
  for (int i = 0; i < MemorySystem::kNumStreamEntries; ++i) {
    const MemorySystem::StreamState x = a.stream_state(i);
    const MemorySystem::StreamState y = b.stream_state(i);
    EXPECT_EQ(x.valid, y.valid) << "stream " << i;
    EXPECT_EQ(x.run, y.run) << "stream " << i;
    EXPECT_EQ(x.dir, y.dir) << "stream " << i;
    EXPECT_EQ(x.last_touch, y.last_touch) << "stream " << i;
  }
}

TEST(CorePrefetchHintTest, RandomStreamIsUnchangedByHints) {
  Core plain(MachineConfig::Broadwell());
  Core hinted(MachineConfig::Broadwell());
  const std::vector<Access> s = RandomStream(plain.placement().begin());
  Drive(plain, s, false);
  Drive(hinted, s, true);
  EXPECT_GT(plain.counters().mem.l3_hits + plain.counters().mem.dram_lines,
            0u);
  ExpectIdentical(plain, hinted);
}

TEST(CorePrefetchHintTest, SequentialStreamIsUnchangedByHints) {
  Core plain(MachineConfig::Broadwell());
  Core hinted(MachineConfig::Broadwell());
  const std::vector<Access> s = SequentialStream(plain.placement().begin());
  Drive(plain, s, false);
  Drive(hinted, s, true);
  EXPECT_GT(plain.counters().mem.streams_established, 0u);
  ExpectIdentical(plain, hinted);
}

TEST(CorePrefetchHintTest, HintIsSafeWhereAnAccessAborts) {
  // The hint's overflow address is a real one: a Load there aborts on the
  // L3 tag range, the hint just returns.
  const Core core(MachineConfig::Broadwell());
  core.Prefetch(kOverflowAddr);
  EXPECT_EQ(core.SnapshotCounters().mem.data_accesses, 0u);
  EXPECT_DEATH(
      {
        Core c(MachineConfig::Broadwell());
        c.Load(kOverflowAddr, 8);
      },
      "tag range");
}

}  // namespace
}  // namespace uolap::core
