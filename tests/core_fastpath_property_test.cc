// Differential property test of the simulation-kernel fast paths
// (DESIGN.md §7): randomized access traces — mixed loads/stores,
// line-straddling elements, page crossings, interleaved sequential
// streams, random pointer-chase probes — are run twice, once through the
// accelerated kernels (stream index, translation memo) and once through
// the reference scans/lookups (SetReferencePaths(true)). Counters AND the
// raw cache/TLB/stream state, including every LRU stamp, must be
// bit-identical.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/core.h"
#include "core/machine.h"
#include "core/stream_index.h"

namespace uolap::core {
namespace {

const void* Ptr(uint64_t addr) {
  return reinterpret_cast<const void*>(static_cast<uintptr_t>(addr));
}

// --- raw-state comparison -------------------------------------------------
// Counts mismatches instead of EXPECTing per way: the L3 alone has ~450k
// ways, so a field-by-field gtest expansion would swamp the run. The first
// few mismatches are reported with their location.

struct MismatchLog {
  int count = 0;
  void Note(const testing::Message& where) {
    if (++count <= 5) ADD_FAILURE() << where.GetString();
  }
};

void CompareCache(const char* name, const SetAssociativeCache& a,
                  const SetAssociativeCache& b, MismatchLog* log) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.ways(), b.ways());
  if (a.hits() != b.hits() || a.misses() != b.misses() ||
      a.lru_clock() != b.lru_clock()) {
    log->Note(testing::Message()
              << name << " stats: hits " << a.hits() << " vs " << b.hits()
              << ", misses " << a.misses() << " vs " << b.misses()
              << ", clock " << a.lru_clock() << " vs " << b.lru_clock());
  }
  for (uint64_t set = 0; set < a.num_sets(); ++set) {
    for (uint32_t way = 0; way < a.ways(); ++way) {
      const auto wa = a.way_state(set, way);
      const auto wb = b.way_state(set, way);
      if (wa.valid != wb.valid || wa.dirty != wb.dirty || wa.key != wb.key ||
          wa.last_touch != wb.last_touch) {
        log->Note(testing::Message()
                  << name << " set " << set << " way " << way << ": ("
                  << wa.valid << "," << wa.dirty << "," << wa.key << ","
                  << wa.last_touch << ") vs (" << wb.valid << "," << wb.dirty
                  << "," << wb.key << "," << wb.last_touch << ")");
      }
    }
  }
}

void CompareStreams(const MemorySystem& a, const MemorySystem& b,
                    MismatchLog* log) {
  if (a.stream_clock() != b.stream_clock()) {
    log->Note(testing::Message() << "stream clock " << a.stream_clock()
                                 << " vs " << b.stream_clock());
  }
  for (int i = 0; i < MemorySystem::kNumStreamEntries; ++i) {
    const auto sa = a.stream_state(i);
    const auto sb = b.stream_state(i);
    if (sa.valid != sb.valid || sa.run != sb.run || sa.dir != sb.dir ||
        sa.last_touch != sb.last_touch) {
      log->Note(testing::Message()
                << "stream entry " << i << ": (" << sa.valid << "," << sa.run
                << "," << static_cast<int>(sa.dir) << "," << sa.last_touch
                << ") vs (" << sb.valid << "," << sb.run << ","
                << static_cast<int>(sb.dir) << "," << sb.last_touch << ")");
    }
  }
}

void CompareMem(const MemCounters& a, const MemCounters& b,
                MismatchLog* log) {
#define UOLAP_CMP(f)                                                       \
  if (a.f != b.f)                                                          \
  log->Note(testing::Message() << "counter " #f ": " << a.f << " vs " << b.f)
  UOLAP_CMP(data_accesses);
  UOLAP_CMP(l1d_hits);
  UOLAP_CMP(l2_hits);
  UOLAP_CMP(l3_hits);
  UOLAP_CMP(dram_lines);
  UOLAP_CMP(l2_hits_seq);
  UOLAP_CMP(l2_hits_rand);
  UOLAP_CMP(l3_hits_seq);
  UOLAP_CMP(l3_hits_rand);
  UOLAP_CMP(dram_seq_l2_streamer);
  UOLAP_CMP(dram_seq_l1_streamer);
  UOLAP_CMP(dram_seq_next_line);
  UOLAP_CMP(dram_seq_uncovered);
  UOLAP_CMP(dram_rand);
  UOLAP_CMP(rand_dcache_cycles);
  UOLAP_CMP(exec_chase_cycles);
  UOLAP_CMP(seq_residual_cycles);
  UOLAP_CMP(stream_startup_cycles);
  UOLAP_CMP(dram_demand_bytes_seq);
  UOLAP_CMP(dram_demand_bytes_rand);
  UOLAP_CMP(dram_prefetch_waste_bytes);
  UOLAP_CMP(dram_writeback_bytes);
  UOLAP_CMP(dtlb_hits);
  UOLAP_CMP(stlb_hits);
  UOLAP_CMP(page_walks);
  UOLAP_CMP(tlb_cycles);
  UOLAP_CMP(streams_established);
  UOLAP_CMP(streams_killed);
#undef UOLAP_CMP
}

void ExpectIdentical(Core& fast, Core& ref) {
  MismatchLog log;
  CompareMem(fast.memory().counters(), ref.memory().counters(), &log);
  CompareStreams(fast.memory(), ref.memory(), &log);
  CompareCache("l1d", fast.memory().l1d(), ref.memory().l1d(), &log);
  CompareCache("l2", fast.memory().l2(), ref.memory().l2(), &log);
  CompareCache("l3", fast.memory().l3(), ref.memory().l3(), &log);
  CompareCache("dtlb", fast.memory().dtlb(), ref.memory().dtlb(), &log);
  CompareCache("stlb", fast.memory().stlb(), ref.memory().stlb(), &log);
  EXPECT_EQ(log.count, 0) << log.count << " raw-state mismatches";
}

// --- trace generation -----------------------------------------------------

struct Op {
  uint64_t addr = 0;
  uint32_t elem_bytes = 0;
  uint32_t count = 0;     // 0 == single Load/Store
  bool is_store = false;
};

/// Mixed trace: several live sequential streams (forward and backward,
/// some with small skips, interleaved with each other), random
/// probe-style single accesses across a wide address range (TLB churn),
/// and straddling element shapes (12B at offset 4, 48B at offset 20).
std::vector<Op> MakeTrace(uint64_t seed, size_t ops) {
  Rng rng(seed);
  std::vector<Op> trace;
  trace.reserve(ops);
  constexpr int kStreams = 6;
  uint64_t cursor[kStreams];
  int64_t stride[kStreams];
  for (int s = 0; s < kStreams; ++s) {
    cursor[s] = (1ull << 20) + (rng.Next() % (1ull << 28) & ~63ull);
    // Forward, backward, and skipping streams (the detector tolerates
    // skips of up to 3 lines).
    const uint64_t kind = rng.Next() % 4;
    stride[s] = kind == 0 ? -64 : static_cast<int64_t>(64 * (kind));
  }
  for (size_t i = 0; i < ops; ++i) {
    Op op;
    const uint64_t pick = rng.Next() % 10;
    if (pick < 5) {
      // Advance one of the interleaved streams by a batched access.
      const int s = static_cast<int>(rng.Next() % kStreams);
      const uint32_t elems = static_cast<uint32_t>(1 + rng.Next() % 96);
      op.addr = cursor[s];
      op.elem_bytes = 8;
      op.count = elems;
      op.is_store = rng.Bernoulli(0.3);
      cursor[s] = static_cast<uint64_t>(
          static_cast<int64_t>(cursor[s]) +
          stride[s] * static_cast<int64_t>((elems * 8 + 63) / 64));
      if (cursor[s] < (1ull << 20)) cursor[s] = 1ull << 20;
    } else if (pick < 8) {
      // Random probe: single access somewhere in a 1 GB range — misses,
      // page walks, detector churn.
      op.addr = (1ull << 20) + rng.Next() % (1ull << 30);
      op.elem_bytes = static_cast<uint32_t>(rng.Bernoulli(0.5) ? 8 : 16);
      op.is_store = rng.Bernoulli(0.2);
    } else if (pick == 8) {
      // Straddling batched run: elements cross lines and pages.
      op.addr = (1ull << 20) + (rng.Next() % (1ull << 24) & ~63ull) + 4;
      op.elem_bytes = rng.Bernoulli(0.5) ? 12 : 48;
      op.count = static_cast<uint32_t>(1 + rng.Next() % 64);
      op.is_store = rng.Bernoulli(0.3);
    } else {
      // Dense same-page re-access burst (memo coverage).
      op.addr = (1ull << 20) + (rng.Next() % (1ull << 16) & ~7ull);
      op.elem_bytes = 8;
      op.count = static_cast<uint32_t>(1 + rng.Next() % 16);
      op.is_store = rng.Bernoulli(0.5);
    }
    trace.push_back(op);
  }
  return trace;
}

void Apply(Core& core, const Op& op) {
  if (op.count == 0) {
    if (op.is_store) {
      core.Store(const_cast<void*>(Ptr(op.addr)), op.elem_bytes);
    } else {
      core.Load(Ptr(op.addr), op.elem_bytes);
    }
  } else if (op.is_store) {
    core.StoreSeq(const_cast<void*>(Ptr(op.addr)), op.elem_bytes, op.count);
  } else {
    core.LoadSeq(Ptr(op.addr), op.elem_bytes, op.count);
  }
}

TEST(FastPathPropertyTest, RandomTracesMatchReferenceBitForBit) {
  const MachineConfig cfg = MachineConfig::Broadwell();
  for (uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Core fast(cfg), ref(cfg);
    fast.SetReferencePaths(false);
    ref.SetReferencePaths(true);
    const std::vector<Op> trace = MakeTrace(seed, 6000);
    size_t i = 0;
    for (const Op& op : trace) {
      Apply(fast, op);
      Apply(ref, op);
      // Periodic mid-trace checks catch divergence near its cause.
      if (++i % 1500 == 0) {
        MismatchLog log;
        CompareMem(fast.memory().counters(), ref.memory().counters(), &log);
        CompareStreams(fast.memory(), ref.memory(), &log);
        ASSERT_EQ(log.count, 0) << "diverged by op " << i;
      }
    }
    ExpectIdentical(fast, ref);
    // The memo must fire only on the fast core.
    EXPECT_GT(fast.memory().fast_path_stats().memo_hits, 0u);
    EXPECT_EQ(ref.memory().fast_path_stats().memo_hits, 0u);
  }
}

TEST(FastPathPropertyTest, EditedStreamTableStaysInLockstep) {
  // The test-only stream hook re-derives the fast-path index, mask and
  // LRU list from the edited table, so a fast and a reference core edited
  // identically mid-trace keep servicing the trace identically. Entry 4
  // is invalidated (stamp 0, a free slot) and entry 9 takes over its
  // stamp, which keeps the valid stamps distinct but reorders the LRU.
  const MachineConfig cfg = MachineConfig::Broadwell();
  Core fast(cfg), ref(cfg);
  fast.SetReferencePaths(false);
  ref.SetReferencePaths(true);
  const std::vector<Op> trace = MakeTrace(31, 6000);
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i == trace.size() / 2) {
      const MemorySystem::StreamState s4 = ref.memory().stream_state(4);
      const MemorySystem::StreamState s9 = ref.memory().stream_state(9);
      ASSERT_TRUE(s4.valid && s9.valid);
      for (Core* c : {&fast, &ref}) {
        c->memory().TestOnlySetStream(4, false, 0, 0, 0);
        c->memory().TestOnlySetStream(9, true, s9.run, s9.dir, s4.last_touch);
      }
    }
    Apply(fast, trace[i]);
    Apply(ref, trace[i]);
  }
  ExpectIdentical(fast, ref);
}

TEST(FastPathPropertyTest, ResidentRescanMatchesReference) {
  // Scan an L1-resident region three times: the later passes re-walk warm
  // lines behind an established stream.
  const MachineConfig cfg = MachineConfig::Broadwell();
  Core fast(cfg), ref(cfg);
  fast.SetReferencePaths(false);
  ref.SetReferencePaths(true);
  constexpr uint64_t kBase = 1ull << 24;
  constexpr uint64_t kBytes = 8192;  // 128 lines, far below L1D capacity
  for (int pass = 0; pass < 3; ++pass) {
    fast.LoadSeq(Ptr(kBase), 8, kBytes / 8);
    ref.LoadSeq(Ptr(kBase), 8, kBytes / 8);
  }
  ExpectIdentical(fast, ref);
}

TEST(FastPathPropertyTest, MidTraceTogglingIsExact) {
  // The fast structures are maintained even while the reference paths are
  // selected, so flipping the switch mid-run (either direction) must not
  // perturb anything.
  const MachineConfig cfg = MachineConfig::Broadwell();
  Core toggling(cfg), ref(cfg);
  ref.SetReferencePaths(true);
  const std::vector<Op> trace = MakeTrace(99, 4000);
  size_t i = 0;
  for (const Op& op : trace) {
    toggling.SetReferencePaths(i % 3 == 1);  // fast, ref, ref, fast, ...
    Apply(toggling, op);
    Apply(ref, op);
    ++i;
  }
  ExpectIdentical(toggling, ref);
}

TEST(FastPathPropertyTest, FinalizedCountersMatch) {
  // End-to-end through Core::Finalize (stream flush + ifetch rounding).
  const MachineConfig cfg = MachineConfig::Broadwell();
  Core fast(cfg), ref(cfg);
  fast.SetReferencePaths(false);
  ref.SetReferencePaths(true);
  for (const Op& op : MakeTrace(4242, 3000)) {
    Apply(fast, op);
    Apply(ref, op);
  }
  fast.Finalize();
  ref.Finalize();
  MismatchLog log;
  CompareMem(fast.memory().counters(), ref.memory().counters(), &log);
  EXPECT_EQ(log.count, 0);
}

/// Adversarial stream trace, aimed at the stream index's corner cases:
///  - 48 interleaved streams, so the 32-entry detector table stays full
///    and LRU eviction runs constantly;
///  - stream heads 4096 * k lines apart, so every head shares one of the
///    index's 256 granule buckets (4096 lines == 256 granules of 16);
///  - pairs of streams 1-3 lines apart, so one line matches two entries
///    and first-match-in-table-order decides which one advances;
///  - backward streams starting just past a 16-line granule edge, so their
///    predictions cross bucket boundaries;
///  - probes landing inside live streams' match windows (re-access, small
///    skips both ways, and just outside the tolerance).
std::vector<Op> MakeAdversarialStreamTrace(uint64_t seed, size_t ops) {
  Rng rng(seed);
  constexpr int kStreams = 48;
  constexpr uint64_t kBaseLine = 1ull << 16;  // byte address 4 MB
  std::array<uint64_t, kStreams> cursor{};  // next line of each stream
  std::array<int64_t, kStreams> step{};     // lines per advance
  for (int s = 0; s < kStreams; ++s) {
    const uint64_t head = kBaseLine + 4096ull * static_cast<uint64_t>(s / 2);
    if (s % 2 == 0) {
      cursor[s] = head;
    } else {
      // Twin stream 1-3 lines behind or ahead of its pair.
      cursor[s] = head + 1 + rng.Next() % 3;
    }
    const uint64_t kind = rng.Next() % 4;
    if (kind == 0) {
      // Backward, starting just past a granule edge.
      cursor[s] = (cursor[s] & ~15ull) + 16 + rng.Next() % 3;
      step[s] = -1 - static_cast<int64_t>(rng.Next() % 2);
    } else {
      step[s] = static_cast<int64_t>(kind);  // 1..3: skips up to 2 lines
    }
  }
  std::vector<Op> trace;
  trace.reserve(ops);
  for (size_t i = 0; i < ops; ++i) {
    const int s = static_cast<int>(rng.Next() % kStreams);
    Op op;
    op.elem_bytes = 8;
    op.is_store = rng.Bernoulli(0.25);
    const uint64_t pick = rng.Next() % 8;
    if (pick < 5) {
      // Advance the stream by one line-sized element.
      op.addr = cursor[s] * 64 + (rng.Next() % 8) * 8;
      cursor[s] = static_cast<uint64_t>(static_cast<int64_t>(cursor[s]) +
                                        step[s]);
    } else if (pick < 7) {
      // Probe within 4 lines of the stream's cursor: re-access, forward
      // and backward skips inside the tolerance, and the first line past
      // each edge of the match window.
      const uint64_t delta = rng.Next() % 9;
      op.addr = (cursor[s] + delta - 4) * 64;
    } else {
      // Short batched forward run from the cursor.
      op.addr = cursor[s] * 64;
      op.count = static_cast<uint32_t>(2 + rng.Next() % 24);
      if (step[s] == 1) cursor[s] += (op.count * 8 + 63) / 64;
    }
    trace.push_back(op);
  }
  return trace;
}

TEST(FastPathPropertyTest, AdversarialStreamTraceMatchesReference) {
  const MachineConfig cfg = MachineConfig::Broadwell();
  for (uint64_t seed : {3ull, 17ull, 2024ull}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Core fast(cfg), ref(cfg);
    fast.SetReferencePaths(false);
    ref.SetReferencePaths(true);
    size_t i = 0;
    for (const Op& op : MakeAdversarialStreamTrace(seed, 20000)) {
      Apply(fast, op);
      Apply(ref, op);
      if (++i % 2000 == 0) {
        MismatchLog log;
        CompareMem(fast.memory().counters(), ref.memory().counters(), &log);
        CompareStreams(fast.memory(), ref.memory(), &log);
        ASSERT_EQ(log.count, 0) << "diverged by op " << i;
      }
    }
    ExpectIdentical(fast, ref);
    // The detector must have been full, evicting and advancing streams.
    const MemCounters& mc = fast.memory().counters();
    EXPECT_GT(mc.streams_established, 100u);
    EXPECT_GT(mc.streams_killed, 0u);
    for (int e = 0; e < MemorySystem::kNumStreamEntries; ++e) {
      EXPECT_TRUE(fast.memory().stream_state(e).valid) << "entry " << e;
    }
  }
}

TEST(StreamIndexTest, NearCoversEveryEntryInTheWindow) {
  // Random Insert/Move/Remove against a plain list of each entry's line:
  // Near(lo, hi) must name every entry whose line lies in [lo, hi], and
  // no entry that is not inserted. Lines cluster in a few 4096-line
  // strides so buckets are shared; windows span one to 17 lines, the
  // widest Near serves.
  Rng rng(77);
  StreamIndex index;
  std::array<bool, 32> live{};
  std::array<uint64_t, 32> line{};
  auto random_line = [&rng] {
    return (rng.Next() % 4) * 4096 + rng.Next() % 200 +
           (rng.Bernoulli(0.1) ? rng.Next() % (1ull << 40) : 0);
  };
  for (int step = 0; step < 50000; ++step) {
    const int e = static_cast<int>(rng.Next() % 32);
    const size_t u = static_cast<size_t>(e);
    const uint64_t op = rng.Next() % 3;
    if (!live[u]) {
      line[u] = random_line();
      index.Insert(e, line[u]);
      live[u] = true;
    } else if (op == 0) {
      index.Remove(e, line[u]);
      live[u] = false;
    } else {
      const uint64_t to = op == 1 ? line[u] + 1 : random_line();
      index.Move(e, line[u], to);
      line[u] = to;
    }
    const uint64_t width = rng.Next() % 17;
    const uint64_t anchor = line[static_cast<size_t>(rng.Next() % 32)];
    const uint64_t lo = anchor >= width / 2 ? anchor - width / 2 : 0;
    const uint64_t hi = lo + width;
    const uint32_t near = index.Near(lo, hi);
    for (size_t j = 0; j < 32; ++j) {
      const bool bit = (near >> j) & 1;
      if (!live[j]) {
        ASSERT_FALSE(bit) << "dead entry " << j << " at step " << step;
      } else if (line[j] >= lo && line[j] <= hi) {
        ASSERT_TRUE(bit) << "entry " << j << " line " << line[j]
                         << " missing from [" << lo << ", " << hi
                         << "] at step " << step;
      }
    }
  }
}

TEST(FastPathPropertyTest, ReferenceDefaultIsInherited) {
  MemorySystem::SetReferencePathsDefault(true);
  {
    Core c(MachineConfig::Broadwell());
    EXPECT_TRUE(c.memory().reference_paths());
  }
  MemorySystem::SetReferencePathsDefault(false);
  {
    Core c(MachineConfig::Broadwell());
    EXPECT_FALSE(c.memory().reference_paths());
  }
}

}  // namespace
}  // namespace uolap::core
