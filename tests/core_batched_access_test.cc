// Exactness contract of the batched access fast paths: Core::LoadSeq /
// StoreSeq (filter-based) and Core::LoadRange / StoreRange (cursor-based)
// must produce bit-identical counters to the per-element Load/Store loops
// they replace, and the parallel runtime must produce bit-identical
// profiles to serial execution.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/core.h"
#include "core/machine.h"
#include "engines/typer/typer_engine.h"
#include "harness/profile.h"
#include "engine/thread_pool.h"
#include "tpch/dbgen.h"

namespace uolap::core {
namespace {

void ExpectMixEq(const InstrMix& a, const InstrMix& b) {
  EXPECT_EQ(a.alu, b.alu);
  EXPECT_EQ(a.mul, b.mul);
  EXPECT_EQ(a.div, b.div);
  EXPECT_EQ(a.load, b.load);
  EXPECT_EQ(a.store, b.store);
  EXPECT_EQ(a.branch, b.branch);
  EXPECT_EQ(a.simd, b.simd);
  EXPECT_EQ(a.complex, b.complex);
  EXPECT_EQ(a.other, b.other);
  EXPECT_EQ(a.chain_cycles, b.chain_cycles);
}

void ExpectMemEq(const MemCounters& a, const MemCounters& b) {
  EXPECT_EQ(a.data_accesses, b.data_accesses);
  EXPECT_EQ(a.l1d_hits, b.l1d_hits);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l3_hits, b.l3_hits);
  EXPECT_EQ(a.dram_lines, b.dram_lines);
  EXPECT_EQ(a.l2_hits_seq, b.l2_hits_seq);
  EXPECT_EQ(a.l2_hits_rand, b.l2_hits_rand);
  EXPECT_EQ(a.l3_hits_seq, b.l3_hits_seq);
  EXPECT_EQ(a.l3_hits_rand, b.l3_hits_rand);
  EXPECT_EQ(a.dram_seq_l2_streamer, b.dram_seq_l2_streamer);
  EXPECT_EQ(a.dram_seq_l1_streamer, b.dram_seq_l1_streamer);
  EXPECT_EQ(a.dram_seq_next_line, b.dram_seq_next_line);
  EXPECT_EQ(a.dram_seq_uncovered, b.dram_seq_uncovered);
  EXPECT_EQ(a.dram_rand, b.dram_rand);
  EXPECT_EQ(a.rand_dcache_cycles, b.rand_dcache_cycles);
  EXPECT_EQ(a.exec_chase_cycles, b.exec_chase_cycles);
  EXPECT_EQ(a.seq_residual_cycles, b.seq_residual_cycles);
  EXPECT_EQ(a.stream_startup_cycles, b.stream_startup_cycles);
  EXPECT_EQ(a.dram_demand_bytes_seq, b.dram_demand_bytes_seq);
  EXPECT_EQ(a.dram_demand_bytes_rand, b.dram_demand_bytes_rand);
  EXPECT_EQ(a.dram_prefetch_waste_bytes, b.dram_prefetch_waste_bytes);
  EXPECT_EQ(a.dram_writeback_bytes, b.dram_writeback_bytes);
  EXPECT_EQ(a.dtlb_hits, b.dtlb_hits);
  EXPECT_EQ(a.stlb_hits, b.stlb_hits);
  EXPECT_EQ(a.page_walks, b.page_walks);
  EXPECT_EQ(a.tlb_cycles, b.tlb_cycles);
  EXPECT_EQ(a.code_fetches, b.code_fetches);
  EXPECT_EQ(a.l1i_hits, b.l1i_hits);
  EXPECT_EQ(a.l1i_l2_hits, b.l1i_l2_hits);
  EXPECT_EQ(a.l1i_l3_hits, b.l1i_l3_hits);
  EXPECT_EQ(a.l1i_dram, b.l1i_dram);
  EXPECT_EQ(a.streams_established, b.streams_established);
  EXPECT_EQ(a.streams_killed, b.streams_killed);
}

void ExpectCountersEq(const CoreCounters& a, const CoreCounters& b) {
  ExpectMixEq(a.mix, b.mix);
  EXPECT_EQ(a.branch_events, b.branch_events);
  EXPECT_EQ(a.branch_mispredicts, b.branch_mispredicts);
  EXPECT_EQ(a.exec_stall_cycles, b.exec_stall_cycles);
  ExpectMemEq(a.mem, b.mem);
}

CoreCounters Snapshot(Core& core) {
  core.Finalize();
  return core.counters();
}

/// One (elem_bytes, start offset, count) shape, loads: per-element loop on
/// one fresh core, a single LoadSeq on another, counters must match.
void CheckLoadSeqShape(const uint8_t* base, uint32_t elem_bytes,
                       size_t count) {
  const MachineConfig cfg = MachineConfig::Broadwell();
  Core elem(cfg), batch(cfg);
  for (size_t i = 0; i < count; ++i) {
    elem.Load(base + i * elem_bytes, elem_bytes);
  }
  batch.LoadSeq(base, elem_bytes, count);
  SCOPED_TRACE(testing::Message()
               << "elem_bytes=" << elem_bytes << " count=" << count
               << " offset=" << (reinterpret_cast<uint64_t>(base) & 63));
  ExpectCountersEq(Snapshot(elem), Snapshot(batch));
}

TEST(BatchedAccessTest, LoadSeqMatchesElementLoopAcrossShapes) {
  // Backing array large enough for page crossings, offset so runs start
  // mid-line and mid-page. 64-byte aligned base via vector of uint64_t.
  std::vector<uint64_t> backing((1 << 20) / 8, 0);
  const uint8_t* base = reinterpret_cast<const uint8_t*>(backing.data());
  for (uint32_t elem_bytes : {1u, 2u, 4u, 8u, 16u}) {
    for (size_t offset : {size_t{0}, size_t{4}, size_t{60}, size_t{4092}}) {
      CheckLoadSeqShape(base + offset, elem_bytes, 3000);
    }
  }
  // Counts that end mid-line and a count of zero / one.
  CheckLoadSeqShape(base, 8, 0);
  CheckLoadSeqShape(base, 8, 1);
  CheckLoadSeqShape(base, 8, 7);
}

TEST(BatchedAccessTest, LoadSeqMatchesOnStraddlingElements) {
  // 12-byte elements starting at offset 4: every few elements straddle a
  // 64-byte line boundary and must take the same slow path per element.
  std::vector<uint64_t> backing(1 << 14, 0);
  const uint8_t* base = reinterpret_cast<const uint8_t*>(backing.data());
  CheckLoadSeqShape(base + 4, 12, 2048);
  // 48-byte elements: half of them cross lines, some cross pages.
  CheckLoadSeqShape(base + 20, 48, 1024);
}

TEST(BatchedAccessTest, StoreSeqMatchesElementLoop) {
  const MachineConfig cfg = MachineConfig::Broadwell();
  std::vector<uint64_t> backing(1 << 15, 0);
  uint8_t* base = reinterpret_cast<uint8_t*>(backing.data());
  for (size_t offset : {size_t{0}, size_t{12}, size_t{60}}) {
    Core elem(cfg), batch(cfg);
    for (size_t i = 0; i < 4000; ++i) elem.Store(base + offset + i * 8, 8);
    batch.StoreSeq(base + offset, 8, 4000);
    SCOPED_TRACE(testing::Message() << "offset=" << offset);
    ExpectCountersEq(Snapshot(elem), Snapshot(batch));
  }
}

TEST(BatchedAccessTest, StoreAfterLoadDirtyTransitionMatches) {
  // A load establishes the filter line clean; the store to the same line
  // must still be charged as an access (dirty transition) on both paths.
  const MachineConfig cfg = MachineConfig::Broadwell();
  std::vector<uint64_t> backing(1 << 12, 0);
  uint8_t* base = reinterpret_cast<uint8_t*>(backing.data());
  Core elem(cfg), batch(cfg);
  for (size_t i = 0; i < 512; ++i) elem.Load(base + i * 8, 8);
  for (size_t i = 0; i < 512; ++i) elem.Store(base + i * 8, 8);
  batch.LoadSeq(base, 8, 512);
  batch.StoreSeq(base, 8, 512);
  ExpectCountersEq(Snapshot(elem), Snapshot(batch));
}

TEST(BatchedAccessTest, LoadRangeMatchesElementLoop) {
  // The cursor-based path (caller-held SeqCursor instead of the shared
  // filter) against the plain per-element loop, including two interleaved
  // arrays whose filter slots would alias.
  const MachineConfig cfg = MachineConfig::Broadwell();
  std::vector<uint64_t> a(1 << 14, 0), b(1 << 14, 0);
  Core elem(cfg), batch(cfg);
  for (size_t i = 0; i < 8000; ++i) elem.Load(&a[i], 8);
  SeqCursor cur;
  for (size_t i = 0; i < 8000; ++i) batch.LoadRange(cur, &a[i], 8, 1);
  ExpectCountersEq(Snapshot(elem), Snapshot(batch));

  // Chunked ranges equal single-element ranges.
  Core chunked(cfg), single(cfg);
  SeqCursor c1, c2;
  for (size_t i = 0; i < 8000; i += 500) chunked.LoadRange(c1, &a[i], 8, 500);
  for (size_t i = 0; i < 8000; ++i) single.LoadRange(c2, &a[i], 8, 1);
  ExpectCountersEq(Snapshot(chunked), Snapshot(single));
}

TEST(BatchedAccessTest, StoreRangeMatchesElementLoop) {
  const MachineConfig cfg = MachineConfig::Broadwell();
  std::vector<uint64_t> a(1 << 13, 0);
  Core elem(cfg), batch(cfg);
  for (size_t i = 0; i < 6000; ++i) elem.Store(&a[i], 8);
  SeqCursor cur;
  for (size_t i = 0; i < 6000; ++i) batch.StoreRange(cur, &a[i], 8, 1);
  ExpectCountersEq(Snapshot(elem), Snapshot(batch));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  engine::ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // Nested ParallelFor runs inline and still covers everything.
  std::vector<std::atomic<int>> nested(64);
  for (auto& h : nested) h.store(0);
  pool.ParallelFor(4, [&](size_t outer) {
    pool.ParallelFor(16, [&](size_t inner) {
      nested[outer * 16 + inner].fetch_add(1);
    });
  });
  for (size_t i = 0; i < 64; ++i) ASSERT_EQ(nested[i].load(), 1);
}

TEST(ParallelDeterminismTest, ProfileMultiThreadedBitIdenticalToSerial) {
  // Scheduling determinism in isolation: every data address the workload
  // feeds the model comes from buffers allocated once, up front, so the
  // serial (executor = nullptr) and threaded runs see byte-identical
  // memory layouts and the full counter state must match bit-for-bit.
  // (Engine workloads allocate hash tables per run, whose heap addresses
  // — and hence cache-set conflicts — legitimately vary between two
  // Profile calls; the address-independent comparison below covers
  // them.)
  const MachineConfig cfg = MachineConfig::Broadwell();
  constexpr int kThreads = 4;
  constexpr size_t kPerCore = 1 << 16;
  std::vector<int64_t> data(kThreads * kPerCore);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<int64_t>(i * 2654435761u);
  }

  auto workload = [&](engine::Workers& w) {
    w.ForEach([&](size_t t) {
      Core& core = *w.cores[t];
      core.SetCodeRegion({"det-test", 1024});
      int64_t* slice = data.data() + t * kPerCore;
      // Batched scan with data-dependent branches...
      core.LoadSeq(slice, 8, kPerCore);
      uint64_t taken = 0;
      for (size_t i = 0; i < kPerCore; ++i) {
        const bool pass = (slice[i] & 7) == 0;
        core.Branch(/*site_id=*/1, pass);
        if (pass) ++taken;
      }
      // ...a strided (cache-unfriendly) reload, and a store pass.
      for (size_t i = t; i < kPerCore; i += 97) core.Load(&slice[i], 8);
      core.StoreSeq(slice, 8, kPerCore / 2);
      InstrMix per_tuple;
      per_tuple.alu = 2;
      core.RetireN(per_tuple, kPerCore + taken);
    });
  };

  const obs::RunRecord serial =
      harness::Profile(cfg, kThreads, {}, "serial", workload,
                       /*executor=*/nullptr);
  const obs::RunRecord threaded =
      harness::Profile(cfg, kThreads, {}, "threaded", workload);

  ASSERT_EQ(serial.cores.size(), threaded.cores.size());
  EXPECT_EQ(serial.makespan_cycles, threaded.makespan_cycles);
  EXPECT_EQ(serial.socket_bandwidth_gbps, threaded.socket_bandwidth_gbps);
  EXPECT_EQ(serial.Aggregate().retiring, threaded.Aggregate().retiring);
  EXPECT_EQ(serial.Aggregate().StallCycles(),
            threaded.Aggregate().StallCycles());
  for (size_t i = 0; i < serial.cores.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "core " << i);
    const ProfileResult& s = serial.cores[i].whole;
    const ProfileResult& t = threaded.cores[i].whole;
    EXPECT_EQ(s.total_cycles, t.total_cycles);
    EXPECT_EQ(s.dram_bytes, t.dram_bytes);
    ExpectCountersEq(s.counters, t.counters);
  }
}

TEST(ParallelDeterminismTest, EngineWorkloadSchedulingInvariant) {
  // A real engine workload through the parallel runtime: query results
  // and every per-core counter must be identical between serial and
  // threaded execution. The join runs typer's per-key probe loop.
  tpch::DbGen gen(7);
  const auto db = gen.Generate(0.02);
  ASSERT_TRUE(db.ok());
  typer::TyperEngine typer(db.value());
  const MachineConfig cfg = MachineConfig::Broadwell();

  tpch::Money serial_sum = 0, threaded_sum = 0;
  auto workload = [&](tpch::Money* sum) {
    return [&typer, sum](engine::Workers& w) {
      typer.Q1(w);
      *sum = typer.Join(w, engine::JoinSize::kMedium);
    };
  };
  const obs::RunRecord serial =
      harness::Profile(cfg, 4, {}, "serial", workload(&serial_sum),
                       /*executor=*/nullptr);
  const obs::RunRecord threaded =
      harness::Profile(cfg, 4, {}, "threaded", workload(&threaded_sum));

  EXPECT_EQ(serial_sum, threaded_sum);
  ASSERT_EQ(serial.cores.size(), threaded.cores.size());
  for (size_t i = 0; i < serial.cores.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "core " << i);
    ExpectCountersEq(serial.cores[i].whole.counters,
                     threaded.cores[i].whole.counters);
  }
}

}  // namespace
}  // namespace uolap::core
