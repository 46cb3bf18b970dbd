#include "engine/hash_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/calibration.h"
#include "core/config.h"

namespace uolap::engine {
namespace {

core::Core MakeCore() { return core::Core(core::MachineConfig::Broadwell()); }

/// Shorthand: find-or-create `key` and add `delta` to its first slot.
void agg(AggHashTable<1>& table, core::Core& core, int64_t key,
         int64_t delta) {
  auto* e = table.FindOrCreate(core, 2, key);
  table.Add(core, e, 0, delta);
}

TEST(JoinHashTableTest, InsertAndProbeUnique) {
  core::Core core = MakeCore();
  JoinHashTable ht(core, 100);
  for (int64_t k = 1; k <= 100; ++k) ht.Insert(core, k, k * 10);
  for (int64_t k = 1; k <= 100; ++k) {
    int64_t payload = -1;
    const int matches = ht.Probe(core, 1, k, [&](int64_t p) { payload = p; });
    EXPECT_EQ(matches, 1);
    EXPECT_EQ(payload, k * 10);
  }
}

TEST(JoinHashTableTest, MissingKeysDoNotMatch) {
  core::Core core = MakeCore();
  JoinHashTable ht(core, 10);
  for (int64_t k = 0; k < 10; ++k) ht.Insert(core, k, k);
  int called = 0;
  EXPECT_EQ(ht.Probe(core, 1, 999, [&](int64_t) { ++called; }), 0);
  EXPECT_EQ(called, 0);
}

TEST(JoinHashTableTest, DuplicateKeysAllMatch) {
  core::Core core = MakeCore();
  JoinHashTable ht(core, 10);
  ht.Insert(core, 7, 1);
  ht.Insert(core, 7, 2);
  ht.Insert(core, 7, 3);
  int64_t sum = 0;
  EXPECT_EQ(ht.Probe(core, 1, 7, [&](int64_t p) { sum += p; }), 3);
  EXPECT_EQ(sum, 6);
}

TEST(JoinHashTableTest, ZeroKeyWorks) {
  core::Core core = MakeCore();
  JoinHashTable ht(core, 4);
  ht.Insert(core, 0, 99);
  int64_t payload = -1;
  EXPECT_EQ(ht.Probe(core, 1, 0, [&](int64_t p) { payload = p; }), 1);
  EXPECT_EQ(payload, 99);
}

TEST(JoinHashTableTest, ChainStatsReasonableForUniqueKeys) {
  core::Core core = MakeCore();
  JoinHashTable ht(core, 10000);
  for (int64_t k = 1; k <= 10000; ++k) ht.Insert(core, k, k);
  ChainStats s = ht.ComputeChainStats();
  EXPECT_EQ(s.entries, 10000u);
  // Buckets = 2x entries: mean chain ~0.5, short maxima.
  EXPECT_NEAR(s.mean, 0.5, 0.2);
  EXPECT_LT(s.max, 10u);
}

TEST(JoinHashTableTest, ProbeDrivesBranchesAndHashCost) {
  core::Core core = MakeCore();
  JoinHashTable ht(core, 16);
  for (int64_t k = 0; k < 16; ++k) ht.Insert(core, k, k);
  core::CoreCounters before = core.counters();
  for (int64_t k = 0; k < 16; ++k) {
    ht.Probe(core, 1, k, [](int64_t) {});
  }
  core::CoreCounters after = core.counters();
  EXPECT_GT(after.branch_events, before.branch_events);
  EXPECT_GT(after.mix.mul, before.mix.mul);  // hash multiplies
}

TEST(JoinHashTableTest, MemoryBytesGrowWithEntries) {
  core::Core core = MakeCore();
  JoinHashTable small(core, 100), large(core, 100000);
  EXPECT_LT(small.MemoryBytes(), large.MemoryBytes());
}

TEST(AggHashTableTest, GroupsAccumulate) {
  core::Core core = MakeCore();
  AggHashTable<2> agg(core, 16);
  for (int64_t i = 0; i < 100; ++i) {
    auto* e = agg.FindOrCreate(core, 2, i % 4);
    agg.Add(core, e, 0, 1);
    agg.Add(core, e, 1, i);
  }
  EXPECT_EQ(agg.num_groups(), 4u);
  int64_t count = 0, sum = 0;
  for (const auto& e : agg.entries()) {
    count += e.aggs[0];
    sum += e.aggs[1];
  }
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(AggHashTableTest, ManyGroups) {
  core::Core core = MakeCore();
  AggHashTable<1> agg(core, 1 << 14);
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) {
    auto* e = agg.FindOrCreate(core, 2, i);
    agg.Add(core, e, 0, i);
  }
  EXPECT_EQ(agg.num_groups(), static_cast<size_t>(n));
  // Every group holds exactly its own key as sum.
  for (const auto& e : agg.entries()) {
    ASSERT_EQ(e.aggs[0], e.key);
  }
}

TEST(AggHashTableTest, InsertionOrderDoesNotChangeAggregates) {
  core::Core core_a = MakeCore();
  core::Core core_b = MakeCore();
  AggHashTable<1> a(core_a, 64), b(core_b, 64);
  for (int64_t i = 0; i < 1000; ++i) {
    agg(a, core_a, i % 10, i);
  }
  for (int64_t i = 999; i >= 0; --i) {
    agg(b, core_b, i % 10, i);
  }
  int64_t sum_a = 0, sum_b = 0;
  for (const auto& e : a.entries()) sum_a += e.aggs[0];
  for (const auto& e : b.entries()) sum_b += e.aggs[0];
  EXPECT_EQ(sum_a, sum_b);
  EXPECT_EQ(a.num_groups(), b.num_groups());
}

TEST(AggHashTableTest, ChainStatsComputed) {
  core::Core core = MakeCore();
  AggHashTable<1> table(core, 1024);
  for (int64_t i = 0; i < 1024; ++i) {
    agg(table, core, i, 1);
  }
  ChainStats s = table.ComputeChainStats();
  EXPECT_EQ(s.entries, 1024u);
  EXPECT_GT(s.mean, 0.0);
  EXPECT_GE(static_cast<double>(s.max), s.mean);
}

}  // namespace
}  // namespace uolap::engine
