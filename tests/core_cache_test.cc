#include "core/cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "core/placement.h"

namespace uolap::core {
namespace {

TEST(SetAssociativeCacheTest, MissThenHit) {
  SetAssociativeCache c(4, 2);
  EXPECT_FALSE(c.Access(10, false));
  c.Insert(10, false);
  EXPECT_TRUE(c.Access(10, false));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssociativeCacheTest, LruEvictsOldest) {
  // One set, two ways: keys 0, 4, 8 all map to set 0 (4 sets).
  SetAssociativeCache c(4, 2);
  c.Insert(0, false);
  c.Insert(4, false);
  // Touch 0 so 4 becomes LRU.
  EXPECT_TRUE(c.Access(0, false));
  CacheAccessResult r = c.Insert(8, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_key, 4u);
  EXPECT_TRUE(c.Contains(0));
  EXPECT_TRUE(c.Contains(8));
  EXPECT_FALSE(c.Contains(4));
}

TEST(SetAssociativeCacheTest, DirtyEvictionReported) {
  SetAssociativeCache c(1, 1);
  c.Insert(1, /*dirty=*/true);
  CacheAccessResult r = c.Insert(2, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(r.evicted_key, 1u);
}

TEST(SetAssociativeCacheTest, StoreAccessMarksDirty) {
  SetAssociativeCache c(1, 1);
  c.Insert(1, false);
  EXPECT_TRUE(c.Access(1, /*is_store=*/true));
  CacheAccessResult r = c.Insert(2, false);
  EXPECT_TRUE(r.evicted_dirty);
}

TEST(SetAssociativeCacheTest, InsertExistingPromotesAndMergesDirty) {
  SetAssociativeCache c(1, 2);
  c.Insert(1, false);
  c.Insert(2, false);
  // Re-insert 1 dirty: becomes MRU and dirty; inserting 3 evicts 2.
  CacheAccessResult again = c.Insert(1, true);
  EXPECT_TRUE(again.hit);
  CacheAccessResult r = c.Insert(3, false);
  EXPECT_EQ(r.evicted_key, 2u);
  // Evicting 1 now must report dirty.
  c.Access(3, false);
  CacheAccessResult r2 = c.Insert(4, false);
  EXPECT_EQ(r2.evicted_key, 1u);
  EXPECT_TRUE(r2.evicted_dirty);
}

TEST(SetAssociativeCacheTest, MarkDirtyOnlyWhenResident) {
  SetAssociativeCache c(2, 1);
  EXPECT_FALSE(c.MarkDirty(5));
  c.Insert(5, false);
  EXPECT_TRUE(c.MarkDirty(5));
}

TEST(SetAssociativeCacheTest, DistinctSetsDoNotInterfere) {
  SetAssociativeCache c(2, 1);
  c.Insert(0, false);  // set 0
  c.Insert(1, false);  // set 1
  EXPECT_TRUE(c.Contains(0));
  EXPECT_TRUE(c.Contains(1));
}

TEST(SetAssociativeCacheTest, WorkingSetLargerThanCacheThrashes) {
  // 8 lines capacity; cyclic walk over 16 keys with LRU never hits.
  SetAssociativeCache c(1, 8);
  int hits = 0;
  for (int round = 0; round < 4; ++round) {
    for (uint64_t k = 0; k < 16; ++k) {
      if (c.Access(k, false)) ++hits;
      c.Insert(k, false);
    }
  }
  EXPECT_EQ(hits, 0);
}

TEST(SetAssociativeCacheTest, WorkingSetWithinCacheAlwaysHitsAfterWarmup) {
  SetAssociativeCache c(4, 4);  // 16 lines
  for (uint64_t k = 0; k < 16; ++k) c.Insert(k, false);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 16; ++k) {
      EXPECT_TRUE(c.Access(k, false));
    }
  }
}

TEST(SetAssociativeCacheTest, NonPowerOfTwoSetsWork) {
  // Broadwell's 35 MB L3 has 28672 sets; exercise the modulo path.
  SetAssociativeCache c(3, 2);
  c.Insert(0, false);
  c.Insert(1, false);
  c.Insert(2, false);
  EXPECT_TRUE(c.Contains(0));
  EXPECT_TRUE(c.Contains(1));
  EXPECT_TRUE(c.Contains(2));
  // Keys 0 and 3 share set 0; with 2 ways both fit.
  c.Insert(3, false);
  EXPECT_TRUE(c.Contains(0));
  EXPECT_TRUE(c.Contains(3));
}

TEST(SetAssociativeCacheTest, ProbeOnMissNamesTheFillVictim) {
  SetAssociativeCache c(4, 2);
  c.Insert(0, false);
  c.Insert(4, false);
  EXPECT_TRUE(c.Access(0, false));  // 4 becomes LRU
  const CacheProbe miss = c.Probe(8, false);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.set, 0u);
  EXPECT_EQ(c.misses(), 1u);  // counted like Access; Insert counts none
  const CacheAccessResult r = c.FillMiss(miss, 8, /*dirty=*/true);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_key, 4u);
  EXPECT_EQ(c.way_state(0, miss.way).key, 8u);
  const CacheProbe hit = c.Probe(8, false);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.way, miss.way);
  EXPECT_TRUE(c.way_state(0, hit.way).dirty);
  EXPECT_EQ(c.way_state(0, hit.way).rank, 0);  // MRU
}

// --- LRU oracle -------------------------------------------------------------
// A deliberately naive model of the same cache: explicit per-way records
// plus a per-set recency list of the valid ways (front = least recent).
// The fill victim is the first invalid way, else the list front. Random
// operation sequences drive it and the cache in lockstep; every result,
// eviction and way — including each valid way's recency rank against its
// list position, so the full LRU order — is compared.

class LruOracle {
 public:
  LruOracle(uint64_t num_sets, uint32_t ways)
      : num_sets_(num_sets), ways_(ways), sets_(num_sets) {
    for (Set& s : sets_) s.ways.resize(ways);
  }

  struct Way {
    bool valid = false;
    bool dirty = false;
    uint64_t key = 0;
  };
  struct Eviction {
    bool evicted = false;
    bool dirty = false;
    uint64_t key = 0;
  };

  uint64_t SetOf(uint64_t key) const { return key % num_sets_; }

  /// Way holding `key`, or -1.
  int Find(uint64_t key) const {
    const Set& s = sets_[SetOf(key)];
    for (uint32_t w = 0; w < ways_; ++w) {
      if (s.ways[w].valid && s.ways[w].key == key) return static_cast<int>(w);
    }
    return -1;
  }

  /// Way the next fill of `key`'s set takes.
  uint32_t Victim(uint64_t key) const {
    const Set& s = sets_[SetOf(key)];
    for (uint32_t w = 0; w < ways_; ++w) {
      if (!s.ways[w].valid) return w;
    }
    return s.lru.front();
  }

  bool Access(uint64_t key, bool is_store) {
    const int w = Find(key);
    if (w < 0) return false;
    Touch(key, static_cast<uint32_t>(w), is_store);
    return true;
  }

  /// Insert semantics: promote when resident, else fill the victim.
  Eviction Insert(uint64_t key, bool dirty) {
    const int w = Find(key);
    if (w >= 0) {
      Touch(key, static_cast<uint32_t>(w), dirty);
      return {};
    }
    Set& s = sets_[SetOf(key)];
    const uint32_t v = Victim(key);
    Way& way = s.ways[v];
    Eviction ev;
    if (way.valid) {
      ev = {true, way.dirty, way.key};
      s.lru.remove(v);
    }
    way = {true, dirty, key};
    s.lru.push_back(v);
    return ev;
  }

  bool MarkDirty(uint64_t key) {
    const int w = Find(key);
    if (w < 0) return false;
    sets_[SetOf(key)].ways[static_cast<uint32_t>(w)].dirty = true;
    return true;
  }

  const Way& way(uint64_t set, uint32_t w) const { return sets_[set].ways[w]; }

  /// Recency rank of valid way `w`: 0 for the list back (most recent).
  int Rank(uint64_t set, uint32_t w) const {
    int pos = 0;
    for (auto it = sets_[set].lru.rbegin(); *it != w; ++it) ++pos;
    return pos;
  }

 private:
  struct Set {
    std::vector<Way> ways;
    std::list<uint32_t> lru;
  };

  void Touch(uint64_t key, uint32_t w, bool dirty) {
    Set& s = sets_[SetOf(key)];
    s.ways[w].dirty = s.ways[w].dirty || dirty;
    s.lru.remove(w);
    s.lru.push_back(w);
  }

  uint64_t num_sets_;
  uint32_t ways_;
  std::vector<Set> sets_;
};

template <typename Cache>
void ExpectSetMatches(const Cache& c, const LruOracle& o, uint64_t set,
                      const char* after) {
  for (uint32_t w = 0; w < c.ways(); ++w) {
    const CacheWayState got = c.way_state(set, w);
    const LruOracle::Way& want = o.way(set, w);
    ASSERT_EQ(got.valid, want.valid) << after << " set " << set << " way " << w;
    ASSERT_EQ(got.dirty, want.dirty) << after << " set " << set << " way " << w;
    const int want_rank = want.valid ? o.Rank(set, w) : -1;
    ASSERT_EQ(got.rank, want_rank) << after << " set " << set << " way " << w;
    if (want.valid) {
      ASSERT_EQ(got.key, want.key) << after << " set " << set << " way " << w;
    }
  }
}

void ExpectEviction(const CacheAccessResult& got,
                    const LruOracle::Eviction& want, const char* op) {
  ASSERT_EQ(got.evicted, want.evicted) << op;
  if (want.evicted) {
    ASSERT_EQ(got.evicted_dirty, want.dirty) << op;
    ASSERT_EQ(got.evicted_key, want.key) << op;
  }
}

template <typename Cache>
void RunLruOracle(uint64_t num_sets, uint32_t ways, uint64_t seed, int ops) {
  SCOPED_TRACE(testing::Message() << num_sets << "x" << ways);
  Cache c(num_sets, ways);
  LruOracle o(num_sets, ways);
  Rng rng(seed);
  // A handful of hot sets (so ways fill, conflict and evict) plus the odd
  // random one; tags from a small range so keys recur and hit.
  const uint64_t hot_sets = num_sets < 5 ? num_sets : 5;
  const uint64_t tags = 2 * ways + 3;
  uint64_t hits = 0, evictions = 0, tie_fills = 0;
  for (int i = 0; i < ops; ++i) {
    const uint64_t set = rng.Bernoulli(0.9)
                             ? (rng.Next() % hot_sets) * (num_sets / hot_sets)
                             : rng.Next() % num_sets;
    const uint64_t key = set + num_sets * (rng.Next() % tags);
    const bool flag = rng.Bernoulli(0.3);
    const uint64_t op = rng.Next() % 16;
    if (op < 3) {
      const bool hit = c.Access(key, flag);
      ASSERT_EQ(hit, o.Access(key, flag)) << "Access " << key;
      hits += hit ? 1 : 0;
    } else if (op < 6) {
      const bool resident = o.Find(key) >= 0;
      const CacheAccessResult r = c.Insert(key, flag);
      ASSERT_EQ(r.hit, resident) << "Insert " << key;
      ExpectEviction(r, o.Insert(key, flag), "Insert");
      evictions += r.evicted ? 1 : 0;
    } else if (op < 8) {
      if (o.Find(key) >= 0) continue;  // its precondition: key absent
      const CacheAccessResult r = c.InsertAbsent(key, flag);
      ExpectEviction(r, o.Insert(key, flag), "InsertAbsent");
      evictions += r.evicted ? 1 : 0;
    } else if (op < 9) {
      ASSERT_EQ(c.MarkDirty(key), o.MarkDirty(key)) << "MarkDirty " << key;
    } else {
      // Probe, then fill the miss: the probe's victim must be the way the
      // oracle (and InsertAbsent) would fill.
      const CacheProbe p = c.Probe(key, flag);
      const int want_way = o.Find(key);
      ASSERT_EQ(p.hit, want_way >= 0) << "Probe " << key;
      ASSERT_EQ(p.set, set);
      if (p.hit) {
        ASSERT_EQ(p.way, static_cast<uint32_t>(want_way));
        o.Access(key, flag);
      } else {
        ASSERT_EQ(p.way, o.Victim(key)) << "Probe " << key;
        uint32_t invalid = 0;
        for (uint32_t w = 0; w < ways; ++w) {
          invalid += o.way(set, w).valid ? 0 : 1;
        }
        tie_fills += invalid >= 2 && invalid < ways ? 1 : 0;
        const bool dirty = rng.Bernoulli(0.5);
        const CacheAccessResult r = c.FillMiss(p, key, dirty);
        ExpectEviction(r, o.Insert(key, dirty), "FillMiss");
        ASSERT_EQ(c.way_state(set, p.way).key, key);
        evictions += r.evicted ? 1 : 0;
      }
    }
    ExpectSetMatches(c, o, set, "op");
  }
  for (uint64_t set = 0; set < num_sets; ++set) {
    ExpectSetMatches(c, o, set, "final");
  }
  // The trace must have exercised what it is meant to.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(evictions, 0u);
  if (ways >= 4) {
    EXPECT_GT(tie_fills, 0u);  // fills chose among several invalid ways
  }
}

struct Geometry {
  uint64_t sets;
  uint32_t ways;
};
// L1/L2-like, both presets' sliced L3 (Skylake's odd 23831 sets pad an
// 11-way tag row), Skylake's L2, the STLB, a small power-of-two, the
// 32-way limit and a degenerate odd direct-mapped one.
constexpr Geometry kOracleGeometries[] = {
    {64, 8},  {512, 8}, {28672, 20}, {23831, 11}, {1024, 16},
    {128, 12}, {16, 4}, {7, 32},     {3, 1}};

TEST(SetAssociativeCacheTest, MatchesNaiveLruOracle) {
  for (const Geometry g : kOracleGeometries) {
    RunLruOracle<SetAssociativeCache>(g.sets, g.ways,
                                      1000 + g.sets * 31 + g.ways, 20000);
  }
}

TEST(LlcCacheTest, MatchesNaiveLruOracle) {
  for (const Geometry g : kOracleGeometries) {
    RunLruOracle<LlcCache>(g.sets, g.ways, 2000 + g.sets * 31 + g.ways,
                           20000);
  }
}

TEST(SetAssociativeCacheTest, FirstInvalidWayWinsTies) {
  // Two ways of a set are still empty: both are rank-empty, and the fills
  // must take them in way order before evicting anything.
  SetAssociativeCache c(1, 6);
  for (uint64_t k = 0; k < 4; ++k) c.Insert(k, false);
  const CacheProbe p = c.Probe(10, false);
  ASSERT_FALSE(p.hit);
  EXPECT_EQ(p.way, 4u);
  EXPECT_FALSE(c.FillMiss(p, 10, false).evicted);
  EXPECT_FALSE(c.InsertAbsent(11, false).evicted);
  EXPECT_EQ(c.way_state(0, 5).key, 11u);
  EXPECT_EQ(c.InsertAbsent(12, false).evicted_key, 0u);  // then true LRU
}

// --- tag round trip ----------------------------------------------------------
// A way stores only key / num_sets + 1; way_state decodes it back with the
// set. Keys from the placed address ranges of the first and a high core
// index, on both presets, must come back exactly — in the 32-bit L3 too.

template <typename Cache>
void ExpectRoundTrip(uint64_t num_sets, uint32_t ways, uint64_t lo,
                     uint64_t hi, const char* level) {
  SCOPED_TRACE(testing::Message() << level << " keys [" << lo << ", " << hi
                                  << ")");
  Cache c(num_sets, ways);
  Rng rng(lo ^ num_sets);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = i == 0   ? lo
                         : i == 1 ? hi - 1
                                  : lo + rng.Next() % (hi - lo);
    if (!c.Contains(key)) c.InsertAbsent(key, false);
    const CacheProbe p = c.Probe(key, false);
    ASSERT_TRUE(p.hit) << key;
    ASSERT_EQ(c.way_state(p.set, p.way).key, key);
  }
}

TEST(CacheTagTest, PlacedKeysRoundTrip) {
  for (const MachineConfig& m :
       {MachineConfig::Broadwell(), MachineConfig::Skylake()}) {
    SCOPED_TRACE(m.name);
    for (const uint32_t core : {0u, 27u}) {
      const Placement place(core);
      const uint64_t line_lo = place.begin() >> 6, line_hi = place.end() >> 6;
      const uint64_t page_lo = place.begin() >> 12, page_hi = place.end() >> 12;
      ExpectRoundTrip<SetAssociativeCache>(m.l1d.num_sets(),
                                           m.l1d.associativity, line_lo,
                                           line_hi, "l1d");
      ExpectRoundTrip<SetAssociativeCache>(m.l2.num_sets(), m.l2.associativity,
                                           line_lo, line_hi, "l2");
      ExpectRoundTrip<LlcCache>(m.l3.num_sets(), m.l3.associativity, line_lo,
                                line_hi, "l3");
      ExpectRoundTrip<SetAssociativeCache>(m.dtlb_entries / m.dtlb_ways,
                                           m.dtlb_ways, page_lo, page_hi,
                                           "dtlb");
      ExpectRoundTrip<SetAssociativeCache>(m.stlb_entries / m.stlb_ways,
                                           m.stlb_ways, page_lo, page_hi,
                                           "stlb");
    }
  }
}

TEST(CacheTagTest, LlcLargestTagRoundTrips) {
  // Quotient 2^32 - 2 is the largest a 32-bit tag (quotient + 1) holds.
  const uint64_t sets = 28672;
  ExpectRoundTrip<LlcCache>(sets, 20, (uint64_t{0xFFFFFFFE}) * sets,
                            (uint64_t{0xFFFFFFFF}) * sets, "l3 top");
}

TEST(CacheTagDeathTest, LlcQuotientBeyondTagAborts) {
  // Quotient 2^32 - 1 would wrap the tag to 0 (the empty way); the lookup
  // must abort rather than alias.
  const uint64_t sets = 28672;
  const uint64_t key = uint64_t{0xFFFFFFFF} * sets + 5;
  EXPECT_DEATH(
      {
        LlcCache c(sets, 20);
        c.Access(key, false);
      },
      "tag range");
  EXPECT_DEATH(
      {
        LlcCache c(sets, 20);
        c.InsertAbsent(key << 1, false);
      },
      "tag range");
}

}  // namespace
}  // namespace uolap::core
