#include "tpch/dbgen.h"

#include <set>

#include <gtest/gtest.h>

#include "tpch/types.h"

namespace uolap::tpch {
namespace {

Database Gen(double sf, uint64_t seed = 42) {
  DbGen gen(seed);
  auto db = gen.Generate(sf);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

TEST(DbGenTest, CardinalitiesScale) {
  Database db = Gen(0.01);
  EXPECT_EQ(db.orders.size(), 15000u);
  EXPECT_EQ(db.customer.size(), 1500u);
  EXPECT_EQ(db.part.size(), 2000u);
  EXPECT_EQ(db.supplier.size(), 100u);
  EXPECT_EQ(db.partsupp.size(), 8000u);
  EXPECT_EQ(db.nation.size(), 25u);
  EXPECT_EQ(db.region.size(), 5u);
  // 1..7 lineitems per order, ~4 on average.
  EXPECT_GT(db.lineitem.size(), 15000u * 2);
  EXPECT_LT(db.lineitem.size(), 15000u * 7);
}

TEST(DbGenTest, DeterministicForSeed) {
  Database a = Gen(0.005, 7);
  Database b = Gen(0.005, 7);
  ASSERT_EQ(a.lineitem.size(), b.lineitem.size());
  EXPECT_EQ(a.lineitem.extendedprice, b.lineitem.extendedprice);
  EXPECT_EQ(a.lineitem.shipdate, b.lineitem.shipdate);
  EXPECT_EQ(a.orders.totalprice, b.orders.totalprice);
}

TEST(DbGenTest, DifferentSeedsDiffer) {
  Database a = Gen(0.005, 1);
  Database b = Gen(0.005, 2);
  EXPECT_NE(a.lineitem.extendedprice, b.lineitem.extendedprice);
}

TEST(DbGenTest, IntegrityHolds) {
  Database db = Gen(0.02);
  EXPECT_TRUE(CheckIntegrity(db).ok());
}

TEST(DbGenTest, RejectsBadScaleFactor) {
  DbGen gen;
  EXPECT_FALSE(gen.Generate(0).ok());
  EXPECT_FALSE(gen.Generate(-1).ok());
  EXPECT_FALSE(gen.Generate(1000).ok());
}

TEST(DbGenTest, GreenPartsSelectivityNearFivePercent) {
  Database db = Gen(0.05);
  size_t green = 0;
  for (size_t i = 0; i < db.part.size(); ++i) {
    if (db.part.name.Get(i).find("green") != std::string_view::npos) {
      ++green;
    }
  }
  const double frac =
      static_cast<double>(green) / static_cast<double>(db.part.size());
  // 5 words from 92 colours: P(contains green) ~ 5.3%.
  EXPECT_GT(frac, 0.02);
  EXPECT_LT(frac, 0.10);
}

TEST(DbGenTest, Q6SelectivityNearTwoPercent) {
  Database db = Gen(0.02);
  const Date lo = MakeDate(1994, 1, 1), hi = MakeDate(1995, 1, 1);
  size_t pass = 0;
  const auto& l = db.lineitem;
  for (size_t i = 0; i < l.size(); ++i) {
    if (l.shipdate[i] >= lo && l.shipdate[i] < hi && l.discount[i] >= 5 &&
        l.discount[i] <= 7 && l.quantity[i] < 24) {
      ++pass;
    }
  }
  const double frac =
      static_cast<double>(pass) / static_cast<double>(l.size());
  EXPECT_GT(frac, 0.008);
  EXPECT_LT(frac, 0.035);
}

TEST(DbGenTest, Q1GroupsAreTheExpectedFour) {
  Database db = Gen(0.01);
  std::set<std::pair<char, char>> groups;
  const auto& l = db.lineitem;
  for (size_t i = 0; i < l.size(); ++i) {
    groups.insert({static_cast<char>(l.returnflag[i]),
                   static_cast<char>(l.linestatus[i])});
  }
  // A/F, N/F, N/O, R/F — dbgen's four Q1 groups.
  EXPECT_EQ(groups.size(), 4u);
  EXPECT_TRUE(groups.count({'A', 'F'}));
  EXPECT_TRUE(groups.count({'N', 'F'}));
  EXPECT_TRUE(groups.count({'N', 'O'}));
  EXPECT_TRUE(groups.count({'R', 'F'}));
}

TEST(DbGenTest, LineitemClusteredByOrderkey) {
  Database db = Gen(0.01);
  const auto& ok = db.lineitem.orderkey;
  for (size_t i = 1; i < ok.size(); ++i) {
    ASSERT_LE(ok[i - 1], ok[i]);
  }
}

TEST(DbGenTest, TotalpriceMatchesLineitems) {
  Database db = Gen(0.005);
  std::vector<Money> totals(db.orders.size() + 1, 0);
  const auto& l = db.lineitem;
  for (size_t i = 0; i < l.size(); ++i) {
    totals[static_cast<size_t>(l.orderkey[i])] +=
        ChargedPrice(l.extendedprice[i], l.discount[i], l.tax[i]);
  }
  for (size_t o = 0; o < db.orders.size(); ++o) {
    ASSERT_EQ(db.orders.totalprice[o], totals[o + 1]);
  }
}

TEST(DbGenTest, PartsuppSuppliersAreDistinctPerPart) {
  Database db = Gen(0.01);
  for (size_t p = 0; p < db.part.size(); ++p) {
    std::set<int64_t> supps;
    for (int j = 0; j < 4; ++j) {
      supps.insert(db.partsupp.suppkey[p * 4 + static_cast<size_t>(j)]);
    }
    ASSERT_GE(supps.size(), 2u);  // dbgen formula spreads suppliers
  }
}

TEST(TpchTypesTest, DateRoundTrip) {
  EXPECT_EQ(MakeDate(1992, 1, 1), 0);
  EXPECT_EQ(DateYear(MakeDate(1997, 12, 31)), 1997);
  EXPECT_EQ(DateYear(MakeDate(1992, 1, 1)), 1992);
  // Leap year 1996.
  EXPECT_EQ(MakeDate(1996, 3, 1) - MakeDate(1996, 2, 28), 2);
}

TEST(TpchTypesTest, MoneyHelpers) {
  EXPECT_EQ(DiscountedPrice(10000, 10), 9000);
  EXPECT_EQ(ChargedPrice(10000, 10, 8), 9720);
  EXPECT_EQ(DiscountedPrice(10000, 0), 10000);
}

}  // namespace
}  // namespace uolap::tpch
