// Unit tests of the per-core simulated address space (core/placement.h).

#include "core/placement.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/machine.h"

namespace uolap::core {
namespace {

TEST(PlacementTest, AddressesAreLineAligned) {
  Placement p(0);
  for (uint64_t bytes : {1u, 7u, 64u, 65u, 100u, 4096u, 0u}) {
    EXPECT_EQ(p.Fresh(bytes) % Placement::kAlign, 0u) << bytes;
  }
  std::vector<int32_t> column(1000);
  EXPECT_EQ(p.Resident(column) % Placement::kAlign, 0u);
}

TEST(PlacementTest, CoreRangesAreDisjoint) {
  Placement a(0), b(1), c(7);
  EXPECT_LE(a.end(), b.begin());
  EXPECT_LE(b.end(), c.begin());
  const uint64_t x = a.Fresh(1 << 20);
  const uint64_t y = b.Fresh(1 << 20);
  EXPECT_GE(x, a.begin());
  EXPECT_LT(x + (1 << 20), a.end());
  EXPECT_GE(y, b.begin());
  EXPECT_LT(y + (1 << 20), b.end());
}

TEST(PlacementTest, MachineGivesEachCoreItsIndex) {
  Machine m(MachineConfig::Broadwell(), 3);
  EXPECT_LT(m.core(0).placement().Fresh(64),
            m.core(1).placement().begin());
  EXPECT_GE(m.core(2).placement().Fresh(64), m.core(2).placement().begin());
  EXPECT_GT(m.core(2).placement().begin(), m.core(1).placement().begin());
}

TEST(PlacementTest, ResidentLookupReturnsTheSameBase) {
  Placement p(0);
  std::vector<int64_t> column(5000), other(10);
  const uint64_t base = p.Resident(column);
  p.Fresh(128);
  p.Resident(other);
  EXPECT_EQ(p.Resident(column), base);
  EXPECT_NE(p.Resident(other), base);
}

TEST(PlacementTest, FreshScratchNeverReusesARange) {
  Placement p(0);
  uint64_t end = p.begin();
  for (int i = 0; i < 100; ++i) {
    const uint64_t bytes = 8 * static_cast<uint64_t>(i + 1);
    const uint64_t at = p.Fresh(bytes);
    EXPECT_GE(at, end);
    end = at + bytes;
  }
}

TEST(PlacementTest, PlacementOrderAloneDecidesAddresses) {
  // Two placements fed the same sequence hand out the same addresses,
  // whatever the host pointers of the resident data are.
  std::vector<int64_t> x1(300), x2(300);
  Placement a(2), b(2);
  EXPECT_EQ(a.Fresh(1000), b.Fresh(1000));
  EXPECT_EQ(a.Resident(x1), b.Resident(x2));
  EXPECT_EQ(a.Fresh(8), b.Fresh(8));
}

}  // namespace
}  // namespace uolap::core
