#include "tpch/dbgen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.h"

namespace uolap::tpch {

namespace {

// dbgen's colour word list used for p_name (5 words per part). '%green%'
// therefore matches ~5 in 92 names, Q9's real selectivity.
constexpr const char* kColours[] = {
    "almond",     "antique",    "aquamarine", "azure",     "beige",
    "bisque",     "black",      "blanched",   "blue",      "blush",
    "brown",      "burlywood",  "burnished",  "chartreuse","chiffon",
    "chocolate",  "coral",      "cornflower", "cornsilk",  "cream",
    "cyan",       "dark",       "deep",       "dim",       "dodger",
    "drab",       "firebrick",  "floral",     "forest",    "frosted",
    "gainsboro",  "ghost",      "goldenrod",  "green",     "grey",
    "honeydew",   "hot",        "indian",     "ivory",     "khaki",
    "lace",       "lavender",   "lawn",       "lemon",     "light",
    "lime",       "linen",      "magenta",    "maroon",    "medium",
    "metallic",   "midnight",   "mint",       "misty",     "moccasin",
    "navajo",     "navy",       "olive",      "orange",    "orchid",
    "pale",       "papaya",     "peach",      "peru",      "pink",
    "plum",       "powder",     "puff",       "purple",    "red",
    "rose",       "rosy",       "royal",      "saddle",    "salmon",
    "sandy",      "seashell",   "sienna",     "sky",       "slate",
    "smoke",      "snow",       "spring",     "steel",     "tan",
    "thistle",    "tomato",     "turquoise",  "violet",    "wheat",
    "white",      "yellow"};
constexpr int kNumColours = static_cast<int>(std::size(kColours));
/// Longest p_name: five words of the longest colour ("aquamarine") plus
/// four separators.
constexpr size_t kPartNameBytes = 5 * 10 + 4;
/// dbgen draws 1..7 lineitems per order.
constexpr int kMaxLinesPerOrder = 7;

// The 25 TPC-H nations with their region keys.
struct NationSpec {
  const char* name;
  int region;
};
constexpr NationSpec kNations[] = {
    {"ALGERIA", 0},   {"ARGENTINA", 1}, {"BRAZIL", 1},    {"CANADA", 1},
    {"EGYPT", 4},     {"ETHIOPIA", 0},  {"FRANCE", 3},    {"GERMANY", 3},
    {"INDIA", 2},     {"INDONESIA", 2}, {"IRAN", 4},      {"IRAQ", 4},
    {"JAPAN", 2},     {"JORDAN", 4},    {"KENYA", 0},     {"MOROCCO", 0},
    {"MOZAMBIQUE", 0},{"PERU", 1},      {"CHINA", 2},     {"ROMANIA", 3},
    {"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},   {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1}};
constexpr const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                    "MIDDLE EAST"};

// dbgen: p_retailprice in cents.
Money RetailPriceCents(int64_t partkey) {
  return 90000 + (partkey / 10) % 20001 + 100 * (partkey % 1000);
}

// dbgen's partsupp supplier assignment: the j-th (0..3) supplier of a part.
int64_t PartSupplier(int64_t partkey, int j, int64_t num_suppliers) {
  const int64_t s = num_suppliers;
  return (partkey + j * (s / 4 + (partkey - 1) / s)) % s + 1;
}

}  // namespace

Cardinalities CardinalitiesFor(double sf) {
  auto scaled = [sf](double base) {
    return static_cast<size_t>(std::max(1.0, std::llround(base * sf) * 1.0));
  };
  Cardinalities c;
  c.orders = scaled(1500000);
  c.customer = scaled(150000);
  c.part = scaled(200000);
  c.supplier = scaled(10000);
  c.partsupp = c.part * 4;
  return c;
}

StatusOr<Database> DbGen::Generate(double scale_factor) const {
  if (!(scale_factor > 0) || scale_factor > 100) {
    return Status::InvalidArgument("scale factor must be in (0, 100]");
  }
  const Cardinalities card = CardinalitiesFor(scale_factor);
  Rng rng(seed_);

  Database db;
  db.scale_factor = scale_factor;
  db.seed = seed_;

  // --- region & nation ---
  for (int r = 0; r < 5; ++r) {
    db.region.regionkey.push_back(r);
    db.region.name.Add(kRegions[r]);
  }
  for (int n = 0; n < 25; ++n) {
    db.nation.nationkey.push_back(n);
    db.nation.regionkey.push_back(kNations[n].region);
    db.nation.name.Add(kNations[n].name);
  }

  // Every column is reserved at its final size up front (lineitem at the
  // most lines an order can have): a column that grows by doubling copies
  // itself and keeps both buffers resident while it does.
  constexpr size_t kNameBytes = 18;  // "Supplier#%09zu", "Customer#%09zu"

  // --- supplier ---
  char buf[32];
  db.supplier.suppkey.reserve(card.supplier);
  db.supplier.nationkey.reserve(card.supplier);
  db.supplier.acctbal.reserve(card.supplier);
  db.supplier.name.Reserve(card.supplier, card.supplier * kNameBytes);
  for (size_t i = 1; i <= card.supplier; ++i) {
    db.supplier.suppkey.push_back(static_cast<int64_t>(i));
    db.supplier.nationkey.push_back(rng.Uniform(0, 24));
    db.supplier.acctbal.push_back(rng.Uniform(-99999, 999999));
    std::snprintf(buf, sizeof(buf), "Supplier#%09zu", i);
    db.supplier.name.Add(buf);
  }

  // --- customer ---
  db.customer.custkey.reserve(card.customer);
  db.customer.nationkey.reserve(card.customer);
  db.customer.name.Reserve(card.customer, card.customer * kNameBytes);
  for (size_t i = 1; i <= card.customer; ++i) {
    db.customer.custkey.push_back(static_cast<int64_t>(i));
    db.customer.nationkey.push_back(rng.Uniform(0, 24));
    std::snprintf(buf, sizeof(buf), "Customer#%09zu", i);
    db.customer.name.Add(buf);
  }

  // --- part ---
  db.part.partkey.reserve(card.part);
  db.part.retailprice.reserve(card.part);
  db.part.name.Reserve(card.part, card.part * kPartNameBytes);
  std::string name;
  for (size_t i = 1; i <= card.part; ++i) {
    db.part.partkey.push_back(static_cast<int64_t>(i));
    db.part.retailprice.push_back(RetailPriceCents(static_cast<int64_t>(i)));
    name.clear();
    for (int w = 0; w < 5; ++w) {
      if (w > 0) name += ' ';
      name += kColours[rng.Uniform(0, kNumColours - 1)];
    }
    db.part.name.Add(name);
  }

  // --- partsupp ---
  db.partsupp.partkey.reserve(card.partsupp);
  db.partsupp.suppkey.reserve(card.partsupp);
  db.partsupp.availqty.reserve(card.partsupp);
  db.partsupp.supplycost.reserve(card.partsupp);
  for (size_t p = 1; p <= card.part; ++p) {
    for (int j = 0; j < 4; ++j) {
      db.partsupp.partkey.push_back(static_cast<int64_t>(p));
      db.partsupp.suppkey.push_back(PartSupplier(
          static_cast<int64_t>(p), j,
          static_cast<int64_t>(card.supplier)));
      db.partsupp.availqty.push_back(rng.Uniform(1, 9999));
      db.partsupp.supplycost.push_back(rng.Uniform(100, 100000));
    }
  }

  // --- orders + lineitem ---
  const Date current = MakeDate(1995, 6, 17);  // dbgen's CURRENTDATE
  const Date max_order = MaxOrderDate() - 151;
  db.orders.orderkey.reserve(card.orders);
  db.orders.custkey.reserve(card.orders);
  db.orders.orderdate.reserve(card.orders);
  db.orders.totalprice.reserve(card.orders);
  const size_t max_lines = card.orders * kMaxLinesPerOrder;
  LineitemTable& li = db.lineitem;
  li.orderkey.reserve(max_lines);
  li.partkey.reserve(max_lines);
  li.suppkey.reserve(max_lines);
  li.quantity.reserve(max_lines);
  li.extendedprice.reserve(max_lines);
  li.discount.reserve(max_lines);
  li.tax.reserve(max_lines);
  li.returnflag.reserve(max_lines);
  li.linestatus.reserve(max_lines);
  li.shipdate.reserve(max_lines);
  li.commitdate.reserve(max_lines);
  li.receiptdate.reserve(max_lines);
  for (size_t o = 1; o <= card.orders; ++o) {
    const Date orderdate = static_cast<Date>(rng.Uniform(0, max_order));
    const int nlines = static_cast<int>(rng.Uniform(1, kMaxLinesPerOrder));
    Money totalprice = 0;
    for (int l = 0; l < nlines; ++l) {
      const int64_t partkey =
          rng.Uniform(1, static_cast<int64_t>(card.part));
      const int64_t suppkey =
          PartSupplier(partkey, static_cast<int>(rng.Uniform(0, 3)),
                       static_cast<int64_t>(card.supplier));
      const int64_t quantity = rng.Uniform(1, 50);
      const Money extendedprice = quantity * RetailPriceCents(partkey);
      const int64_t discount = rng.Uniform(0, 10);
      const int64_t tax = rng.Uniform(0, 8);
      const Date shipdate = orderdate + static_cast<Date>(rng.Uniform(1, 121));
      const Date commitdate =
          orderdate + static_cast<Date>(rng.Uniform(30, 90));
      const Date receiptdate =
          shipdate + static_cast<Date>(rng.Uniform(1, 30));
      const int8_t returnflag =
          receiptdate <= current ? (rng.Bernoulli(0.5) ? 'R' : 'A') : 'N';
      const int8_t linestatus = shipdate > current ? 'O' : 'F';

      db.lineitem.orderkey.push_back(static_cast<int64_t>(o));
      db.lineitem.partkey.push_back(partkey);
      db.lineitem.suppkey.push_back(suppkey);
      db.lineitem.quantity.push_back(quantity);
      db.lineitem.extendedprice.push_back(extendedprice);
      db.lineitem.discount.push_back(discount);
      db.lineitem.tax.push_back(tax);
      db.lineitem.returnflag.push_back(returnflag);
      db.lineitem.linestatus.push_back(linestatus);
      db.lineitem.shipdate.push_back(shipdate);
      db.lineitem.commitdate.push_back(commitdate);
      db.lineitem.receiptdate.push_back(receiptdate);
      totalprice += ChargedPrice(extendedprice, discount, tax);
    }
    db.orders.orderkey.push_back(static_cast<int64_t>(o));
    db.orders.custkey.push_back(
        rng.Uniform(1, static_cast<int64_t>(card.customer)));
    db.orders.orderdate.push_back(orderdate);
    db.orders.totalprice.push_back(totalprice);
  }

  return db;
}

Status CheckIntegrity(const Database& db) {
  const auto& l = db.lineitem;
  const size_t n = l.size();
  auto fail = [](const char* what) {
    return Status::Internal(std::string("integrity violation: ") + what);
  };
  if (l.partkey.size() != n || l.suppkey.size() != n ||
      l.quantity.size() != n || l.extendedprice.size() != n ||
      l.discount.size() != n || l.tax.size() != n ||
      l.returnflag.size() != n || l.linestatus.size() != n ||
      l.shipdate.size() != n || l.commitdate.size() != n ||
      l.receiptdate.size() != n) {
    return fail("lineitem column lengths differ");
  }
  const int64_t num_orders = static_cast<int64_t>(db.orders.size());
  const int64_t num_parts = static_cast<int64_t>(db.part.size());
  const int64_t num_supp = static_cast<int64_t>(db.supplier.size());
  const int64_t num_cust = static_cast<int64_t>(db.customer.size());
  for (size_t i = 0; i < n; ++i) {
    if (l.orderkey[i] < 1 || l.orderkey[i] > num_orders) {
      return fail("l_orderkey out of range");
    }
    if (l.partkey[i] < 1 || l.partkey[i] > num_parts) {
      return fail("l_partkey out of range");
    }
    if (l.suppkey[i] < 1 || l.suppkey[i] > num_supp) {
      return fail("l_suppkey out of range");
    }
    if (l.quantity[i] < 1 || l.quantity[i] > 50) {
      return fail("l_quantity out of domain");
    }
    if (l.discount[i] < 0 || l.discount[i] > 10) {
      return fail("l_discount out of domain");
    }
    if (l.tax[i] < 0 || l.tax[i] > 8) return fail("l_tax out of domain");
    if (!(l.shipdate[i] < l.receiptdate[i])) {
      return fail("receiptdate must follow shipdate");
    }
    if (l.returnflag[i] != 'A' && l.returnflag[i] != 'N' &&
        l.returnflag[i] != 'R') {
      return fail("bad returnflag");
    }
    if (l.linestatus[i] != 'O' && l.linestatus[i] != 'F') {
      return fail("bad linestatus");
    }
  }
  for (size_t i = 0; i < db.orders.size(); ++i) {
    if (db.orders.custkey[i] < 1 || db.orders.custkey[i] > num_cust) {
      return fail("o_custkey out of range");
    }
    if (db.orders.orderdate[i] < 0 ||
        db.orders.orderdate[i] > MaxOrderDate()) {
      return fail("o_orderdate out of range");
    }
  }
  for (size_t i = 0; i < db.partsupp.size(); ++i) {
    if (db.partsupp.suppkey[i] < 1 || db.partsupp.suppkey[i] > num_supp) {
      return fail("ps_suppkey out of range");
    }
    if (db.partsupp.partkey[i] < 1 || db.partsupp.partkey[i] > num_parts) {
      return fail("ps_partkey out of range");
    }
  }
  for (size_t i = 0; i < db.supplier.size(); ++i) {
    if (db.supplier.nationkey[i] < 0 || db.supplier.nationkey[i] > 24) {
      return fail("s_nationkey out of range");
    }
  }
  return Status::OK();
}

}  // namespace uolap::tpch
