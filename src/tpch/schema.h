#ifndef UOLAP_TPCH_SCHEMA_H_
#define UOLAP_TPCH_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "tpch/types.h"

namespace uolap::tpch {

/// Columnar variable-length string storage (offsets into one blob), the
/// layout every column store uses for text attributes.
class StringColumn {
 public:
  void Add(std::string_view s) {
    data_.append(s);
    offsets_.push_back(static_cast<uint32_t>(data_.size()));
  }
  size_t size() const { return offsets_.size(); }

  std::string_view Get(size_t i) const {
    UOLAP_DCHECK(i < offsets_.size());
    const uint32_t begin = i == 0 ? 0 : offsets_[i - 1];
    return std::string_view(data_).substr(begin, offsets_[i] - begin);
  }

  /// Address/offset/length of the i-th value, for driving simulated
  /// accesses: value i occupies [Offset(i), Offset(i) + Length(i)) of
  /// blob().
  const char* DataPtr(size_t i) const { return data_.data() + Offset(i); }
  uint32_t Offset(size_t i) const { return i == 0 ? 0 : offsets_[i - 1]; }
  uint32_t Length(size_t i) const { return offsets_[i] - Offset(i); }
  std::string_view blob() const { return data_; }

 private:
  std::vector<uint32_t> offsets_;
  std::string data_;
};

/// The TPC-H tables, columnar, restricted to the attributes the paper's
/// workloads touch. All integer-valued (see types.h for the fixed-point
/// conventions); keys are dense 1..N (a documented simplification of
/// dbgen's sparse orderkeys).
struct LineitemTable {
  std::vector<int64_t> orderkey;
  std::vector<int64_t> partkey;
  std::vector<int64_t> suppkey;
  std::vector<int64_t> quantity;       // 1..50
  std::vector<Money> extendedprice;    // cents
  std::vector<int64_t> discount;       // percent points 0..10
  std::vector<int64_t> tax;            // percent points 0..8
  std::vector<int8_t> returnflag;      // 'A' | 'N' | 'R'
  std::vector<int8_t> linestatus;      // 'O' | 'F'
  std::vector<Date> shipdate;
  std::vector<Date> commitdate;
  std::vector<Date> receiptdate;
  size_t size() const { return orderkey.size(); }
};

struct OrdersTable {
  std::vector<int64_t> orderkey;  // dense 1..N
  std::vector<int64_t> custkey;
  std::vector<Date> orderdate;
  std::vector<Money> totalprice;
  size_t size() const { return orderkey.size(); }
};

struct CustomerTable {
  std::vector<int64_t> custkey;  // dense 1..N
  std::vector<int64_t> nationkey;
  StringColumn name;
  size_t size() const { return custkey.size(); }
};

struct PartTable {
  std::vector<int64_t> partkey;  // dense 1..N
  StringColumn name;             // five words; Q9 filters '%green%'
  std::vector<Money> retailprice;
  size_t size() const { return partkey.size(); }
};

struct PartsuppTable {
  std::vector<int64_t> partkey;
  std::vector<int64_t> suppkey;
  std::vector<int64_t> availqty;
  std::vector<Money> supplycost;
  size_t size() const { return partkey.size(); }
};

struct SupplierTable {
  std::vector<int64_t> suppkey;  // dense 1..N
  std::vector<int64_t> nationkey;
  std::vector<Money> acctbal;
  StringColumn name;
  size_t size() const { return suppkey.size(); }
};

struct NationTable {
  std::vector<int64_t> nationkey;  // dense 0..24
  std::vector<int64_t> regionkey;
  StringColumn name;
  size_t size() const { return nationkey.size(); }
};

struct RegionTable {
  std::vector<int64_t> regionkey;  // dense 0..4
  StringColumn name;
  size_t size() const { return regionkey.size(); }
};

/// One generated TPC-H instance.
struct Database {
  double scale_factor = 0;
  uint64_t seed = 0;
  LineitemTable lineitem;
  OrdersTable orders;
  CustomerTable customer;
  PartTable part;
  PartsuppTable partsupp;
  SupplierTable supplier;
  NationTable nation;
  RegionTable region;
};

/// Cardinalities at scale factor 1 (dbgen's).
struct Cardinalities {
  size_t orders;
  size_t customer;
  size_t part;
  size_t supplier;
  size_t partsupp;  // 4 entries per part
};
Cardinalities CardinalitiesFor(double scale_factor);

}  // namespace uolap::tpch

#endif  // UOLAP_TPCH_SCHEMA_H_
