#ifndef UOLAP_TPCH_TYPES_H_
#define UOLAP_TPCH_TYPES_H_

#include <cstdint>

namespace uolap::tpch {

/// Dates are stored as days since 1992-01-01 (the first TPC-H order date);
/// money as int64 cents; rates (discount/tax) as integer percent points.
/// Fixed-point integers keep every engine's arithmetic bit-identical, which
/// the differential tests rely on.
using Date = int32_t;
using Money = int64_t;

/// Days-since-epoch for a Gregorian date. Valid for 1992..2000, the TPC-H
/// window.
Date MakeDate(int year, int month, int day);

/// Year of a date (Q9 groups by year(o_orderdate)).
int DateYear(Date d);

// The TPC-H order-date window: 1992-01-01 .. 1998-08-02.
inline const Date kMinOrderDate = 0;
Date MaxOrderDate();

/// SQL semantics helpers shared by all engines so results are identical.
/// discount/tax are percent points (0..10 / 0..8).
inline Money DiscountedPrice(Money extendedprice, int64_t discount_pct) {
  return extendedprice * (100 - discount_pct) / 100;
}
inline Money ChargedPrice(Money extendedprice, int64_t discount_pct,
                          int64_t tax_pct) {
  return DiscountedPrice(extendedprice, discount_pct) * (100 + tax_pct) / 100;
}

}  // namespace uolap::tpch

#endif  // UOLAP_TPCH_TYPES_H_
