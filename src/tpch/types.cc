#include "tpch/types.h"

#include <array>

#include "common/macros.h"

namespace uolap::tpch {

namespace {

constexpr int kEpochYear = 1992;

bool IsLeap(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

int DaysInMonth(int y, int m) {
  static constexpr std::array<int, 12> kDays = {31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (m == 2 && IsLeap(y)) return 29;
  return kDays[static_cast<size_t>(m - 1)];
}

}  // namespace

Date MakeDate(int year, int month, int day) {
  UOLAP_CHECK(year >= kEpochYear && year <= 2000);
  UOLAP_CHECK(month >= 1 && month <= 12);
  UOLAP_CHECK(day >= 1 && day <= DaysInMonth(year, month));
  int days = 0;
  for (int y = kEpochYear; y < year; ++y) days += IsLeap(y) ? 366 : 365;
  for (int m = 1; m < month; ++m) days += DaysInMonth(year, m);
  return days + (day - 1);
}

int DateYear(Date d) {
  int year = kEpochYear;
  while (true) {
    const int ydays = IsLeap(year) ? 366 : 365;
    if (d < ydays) return year;
    d -= ydays;
    ++year;
  }
}

Date MaxOrderDate() {
  static const Date kMax = MakeDate(1998, 8, 2);
  return kMax;
}

}  // namespace uolap::tpch
