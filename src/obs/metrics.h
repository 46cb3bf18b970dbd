#ifndef UOLAP_OBS_METRICS_H_
#define UOLAP_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace uolap::obs {

/// Serving-telemetry metrics: deterministic counters, gauges, and log2
/// histograms with point-in-time snapshots (DESIGN.md §8).
///
/// Determinism rules:
///  - Counters and histogram buckets are integers.
///  - Histogram sums are kept in fixed-point micro-units (value × 1e6,
///    rounded to nearest): integer addition does not depend on the order
///    values arrive in, so observations published in one batch when a run
///    ends give the bytes per-event publication would, and the profile
///    JSON prints the sum as an exact integer.
///  - Snapshots list families sorted by name and series sorted by label,
///    so equal registries serialize to equal bytes.
///
/// Values fed into the registry must themselves be deterministic
/// (virtual-time quantities, simulated counts) — never host time.

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Stable lower-case kind name ("counter", "gauge", "histogram").
std::string MetricKindName(MetricKind kind);

/// True when `name` matches ^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$ — the
/// grammar the contract lint enforces on src/obs/metric_names.h.
bool IsValidMetricName(std::string_view name);

/// Log2 histogram cell: bucket 0 counts values < 1, bucket i counts
/// [2^(i-1), 2^i). Negative values clamp into bucket 0.
struct HistogramCell {
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  /// Sum of observed values in fixed-point micro-units (value × 1e6,
  /// llround).
  uint64_t sum_micro = 0;

  void Observe(double value);
  /// Sum in natural units.
  double Sum() const { return static_cast<double>(sum_micro) / 1e6; }

  friend bool operator==(const HistogramCell&, const HistogramCell&) =
      default;
};

/// Index of the log2 bucket `value` falls in.
size_t Log2Bucket(double value);

/// One series of a metric family: at most one label dimension plus the
/// kind's payload (only the field matching the family kind is meaningful).
struct MetricSeries {
  std::string label_key;
  std::string label_value;
  uint64_t counter = 0;
  double gauge = 0;
  HistogramCell histogram;

  friend bool operator==(const MetricSeries&, const MetricSeries&) = default;
};

/// All series of one metric name.
struct MetricFamily {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::vector<MetricSeries> series;  ///< sorted by (label_key, label_value)

  friend bool operator==(const MetricFamily&, const MetricFamily&) = default;
};

/// A point-in-time copy of a registry.
/// The profile JSON v4 "metrics" block and the Prometheus exposition both
/// serialize this type.
struct MetricsSnapshot {
  std::vector<MetricFamily> families;  ///< sorted by name

  bool empty() const { return families.empty(); }
  const MetricFamily* Find(std::string_view name) const;

  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) =
      default;
};

/// Prometheus text exposition (metric dots become underscores, histogram
/// series expand to _bucket{le=...}/_sum/_count). Byte-deterministic for
/// equal snapshots.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// Thread-safe metric sink. Names must come from obs/metric_names.h (the
/// contract lint flags raw literals at call sites) and must satisfy
/// IsValidMetricName; a name re-used with a different kind CHECK-fails.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to a counter (optionally one labelled series of it).
  void Count(std::string_view name, uint64_t delta = 1) {
    Count(name, {}, {}, delta);
  }
  void Count(std::string_view name, std::string_view label_key,
             std::string_view label_value, uint64_t delta = 1);

  /// Sets a gauge to `value` / raises it to at least `value`.
  void SetGauge(std::string_view name, double value) {
    SetGauge(name, {}, {}, value);
  }
  void SetGauge(std::string_view name, std::string_view label_key,
                std::string_view label_value, double value);
  void MaxGauge(std::string_view name, double value) {
    MaxGauge(name, {}, {}, value);
  }
  void MaxGauge(std::string_view name, std::string_view label_key,
                std::string_view label_value, double value);

  /// Records `value` into a log2 histogram.
  void Observe(std::string_view name, double value) {
    Observe(name, {}, {}, value);
  }
  void Observe(std::string_view name, std::string_view label_key,
               std::string_view label_value, double value);

  /// Deterministically ordered copy of the current state.
  MetricsSnapshot Snapshot() const;

  /// The process-wide registry the engine dispatch path, the serving
  /// runtime (by default), and the bench harness publish into; the
  /// harness snapshots it into the profile JSON v4 "metrics" block.
  static MetricsRegistry& Global();

 private:
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::map<std::pair<std::string, std::string>, MetricSeries> series;
  };

  MetricSeries& SeriesLocked(std::string_view name, MetricKind kind,
                             std::string_view label_key,
                             std::string_view label_value);

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;
};

}  // namespace uolap::obs

#endif  // UOLAP_OBS_METRICS_H_
