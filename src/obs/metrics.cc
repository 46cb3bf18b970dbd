#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "obs/json_writer.h"

namespace uolap::obs {

std::string MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

bool IsValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  bool segment_start = true;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (segment_start) {
      // Every dot-separated segment starts with a lower-case letter —
      // except that digits are allowed after the first segment.
      const bool ok = (c >= 'a' && c <= 'z') ||
                      (i > 0 && ((c >= '0' && c <= '9') || c == '_'));
      if (!ok) return false;
      segment_start = false;
      continue;
    }
    if (c == '.') {
      segment_start = true;
      continue;
    }
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return !segment_start;  // no trailing dot
}

size_t Log2Bucket(double value) {
  size_t bucket = 0;
  double edge = 1.0;
  while (value >= edge && bucket < 63) {
    edge *= 2.0;
    ++bucket;
  }
  return bucket;
}

void HistogramCell::Observe(double value) {
  const size_t bucket = Log2Bucket(value);
  if (buckets.size() <= bucket) buckets.resize(bucket + 1, 0);
  ++buckets[bucket];
  ++count;
  if (value > 0) {
    sum_micro += static_cast<uint64_t>(std::llround(value * 1e6));
  }
}

const MetricFamily* MetricsSnapshot::Find(std::string_view name) const {
  for (const MetricFamily& f : families) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

namespace {

/// Metric name in Prometheus form: dots become underscores.
std::string PromName(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == '.') c = '_';
  }
  return out;
}

/// `{key="value"}` with minimal escaping, empty for unlabelled series.
/// `extra` appends a second label (used for histogram `le`).
std::string PromLabels(const MetricSeries& s, const std::string& extra = {}) {
  if (s.label_key.empty() && extra.empty()) return "";
  std::string out = "{";
  if (!s.label_key.empty()) {
    out += s.label_key + "=\"";
    for (const char c : s.label_value) {
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += "\"";
    if (!extra.empty()) out += ",";
  }
  out += extra;
  out += "}";
  return out;
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricFamily& f : snapshot.families) {
    const std::string name = PromName(f.name);
    out += "# TYPE " + name + " " + MetricKindName(f.kind) + "\n";
    for (const MetricSeries& s : f.series) {
      switch (f.kind) {
        case MetricKind::kCounter:
          out += name + PromLabels(s) + " " + std::to_string(s.counter) + "\n";
          break;
        case MetricKind::kGauge:
          out += name + PromLabels(s) + " " +
                 JsonWriter::FormatDouble(s.gauge) + "\n";
          break;
        case MetricKind::kHistogram: {
          uint64_t cumulative = 0;
          double edge = 1.0;
          for (size_t i = 0; i < s.histogram.buckets.size(); ++i) {
            cumulative += s.histogram.buckets[i];
            out += name + "_bucket" +
                   PromLabels(s, "le=\"" + JsonWriter::FormatDouble(edge) +
                                     "\"") +
                   " " + std::to_string(cumulative) + "\n";
            edge *= 2.0;
          }
          out += name + "_bucket" + PromLabels(s, "le=\"+Inf\"") + " " +
                 std::to_string(s.histogram.count) + "\n";
          out += name + "_sum" + PromLabels(s) + " " +
                 JsonWriter::FormatDouble(s.histogram.Sum()) + "\n";
          out += name + "_count" + PromLabels(s) + " " +
                 std::to_string(s.histogram.count) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

MetricSeries& MetricsRegistry::SeriesLocked(std::string_view name,
                                            MetricKind kind,
                                            std::string_view label_key,
                                            std::string_view label_value) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    UOLAP_CHECK_MSG(IsValidMetricName(name),
                    "metric name violates the naming grammar");
    it = families_.emplace(std::string(name), Family{}).first;
    it->second.kind = kind;
  }
  UOLAP_CHECK_MSG(it->second.kind == kind,
                  "metric name re-used with a different kind");
  const std::pair<std::string, std::string> key{std::string(label_key),
                                                std::string(label_value)};
  auto sit = it->second.series.find(key);
  if (sit == it->second.series.end()) {
    MetricSeries fresh;
    fresh.label_key = key.first;
    fresh.label_value = key.second;
    sit = it->second.series.emplace(key, std::move(fresh)).first;
  }
  return sit->second;
}

void MetricsRegistry::Count(std::string_view name, std::string_view label_key,
                            std::string_view label_value, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  SeriesLocked(name, MetricKind::kCounter, label_key, label_value).counter +=
      delta;
}

void MetricsRegistry::SetGauge(std::string_view name,
                               std::string_view label_key,
                               std::string_view label_value, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  SeriesLocked(name, MetricKind::kGauge, label_key, label_value).gauge = value;
}

void MetricsRegistry::MaxGauge(std::string_view name,
                               std::string_view label_key,
                               std::string_view label_value, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  MetricSeries& s = SeriesLocked(name, MetricKind::kGauge, label_key,
                                 label_value);
  s.gauge = std::max(s.gauge, value);
}

void MetricsRegistry::Observe(std::string_view name,
                              std::string_view label_key,
                              std::string_view label_value, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  SeriesLocked(name, MetricKind::kHistogram, label_key, label_value)
      .histogram.Observe(value);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  out.families.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    MetricFamily f;
    f.name = name;
    f.kind = family.kind;
    f.series.reserve(family.series.size());
    for (const auto& [key, series] : family.series) f.series.push_back(series);
    out.families.push_back(std::move(f));
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

}  // namespace uolap::obs
