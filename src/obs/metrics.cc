#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "utils/json.h"

namespace isrec::obs {
namespace internal {

std::atomic<bool> g_metrics_enabled{false};

int ThreadShard() {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

}  // namespace internal

namespace {

// Reads ISREC_METRICS once at static-init time. Lives in this TU so any
// call site that checks MetricsEnabled() (whose inline body references
// g_metrics_enabled above) pulls the initializer in.
struct MetricsEnvInit {
  MetricsEnvInit() {
    const char* env = std::getenv("ISREC_METRICS");
    if (env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) {
      EnableMetrics(true);
    }
  }
} g_metrics_env_init;

// Bit-twiddled atomic double accumulator (per histogram shard).
void AtomicAddDouble(std::atomic<uint64_t>& cell, double delta) {
  uint64_t observed = cell.load(std::memory_order_relaxed);
  for (;;) {
    double value;
    static_assert(sizeof(value) == sizeof(observed));
    __builtin_memcpy(&value, &observed, sizeof(value));
    value += delta;
    uint64_t desired;
    __builtin_memcpy(&desired, &value, sizeof(desired));
    if (cell.compare_exchange_weak(observed, desired,
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

double BitsToDouble(uint64_t bits) {
  double value;
  __builtin_memcpy(&value, &bits, sizeof(value));
  return value;
}

// The registry is a deliberately leaked heap object: instruments must
// outlive every static destructor that might still export them (the
// ISREC_TRACE exit flush, logging from other TUs' destructors).
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

std::string FormatDouble(double v) {
  if (!(v == v)) return "\"nan\"";               // NaN (v != v).
  if (v > 1e308 || v < -1e308) return "\"inf\"";  // +-inf.
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

}  // namespace

void EnableMetrics(bool on) {
  internal::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

// -- Counter ------------------------------------------------------------

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (auto& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

InstanceCounter::InstanceCounter(std::string_view name)
    : series_(GetCounter(name)) {}

// -- Gauge --------------------------------------------------------------

void Gauge::Add(double delta) {
  double observed = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(observed, observed + delta,
                                       std::memory_order_relaxed)) {
  }
}

// -- Histogram ----------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      num_buckets_(static_cast<int>(bounds_.size()) + 1) {
  // Layout: kShards rows of (num_buckets_ count cells + 1 sum cell).
  cells_ = new internal::ShardCell[internal::kShards * (num_buckets_ + 1)]();
}

Histogram::~Histogram() { delete[] cells_; }

void Histogram::Observe(double v) {
  const int bucket = static_cast<int>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  internal::ShardCell* row =
      cells_ + internal::ThreadShard() * (num_buckets_ + 1);
  row[bucket].value.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(row[num_buckets_].value, v);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(num_buckets_, 0);
  for (int s = 0; s < internal::kShards; ++s) {
    const internal::ShardCell* row = cells_ + s * (num_buckets_ + 1);
    for (int b = 0; b < num_buckets_; ++b) {
      counts[b] += row[b].value.load(std::memory_order_relaxed);
    }
  }
  return counts;
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (uint64_t c : BucketCounts()) total += c;
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (int s = 0; s < internal::kShards; ++s) {
    const internal::ShardCell* row = cells_ + s * (num_buckets_ + 1);
    total += BitsToDouble(row[num_buckets_].value.load(
        std::memory_order_relaxed));
  }
  return total;
}

void Histogram::Reset() {
  for (int i = 0; i < internal::kShards * (num_buckets_ + 1); ++i) {
    cells_[i].value.store(0, std::memory_order_relaxed);
  }
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> LinearBuckets(double start, double width, int count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  for (int i = 0; i < count; ++i) bounds.push_back(start + i * width);
  return bounds;
}

const std::vector<double>& LatencyBucketsMs() {
  static const std::vector<double>* buckets =
      new std::vector<double>(ExponentialBuckets(0.001, 2.0, 25));
  return *buckets;
}

// -- Registry -----------------------------------------------------------

Counter& GetCounter(std::string_view name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.counters.find(name);
  if (it == registry.counters.end()) {
    it = registry.counters
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& GetGauge(std::string_view name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.gauges.find(name);
  if (it == registry.gauges.end()) {
    it = registry.gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

Histogram& GetHistogram(std::string_view name,
                        const std::vector<double>& bounds) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.histograms.find(name);
  if (it == registry.histograms.end()) {
    it = registry.histograms
             .emplace(std::string(name), std::make_unique<Histogram>(bounds))
             .first;
  }
  return *it->second;
}

// -- Snapshots ----------------------------------------------------------

double HistogramSnapshot::Mean() const {
  return total_count == 0 ? 0.0 : sum / static_cast<double>(total_count);
}

double HistogramSnapshot::Percentile(double p) const {
  if (total_count == 0) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  const double target = p * static_cast<double>(total_count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const uint64_t next = cumulative + counts[b];
    if (static_cast<double>(next) >= target) {
      // Values above the last finite bound clamp to it (no upper edge).
      if (b >= bounds.size()) {
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      const double hi = bounds[b];
      const double frac =
          (target - static_cast<double>(cumulative)) / counts[b];
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::vector<uint64_t> HistogramSnapshot::CumulativeCounts() const {
  std::vector<uint64_t> cumulative(counts.size(), 0);
  uint64_t running = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    running += counts[b];
    cumulative[b] = running;
  }
  return cumulative;
}

MetricsSnapshot SnapshotMetrics() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(registry.counters.size());
  for (const auto& [name, counter] : registry.counters) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  for (const auto& [name, gauge] : registry.gauges) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  for (const auto& [name, histogram] : registry.histograms) {
    HistogramSnapshot h;
    h.name = name;
    h.bounds = histogram->bounds();
    h.counts = histogram->BucketCounts();
    h.sum = histogram->Sum();
    for (uint64_t c : h.counts) h.total_count += c;
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

std::string DumpMetricsJson() {
  const MetricsSnapshot snapshot = SnapshotMetrics();
  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    out += json::Escape(snapshot.counters[i].first);
    out += ": " + std::to_string(snapshot.counters[i].second);
  }
  out += "\n  },\n  \"gauges\": {";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    out += json::Escape(snapshot.gauges[i].first);
    out += ": " + FormatDouble(snapshot.gauges[i].second);
  }
  out += "\n  },\n  \"histograms\": {";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += json::Escape(h.name);
    out += ": {\"count\": " + std::to_string(h.total_count);
    out += ", \"sum\": " + FormatDouble(h.sum);
    out += ", \"mean\": " + FormatDouble(h.Mean());
    out += ", \"p50\": " + FormatDouble(h.Percentile(0.50));
    out += ", \"p95\": " + FormatDouble(h.Percentile(0.95));
    out += ", \"p99\": " + FormatDouble(h.Percentile(0.99));
    out += ", \"bounds\": [";
    for (size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out += ", ";
      out += FormatDouble(h.bounds[b]);
    }
    out += "], \"bucket_counts\": [";
    for (size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(h.counts[b]);
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string DumpMetricsTable() {
  const MetricsSnapshot snapshot = SnapshotMetrics();
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& [name, value] : snapshot.counters) {
    rows.emplace_back(name, std::to_string(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    rows.emplace_back(name, buffer);
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "count=%llu mean=%.4g p50=%.4g p95=%.4g p99=%.4g",
                  static_cast<unsigned long long>(h.total_count), h.Mean(),
                  h.Percentile(0.50), h.Percentile(0.95), h.Percentile(0.99));
    rows.emplace_back(h.name, buffer);
  }
  size_t name_width = sizeof("metric") - 1;
  for (const auto& [name, value] : rows) {
    name_width = std::max(name_width, name.size());
  }
  std::string out = "metric";
  out.append(name_width - 6, ' ');
  out += "  value\n";
  out.append(name_width + 7, '-');
  out += "\n";
  for (const auto& [name, value] : rows) {
    out += name;
    out.append(name_width - name.size(), ' ');
    out += "  " + value + "\n";
  }
  return out;
}

bool WriteMetricsJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = DumpMetricsJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  return written == json.size() && std::fclose(f) == 0;
}

void ResetAllMetrics() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& [name, counter] : registry.counters) counter->Reset();
  for (const auto& [name, gauge] : registry.gauges) gauge->Reset();
  for (const auto& [name, histogram] : registry.histograms) {
    histogram->Reset();
  }
}

}  // namespace isrec::obs
