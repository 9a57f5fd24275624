#ifndef ISREC_OBS_METRICS_H_
#define ISREC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace isrec::obs {

/// Process-wide metrics (DESIGN.md "Observability"). Three instrument
/// kinds — Counter, Gauge, Histogram — live in a single named registry;
/// call sites hold stable references obtained once (registration takes a
/// mutex, every later operation is lock-free sharded atomics).
///
/// Overhead contract: the tensor, parallel, http, trace-drop,
/// event-stream, train and eval instrumentation guards every record
/// with `if (obs::MetricsEnabled())`, so its disabled path is exactly
/// one branch on one relaxed atomic load.
/// Serving and routing counts are InstanceCounters instead: always on,
/// two relaxed atomics per event, so a rollout's outcome counts never
/// vanish from /metrics. Recording never perturbs the numerics of the
/// code it measures — it only reads clocks and bumps atomics — so
/// results are bitwise identical with metrics on or off (enforced by
/// obs_test).

namespace internal {
extern std::atomic<bool> g_metrics_enabled;

/// Number of independent atomic shards per instrument. Each thread is
/// assigned one shard round-robin; values are summed at snapshot time.
inline constexpr int kShards = 16;

/// Round-robin shard of the calling thread.
int ThreadShard();

struct alignas(64) ShardCell {
  std::atomic<uint64_t> value{0};
};
}  // namespace internal

/// True when metric recording is on (ISREC_METRICS=1 or EnableMetrics).
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Turns metric recording on/off process-wide.
void EnableMetrics(bool on);

/// Monotonically increasing event count. Add is a relaxed fetch_add on
/// the calling thread's shard; Value sums the shards (so concurrent
/// increments from any number of threads are counted exactly).
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[internal::ThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t Value() const;
  void Reset();

 private:
  internal::ShardCell shards_[internal::kShards];
};

/// One owner's count of an event, bound to the process-wide registry
/// Counter of the same name. Add bumps both (two relaxed atomics, no
/// branch, no mutex); Value and Reset see only this instance, while the
/// registry series sums every instance in the process and outlives
/// them. Serving engines, routers and online trainers each hold their
/// own, so two in one process report their own counts side by side.
class InstanceCounter {
 public:
  explicit InstanceCounter(std::string_view name);

  void Add(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
    series_.Add(n);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  /// Zeroes this instance only; the registry series keeps its sum.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
  Counter& series_;
};

/// Last-written instantaneous value (queue depth, loss, ...). A single
/// atomic double: gauges are low-frequency, sharding buys nothing.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending upper bounds, with an
/// implicit overflow bucket above the last. Observe finds the bucket by
/// binary search and bumps the calling thread's shard, so concurrent
/// observations sum exactly. Percentiles are estimated from the bucket
/// counts with linear interpolation inside the bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  ~Histogram();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket totals, length bounds().size() + 1 (overflow last).
  std::vector<uint64_t> BucketCounts() const;
  uint64_t TotalCount() const;
  double Sum() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  /// [shard][bucket] counts, plus one per-shard sum cell (double bits).
  internal::ShardCell* cells_;
  int num_buckets_;
};

/// `count` exponentially spaced upper bounds starting at `start`
/// (start, start*factor, ...). The conventional shape for latencies.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count);
/// `count` linearly spaced upper bounds (start, start+width, ...).
std::vector<double> LinearBuckets(double start, double width, int count);
/// Default latency buckets: 1us .. ~17s, factor 2 (25 buckets).
const std::vector<double>& LatencyBucketsMs();

/// Finds or creates an instrument. The returned reference is stable for
/// the process lifetime; typical call sites cache it in a function-local
/// static. For histograms, the first registration fixes the bounds and
/// later calls ignore theirs.
Counter& GetCounter(std::string_view name);
Gauge& GetGauge(std::string_view name);
Histogram& GetHistogram(std::string_view name,
                        const std::vector<double>& bounds);

// -- Snapshots & exporters ----------------------------------------------

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  // bounds.size() + 1, overflow last.
  uint64_t total_count = 0;
  double sum = 0.0;

  double Mean() const;
  /// Estimated value at quantile p in [0, 1]; 0 when empty. Values in
  /// the overflow bucket clamp to the last finite bound.
  double Percentile(double p) const;
  /// Running totals per bucket, length counts.size(): element i is the
  /// number of observations <= bounds[i] (last element == total_count,
  /// the implicit +Inf bucket). The Prometheus exposition convention.
  std::vector<uint64_t> CumulativeCounts() const;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Consistent name-sorted view of every registered instrument.
MetricsSnapshot SnapshotMetrics();

/// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
/// Deterministic modulo the recorded values: fixed key order (sorted)
/// and fixed float formatting.
std::string DumpMetricsJson();

/// Plain-text two-column rendering for terminals; histograms show
/// count/mean/p50/p95/p99.
std::string DumpMetricsTable();

/// Writes DumpMetricsJson() to `path`; false on I/O failure.
bool WriteMetricsJson(const std::string& path);

/// Zeroes every registered instrument (tests and benchmark harnesses).
void ResetAllMetrics();

}  // namespace isrec::obs

#endif  // ISREC_OBS_METRICS_H_
