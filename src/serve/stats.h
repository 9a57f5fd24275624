#ifndef ISREC_SERVE_STATS_H_
#define ISREC_SERVE_STATS_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "tensor/tensor.h"
#include "utils/status.h"

namespace isrec::serve {

/// Immutable snapshot of the engine's serving statistics (the
/// `serve_stats` of the design doc): throughput, latency percentiles, the
/// micro-batch size histogram, and cache effectiveness.
struct ServeStats {
  uint64_t num_requests = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t num_batches = 0;
  double elapsed_seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch_size = 0.0;
  /// histogram[b] = number of micro-batches that scored exactly b
  /// requests (index 0 unused).
  std::vector<uint64_t> batch_size_histogram;

  /// Outcome counters of the v2 API (DESIGN.md §10): every terminal
  /// answer bumps exactly one of these. `ok` can differ from
  /// `num_requests`: a scored request whose deadline expired post-score
  /// has a recorded latency but a kDeadlineExceeded outcome.
  uint64_t ok = 0;                  // kOk terminal answers.
  uint64_t rejected = 0;            // kOverloaded (shed or shutdown).
  uint64_t deadline_exceeded = 0;   // kDeadlineExceeded.
  uint64_t degraded = 0;            // kDegraded fallbacks served.
  uint64_t invalid_arguments = 0;   // kInvalidArgument.
  uint64_t model_errors = 0;        // kModelError.

  /// Instantaneous load signals, filled by ServingEngine::Stats() from
  /// the queue state (a StatsRecorder alone doesn't know them). They
  /// lead the ServeStatsJson rendering as cheap top-level fields — the
  /// router's load poller reads exactly these two from a replica's
  /// /varz without touching the full registry snapshot (field names
  /// pinned by admin_server_test).
  uint64_t queue_depth = 0;  // Requests queued right now.
  bool shedding = false;     // Admission control currently shedding.

  /// Model lifecycle signals, also filled by ServingEngine::Stats():
  /// the live ModelHandle's publish version and training epoch, and how
  /// many hot swaps this engine has performed. The router's prober reads
  /// model_version from /varz to surface fleet version skew.
  uint64_t model_version = 0;
  uint64_t model_epoch = 0;
  uint64_t model_swaps = 0;

  /// Heap-accounting aggregates, filled by ServingEngine::Stats() from
  /// its per-phase AllocationCounter scopes (obs/heap_profiler.h). All
  /// zero unless heap profiling is enabled (--heap-profile /
  /// ISREC_HEAP_PROFILE=1): the counters only tick while the hook is
  /// counting. alloc_requests counts requests answered WHILE profiling
  /// was on — the denominator for allocs/request, which stays honest
  /// when profiling is toggled mid-run.
  uint64_t alloc_count = 0;
  uint64_t alloc_bytes = 0;
  uint64_t alloc_requests = 0;

  double allocs_per_request() const {
    return alloc_requests == 0
               ? 0.0
               : static_cast<double>(alloc_count) / alloc_requests;
  }
  double alloc_bytes_per_request() const {
    return alloc_requests == 0
               ? 0.0
               : static_cast<double>(alloc_bytes) / alloc_requests;
  }

  double cache_hit_rate() const {
    const uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache_hits) / lookups;
  }

  /// Renders the stats as a two-column utils::Table plus the batch-size
  /// histogram.
  std::string ToTableString() const;
};

/// Canonical JSON rendering of a ServeStats snapshot: fixed key order,
/// fixed float formatting. Every surface that exports serve_stats as
/// JSON (--metrics-json files, the admin server's /varz) embeds THIS
/// string, so the surfaces cannot drift (pinned by the parity test).
std::string ServeStatsJson(const ServeStats& stats);

/// Canonical `outcomes:` line: every StatusCode in declaration order,
/// "outcomes: OK=.. DEADLINE_EXCEEDED=.. OVERLOADED=..
/// INVALID_ARGUMENT=.. MODEL_ERROR=.. DEGRADED=..". The CLI harness
/// prints this verbatim (same parity contract as ServeStatsJson).
std::string OutcomesLine(const ServeStats& stats);

/// Thread-safe accumulator the engine records into; Snapshot() computes
/// the derived numbers (percentiles, qps) on demand.
///
/// Latency storage is a fixed-size uniform reservoir (Vitter's
/// algorithm R, deterministic internal RNG), so memory stays O(1) no
/// matter how long the engine runs; p50/p95/p99 are estimates whose
/// error shrinks with the reservoir size (bounded-tolerance tested in
/// serve_test). Every count is an obs::InstanceCounter: one Add per
/// event updates this recorder's own value and the process-wide series
/// of the same name (serve.requests, serve.cache_hits,
/// serve.cache_misses, serve.batches and the six outcome counters), and
/// every sample also lands in the serve.latency_ms and serve.batch_size
/// registry histograms — with metrics on or off. ServeStats stays
/// per-recorder; the registry sums every engine in the process.
class StatsRecorder {
 public:
  /// Latency samples kept for the percentile estimates.
  static constexpr size_t kReservoirCapacity = 4096;

  void RecordRequest(double latency_ms, bool cache_hit);
  void RecordBatch(Index batch_size);

  /// Records one processed micro-batch — its size plus the latency of
  /// every request in it (all cache misses) — under a single lock
  /// acquisition, so the hot path pays one mutex per batch instead of
  /// one per request.
  void RecordProcessedBatch(Index batch_size,
                            const std::vector<double>& latencies_ms);

  /// Counts a terminal outcome code: every code (kOk included) bumps
  /// its dedicated counter (serve.ok, serve.rejected,
  /// serve.deadline_exceeded, serve.degraded, serve.invalid_arguments,
  /// serve.model_errors). The engine calls this exactly once per
  /// terminal answer, so the six counters sum to answered requests.
  void RecordOutcome(StatusCode code);

  /// Clears all recorded samples and restarts the measurement window.
  /// The window start is lazy — it is (re)armed at the NEXT recorded
  /// event, exactly like a freshly constructed recorder — so
  /// `elapsed_seconds`/`qps` measure the busy interval and stay
  /// well-defined for idle-then-burst workloads.
  void Reset();

  ServeStats Snapshot() const;

 private:
  // Mutex held: counts the requests and reservoir-samples their
  // latencies; the first one arms the window.
  void RecordLatenciesLocked(std::span<const double> latencies_ms);
  // Mutex held: counts one micro-batch of `batch_size` requests.
  void RecordBatchLocked(Index batch_size);

  // Guards the reservoir, the batch-size histogram, the window start
  // and the request, cache and batch counts, so a Snapshot sees them
  // consistently. The outcome counts need no lock.
  mutable std::mutex mutex_;
  std::vector<double> latency_reservoir_;
  uint64_t reservoir_rng_ = 0x9e3779b97f4a7c15ull;  // splitmix64 state.
  std::vector<uint64_t> batch_size_histogram_;
  double start_seconds_ = -1.0;  // Monotonic; set lazily on first record.

  // requests_ doubles as the reservoir's samples-seen count.
  obs::InstanceCounter requests_{"serve.requests"};
  obs::InstanceCounter cache_hits_{"serve.cache_hits"};
  obs::InstanceCounter cache_misses_{"serve.cache_misses"};
  obs::InstanceCounter batches_{"serve.batches"};
  obs::InstanceCounter ok_{"serve.ok"};
  obs::InstanceCounter rejected_{"serve.rejected"};
  obs::InstanceCounter deadline_exceeded_{"serve.deadline_exceeded"};
  obs::InstanceCounter degraded_{"serve.degraded"};
  obs::InstanceCounter invalid_arguments_{"serve.invalid_arguments"};
  obs::InstanceCounter model_errors_{"serve.model_errors"};
  obs::Histogram& latency_ms_ =
      obs::GetHistogram("serve.latency_ms", obs::LatencyBucketsMs());
  obs::Histogram& batch_size_ =
      obs::GetHistogram("serve.batch_size", obs::LinearBuckets(1.0, 1.0, 64));
};

}  // namespace isrec::serve

#endif  // ISREC_SERVE_STATS_H_
