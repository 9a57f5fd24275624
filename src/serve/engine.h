#ifndef ISREC_SERVE_ENGINE_H_
#define ISREC_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "eval/recommender.h"
#include "serve/checkpoint.h"
#include "serve/fault.h"
#include "serve/lru_cache.h"
#include "serve/stats.h"
#include "utils/status.h"
#include "utils/thread_pool.h"

namespace isrec::obs {
class AdminServer;
}  // namespace isrec::obs

namespace isrec::serve {

struct PhaseAllocScope;  // engine.cc: per-phase allocation accounting.

struct EngineConfig {
  /// Worker threads draining the request queue. Even with one hardware
  /// core, multiple workers overlap queue waiting with scoring; the main
  /// speedup over per-request Score comes from micro-batching.
  Index num_threads = 4;
  /// Largest number of requests scored in one ScoreBatch call.
  Index max_batch_size = 32;
  /// After popping the first request of a batch, a worker waits up to
  /// this long for more requests to coalesce. 0 = score immediately.
  Index batch_window_us = 200;
  /// Bound of the MPMC request queue; Recommend blocks when full
  /// (backpressure instead of unbounded memory growth) UNLESS admission
  /// control is on (shed_high_watermark > 0), in which case producers
  /// never block — excess traffic is shed with kOverloaded instead.
  Index queue_capacity = 4096;
  /// Entries in the (model version, user, history, k, candidates)-keyed
  /// LRU response cache. 0 disables caching.
  Index cache_capacity = 0;

  /// Admission control. When shed_high_watermark > 0: once queue depth
  /// reaches the high watermark the engine enters shedding mode and stays
  /// there until depth falls to shed_low_watermark (hysteresis). While
  /// shedding, an arriving request either displaces a strictly
  /// lower-priority queued request (which is answered kOverloaded, or a
  /// kDegraded fallback if it allows one) or is itself shed the same way.
  /// 0 disables admission control (blocking backpressure, the default).
  Index shed_high_watermark = 0;
  Index shed_low_watermark = 0;

  /// Popularity-prior scores per item id (e.g. training interaction
  /// counts, exactly what models::PopRec ranks by). When non-empty,
  /// requests with allow_degraded that would otherwise fail with
  /// kOverloaded or kModelError are answered with a deterministic TopK
  /// over this prior, tagged kDegraded. Items beyond the vector score 0.
  /// A published ServableModel carrying its own popularity prior takes
  /// precedence, so the fallback tracks the live model.
  std::vector<float> fallback_scores;

  /// Deterministic fault injection (tests, benches, chaos drills). When
  /// left default-disabled, the ISREC_FAULT environment spec is used,
  /// so faults can be injected into any binary without a rebuild.
  FaultConfig fault;
};

/// Per-request serving options (the v2 API surface).
struct RequestOptions {
  /// Soft deadline relative to submit time, in milliseconds; 0 = none.
  /// An expired request is ANSWERED kDeadlineExceeded — at dequeue
  /// (before any scoring work) or after a too-slow score — never
  /// silently dropped.
  double deadline_ms = 0.0;
  /// Admission-control priority: under overload, strictly lower-priority
  /// traffic is shed first. Ties shed the newest arrival.
  int priority = 0;
  /// Under overload shedding or model failure, accept a popularity-prior
  /// fallback ranking (status kDegraded) instead of an error, when the
  /// engine was configured with fallback_scores (or the live model
  /// carries a prior).
  bool allow_degraded = false;
};

struct Request {
  Index user = 0;
  std::vector<Index> history;
  Index k = 10;
  /// Candidate items to rank; empty means the full catalog.
  std::vector<Index> candidates;
  RequestOptions options;
  /// Request id threaded through the serving pipeline for tracing
  /// (DESIGN.md "Admin server & request tracing"): every span the
  /// engine emits for this request carries it, so /tracez can
  /// reconstruct the request's timeline. 0 (the default) lets the
  /// engine assign the next id from its own monotonic sequence.
  uint64_t id = 0;
};

struct Recommendation {
  /// Top-K item ids, best first. Ties broken by ascending item id so
  /// results are deterministic across batch compositions.
  std::vector<Index> items;
  std::vector<float> scores;  // Aligned with items.
  bool from_cache = false;
  /// Version of the published model that produced these scores (cache
  /// hits carry the producing version, which may predate the live one).
  /// 0 = not model-produced (degraded popularity fallback).
  uint64_t model_version = 0;
};

/// The full response-cache key. The cache indexes entries by this key's
/// equality (the FNV hash below only buckets them), so a 64-bit hash
/// collision can never serve one user another user's recommendations.
/// model_version keys entries to the model that produced them: after a
/// hot swap, lookups (tagged with the live version) can never return a
/// stale version's scores.
struct RequestKey {
  Index user = 0;
  Index k = 0;
  uint64_t model_version = 0;
  std::vector<Index> history;
  std::vector<Index> candidates;

  friend bool operator==(const RequestKey&, const RequestKey&) = default;
};

struct RequestKeyHash {
  size_t operator()(const RequestKey& key) const;
};

/// Deterministic top-k selection: highest score first, ties broken by
/// ascending item id. Shared by the engine and its sequential baselines
/// so "identical top-K" comparisons are exact.
Recommendation TopK(const std::vector<float>& scores,
                    const std::vector<Index>& candidates, Index k);

/// One published model generation: an immutable, refcounted view the
/// engine swaps atomically (RCU-style) and workers pin per batch. An
/// in-flight batch that pinned version N keeps scoring on N even while
/// version N+1 goes live; the old generation is freed when the last
/// pinned batch releases it.
struct ModelHandle {
  std::shared_ptr<const ServableModel> servable;
  /// Engine-assigned publish sequence number, monotonic from 1.
  uint64_t version = 0;
  /// The full-catalog candidate set (iota over servable->num_items()),
  /// built once per publish so workers share it read-only.
  std::vector<Index> catalog;

  eval::Recommender& scorer() const { return *servable->scorer(); }
  Index num_items() const { return static_cast<Index>(catalog.size()); }
  uint64_t epoch() const { return servable->epoch; }
  const std::vector<float>& popularity() const {
    return servable->popularity;
  }
};

/// Online inference engine over a published ServableModel.
///
/// Callers from any thread submit requests; workers from an owned
/// utils::ThreadPool pop up to max_batch_size requests from a bounded
/// MPMC queue (waiting batch_window_us to coalesce concurrent traffic)
/// and answer them with ONE scoring call, amortizing the encoder forward
/// pass — the difference between per-request and batched scoring is the
/// main throughput lever. An optional LRU cache short-circuits repeat
/// requests before they reach the queue.
///
/// Model lifecycle: the engine serves whatever ModelHandle is live.
/// Publish() validates a candidate model (smoke-scores a probe batch;
/// a kModelError rejection never touches the live handle) and swaps it
/// in atomically. Workers pin the live handle once per batch, so every
/// response is scored entirely by one published version — never a mix —
/// and a swap never stalls traffic. Cache entries are keyed by the
/// version that produced them.
///
/// v2 outcome contract: every submitted request's future resolves with
/// exactly one Outcome<Recommendation> — kOk (scored), kDegraded
/// (popularity fallback under overload/model failure), kDeadlineExceeded,
/// kOverloaded (shed, or engine shut down first), kInvalidArgument, or
/// kModelError. Futures are never left with a broken promise, including
/// through ~ServingEngine: a batch already popped by a worker is still
/// scored ("drained result"), and everything still queued at shutdown is
/// answered kOverloaded. With no deadline, no faults, admission control
/// off, and no Publish, results are bitwise identical to the v1 engine.
///
/// The model's ScoreBatch must be safe for concurrent calls
/// (SequentialModelBase qualifies; see its header).
class ServingEngine {
 public:
  /// Takes shared ownership of `model` (from ServableModel::Load or
  /// ServableModel::Wrap) and publishes it as version 1.
  explicit ServingEngine(std::shared_ptr<ServableModel> model,
                         EngineConfig config = {});
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Blocking request/response. Thread-safe.
  Outcome<Recommendation> Recommend(const Request& request);

  /// Asynchronous variant; the future resolves when a worker has scored
  /// the micro-batch containing this request, or immediately on a cache
  /// hit, an invalid argument, or admission-control shedding.
  std::future<Outcome<Recommendation>> RecommendAsync(Request request);

  /// Validates `model` (null checks, then a smoke-score of a small probe
  /// batch through its scorer) and atomically swaps it in as the next
  /// version. On any validation failure returns kModelError and leaves
  /// the live model untouched — a bad artifact can never take down
  /// serving. In-flight batches finish on the version they pinned; new
  /// batches score on the new one. Thread-safe; returns the new version.
  Outcome<uint64_t> Publish(std::shared_ptr<ServableModel> model);

  /// Pins the live model generation (shared_ptr copy under a lock).
  /// Never null while the engine is alive.
  std::shared_ptr<const ModelHandle> CurrentModel() const;

  /// The engine's fault-injection seam (programmatic equivalent of the
  /// ISREC_FAULT env spec). Install test hooks before traffic flows.
  FaultInjector& fault_injector() { return fault_; }

  /// Snapshot of the recorder plus the instantaneous load signals
  /// (queue_depth, shedding) read under the queue lock and the model
  /// lifecycle signals (model_version, model_epoch, model_swaps).
  ServeStats Stats() const;
  void ResetStats() { stats_.Reset(); }

  const EngineConfig& config() const { return config_; }

 private:
  struct Pending {
    Request request;
    std::promise<Outcome<Recommendation>> promise;
    std::chrono::steady_clock::time_point enqueued_at;
    /// Absolute deadline; time_point::max() = none.
    std::chrono::steady_clock::time_point deadline;
    RequestKey cache_key;  // Filled only when the cache is enabled.
    /// Live model version at submit time; the request was validated
    /// against this generation's catalog. A worker that pins a different
    /// version re-validates before scoring.
    uint64_t submit_version = 0;
    /// Trace-clock timestamps for the request's timeline spans; 0 when
    /// tracing was off at submit (then no spans are emitted for it).
    uint64_t trace_submit_ns = 0;
    uint64_t trace_dequeue_ns = 0;
  };

  void WorkerLoop();
  void ProcessBatch(std::vector<Pending> batch);
  Status ValidateRequest(const Request& request, Index num_items) const;
  /// kDegraded fallback if the request allows one and a prior is
  /// available (the handle's popularity, else config fallback_scores),
  /// else the given error. `handle` may be null (engine shutdown: the
  /// drain path never pins a model, so a swap concurrent with shutdown
  /// cannot resurrect an old generation through leftover promises).
  Outcome<Recommendation> FailOrDegrade(const Request& request, Status error,
                                        const ModelHandle* handle);
  Recommendation FallbackRecommendation(const Request& request,
                                        const ModelHandle* handle) const;
  /// Resolves a pending with `outcome`, recording its status code.
  void Answer(Pending&& pending, Outcome<Recommendation> outcome);

  /// Request phases the engine attributes allocations to (heap
  /// profiling on), in the order of the alloc_counts_/alloc_bytes_ rows.
  enum AllocPhase : int {
    kAllocEnqueue = 0,
    kAllocBatch,
    kAllocScore,
    kAllocRespond,
    kNumAllocPhases,
  };

  /// Folds one request phase's AllocationCounter totals (heap profiling
  /// on) into that phase's counters.
  friend struct PhaseAllocScope;
  void RecordPhaseAllocations(int phase, uint64_t count, uint64_t bytes);

  const EngineConfig config_;
  FaultInjector fault_;
  /// Next auto-assigned Request::id (requests arriving with id 0).
  std::atomic<uint64_t> next_request_id_{1};

  /// The live model generation. Guarded by model_mutex_ (pin = one
  /// shared_ptr copy; cheap because workers pin per batch, not per
  /// request). live_version_ and live_num_items_ mirror the handle for
  /// lock-free reads on the submit path.
  mutable std::mutex model_mutex_;
  std::shared_ptr<const ModelHandle> live_;
  std::atomic<uint64_t> live_version_{0};
  std::atomic<Index> live_num_items_{0};
  obs::InstanceCounter model_swaps_{"serve.model_swaps"};

  // Bounded MPMC queue. Close() (from the destructor) wakes everything;
  // workers answer remaining queued requests with kOverloaded before
  // exiting (never drop, never a broken promise).
  mutable std::mutex queue_mutex_;  // const Stats() samples depth under it.
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<Pending> queue_;
  bool closed_ = false;
  /// Admission-control hysteresis state (guarded by queue_mutex_).
  bool shedding_ = false;

  std::unique_ptr<LruCache<RequestKey, Recommendation, RequestKeyHash>> cache_;
  StatsRecorder stats_;

  /// Heap accounting (only ticked while heap profiling is enabled):
  /// allocations/bytes per request phase (serve.alloc.<phase>.count and
  /// .bytes; Stats() sums the phases), and the number of requests
  /// answered while counting — the allocs/request denominator
  /// (ServeStats::allocs_per_request).
  obs::InstanceCounter alloc_counts_[kNumAllocPhases] = {
      obs::InstanceCounter("serve.alloc.enqueue.count"),
      obs::InstanceCounter("serve.alloc.batch.count"),
      obs::InstanceCounter("serve.alloc.score.count"),
      obs::InstanceCounter("serve.alloc.respond.count"),
  };
  obs::InstanceCounter alloc_bytes_[kNumAllocPhases] = {
      obs::InstanceCounter("serve.alloc.enqueue.bytes"),
      obs::InstanceCounter("serve.alloc.batch.bytes"),
      obs::InstanceCounter("serve.alloc.score.bytes"),
      obs::InstanceCounter("serve.alloc.respond.bytes"),
  };
  std::atomic<uint64_t> alloc_requests_{0};

  // Last member so workers die before the members they use.
  std::unique_ptr<utils::ThreadPool> pool_;
};

/// Wires `engine` into an obs::AdminServer: a "serve_stats" /varz
/// section (the canonical ServeStatsJson, including model
/// version/epoch/swaps) and a "Serving" /statusz section (outcome table,
/// reservoir percentiles, shed/queue watermarks, model lifecycle). One
/// shared registration point, so the tool, the tests, and any future
/// embedder expose identical surfaces. The engine must outlive the admin
/// server — or the server must be Stop()ped first.
void RegisterAdminSections(obs::AdminServer& admin, ServingEngine& engine);

}  // namespace isrec::serve

#endif  // ISREC_SERVE_ENGINE_H_
