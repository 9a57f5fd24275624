#include "serve/engine.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>

#include "obs/admin_server.h"
#include "obs/heap_profiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels/registry.h"
#include "utils/check.h"

namespace isrec::serve {
namespace {

using Clock = std::chrono::steady_clock;

// Queue-depth gauge, written inside the queue lock on every transition
// so the snapshot is an exact instantaneous depth.
void SetQueueDepth(size_t depth) {
  static obs::Gauge& gauge = obs::GetGauge("serve.queue_depth");
  gauge.Set(static_cast<double>(depth));
}

void SetModelVersionGauge(uint64_t version) {
  static obs::Gauge& gauge = obs::GetGauge("serve.model_version");
  gauge.Set(static_cast<double>(version));
}

// FNV-1a, mixing every field that determines the response.
uint64_t HashCombine(uint64_t hash, uint64_t value) {
  constexpr uint64_t kPrime = 1099511628211ull;
  for (int shift = 0; shift < 64; shift += 8) {
    hash = (hash ^ ((value >> shift) & 0xff)) * kPrime;
  }
  return hash;
}

double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Builds the next ModelHandle generation around a validated servable.
std::shared_ptr<const ModelHandle> MakeHandle(
    std::shared_ptr<ServableModel> servable, uint64_t version) {
  auto handle = std::make_shared<ModelHandle>();
  handle->version = version;
  handle->catalog.resize(servable->num_items());
  std::iota(handle->catalog.begin(), handle->catalog.end(), 0);
  handle->servable = std::move(servable);
  return handle;
}

/// Shared by the constructor and Publish: everything that disqualifies a
/// ServableModel from going live, checked WITHOUT touching engine state.
/// The probe smoke-score proves the scorer can actually answer a request
/// shaped like production traffic before any real request reaches it.
Status ValidateServable(const std::shared_ptr<ServableModel>& model) {
  if (model == nullptr) {
    return Status::ModelError("publish rejected: null ServableModel");
  }
  if (model->scorer() == nullptr) {
    return Status::ModelError("publish rejected: ServableModel has no scorer");
  }
  const Index num_items = model->num_items();
  if (num_items <= 0) {
    return Status::ModelError("publish rejected: empty catalog (num_items=" +
                              std::to_string(num_items) + ")");
  }
  std::vector<Index> probe_candidates(
      static_cast<size_t>(std::min<Index>(num_items, 8)));
  std::iota(probe_candidates.begin(), probe_candidates.end(), 0);
  const Outcome<std::vector<std::vector<float>>> probe =
      model->scorer()->TryScoreBatch({0}, {{0}}, {probe_candidates});
  if (!probe.has_value()) {
    return Status::ModelError(
        "publish rejected: probe batch failed to score (" +
        probe.status().ToString() + ")");
  }
  if (probe.value().size() != 1 ||
      probe.value()[0].size() != probe_candidates.size()) {
    return Status::ModelError(
        "publish rejected: probe batch returned malformed scores");
  }
  return Status::Ok();
}

}  // namespace

/// RAII per-phase allocation accounting: an AllocationCounter scope
/// whose totals flush into the owning engine when the phase ends.
/// Inactive (heap profiling off), construction and destruction are one
/// relaxed load + branch each — the pipeline's off-path contract.
struct PhaseAllocScope {
  PhaseAllocScope(ServingEngine* engine, int phase)
      : engine(engine), phase(phase) {}
  ~PhaseAllocScope() {
    if (counter.active()) {
      engine->RecordPhaseAllocations(phase, counter.count(), counter.bytes());
    }
  }

  PhaseAllocScope(const PhaseAllocScope&) = delete;
  PhaseAllocScope& operator=(const PhaseAllocScope&) = delete;

  ServingEngine* engine;
  int phase;
  obs::heap::AllocationCounter counter;
};

void ServingEngine::RecordPhaseAllocations(int phase, uint64_t count,
                                           uint64_t bytes) {
  if (count == 0 && bytes == 0) return;
  ISREC_CHECK(phase >= 0 && phase < kNumAllocPhases);
  alloc_counts_[phase].Add(count);
  alloc_bytes_[phase].Add(bytes);
}

size_t RequestKeyHash::operator()(const RequestKey& key) const {
  uint64_t hash = 14695981039346656037ull;
  hash = HashCombine(hash, static_cast<uint64_t>(key.user));
  hash = HashCombine(hash, static_cast<uint64_t>(key.k));
  hash = HashCombine(hash, key.model_version);
  hash = HashCombine(hash, key.history.size());
  for (Index item : key.history) {
    hash = HashCombine(hash, static_cast<uint64_t>(item));
  }
  hash = HashCombine(hash, key.candidates.size());
  for (Index item : key.candidates) {
    hash = HashCombine(hash, static_cast<uint64_t>(item));
  }
  return static_cast<size_t>(hash);
}

Recommendation TopK(const std::vector<float>& scores,
                    const std::vector<Index>& candidates, Index k) {
  ISREC_CHECK_EQ(scores.size(), candidates.size());
  const Index n = static_cast<Index>(candidates.size());
  const Index kk = std::min(k, n);
  // Scratch reused across calls; workers call this once per request.
  thread_local std::vector<Index> order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  const auto better = [&](Index a, Index b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return candidates[a] < candidates[b];
  };
  std::partial_sort(order.begin(), order.begin() + kk, order.end(), better);
  Recommendation result;
  result.items.reserve(kk);
  result.scores.reserve(kk);
  for (Index i = 0; i < kk; ++i) {
    result.items.push_back(candidates[order[i]]);
    result.scores.push_back(scores[order[i]]);
  }
  return result;
}

ServingEngine::ServingEngine(std::shared_ptr<ServableModel> model,
                             EngineConfig config)
    : config_(config),
      fault_(config.fault.enabled() ? config.fault : FaultConfigFromEnv()) {
  ISREC_CHECK_GT(config.num_threads, 0);
  ISREC_CHECK_GT(config.max_batch_size, 0);
  ISREC_CHECK_GT(config.queue_capacity, 0);
  ISREC_CHECK_GE(config.batch_window_us, 0);
  const Status valid = ValidateServable(model);
  ISREC_CHECK_MSG(valid.ok(),
                  "ServingEngine needs a servable model: " << valid.message());
  live_ = MakeHandle(std::move(model), /*version=*/1);
  live_version_.store(1, std::memory_order_release);
  live_num_items_.store(live_->num_items(), std::memory_order_release);
  SetModelVersionGauge(1);
  if (config.shed_high_watermark > 0) {
    ISREC_CHECK_GE(config.shed_low_watermark, 0);
    ISREC_CHECK_LE(config.shed_low_watermark, config.shed_high_watermark);
    ISREC_CHECK_LE(config.shed_high_watermark, config.queue_capacity);
  }
  if (config.cache_capacity > 0) {
    cache_ =
        std::make_unique<LruCache<RequestKey, Recommendation, RequestKeyHash>>(
            config.cache_capacity);
  }
  pool_ = std::make_unique<utils::ThreadPool>(config.num_threads);
  for (Index i = 0; i < config.num_threads; ++i) {
    pool_->Submit([this] { WorkerLoop(); });
  }
}

ServingEngine::~ServingEngine() {
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    closed_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  pool_.reset();  // Workers answer everything still queued, then exit.
  // Belt and braces: workers drain the queue before exiting, so this is
  // normally empty — but a promise must never break, even if a worker
  // died abnormally.
  std::deque<Pending> leftovers;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    leftovers.swap(queue_);
  }
  // Release the engine's model reference BEFORE resolving leftover
  // promises: with the workers joined, this drops the last engine-held
  // pin, so a model generation swapped out during shutdown is freed here
  // and can never be resurrected through the drain path below (which
  // deliberately scores nothing and pins nothing).
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    live_.reset();
  }
  for (Pending& pending : leftovers) {
    Answer(std::move(pending),
           FailOrDegrade(pending.request, Status::Overloaded("engine shut down"),
                         /*handle=*/nullptr));
  }
}

std::shared_ptr<const ModelHandle> ServingEngine::CurrentModel() const {
  std::lock_guard<std::mutex> lock(model_mutex_);
  return live_;
}

Outcome<uint64_t> ServingEngine::Publish(std::shared_ptr<ServableModel> model) {
  ISREC_TRACE_SPAN("serve.publish");
  if (Status valid = ValidateServable(model); !valid.ok()) {
    static obs::Counter& rejected =
        obs::GetCounter("serve.model_publish_rejected");
    rejected.Add(1);
    return Outcome<uint64_t>(std::move(valid));
  }
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    // The handle is fully constructed before the swap: a worker pinning
    // concurrently sees either the old generation or the complete new
    // one, never a partial state.
    version = live_->version + 1;
    live_ = MakeHandle(std::move(model), version);
    live_num_items_.store(live_->num_items(), std::memory_order_release);
    live_version_.store(version, std::memory_order_release);
  }
  model_swaps_.Add();
  SetModelVersionGauge(version);
  return version;
}

Status ServingEngine::ValidateRequest(const Request& request,
                                      Index num_items) const {
  if (request.k <= 0) {
    return Status::InvalidArgument("k must be > 0, got " +
                                   std::to_string(request.k));
  }
  if (request.options.deadline_ms < 0.0) {
    return Status::InvalidArgument("deadline_ms must be >= 0");
  }
  for (Index item : request.history) {
    if (item < 0 || item >= num_items) {
      return Status::InvalidArgument(
          "history item " + std::to_string(item) + " outside catalog [0, " +
          std::to_string(num_items) + ")");
    }
  }
  for (Index item : request.candidates) {
    if (item < 0 || item >= num_items) {
      return Status::InvalidArgument(
          "candidate item " + std::to_string(item) + " outside catalog [0, " +
          std::to_string(num_items) + ")");
    }
  }
  return Status::Ok();
}

Recommendation ServingEngine::FallbackRecommendation(
    const Request& request, const ModelHandle* handle) const {
  const std::vector<float>& prior =
      (handle != nullptr && !handle->popularity().empty())
          ? handle->popularity()
          : config_.fallback_scores;
  // Without a pinned handle (shutdown drain) the prior itself bounds the
  // catalog for full-catalog requests.
  std::vector<Index> prior_catalog;
  if (request.candidates.empty() && handle == nullptr) {
    prior_catalog.resize(prior.size());
    std::iota(prior_catalog.begin(), prior_catalog.end(), 0);
  }
  const std::vector<Index>& candidates =
      !request.candidates.empty()
          ? request.candidates
          : (handle != nullptr ? handle->catalog : prior_catalog);
  std::vector<float> scores;
  scores.reserve(candidates.size());
  const Index known = static_cast<Index>(prior.size());
  for (Index item : candidates) {
    scores.push_back(item < known ? prior[item] : 0.0f);
  }
  return TopK(scores, candidates, request.k);
}

Outcome<Recommendation> ServingEngine::FailOrDegrade(const Request& request,
                                                     Status error,
                                                     const ModelHandle* handle) {
  const bool has_prior =
      (handle != nullptr && !handle->popularity().empty()) ||
      !config_.fallback_scores.empty();
  if (request.options.allow_degraded && has_prior) {
    return Outcome<Recommendation>(
        Status::Degraded("popularity-prior fallback (" + error.ToString() +
                         ")"),
        FallbackRecommendation(request, handle));
  }
  return Outcome<Recommendation>(std::move(error));
}

ServeStats ServingEngine::Stats() const {
  ServeStats stats = stats_.Snapshot();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stats.queue_depth = queue_.size();
    stats.shedding = shedding_;
  }
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    if (live_ != nullptr) {
      stats.model_version = live_->version;
      stats.model_epoch = live_->epoch();
    }
  }
  stats.model_swaps = model_swaps_.Value();
  for (int phase = 0; phase < kNumAllocPhases; ++phase) {
    stats.alloc_count += alloc_counts_[phase].Value();
    stats.alloc_bytes += alloc_bytes_[phase].Value();
  }
  stats.alloc_requests = alloc_requests_.load(std::memory_order_relaxed);
  return stats;
}

void ServingEngine::Answer(Pending&& pending,
                           Outcome<Recommendation> outcome) {
  // Denominator of allocs/request: requests answered while the heap
  // hook was counting (toggling profiling mid-run keeps the ratio
  // honest — both numerator and denominator only tick while on).
  if (obs::heap::HeapProfilingEnabled()) {
    alloc_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.RecordOutcome(outcome.code());
  pending.promise.set_value(std::move(outcome));
}

std::future<Outcome<Recommendation>> ServingEngine::RecommendAsync(
    Request request) {
  // Everything the submit path allocates (validation messages, the
  // cache key, queue growth) is the "enqueue" phase.
  PhaseAllocScope alloc_scope(this, kAllocEnqueue);
  const auto start = Clock::now();
  // The request id travels through every span the pipeline emits for
  // this request (enqueue → queued → score → respond), keying its
  // /tracez timeline. Callers may pre-assign ids; 0 draws the next one.
  if (request.id == 0) {
    request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  }
  // Validation reads the live catalog size without pinning; if a swap
  // lands between here and scoring, the worker re-validates against the
  // generation it actually pins.
  const uint64_t submit_version =
      live_version_.load(std::memory_order_acquire);
  const Index num_items = live_num_items_.load(std::memory_order_acquire);
  if (Status invalid = ValidateRequest(request, num_items); !invalid.ok()) {
    Pending rejected;
    rejected.request = std::move(request);
    std::future<Outcome<Recommendation>> future =
        rejected.promise.get_future();
    Answer(std::move(rejected), Outcome<Recommendation>(std::move(invalid)));
    return future;
  }
  Pending pending;
  pending.enqueued_at = start;
  pending.submit_version = submit_version;
  pending.trace_submit_ns = obs::TracingEnabled() ? obs::TraceClockNs() : 0;
  pending.deadline =
      request.options.deadline_ms > 0.0
          ? start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            request.options.deadline_ms))
          : Clock::time_point::max();
  if (cache_ != nullptr) {
    pending.cache_key =
        RequestKey{request.user, request.k, submit_version, request.history,
                   request.candidates};
    if (std::optional<Recommendation> hit = cache_->Get(pending.cache_key)) {
      hit->from_cache = true;
      if (obs::heap::HeapProfilingEnabled()) {
        alloc_requests_.fetch_add(1, std::memory_order_relaxed);
      }
      stats_.RecordRequest(MsSince(start, Clock::now()), /*cache_hit=*/true);
      stats_.RecordOutcome(StatusCode::kOk);
      if (pending.trace_submit_ns != 0) {
        obs::RecordRequestSpan("serve.req.cache_hit", pending.trace_submit_ns,
                               obs::TraceClockNs(), request.id);
      }
      std::promise<Outcome<Recommendation>> ready;
      ready.set_value(Outcome<Recommendation>(*std::move(hit)));
      return ready.get_future();
    }
  }
  const uint64_t rid = request.id;
  const uint64_t submit_ns = pending.trace_submit_ns;
  pending.request = std::move(request);
  std::future<Outcome<Recommendation>> future = pending.promise.get_future();

  bool was_empty = false;
  bool admitted = true;
  Status reject_reason;
  std::optional<Pending> shed_victim;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (config_.shed_high_watermark > 0) {
      // Admission control: never block a producer. Depth crossing the
      // high watermark enters shedding mode; falling back to the low
      // watermark exits it (hysteresis, so the engine does not flap at
      // the boundary).
      if (closed_) {
        admitted = false;
        reject_reason = Status::Overloaded("engine shut down");
      } else {
        const Index depth = static_cast<Index>(queue_.size());
        if (!shedding_ && depth >= config_.shed_high_watermark) {
          shedding_ = true;
        }
        if (shedding_ && depth <= config_.shed_low_watermark) {
          shedding_ = false;
        }
        if (shedding_) {
          // Shed the lowest-priority request: a strictly lower-priority
          // queued victim is displaced, otherwise the newcomer itself is
          // shed (ties shed the newest arrival).
          auto victim = queue_.begin();
          for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (it->request.options.priority <
                victim->request.options.priority) {
              victim = it;
            }
          }
          if (!queue_.empty() && victim->request.options.priority <
                                     pending.request.options.priority) {
            shed_victim = std::move(*victim);
            queue_.erase(victim);
            queue_.push_back(std::move(pending));
          } else {
            admitted = false;
            reject_reason = Status::Overloaded(
                "queue depth at shed watermark (" +
                std::to_string(config_.shed_high_watermark) + ")");
          }
        } else {
          was_empty = queue_.empty();
          queue_.push_back(std::move(pending));
        }
      }
    } else {
      // Blocking backpressure (the v1 default): wait for queue room.
      queue_not_full_.wait(lock, [this] {
        return closed_ ||
               static_cast<Index>(queue_.size()) < config_.queue_capacity;
      });
      if (closed_) {
        admitted = false;
        reject_reason = Status::Overloaded("engine shut down");
      } else {
        was_empty = queue_.empty();
        queue_.push_back(std::move(pending));
      }
    }
    SetQueueDepth(queue_.size());
  }
  if (shed_victim.has_value() || !admitted) {
    // Shed answers may degrade to the live model's popularity prior;
    // pin it only on these cold paths (never per admitted request).
    const std::shared_ptr<const ModelHandle> handle = CurrentModel();
    if (shed_victim.has_value()) {
      if (shed_victim->trace_submit_ns != 0) {
        obs::RecordRequestSpan("serve.req.shed", shed_victim->trace_submit_ns,
                               obs::TraceClockNs(), shed_victim->request.id);
      }
      Outcome<Recommendation> outcome = FailOrDegrade(
          shed_victim->request,
          Status::Overloaded("displaced by higher-priority request"),
          handle.get());
      Answer(std::move(*shed_victim), std::move(outcome));
    }
    if (!admitted) {
      if (submit_ns != 0) {
        obs::RecordRequestSpan("serve.req.shed", submit_ns,
                               obs::TraceClockNs(), rid);
      }
      Outcome<Recommendation> outcome = FailOrDegrade(
          pending.request, std::move(reject_reason), handle.get());
      Answer(std::move(pending), std::move(outcome));
      return future;
    }
  }
  if (submit_ns != 0) {
    obs::RecordRequestSpan("serve.req.enqueue", submit_ns, obs::TraceClockNs(),
                           rid);
  }
  // Only the empty -> non-empty transition needs a wakeup: a lingering
  // worker drains the queue at its batch deadline anyway, and waking it
  // per request would cost a context switch each time.
  if (was_empty) queue_not_empty_.notify_one();
  return future;
}

Outcome<Recommendation> ServingEngine::Recommend(const Request& request) {
  return RecommendAsync(request).get();
}

void ServingEngine::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    std::vector<Pending> drained;
    bool leftover = false;
    bool shutting_down = false;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_not_empty_.wait(lock,
                            [this] { return closed_ || !queue_.empty(); });
      if (closed_) {
        shutting_down = true;
        // Shutdown: ANSWER everything still queued (kOverloaded or a
        // degraded fallback), never score it, never drop it.
        while (!queue_.empty()) {
          drained.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
        SetQueueDepth(0);
      } else {
        // Micro-batching: grab what is already waiting, then (optionally)
        // linger up to the batch window for concurrent requests to
        // arrive. Requests found already past their deadline are set
        // aside and answered kDeadlineExceeded without scoring.
        PhaseAllocScope alloc_scope(this, kAllocBatch);
        ISREC_TRACE_SPAN("serve.batch_assembly");
        const auto deadline =
            Clock::now() + std::chrono::microseconds(config_.batch_window_us);
        while (static_cast<Index>(batch.size()) < config_.max_batch_size) {
          if (!queue_.empty()) {
            Pending pending = std::move(queue_.front());
            queue_.pop_front();
            // Clocks are only read here for requests that carry a
            // deadline or a trace context, so the happy path (no
            // deadline, tracing off) stays syscall-free in this lock.
            if (pending.trace_submit_ns != 0 && obs::TracingEnabled()) {
              pending.trace_dequeue_ns = obs::TraceClockNs();
            }
            if (pending.deadline != Clock::time_point::max() &&
                pending.deadline <= Clock::now()) {
              expired.push_back(std::move(pending));
            } else {
              batch.push_back(std::move(pending));
            }
            continue;
          }
          if (closed_ || config_.batch_window_us == 0) break;
          ISREC_TRACE_SPAN("serve.linger");
          if (queue_not_empty_.wait_until(lock, deadline) ==
                  std::cv_status::timeout &&
              queue_.empty()) {
            break;
          }
        }
        leftover = !queue_.empty();
        SetQueueDepth(queue_.size());
      }
    }
    if (shutting_down) {
      // The drain path pins NO model handle: leftovers are answered from
      // the config-level prior (or plain kOverloaded) so shutdown never
      // extends any model generation's lifetime.
      for (Pending& pending : drained) {
        Answer(std::move(pending),
               FailOrDegrade(pending.request,
                             Status::Overloaded("engine shut down"),
                             /*handle=*/nullptr));
      }
      return;
    }
    queue_not_full_.notify_all();
    // Producers skip the wakeup while the queue is non-empty, so hand
    // any overflow beyond this batch to a sibling worker explicitly.
    if (leftover) queue_not_empty_.notify_one();
    if (obs::TracingEnabled()) {
      // Per-request wait + assembly spans, outside the queue lock.
      const uint64_t assembled_ns = obs::TraceClockNs();
      for (const Pending& pending : expired) {
        if (pending.trace_dequeue_ns == 0) continue;
        obs::RecordRequestSpan("serve.req.queued", pending.trace_submit_ns,
                               pending.trace_dequeue_ns, pending.request.id);
      }
      for (const Pending& pending : batch) {
        if (pending.trace_dequeue_ns == 0) continue;
        obs::RecordRequestSpan("serve.req.queued", pending.trace_submit_ns,
                               pending.trace_dequeue_ns, pending.request.id);
        obs::RecordRequestSpan("serve.req.batch_assembly",
                               pending.trace_dequeue_ns, assembled_ns,
                               pending.request.id);
      }
    }
    for (Pending& pending : expired) {
      Answer(std::move(pending),
             Outcome<Recommendation>(Status::DeadlineExceeded(
                 "deadline expired while queued")));
    }
    if (!batch.empty()) ProcessBatch(std::move(batch));
  }
}

void ServingEngine::ProcessBatch(std::vector<Pending> batch) {
  // Pin the live model generation ONCE for the whole batch: every
  // request below is scored by exactly this version, even if a Publish
  // lands mid-score. The pin releases when `handle` leaves scope.
  const std::shared_ptr<const ModelHandle> handle = CurrentModel();
  ISREC_CHECK(handle != nullptr);
  // Requests admitted under a different generation were validated
  // against that generation's catalog; re-validate them against the one
  // actually scoring (a shrunk catalog must reject, not index out of
  // range). Requests submitted under this generation skip the re-check.
  {
    std::vector<Pending> still_valid;
    still_valid.reserve(batch.size());
    for (Pending& pending : batch) {
      if (pending.submit_version != handle->version) {
        Status revalidated =
            ValidateRequest(pending.request, handle->num_items());
        if (!revalidated.ok()) {
          Answer(std::move(pending),
                 Outcome<Recommendation>(std::move(revalidated)));
          continue;
        }
        // Re-tag the cache key: entries must carry the version that
        // produces them, so the second lookup and the Put below can
        // never cross generations.
        pending.cache_key.model_version = handle->version;
        pending.submit_version = handle->version;
      }
      still_valid.push_back(std::move(pending));
    }
    batch = std::move(still_valid);
    if (batch.empty()) return;
  }
  // Second cache lookup: a duplicate request that was still in flight at
  // submit time (so its first lookup missed) may have completed while
  // this one waited in the queue. Bursts of repeated requests otherwise
  // never hit the cache at all.
  if (cache_ != nullptr) {
    std::vector<Pending> misses;
    misses.reserve(batch.size());
    const auto now = Clock::now();
    for (Pending& pending : batch) {
      std::optional<Recommendation> hit = cache_->Get(pending.cache_key);
      if (!hit.has_value()) {
        misses.push_back(std::move(pending));
        continue;
      }
      hit->from_cache = true;
      stats_.RecordRequest(MsSince(pending.enqueued_at, now),
                           /*cache_hit=*/true);
      if (pending.trace_dequeue_ns != 0) {
        obs::RecordRequestSpan("serve.req.cache_hit",
                               pending.trace_dequeue_ns, obs::TraceClockNs(),
                               pending.request.id);
      }
      Answer(std::move(pending), Outcome<Recommendation>(*std::move(hit)));
    }
    batch = std::move(misses);
    if (batch.empty()) return;
  }
  // "score" covers the scorer-input build plus the ScoreBatch call;
  // everything after (TopK, caching, answering) is "respond". optional
  // so the score scope flushes before the respond scope opens —
  // AllocationCounter charges the innermost scope only.
  std::optional<PhaseAllocScope> score_alloc(std::in_place, this, kAllocScore);
  std::vector<Index> users;
  std::vector<std::vector<Index>> histories;
  std::vector<std::vector<Index>> candidate_lists;
  users.reserve(batch.size());
  histories.reserve(batch.size());
  candidate_lists.reserve(batch.size());
  for (const Pending& pending : batch) {
    users.push_back(pending.request.user);
    histories.push_back(pending.request.history);
    candidate_lists.push_back(pending.request.candidates.empty()
                                  ? handle->catalog
                                  : pending.request.candidates);
  }
  const uint64_t score_start_ns =
      obs::TracingEnabled() ? obs::TraceClockNs() : 0;
  Outcome<std::vector<std::vector<float>>> scored = [&] {
    ISREC_TRACE_SPAN("serve.score_batch");
    try {
      fault_.OnScore();
    } catch (const std::exception& e) {
      return Outcome<std::vector<std::vector<float>>>(
          Status::ModelError(e.what()));
    }
    return handle->scorer().TryScoreBatch(users, histories, candidate_lists);
  }();
  const uint64_t score_end_ns = score_start_ns != 0 ? obs::TraceClockNs() : 0;
  if (score_end_ns != 0) {
    // The batch is scored by one shared ScoreBatch call; every member's
    // timeline gets the same score span (that sharing is the point of
    // micro-batching, and /tracez should show it).
    for (const Pending& pending : batch) {
      if (pending.trace_submit_ns == 0) continue;
      obs::RecordRequestSpan("serve.req.score", score_start_ns, score_end_ns,
                             pending.request.id);
    }
  }
  score_alloc.reset();
  PhaseAllocScope respond_alloc(this, kAllocRespond);
  if (!scored.has_value()) {
    // Model failure: the whole batch fails over as one — degraded
    // fallbacks where allowed, kModelError otherwise.
    Status error = scored.status().ok()
                       ? Status::ModelError("scoring returned no value")
                       : scored.status();
    for (Pending& pending : batch) {
      const uint64_t rid = pending.request.id;
      const bool traced = pending.trace_submit_ns != 0 && score_end_ns != 0;
      Answer(std::move(pending),
             FailOrDegrade(pending.request, error, handle.get()));
      if (traced) {
        obs::RecordRequestSpan("serve.req.respond", score_end_ns,
                               obs::TraceClockNs(), rid);
      }
    }
    return;
  }
  const std::vector<std::vector<float>>& scores = *scored;
  const auto done = Clock::now();
  std::vector<double> latencies_ms;
  latencies_ms.reserve(batch.size());
  for (const Pending& pending : batch) {
    latencies_ms.push_back(MsSince(pending.enqueued_at, done));
  }
  // Record before fulfilling any promise so a caller that wakes on its
  // future never observes stats missing its own request.
  stats_.RecordProcessedBatch(static_cast<Index>(batch.size()), latencies_ms);
  for (size_t i = 0; i < batch.size(); ++i) {
    const uint64_t rid = batch[i].request.id;
    const bool traced = batch[i].trace_submit_ns != 0 && score_end_ns != 0;
    Recommendation rec =
        TopK(scores[i], candidate_lists[i], batch[i].request.k);
    rec.model_version = handle->version;
    // Cache even a too-late result: it is correct, and the next
    // identical request gets it instantly. The key carries the pinned
    // version, so entries never outlive their generation's lookups.
    if (cache_ != nullptr) cache_->Put(batch[i].cache_key, rec);
    if (batch[i].deadline != Clock::time_point::max() &&
        batch[i].deadline <= done) {
      // Post-score enforcement: the work happened but the caller's
      // deadline did not survive it; the contract is a typed outcome,
      // not a late answer.
      Answer(std::move(batch[i]),
             Outcome<Recommendation>(
                 Status::DeadlineExceeded("scored past deadline")));
    } else {
      Answer(std::move(batch[i]), Outcome<Recommendation>(std::move(rec)));
    }
    if (traced) {
      obs::RecordRequestSpan("serve.req.respond", score_end_ns,
                             obs::TraceClockNs(), rid);
    }
  }
}

void RegisterAdminSections(obs::AdminServer& admin, ServingEngine& engine) {
  admin.AddVarzSection("serve_stats", [&engine] {
    return ServeStatsJson(engine.Stats());
  });
  // Which SIMD kernel set this replica runs (compiled-in ISA targets,
  // runtime-selected table, per-kernel dispatch counts) — the serving
  // counterpart of the `kernels:` line in the build info string.
  admin.AddVarzSection("kernels", [] { return kernels::VarzJson(); });
  admin.AddStatuszSection("Serving", [&engine] {
    const ServeStats stats = engine.Stats();
    const EngineConfig& config = engine.config();
    char line[192];
    auto row = [&line](const char* name, const std::string& value) {
      std::snprintf(line, sizeof(line), "<tr><td>%s</td><td>%s</td></tr>",
                    name, value.c_str());
      return std::string(line);
    };
    auto num = [&line](double v) {
      std::snprintf(line, sizeof(line), "%.4g", v);
      return std::string(line);
    };
    std::string html = "<table><tr><th>serve_stat</th><th>value</th></tr>";
    html += row("model_version", std::to_string(stats.model_version));
    html += row("model_epoch", std::to_string(stats.model_epoch));
    html += row("model_swaps", std::to_string(stats.model_swaps));
    html += row("requests", std::to_string(stats.num_requests));
    html += row("qps", num(stats.qps));
    html += row("p50_ms", num(stats.p50_ms));
    html += row("p95_ms", num(stats.p95_ms));
    html += row("p99_ms", num(stats.p99_ms));
    html += row("mean_batch_size", num(stats.mean_batch_size));
    html += row("cache_hit_rate", num(stats.cache_hit_rate()));
    html += row("ok", std::to_string(stats.ok));
    html += row("rejected", std::to_string(stats.rejected));
    html += row("deadline_exceeded", std::to_string(stats.deadline_exceeded));
    html += row("degraded", std::to_string(stats.degraded));
    html += row("invalid_arguments", std::to_string(stats.invalid_arguments));
    html += row("model_errors", std::to_string(stats.model_errors));
    html += row("alloc_requests", std::to_string(stats.alloc_requests));
    html += row("allocs_per_request", num(stats.allocs_per_request()));
    html += row("alloc_bytes_per_request",
                num(stats.alloc_bytes_per_request()));
    html += "</table><table><tr><th>engine config</th><th>value</th></tr>";
    html += row("num_threads", std::to_string(config.num_threads));
    html += row("max_batch_size", std::to_string(config.max_batch_size));
    html += row("batch_window_us", std::to_string(config.batch_window_us));
    html += row("queue_capacity", std::to_string(config.queue_capacity));
    html += row("shed_high_watermark",
                std::to_string(config.shed_high_watermark));
    html += row("shed_low_watermark",
                std::to_string(config.shed_low_watermark));
    html += row("cache_capacity", std::to_string(config.cache_capacity));
    html += "</table>";
    return html;
  });
}

}  // namespace isrec::serve
