#include "serve/stats.h"

#include <algorithm>
#include <chrono>

#include "utils/table.h"

namespace isrec::serve {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void StatsRecorder::RecordLatenciesLocked(
    std::span<const double> latencies_ms) {
  if (latencies_ms.empty()) return;
  if (start_seconds_ < 0.0) start_seconds_ = NowSeconds();
  uint64_t seen = requests_.Value();
  for (const double latency_ms : latencies_ms) {
    ++seen;
    // Vitter's algorithm R: once the reservoir is full, the i-th sample
    // (1-based) replaces a uniformly drawn slot with probability cap/i,
    // so every sample seen so far is retained with equal probability.
    if (latency_reservoir_.size() < kReservoirCapacity) {
      latency_reservoir_.push_back(latency_ms);
      continue;
    }
    const uint64_t slot = SplitMix64(&reservoir_rng_) % seen;
    if (slot < kReservoirCapacity) {
      latency_reservoir_[static_cast<size_t>(slot)] = latency_ms;
    }
  }
  requests_.Add(latencies_ms.size());
}

void StatsRecorder::RecordBatchLocked(Index batch_size) {
  if (batch_size_histogram_.size() <= static_cast<size_t>(batch_size)) {
    batch_size_histogram_.resize(batch_size + 1, 0);
  }
  ++batch_size_histogram_[batch_size];
  batches_.Add();
}

void StatsRecorder::RecordRequest(double latency_ms, bool cache_hit) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RecordLatenciesLocked({&latency_ms, 1});
    (cache_hit ? cache_hits_ : cache_misses_).Add();
  }
  latency_ms_.Observe(latency_ms);
}

void StatsRecorder::RecordBatch(Index batch_size) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RecordBatchLocked(batch_size);
  }
  batch_size_.Observe(static_cast<double>(batch_size));
}

void StatsRecorder::RecordProcessedBatch(
    Index batch_size, const std::vector<double>& latencies_ms) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RecordBatchLocked(batch_size);
    RecordLatenciesLocked(latencies_ms);
    cache_misses_.Add(latencies_ms.size());
  }
  batch_size_.Observe(static_cast<double>(batch_size));
  for (const double latency_ms : latencies_ms) {
    latency_ms_.Observe(latency_ms);
  }
}

void StatsRecorder::RecordOutcome(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      ok_.Add();
      break;
    case StatusCode::kOverloaded:
      rejected_.Add();
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded_.Add();
      break;
    case StatusCode::kDegraded:
      degraded_.Add();
      break;
    case StatusCode::kInvalidArgument:
      invalid_arguments_.Add();
      break;
    case StatusCode::kModelError:
      model_errors_.Add();
      break;
  }
}

void StatsRecorder::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  latency_reservoir_.clear();
  reservoir_rng_ = 0x9e3779b97f4a7c15ull;
  batch_size_histogram_.clear();
  for (obs::InstanceCounter* counter :
       {&requests_, &cache_hits_, &cache_misses_, &batches_, &ok_,
        &rejected_, &deadline_exceeded_, &degraded_, &invalid_arguments_,
        &model_errors_}) {
    counter->Reset();
  }
  // Lazy re-arm: the window restarts at the next recorded event, not at
  // Reset() time, so a long idle gap before the next burst does not
  // deflate qps (see header contract; pinned by serve_test).
  start_seconds_ = -1.0;
}

ServeStats StatsRecorder::Snapshot() const {
  ServeStats stats;
  std::vector<double> latencies;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    latencies = latency_reservoir_;
    stats.num_requests = requests_.Value();
    stats.batch_size_histogram = batch_size_histogram_;
    stats.cache_hits = cache_hits_.Value();
    stats.cache_misses = cache_misses_.Value();
    stats.num_batches = batches_.Value();
    stats.elapsed_seconds =
        start_seconds_ < 0.0 ? 0.0 : NowSeconds() - start_seconds_;
  }
  stats.ok = ok_.Value();
  stats.rejected = rejected_.Value();
  stats.deadline_exceeded = deadline_exceeded_.Value();
  stats.degraded = degraded_.Value();
  stats.invalid_arguments = invalid_arguments_.Value();
  stats.model_errors = model_errors_.Value();
  if (stats.elapsed_seconds > 0.0) {
    stats.qps = stats.num_requests / stats.elapsed_seconds;
  }
  std::sort(latencies.begin(), latencies.end());
  stats.p50_ms = Percentile(latencies, 0.50);
  stats.p95_ms = Percentile(latencies, 0.95);
  stats.p99_ms = Percentile(latencies, 0.99);
  uint64_t batched_requests = 0;
  for (size_t b = 0; b < stats.batch_size_histogram.size(); ++b) {
    batched_requests += b * stats.batch_size_histogram[b];
  }
  stats.mean_batch_size =
      stats.num_batches == 0
          ? 0.0
          : static_cast<double>(batched_requests) / stats.num_batches;
  return stats;
}

std::string ServeStats::ToTableString() const {
  Table table({"serve_stat", "value"});
  table.AddRow({"requests", std::to_string(num_requests)});
  table.AddRow({"elapsed_s", FormatFloat(elapsed_seconds, 3)});
  table.AddRow({"qps", FormatFloat(qps, 1)});
  table.AddRow({"p50_ms", FormatFloat(p50_ms, 3)});
  table.AddRow({"p95_ms", FormatFloat(p95_ms, 3)});
  table.AddRow({"p99_ms", FormatFloat(p99_ms, 3)});
  table.AddRow({"batches", std::to_string(num_batches)});
  table.AddRow({"mean_batch_size", FormatFloat(mean_batch_size, 2)});
  table.AddRow({"cache_hits", std::to_string(cache_hits)});
  table.AddRow({"cache_misses", std::to_string(cache_misses)});
  table.AddRow({"cache_hit_rate", FormatFloat(cache_hit_rate(), 3)});
  table.AddRow({"ok", std::to_string(ok)});
  table.AddRow({"rejected", std::to_string(rejected)});
  table.AddRow({"deadline_exceeded", std::to_string(deadline_exceeded)});
  table.AddRow({"degraded", std::to_string(degraded)});
  table.AddRow({"invalid_arguments", std::to_string(invalid_arguments)});
  table.AddRow({"model_errors", std::to_string(model_errors)});
  table.AddRow({"queue_depth", std::to_string(queue_depth)});
  table.AddRow({"shedding", shedding ? "true" : "false"});
  table.AddRow({"model_version", std::to_string(model_version)});
  table.AddRow({"model_epoch", std::to_string(model_epoch)});
  table.AddRow({"model_swaps", std::to_string(model_swaps)});
  if (alloc_requests > 0) {
    table.AddRow({"alloc_count", std::to_string(alloc_count)});
    table.AddRow({"alloc_bytes", std::to_string(alloc_bytes)});
    table.AddRow({"alloc_requests", std::to_string(alloc_requests)});
    table.AddRow({"allocs_per_request", FormatFloat(allocs_per_request(), 2)});
  }
  table.AddSeparator();
  for (size_t b = 1; b < batch_size_histogram.size(); ++b) {
    if (batch_size_histogram[b] == 0) continue;
    table.AddRow({"batch_size=" + std::to_string(b),
                  std::to_string(batch_size_histogram[b])});
  }
  return table.ToString();
}

std::string ServeStatsJson(const ServeStats& stats) {
  char buffer[64];
  auto num = [&buffer](double v) {
    std::snprintf(buffer, sizeof(buffer), "%.6g", v);
    return std::string(buffer);
  };
  std::string out = "{";
  // Load signals first: the router's poller scrapes these two from the
  // front of the object (satellite contract, pinned by admin_server_test).
  out += "\"queue_depth\": " + std::to_string(stats.queue_depth);
  out += ", \"shedding\": " + std::string(stats.shedding ? "true" : "false");
  // Model lifecycle next, still in the poller-friendly cheap prefix:
  // the prober reads model_version for the fleet version-skew table.
  out += ", \"model_version\": " + std::to_string(stats.model_version);
  out += ", \"model_epoch\": " + std::to_string(stats.model_epoch);
  out += ", \"model_swaps\": " + std::to_string(stats.model_swaps);
  out += ", \"requests\": " + std::to_string(stats.num_requests);
  out += ", \"elapsed_s\": " + num(stats.elapsed_seconds);
  out += ", \"qps\": " + num(stats.qps);
  out += ", \"p50_ms\": " + num(stats.p50_ms);
  out += ", \"p95_ms\": " + num(stats.p95_ms);
  out += ", \"p99_ms\": " + num(stats.p99_ms);
  out += ", \"batches\": " + std::to_string(stats.num_batches);
  out += ", \"mean_batch_size\": " + num(stats.mean_batch_size);
  out += ", \"cache_hits\": " + std::to_string(stats.cache_hits);
  out += ", \"cache_misses\": " + std::to_string(stats.cache_misses);
  out += ", \"cache_hit_rate\": " + num(stats.cache_hit_rate());
  out += ", \"ok\": " + std::to_string(stats.ok);
  out += ", \"rejected\": " + std::to_string(stats.rejected);
  out += ", \"deadline_exceeded\": " + std::to_string(stats.deadline_exceeded);
  out += ", \"degraded\": " + std::to_string(stats.degraded);
  out += ", \"invalid_arguments\": " + std::to_string(stats.invalid_arguments);
  out += ", \"model_errors\": " + std::to_string(stats.model_errors);
  // Heap-accounting baseline (all zero with heap profiling off).
  // Appended AFTER the established fields so the poller prefix contract
  // above is untouched; the router's prober reads allocs_per_request.
  out += ", \"alloc_count\": " + std::to_string(stats.alloc_count);
  out += ", \"alloc_bytes\": " + std::to_string(stats.alloc_bytes);
  out += ", \"alloc_requests\": " + std::to_string(stats.alloc_requests);
  out += ", \"allocs_per_request\": " + num(stats.allocs_per_request());
  out += ", \"alloc_bytes_per_request\": " +
         num(stats.alloc_bytes_per_request());
  out += ", \"batch_size_histogram\": [";
  for (size_t b = 0; b < stats.batch_size_histogram.size(); ++b) {
    if (b > 0) out += ", ";
    out += std::to_string(stats.batch_size_histogram[b]);
  }
  out += "]}";
  return out;
}

std::string OutcomesLine(const ServeStats& stats) {
  // Every StatusCode in declaration order, named by StatusCodeName.
  std::string out = "outcomes:";
  out += " OK=" + std::to_string(stats.ok);
  out += " DEADLINE_EXCEEDED=" + std::to_string(stats.deadline_exceeded);
  out += " OVERLOADED=" + std::to_string(stats.rejected);
  out += " INVALID_ARGUMENT=" + std::to_string(stats.invalid_arguments);
  out += " MODEL_ERROR=" + std::to_string(stats.model_errors);
  out += " DEGRADED=" + std::to_string(stats.degraded);
  return out;
}

}  // namespace isrec::serve
