#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Load generation for the serving benchmark: a seeded Poisson arrival
// schedule, an open-loop runner that times every request from its
// *scheduled* send time (so a stall in the system under test shows up in
// the latency of every request that was due during it), a closed-loop
// capacity runner, and tail-aware percentiles.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Fewest samples a reported percentile must leave above it.
inline constexpr size_t kMinTailSamples = 10;

/// splitmix64: the benchmark's only random source, so inputs depend on
/// the seed alone (not on the standard library's distributions).
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Ascending arrival offsets in seconds from the phase start: exponential
/// gaps at `rate_rps` until `duration_s`. Same arguments, same schedule.
std::vector<double> PoissonSchedule(double rate_rps, double duration_s,
                                    uint64_t seed);

/// True when the p-quantile of `samples` values leaves at least
/// kMinTailSamples samples above it.
bool PercentileSupported(size_t samples, double p);

/// Nearest-rank p-quantile of ascending `sorted`; NaN when the sample
/// does not support it (see PercentileSupported).
double Percentile(const std::vector<double>& sorted, double p);

/// Median of `values` (copied and sorted); NaN when empty.
double Median(std::vector<double> values);

/// Outcome counts and timings of one load phase.
struct PhaseResult {
  std::string name;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  /// Per request, from its scheduled send time (open loop) or its send
  /// time (closed loop) to completion. Failed requests read +infinity:
  /// they miss every latency limit.
  std::vector<double> latency_ms;
  /// Per request, how late the generator sent it (open loop only).
  std::vector<double> late_ms;
  double wall_s = 0.0;

  double Throughput() const { return wall_s > 0.0 ? ok / wall_s : 0.0; }
  /// latency_ms sorted ascending.
  std::vector<double> SortedLatency() const;
};

/// Sets the calling thread's timer slack to 1 ns, so sleep_until wakes
/// a sender on time instead of up to 50 us late.
void PreciseSleeps();

/// Open loop against an asynchronous target. The calling thread sends
/// request i at schedule[i] via `submit(i)`; `collectors` threads wait on
/// the returned handles in send order with `wait(i, handle)`, which
/// returns whether the response was correct and OK.
template <typename Handle>
PhaseResult RunOpenLoopAsync(const std::string& name,
                             const std::vector<double>& schedule,
                             int collectors,
                             const std::function<Handle(size_t)>& submit,
                             const std::function<bool(size_t, Handle&)>& wait) {
  struct InFlight {
    size_t index;
    Clock::time_point due;
    Handle handle;
  };
  PhaseResult result;
  result.name = name;
  result.latency_ms.assign(schedule.size(), 0.0);
  result.late_ms.assign(schedule.size(), 0.0);
  std::vector<char> ok(schedule.size(), 0);

  std::mutex mutex;
  std::condition_variable ready;
  std::deque<InFlight> queue;
  bool done = false;

  std::vector<std::thread> threads;
  for (int c = 0; c < collectors; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        InFlight item = std::move(queue.front());
        queue.pop_front();
        lock.unlock();
        const bool good = wait(item.index, item.handle);
        const double ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - item.due)
                              .count();
        ok[item.index] = good ? 1 : 0;
        result.latency_ms[item.index] =
            good ? ms : std::numeric_limits<double>::infinity();
      }
    });
  }

  PreciseSleeps();
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i]));
    std::this_thread::sleep_until(due);
    result.late_ms[i] =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    Handle handle = submit(i);
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back({i, due, std::move(handle)});
    }
    ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  ready.notify_all();
  for (std::thread& t : threads) t.join();
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  result.sent = schedule.size();
  for (char good : ok) (good ? result.ok : result.failed) += 1;
  return result;
}

/// Closed loop against an asynchronous target from the calling thread:
/// keeps `window` requests in flight for `seconds`, waiting on the oldest
/// before sending the next. Request indices run 0, 1, 2, ...
template <typename Handle>
PhaseResult RunClosedLoopAsync(const std::string& name, double seconds,
                               size_t window,
                               const std::function<Handle(size_t)>& submit,
                               const std::function<bool(size_t, Handle&)>& wait) {
  struct InFlight {
    size_t index;
    Clock::time_point sent;
    Handle handle;
  };
  PhaseResult result;
  result.name = name;
  std::deque<InFlight> in_flight;
  size_t next = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto send = [&] {
    const Clock::time_point now = Clock::now();
    in_flight.push_back({next, now, submit(next)});
    ++next;
  };
  while (in_flight.size() < window) send();
  while (!in_flight.empty()) {
    InFlight item = std::move(in_flight.front());
    in_flight.pop_front();
    const bool good = wait(item.index, item.handle);
    const Clock::time_point now = Clock::now();
    result.latency_ms.push_back(
        good ? std::chrono::duration<double, std::milli>(now - item.sent).count()
             : std::numeric_limits<double>::infinity());
    (good ? result.ok : result.failed) += 1;
    if (now < stop) send();
  }
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  result.sent = next;
  return result;
}

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
