// Self-tests of the benchmark's load generator. Run with
//   python3 perfbench/run.py --selftest
// Exit code 0 when every check passes.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "loadgen.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Check(bool condition, const char* what) {
  std::printf("%s  %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++g_failures;
}

void PoissonScheduleIsDeterministic() {
  const std::vector<double> a = PoissonSchedule(2000.0, 1.0, 7);
  const std::vector<double> b = PoissonSchedule(2000.0, 1.0, 7);
  const std::vector<double> c = PoissonSchedule(2000.0, 1.0, 8);
  Check(!a.empty() && a == b, "same seed gives the same schedule");
  Check(a != c, "another seed gives another schedule");
  bool ascending = true;
  for (size_t i = 1; i < a.size(); ++i) ascending &= a[i] > a[i - 1];
  Check(ascending && a.back() < 1.0, "arrivals ascend within the phase");
  Check(std::fabs(static_cast<double>(a.size()) - 2000.0) < 200.0,
        "arrival count is near rate x duration");
}

void StallShowsInLaterLatencies() {
  // 1000 rps for 0.3 s against a target that takes 0.2 ms, except that
  // request 20 stalls for 60 ms. One collector waits on the responses in
  // send order: responses due during the stall arrive late, and their
  // latency, timed from the schedule, must include the wait.
  const std::vector<double> schedule = PoissonSchedule(1000.0, 0.3, 3);
  const size_t stalled = 20;
  const PhaseResult result = RunOpenLoopAsync<int>(
      "stall", schedule, 1, [](size_t i) { return static_cast<int>(i); },
      [&](size_t, int& i) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<size_t>(i) == stalled ? 60000 : 200));
        return true;
      });
  const double stall_end_s = schedule[stalled] + 0.060;
  bool later_waited = true;
  size_t affected = 0;
  for (size_t i = stalled + 1; i < schedule.size(); ++i) {
    if (schedule[i] >= stall_end_s - 0.005) break;
    ++affected;
    const double owed_ms = (stall_end_s - schedule[i]) * 1000.0;
    later_waited &= result.latency_ms[i] >= owed_ms - 1.0;
  }
  Check(affected >= 10, "the stall overlaps at least ten later arrivals");
  Check(later_waited, "each request due during the stall counts the wait");
  Check(result.ok == schedule.size() && result.failed == 0,
        "every request is counted once");
}

void PercentileNeedsTenSamplesBeyond() {
  std::vector<double> sorted;
  for (int i = 1; i <= 999; ++i) sorted.push_back(i);
  Check(!PercentileSupported(999, 0.99) && std::isnan(Percentile(sorted, 0.99)),
        "p99 of 999 samples is not reported");
  sorted.push_back(1000);
  Check(PercentileSupported(1000, 0.99) && Percentile(sorted, 0.99) == 990.0,
        "p99 of 1000 samples leaves ten above it");
  Check(Percentile(sorted, 0.5) == 500.0, "p50 is the nearest-rank median");
  Check(std::isnan(Percentile(std::vector<double>(5, 1.0), 0.5)),
        "p50 of five samples is not reported");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PoissonScheduleIsDeterministic();
  perfbench::StallShowsInLaterLatencies();
  perfbench::PercentileNeedsTenSamplesBeyond();
  std::printf("%s\n", perfbench::g_failures == 0 ? "selftest: all passed"
                                                  : "selftest: FAILED");
  return perfbench::g_failures == 0 ? 0 : 1;
}
