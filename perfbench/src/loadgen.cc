#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::vector<double> PoissonSchedule(double rate_rps, double duration_s,
                                    uint64_t seed) {
  std::vector<double> schedule;
  if (rate_rps <= 0.0 || duration_s <= 0.0) return schedule;
  schedule.reserve(static_cast<size_t>(rate_rps * duration_s * 1.1) + 16);
  SplitMix rng(seed);
  double t = 0.0;
  for (;;) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.Uniform()) / rate_rps;
    if (t >= duration_s) break;
    schedule.push_back(t);
  }
  return schedule;
}

bool PercentileSupported(size_t samples, double p) {
  const double beyond = std::floor((1.0 - p) * static_cast<double>(samples));
  return beyond >= static_cast<double>(kMinTailSamples);
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty() || !PercentileSupported(sorted.size(), p)) {
    return std::nan("");
  }
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> PhaseResult::SortedLatency() const {
  std::vector<double> sorted = latency_ms;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

void PreciseSleeps() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

}  // namespace perfbench
