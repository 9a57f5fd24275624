#ifndef PERFBENCH_STAMP_H_
#define PERFBENCH_STAMP_H_

// Build and environment stamp printed with every result.

#include <cstdint>
#include <string>

namespace perfbench {

/// CMAKE_BUILD_TYPE the benchmark was compiled with.
const char* BuildType();

/// "address", "thread" or "none": the sanitizer compiled into this build.
const char* Sanitizer();

/// True for an optimized, sanitizer-free build: the only kind whose
/// timings the benchmark reports.
bool TimingBuild();

/// One line: nproc, active kernel ISA, build type, sanitizer, compile
/// flags, git sha and seed.
std::string StampLine(uint64_t seed, const std::string& git_sha);

/// Peak resident set size of this process in MiB (getrusage).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_STAMP_H_
