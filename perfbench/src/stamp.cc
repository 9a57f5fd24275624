#include "stamp.h"

#include <sys/resource.h>

#include <cstring>
#include <thread>

#include "tensor/kernels/registry.h"

namespace perfbench {

const char* BuildType() { return PERFBENCH_BUILD_TYPE; }

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

bool TimingBuild() {
  return (std::strcmp(BuildType(), "Release") == 0 ||
          std::strcmp(BuildType(), "RelWithDebInfo") == 0) &&
         std::strcmp(Sanitizer(), "none") == 0;
}

std::string StampLine(uint64_t seed, const std::string& git_sha) {
  return "stamp nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " isa=" + isrec::kernels::IsaName(isrec::kernels::ActiveIsa()) +
         " build_type=" + BuildType() + " sanitizer=" + Sanitizer() +
         " git_sha=" + (git_sha.empty() ? "unknown" : git_sha) +
         " seed=" + std::to_string(seed) + " flags=\"" + PERFBENCH_CXX_FLAGS +
         "\"";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace perfbench
