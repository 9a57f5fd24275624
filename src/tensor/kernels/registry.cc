#include "tensor/kernels/registry.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>

namespace isrec::kernels {
namespace {

const char* const kIsaNames[kNumIsas] = {"scalar", "avx2"};

const char* const kKernelNames[static_cast<int>(KernelId::kCount)] = {
    "gemm_plain",  "gemm_transa", "gemm_transb", "gemm_transab",
    "spmm",        "eltwise",     "softmax",     "logsoftmax",
    "layernorm",   "quantize_i8", "gemm_i8",
};

std::atomic<uint64_t>
    g_dispatch[kNumIsas][static_cast<int>(KernelId::kCount)] = {};

// What ISREC_KERNEL_ISA asked for, for /varz ("" when unset/invalid).
std::string* g_env_override = nullptr;

// Best tier this host can actually run. The compile-time gate lives in
// the per-ISA TU (its accessor returns nullptr when not compiled in);
// the runtime gate is the CPUID probe here: a binary compiled with
// AVX2 kernels may still land on a host without them.
Isa ProbeBestIsa() {
#if defined(__x86_64__) || defined(_M_X64)
  if (Avx2KernelTable() != nullptr && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    return Isa::kAvx2;
  }
#endif
  return Isa::kScalar;
}

struct ActiveState {
  std::atomic<const KernelTable*> table{nullptr};
  std::atomic<int> isa{0};
  Isa default_isa = Isa::kScalar;  // Probe/env result, for Reset.
  std::once_flag once;
};

ActiveState& State() {
  static ActiveState state;
  return state;
}

void InitOnce(ActiveState& s) {
  std::call_once(s.once, [&s] {
    Isa chosen = ProbeBestIsa();
    static std::string env_override;
    g_env_override = &env_override;
    if (const char* env = std::getenv("ISREC_KERNEL_ISA")) {
      bool matched = false;
      for (int i = 0; i < kNumIsas; ++i) {
        if (std::strcmp(env, kIsaNames[i]) == 0) {
          matched = true;
          if (Table(static_cast<Isa>(i)) != nullptr) {
            chosen = static_cast<Isa>(i);
            env_override = env;
          } else {
            std::fprintf(stderr,
                         "isrec: ISREC_KERNEL_ISA=%s unavailable on this "
                         "host/build, using %s\n",
                         env, kIsaNames[static_cast<int>(chosen)]);
          }
        }
      }
      if (!matched) {
        std::fprintf(stderr,
                     "isrec: unknown ISREC_KERNEL_ISA=%s (want scalar|avx2), "
                     "using %s\n",
                     env, kIsaNames[static_cast<int>(chosen)]);
      }
    }
    s.default_isa = chosen;
    s.isa.store(static_cast<int>(chosen), std::memory_order_relaxed);
    s.table.store(Table(chosen), std::memory_order_release);
  });
}

}  // namespace

const char* IsaName(Isa isa) { return kIsaNames[static_cast<int>(isa)]; }

const KernelTable* Table(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return ScalarKernelTable();
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
        return nullptr;
      }
#endif
      return Avx2KernelTable();
  }
  return nullptr;
}

const KernelTable& Active() {
  ActiveState& s = State();
  const KernelTable* t = s.table.load(std::memory_order_acquire);
  if (t == nullptr) {
    InitOnce(s);
    t = s.table.load(std::memory_order_acquire);
  }
  return *t;
}

Isa ActiveIsa() {
  Active();  // Ensure resolved.
  return static_cast<Isa>(State().isa.load(std::memory_order_relaxed));
}

std::vector<std::string> CompiledIsas() {
  std::vector<std::string> out = {"scalar"};
  if (Avx2KernelTable() != nullptr) out.push_back("avx2");
  return out;
}

bool SetActiveForTesting(Isa isa) {
  ActiveState& s = State();
  InitOnce(s);
  const KernelTable* t = Table(isa);
  if (t == nullptr) return false;
  s.isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  s.table.store(t, std::memory_order_release);
  return true;
}

void ResetActiveForTesting() {
  ActiveState& s = State();
  InitOnce(s);
  SetActiveForTesting(s.default_isa);
}

void CountDispatch(KernelId id) {
  const int isa = State().isa.load(std::memory_order_relaxed);
  g_dispatch[isa][static_cast<int>(id)].fetch_add(1,
                                                  std::memory_order_relaxed);
}

uint64_t DispatchCount(KernelId id, Isa isa) {
  return g_dispatch[static_cast<int>(isa)][static_cast<int>(id)].load(
      std::memory_order_relaxed);
}

std::string VarzJson() {
  Active();  // Ensure resolved so "active" is meaningful.
  std::ostringstream os;
  os << "{\"active\": \"" << IsaName(ActiveIsa()) << "\", \"compiled\": [";
  bool first = true;
  for (const std::string& isa : CompiledIsas()) {
    if (!first) os << ", ";
    first = false;
    os << '"' << isa << '"';
  }
  os << "], \"env_override\": \""
     << (g_env_override != nullptr ? *g_env_override : "") << "\", "
     << "\"dispatch\": {";
  first = true;
  for (int k = 0; k < static_cast<int>(KernelId::kCount); ++k) {
    uint64_t total = 0;
    for (int i = 0; i < kNumIsas; ++i) {
      total += g_dispatch[i][k].load(std::memory_order_relaxed);
    }
    if (total == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << '"' << kKernelNames[k] << "\": {";
    bool first_isa = true;
    for (int i = 0; i < kNumIsas; ++i) {
      const uint64_t n = g_dispatch[i][k].load(std::memory_order_relaxed);
      if (n == 0) continue;
      if (!first_isa) os << ", ";
      first_isa = false;
      os << '"' << kIsaNames[i] << "\": " << n;
    }
    os << '}';
  }
  os << "}}";
  return os.str();
}

std::string Summary() {
  Active();
  std::ostringstream os;
  os << "kernels: " << IsaName(ActiveIsa()) << " (compiled: ";
  bool first = true;
  for (const std::string& isa : CompiledIsas()) {
    if (!first) os << ',';
    first = false;
    os << isa;
  }
  os << ')';
  return os.str();
}

}  // namespace isrec::kernels
