#ifndef ISREC_TENSOR_KERNELS_REGISTRY_H_
#define ISREC_TENSOR_KERNELS_REGISTRY_H_

#include <string>
#include <vector>

#include "tensor/kernels/kernels.h"

namespace isrec::kernels {

// Instruction-set tiers the registry can dispatch to. kScalar is the
// portable reference and is always available; the others exist only
// when both (a) the TU was compiled with the matching target flags and
// (b) the running CPU reports support (CPUID probe on x86).
enum class Isa : int { kScalar = 0, kAvx2 = 1 };
inline constexpr int kNumIsas = 2;

const char* IsaName(Isa isa);

// The active kernel set. Resolved once on first use: best compiled-in
// ISA the CPU supports, unless the ISREC_KERNEL_ISA environment
// variable (scalar|avx2) forces a tier. Forcing an unavailable
// tier warns once on stderr and falls back to the probe result —
// serving must not crash over an env typo.
const KernelTable& Active();
Isa ActiveIsa();

// Table for a specific tier, or nullptr when unavailable at runtime.
const KernelTable* Table(Isa isa);

// ISAs whose kernels were compiled into this binary (always includes
// "scalar"), independent of what the running CPU supports.
std::vector<std::string> CompiledIsas();

// Test/bench hook: force the active table. Returns false (and leaves
// the active table unchanged) if the tier is unavailable on this
// host. Not thread-safe against in-flight ops; call between ops only.
bool SetActiveForTesting(Isa isa);
// Back to the probe/env default.
void ResetActiveForTesting();

// Per-kernel dispatch counters, bucketed by the ISA that served the
// call. One relaxed atomic increment per op-level dispatch (not per
// row shard), so the cost is noise even on the hot path and the
// counters stay live when the obs metrics registry is disabled.
enum class KernelId : int {
  kGemmPlain = 0,
  kGemmTransA,
  kGemmTransB,
  kGemmTransAB,
  kSpmm,
  kEltwise,
  kSoftmax,
  kLogSoftmax,
  kLayerNorm,
  kQuantizeI8,
  kGemmI8,
  kCount,
};

void CountDispatch(KernelId id);
// Total dispatches recorded for (id, isa); test/varz accessor.
uint64_t DispatchCount(KernelId id, Isa isa);

// JSON object for the admin server's /varz "kernels" section:
// {"active": ..., "compiled": [...], "env_override": ...,
//  "dispatch": {"gemm_transb": {"avx2": 123}, ...}} with zero-count
// kernels omitted.
std::string VarzJson();

// One-line human summary for build-info strings, e.g.
// "kernels: avx2 (compiled: scalar,avx2)".
std::string Summary();

}  // namespace isrec::kernels

#endif  // ISREC_TENSOR_KERNELS_REGISTRY_H_
