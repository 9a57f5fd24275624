// Kernel-checking harness for the SIMD registry (tests use it to pit
// every compiled kernel table against the portable scalar reference):
//
//   KernelChecker checker(/*seed=*/1234);
//   checker.CheckExact("gemm_plain", out_elems, [&](const KernelTable& kt,
//                                                   float* out) { ... });
//
// The callback runs once per available ISA table; the harness fills
// inputs (the caller captures them), collects each table's output, and
// compares against the scalar table's output — bitwise for EXACT-class
// kernels, ULP/abs-bounded for reduction (ULP-class) kernels. Shape
// sweeps deliberately include awkward tails (1, 3, 7, 17, 33, ...) so
// the vector-body + scalar-tail seams of every kernel are exercised.

#ifndef ISREC_TESTS_CHECKER_H_
#define ISREC_TESTS_CHECKER_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/registry.h"
#include "utils/rng.h"

namespace isrec::testing {

// Sizes that exercise vector-width boundaries and scalar tails for both
// 8-wide (AVX2) kernels and their 4-wide inner steps.
inline const std::vector<Index>& AwkwardSizes() {
  static const std::vector<Index> sizes = {1, 2, 3, 5, 7, 8, 9,
                                           15, 16, 17, 31, 33, 64, 65};
  return sizes;
}

// Distance in units-in-the-last-place between two floats (monotone
// integer reinterpretation; same-sign assumption not required).
inline int64_t UlpDistance(float a, float b) {
  if (a == b) return 0;  // Covers +0 vs -0.
  if (std::isnan(a) || std::isnan(b)) return INT64_MAX;
  int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  // Map the sign-magnitude float ordering onto a monotone integer line.
  if (ia < 0) ia = std::numeric_limits<int32_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<int32_t>::min() - ib;
  return std::llabs(static_cast<int64_t>(ia) - static_cast<int64_t>(ib));
}

// True when `got` is within `max_ulp` ULPs of `want`, OR within an
// absolute epsilon (reassociated dots that cancel toward zero carry a
// tiny absolute error that is astronomically many ULPs — the absolute
// clause covers exactly that case).
inline bool CloseUlp(float want, float got, int64_t max_ulp, float abs_eps) {
  if (std::fabs(want - got) <= abs_eps) return true;
  return UlpDistance(want, got) <= max_ulp;
}

// The non-scalar tables compiled into this binary and usable on this
// host (empty on a host where only the scalar reference runs).
inline std::vector<kernels::Isa> SimdIsas() {
  std::vector<kernels::Isa> isas;
  if (kernels::Table(kernels::Isa::kAvx2) != nullptr) {
    isas.push_back(kernels::Isa::kAvx2);
  }
  return isas;
}

// Forces the registry's active table for a scope (used by tests that go
// through the op layer rather than calling table entries directly).
struct ForcedIsa {
  explicit ForcedIsa(kernels::Isa isa)
      : ok(kernels::SetActiveForTesting(isa)) {}
  ~ForcedIsa() { kernels::ResetActiveForTesting(); }
  bool ok;
};

// Runs a kernel body once per table (scalar first), captures outputs,
// and compares every SIMD output against the scalar reference.
class KernelChecker {
 public:
  explicit KernelChecker(uint64_t seed) : rng_(seed) {}

  Rng& rng() { return rng_; }

  // N(0, stddev) fill — the InferLLM-style randomized input.
  std::vector<float> Randn(size_t n, float stddev = 1.0f) {
    std::vector<float> v(n);
    for (float& x : v) x = rng_.NextGaussian() * stddev;
    return v;
  }

  // Uniform int fill in [lo, hi] (CSR structure, indices, int8 data).
  std::vector<Index> RandInts(size_t n, Index lo, Index hi) {
    std::vector<Index> v(n);
    for (Index& x : v) {
      x = lo + static_cast<Index>(rng_.NextUint64() %
                                  static_cast<uint64_t>(hi - lo + 1));
    }
    return v;
  }

  using KernelBody =
      std::function<void(const kernels::KernelTable& kt, float* out)>;

  // EXACT contract: each SIMD table's output must be bitwise identical
  // to the scalar table's. `out_init` (when non-empty) seeds the output
  // buffer before every run — required for accumulate-style kernels.
  void CheckExact(const std::string& label, size_t out_elems,
                  const KernelBody& body,
                  const std::vector<float>& out_init = {}) {
    Check(label, out_elems, body, out_init, /*max_ulp=*/0, /*abs_eps=*/0.0f);
  }

  // ULP contract for reassociated reductions.
  void CheckUlp(const std::string& label, size_t out_elems,
                const KernelBody& body, int64_t max_ulp = 128,
                float abs_eps = 1e-4f,
                const std::vector<float>& out_init = {}) {
    Check(label, out_elems, body, out_init, max_ulp, abs_eps);
  }

 private:
  void Check(const std::string& label, size_t out_elems,
             const KernelBody& body, const std::vector<float>& out_init,
             int64_t max_ulp, float abs_eps) {
    auto run = [&](const kernels::KernelTable& kt) {
      std::vector<float> out(out_elems, 0.0f);
      if (!out_init.empty()) {
        ASSERT_EQ(out_init.size(), out_elems) << label;
        out = out_init;
      }
      body(kt, out.data());
      outputs_.push_back(std::move(out));
    };
    outputs_.clear();
    run(*kernels::ScalarKernelTable());
    for (kernels::Isa isa : SimdIsas()) {
      run(*kernels::Table(isa));
      const std::vector<float>& ref = outputs_.front();
      const std::vector<float>& got = outputs_.back();
      for (size_t i = 0; i < out_elems; ++i) {
        if (max_ulp == 0) {
          // Bitwise, so -0.0 vs +0.0 or differing NaN payloads fail too.
          int32_t rbits, gbits;
          std::memcpy(&rbits, &ref[i], sizeof(rbits));
          std::memcpy(&gbits, &got[i], sizeof(gbits));
          ASSERT_EQ(rbits, gbits)
              << label << " [" << kernels::IsaName(isa) << "] elem " << i
              << ": scalar=" << ref[i] << " simd=" << got[i];
        } else {
          ASSERT_TRUE(CloseUlp(ref[i], got[i], max_ulp, abs_eps))
              << label << " [" << kernels::IsaName(isa) << "] elem " << i
              << ": scalar=" << ref[i] << " simd=" << got[i]
              << " ulp=" << UlpDistance(ref[i], got[i]);
        }
      }
    }
  }

  Rng rng_;
  std::vector<std::vector<float>> outputs_;
};

}  // namespace isrec::testing

#endif  // ISREC_TESTS_CHECKER_H_
