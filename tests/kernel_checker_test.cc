// Pits every compiled SIMD kernel table against the portable scalar
// reference through the tests/checker.h harness: bitwise identity for
// EXACT-class kernels (the registry's headline guarantee — SIMD must
// not change a single training or serving bit), bounded ULP error for
// the reassociated-reduction (ULP-class) GEMM variants, and exact
// cross-ISA agreement for the int8 quantization/scoring kernels. On a
// host with no SIMD table compiled in, the comparisons reduce to
// scalar-vs-scalar and pass trivially (the registry tests still run).

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "checker.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/registry.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace isrec {
namespace {

using kernels::Isa;
using kernels::KernelTable;
using isrec::testing::AwkwardSizes;
using isrec::testing::ForcedIsa;
using isrec::testing::KernelChecker;
using isrec::testing::SimdIsas;

// A modest sweep of (m, n, k) triples hitting vector-width boundaries
// and tails in every dimension.
std::vector<std::array<Index, 3>> GemmShapes(KernelChecker& checker) {
  std::vector<std::array<Index, 3>> shapes;
  const std::vector<Index>& sizes = AwkwardSizes();
  for (int t = 0; t < 24; ++t) {
    shapes.push_back(
        {sizes[checker.rng().NextUint64() % sizes.size()],
         sizes[checker.rng().NextUint64() % sizes.size()],
         sizes[checker.rng().NextUint64() % sizes.size()]});
  }
  // The serving shape family (batch x catalog, k = embed dim).
  shapes.push_back({4, 97, 16});
  shapes.push_back({32, 130, 64});
  return shapes;
}

TEST(KernelCheckerTest, GemmPlainIsExact) {
  KernelChecker checker(11);
  for (const auto& [m, n, k] : GemmShapes(checker)) {
    const std::vector<float> a = checker.Randn(m * k);
    const std::vector<float> b = checker.Randn(k * n);
    const std::vector<float> c0 = checker.Randn(m * n);  // Accumulates.
    checker.CheckExact(
        "gemm_plain", m * n,
        [&, m = m, n = n, k = k](const KernelTable& kt, float* out) {
          kt.gemm_rows_plain(a.data(), b.data(), out, 0, m, m, n, k);
        },
        c0);
  }
}

TEST(KernelCheckerTest, GemmPlainZeroSkipPathIsExact) {
  // The plain kernel has a fast path when a whole 8-block of A is
  // nonzero and a zero-skip fallback otherwise; sparse A exercises both.
  KernelChecker checker(12);
  const Index m = 9, n = 33, k = 17;
  std::vector<float> a = checker.Randn(m * k);
  for (size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
  const std::vector<float> b = checker.Randn(k * n);
  const std::vector<float> c0 = checker.Randn(m * n);
  checker.CheckExact(
      "gemm_plain_sparse", m * n,
      [&](const KernelTable& kt, float* out) {
        kt.gemm_rows_plain(a.data(), b.data(), out, 0, m, m, n, k);
      },
      c0);
}

TEST(KernelCheckerTest, GemmTransAIsExact) {
  KernelChecker checker(13);
  for (const auto& [m, n, k] : GemmShapes(checker)) {
    const std::vector<float> a = checker.Randn(k * m);  // Stored [k, m].
    const std::vector<float> b = checker.Randn(k * n);
    const std::vector<float> c0 = checker.Randn(m * n);
    checker.CheckExact(
        "gemm_transa", m * n,
        [&, m = m, n = n, k = k](const KernelTable& kt, float* out) {
          kt.gemm_rows_transa(a.data(), b.data(), out, 0, m, m, n, k);
        },
        c0);
  }
}

TEST(KernelCheckerTest, GemmTransBIsUlpBounded) {
  KernelChecker checker(14);
  for (const auto& [m, n, k] : GemmShapes(checker)) {
    const std::vector<float> a = checker.Randn(m * k);
    const std::vector<float> b = checker.Randn(n * k);  // Stored [n, k].
    const std::vector<float> c0 = checker.Randn(m * n);
    checker.CheckUlp(
        "gemm_transb", m * n,
        [&, m = m, n = n, k = k](const KernelTable& kt, float* out) {
          if (kt.gemm_rows_transb != nullptr) {
            kt.gemm_rows_transb(a.data(), b.data(), out, 0, m, m, n, k);
            return;
          }
          // The scalar table has no transb kernel (the op layer keeps
          // its historical transpose-then-plain path); the ascending
          // per-output dot below is that path's exact semantics.
          for (Index i = 0; i < m; ++i) {
            for (Index j = 0; j < n; ++j) {
              float acc = 0.0f;
              for (Index p = 0; p < k; ++p) {
                acc += a[i * k + p] * b[j * k + p];
              }
              out[i * n + j] += acc;
            }
          }
        },
        /*max_ulp=*/256, /*abs_eps=*/1e-4f, c0);
  }
}

TEST(KernelCheckerTest, GemmTransABIsUlpBounded) {
  KernelChecker checker(15);
  for (const auto& [m, n, k] : GemmShapes(checker)) {
    const std::vector<float> a = checker.Randn(k * m);  // Stored [k, m].
    const std::vector<float> b = checker.Randn(n * k);  // Stored [n, k].
    const std::vector<float> c0 = checker.Randn(m * n);
    checker.CheckUlp(
        "gemm_transab", m * n,
        [&, m = m, n = n, k = k](const KernelTable& kt, float* out) {
          kt.gemm_rows_transab(a.data(), b.data(), out, 0, m, m, n, k);
        },
        /*max_ulp=*/256, /*abs_eps=*/1e-4f, c0);
  }
}

TEST(KernelCheckerTest, SpmmIsExact) {
  KernelChecker checker(16);
  for (Index cols : {Index(1), Index(7), Index(16), Index(33)}) {
    const Index rows = 23, inner = 31;
    // Random CSR: ~40% density, ascending columns per row.
    std::vector<Index> row_ptr = {0};
    std::vector<Index> col_idx;
    std::vector<float> values;
    for (Index r = 0; r < rows; ++r) {
      for (Index c = 0; c < inner; ++c) {
        if (checker.rng().NextFloat() < 0.4f) {
          col_idx.push_back(c);
          values.push_back(checker.rng().NextGaussian());
        }
      }
      row_ptr.push_back(static_cast<Index>(col_idx.size()));
    }
    const std::vector<float> x = checker.Randn(inner * cols);
    checker.CheckExact("spmm", rows * cols,
                       [&](const KernelTable& kt, float* out) {
                         kt.spmm_rows(row_ptr.data(), col_idx.data(),
                                      values.data(), x.data(), cols, out, 0,
                                      rows);
                       });
  }
}

TEST(KernelCheckerTest, ElementwiseMapsAreExact) {
  KernelChecker checker(17);
  for (Index n : AwkwardSizes()) {
    std::vector<float> a = checker.Randn(n);
    std::vector<float> b = checker.Randn(n, 2.0f);
    a[0] = -0.0f;  // Sign-of-zero must survive bitwise comparison.
    if (n > 1) b[1] = 0.0f;  // Div by zero -> inf, also bitwise.
    const float s = checker.rng().NextGaussian();
    auto sz = static_cast<size_t>(n);
    checker.CheckExact("add", sz, [&](const KernelTable& kt, float* out) {
      kt.add_f32(a.data(), b.data(), out, n);
    });
    checker.CheckExact("sub", sz, [&](const KernelTable& kt, float* out) {
      kt.sub_f32(a.data(), b.data(), out, n);
    });
    checker.CheckExact("mul", sz, [&](const KernelTable& kt, float* out) {
      kt.mul_f32(a.data(), b.data(), out, n);
    });
    checker.CheckExact("div", sz, [&](const KernelTable& kt, float* out) {
      kt.div_f32(a.data(), b.data(), out, n);
    });
    checker.CheckExact("add_scalar", sz,
                       [&](const KernelTable& kt, float* out) {
                         kt.add_scalar_f32(a.data(), s, out, n);
                       });
    checker.CheckExact("mul_scalar", sz,
                       [&](const KernelTable& kt, float* out) {
                         kt.mul_scalar_f32(a.data(), s, out, n);
                       });
    checker.CheckExact("relu", sz, [&](const KernelTable& kt, float* out) {
      kt.relu_f32(a.data(), out, n);
    });
  }
}

TEST(KernelCheckerTest, SoftmaxFamilyIsExact) {
  KernelChecker checker(18);
  for (Index cols : AwkwardSizes()) {
    const Index rows = 5;
    const std::vector<float> x = checker.Randn(rows * cols, 3.0f);
    auto sz = static_cast<size_t>(rows * cols);
    checker.CheckExact("softmax", sz, [&](const KernelTable& kt, float* out) {
      kt.softmax_rows(x.data(), out, 0, rows, cols);
    });
    checker.CheckExact("logsoftmax", sz,
                       [&](const KernelTable& kt, float* out) {
                         kt.logsoftmax_rows(x.data(), out, 0, rows, cols);
                       });
  }
}

TEST(KernelCheckerTest, LayerNormIsExact) {
  KernelChecker checker(19);
  for (Index cols : AwkwardSizes()) {
    const Index rows = 4;
    const std::vector<float> x = checker.Randn(rows * cols);
    const std::vector<float> gamma = checker.Randn(cols);
    const std::vector<float> beta = checker.Randn(cols);
    // mean/inv_std are part of the contract too (backward pass inputs):
    // fold them into the compared buffer.
    const auto sz = static_cast<size_t>(rows * cols + 2 * rows);
    checker.CheckExact(
        "layernorm", sz, [&](const KernelTable& kt, float* out) {
          kt.layernorm_rows(x.data(), gamma.data(), beta.data(), 1e-5f, out,
                            out + rows * cols, out + rows * cols + rows, 0,
                            rows, cols);
        });
  }
}

TEST(KernelCheckerTest, QuantizeInt8IsIdenticalAcrossIsas) {
  KernelChecker checker(20);
  for (Index cols : AwkwardSizes()) {
    const Index rows = 6;
    std::vector<float> x = checker.Randn(rows * cols, 0.5f);
    // Row 2 all zero: the scale-0 guard must quantize to an all-zero
    // row on every ISA.
    if (rows > 2) {
      std::fill(x.begin() + 2 * cols, x.begin() + 3 * cols, 0.0f);
    }
    std::vector<std::vector<int8_t>> qs;
    std::vector<std::vector<float>> scales;
    auto run = [&](const KernelTable& kt) {
      std::vector<int8_t> q(rows * cols);
      std::vector<float> s(rows);
      kt.quantize_rows_i8(x.data(), q.data(), s.data(), 0, rows, cols);
      qs.push_back(std::move(q));
      scales.push_back(std::move(s));
    };
    run(*kernels::ScalarKernelTable());
    for (Isa isa : SimdIsas()) run(*kernels::Table(isa));
    for (size_t t = 1; t < qs.size(); ++t) {
      EXPECT_EQ(qs[0], qs[t]);
      EXPECT_EQ(scales[0], scales[t]);
    }
    // The guard itself.
    EXPECT_EQ(scales[0][2], 0.0f);
    for (Index c = 0; c < cols; ++c) EXPECT_EQ(qs[0][2 * cols + c], 0);
  }
}

TEST(KernelCheckerTest, GemmInt8IsIdenticalAcrossIsas) {
  KernelChecker checker(21);
  for (const auto& [m, n, k] : GemmShapes(checker)) {
    // Quantize random fp32 inputs with the (shared) scalar quantizer so
    // every table scores the same int8 operands.
    const std::vector<float> af = checker.Randn(m * k);
    const std::vector<float> bf = checker.Randn(n * k);
    std::vector<int8_t> aq(m * k), bq(n * k);
    std::vector<float> as(m), bs(n);
    const KernelTable& scalar = *kernels::ScalarKernelTable();
    scalar.quantize_rows_i8(af.data(), aq.data(), as.data(), 0, m, k);
    scalar.quantize_rows_i8(bf.data(), bq.data(), bs.data(), 0, n, k);
    checker.CheckExact(
        "gemm_i8", m * n,
        [&, m = m, n = n, k = k](const KernelTable& kt, float* out) {
          kt.gemm_i8_rows(aq.data(), as.data(), bq.data(), bs.data(), out, 0,
                          m, n, k);
        });
  }
}

TEST(KernelCheckerTest, OpLayerMatmulAgreesAcrossIsas) {
  // Through the real op layer (dispatch + ParallelFor sharding): the
  // trans_b serving matmul under each SIMD table must stay ULP-close to
  // the forced-scalar result, independent of shard boundaries.
  Rng rng(22);
  Tensor a = Tensor::Randn({9, 33}, 1.0f, rng);
  Tensor b = Tensor::Randn({65, 33}, 1.0f, rng);
  std::vector<float> ref;
  {
    ForcedIsa force(Isa::kScalar);
    ASSERT_TRUE(force.ok);
    ref = BatchMatMul(a, b, false, true).ToVector();
  }
  for (Isa isa : SimdIsas()) {
    ForcedIsa force(isa);
    ASSERT_TRUE(force.ok);
    const std::vector<float> got = BatchMatMul(a, b, false, true).ToVector();
    ASSERT_EQ(ref.size(), got.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(isrec::testing::CloseUlp(ref[i], got[i], 256, 1e-4f))
          << "elem " << i << ": scalar=" << ref[i] << " simd=" << got[i];
    }
  }
}

TEST(KernelCheckerTest, RegistryReportsDispatchAndSummary) {
  ForcedIsa force(Isa::kScalar);
  ASSERT_TRUE(force.ok);
  const uint64_t before =
      kernels::DispatchCount(kernels::KernelId::kEltwise, Isa::kScalar);
  Rng rng(23);
  Tensor a = Tensor::Randn({4, 4}, 1.0f, rng);
  (void)Add(a, a).ToVector();
  EXPECT_GT(kernels::DispatchCount(kernels::KernelId::kEltwise, Isa::kScalar),
            before);
  EXPECT_NE(kernels::Summary().find("kernels: scalar"), std::string::npos);
  const std::string varz = kernels::VarzJson();
  EXPECT_NE(varz.find("\"active\""), std::string::npos);
  EXPECT_NE(varz.find("\"compiled\""), std::string::npos);
  EXPECT_NE(varz.find("\"scalar\""), std::string::npos);
}

TEST(KernelCheckerTest, UnknownEnvOverrideFallsBackGracefully) {
  // SetActiveForTesting on an unavailable tier must refuse and leave
  // the active table untouched.
  const Isa active = kernels::ActiveIsa();
  const bool avx2_available = kernels::Table(Isa::kAvx2) != nullptr;
  if (!avx2_available) {
    EXPECT_FALSE(kernels::SetActiveForTesting(Isa::kAvx2));
    EXPECT_EQ(kernels::ActiveIsa(), active);
  }
  EXPECT_TRUE(kernels::SetActiveForTesting(Isa::kScalar));
  EXPECT_EQ(kernels::ActiveIsa(), Isa::kScalar);
  kernels::ResetActiveForTesting();
  EXPECT_EQ(kernels::ActiveIsa(), active);
}

}  // namespace
}  // namespace isrec
