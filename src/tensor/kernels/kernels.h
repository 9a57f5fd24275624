#ifndef ISREC_TENSOR_KERNELS_KERNELS_H_
#define ISREC_TENSOR_KERNELS_KERNELS_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace isrec::kernels {

// Inner-loop kernel signatures. Every kernel operates on a row range
// [r0, r1) of a larger problem so it composes with the ParallelFor row
// partitioning in the op layer: the op decides the sharding, the kernel
// only ever sees contiguous disjoint output rows.
//
// Exactness classes (the contract DESIGN.md §12 documents and
// tests/checker.h enforces):
//   EXACT — must be bitwise identical to the scalar reference for all
//           inputs. These kernels keep the reference's per-element
//           accumulation order (axpy sweeps, one rounding per step, no
//           FMA contraction) and only vectorize across independent
//           output elements.
//   ULP   — reduction kernels that reassociate a dot product; results
//           must stay within a small relative error of the reference
//           (checker-enforced epsilon), and must be deterministic for a
//           given ISA: the accumulation tree depends only on k, never
//           on the shard boundaries or thread count.

// [EXACT] Rows [i0, i1) of C[m, n] += A[m, k] * B[k, n]. `m` is unused
// by the plain variant but kept so all four GEMM variants share one
// signature.
using GemmRowsFn = void (*)(const float* a, const float* b, float* c,
                            Index i0, Index i1, Index m, Index n, Index k);

// [EXACT] Rows [r0, r1) of y = CSR(row_ptr, col_idx, values) * x where
// x is [num_cols, cols] dense. Overwrites (not accumulates) y rows.
using SpmmRowsFn = void (*)(const Index* row_ptr, const Index* col_idx,
                            const float* values, const float* x, Index cols,
                            float* y, Index r0, Index r1);

// [EXACT] out[i] = op(a[i], b[i]) for i in [0, n).
using MapBinaryFn = void (*)(const float* a, const float* b, float* out,
                             Index n);
// [EXACT] out[i] = op(a[i], s).
using MapScalarFn = void (*)(const float* a, float s, float* out, Index n);
// [EXACT] out[i] = op(a[i]).
using MapUnaryFn = void (*)(const float* a, float* out, Index n);

// [EXACT] Rows [r0, r1) of a row-wise softmax / log-softmax over the
// last axis. The exp/sum passes keep scalar accumulation order (sums
// are not reassociated); only the max scan and the final scale sweep
// vectorize, so results stay bitwise identical to the reference.
using SoftmaxRowsFn = void (*)(const float* x, float* y, Index r0, Index r1,
                               Index cols);

// [EXACT] Rows [r0, r1) of layer norm: y = (x - mu) * inv_std * gamma
// + beta, recording per-row mu / inv_std for the backward pass. The
// mean/variance reductions keep scalar order; the normalize sweep
// vectorizes.
using LayerNormRowsFn = void (*)(const float* x, const float* gamma,
                                 const float* beta, float eps, float* y,
                                 float* mean, float* inv_std, Index r0,
                                 Index r1, Index cols);

// [EXACT across ISAs] Per-row symmetric int8 quantization of rows
// [r0, r1): scale[r] = amax/127 (0 for an all-zero row, whose q row is
// all zeros), q = clamp(lrintf(x * 127/amax), -127, 127). Every table
// points at the same scalar implementation so the quantized values —
// and therefore the int8 scores — are identical on every ISA.
using QuantizeRowsI8Fn = void (*)(const float* x, int8_t* q, float* scales,
                                  Index r0, Index r1, Index cols);

// [EXACT across ISAs] Rows [i0, i1) of C[m, n] = Aq[m, k] * Bq[n, k]^T
// rescaled: c[i, j] = (float)dot_i32(aq_i, bq_j) * a_scales[i] *
// b_scales[j]. Integer dots are associative, so SIMD and scalar agree
// bit-for-bit (the two fp32 rescale multiplies use one fixed order).
// Assigns (serving-only), does not accumulate. Safe for k up to ~130k
// before the int32 accumulator could overflow (127*127*k < 2^31).
using GemmI8RowsFn = void (*)(const int8_t* a, const float* a_scales,
                              const int8_t* b, const float* b_scales, float* c,
                              Index i0, Index i1, Index n, Index k);

// One dispatchable kernel set. A null entry means "this ISA has no
// specialized kernel for the slot" and the op layer falls back to its
// historical code path (notably: the scalar table leaves
// gemm_rows_transb null so forced-scalar runs keep the pre-registry
// transpose-then-axpy path, bitwise identical to older builds).
struct KernelTable {
  const char* isa_name = "scalar";

  GemmRowsFn gemm_rows_plain = nullptr;    // A [m,k], B [k,n]      EXACT
  GemmRowsFn gemm_rows_transa = nullptr;   // A stored [k,m]        EXACT
  GemmRowsFn gemm_rows_transb = nullptr;   // B stored [n,k]        ULP
  GemmRowsFn gemm_rows_transab = nullptr;  // A [k,m], B [n,k]      ULP

  SpmmRowsFn spmm_rows = nullptr;  // EXACT

  MapBinaryFn add_f32 = nullptr;        // EXACT
  MapBinaryFn sub_f32 = nullptr;        // EXACT
  MapBinaryFn mul_f32 = nullptr;        // EXACT
  MapBinaryFn div_f32 = nullptr;        // EXACT
  MapScalarFn add_scalar_f32 = nullptr; // EXACT
  MapScalarFn mul_scalar_f32 = nullptr; // EXACT
  MapUnaryFn relu_f32 = nullptr;        // EXACT

  SoftmaxRowsFn softmax_rows = nullptr;     // EXACT
  SoftmaxRowsFn logsoftmax_rows = nullptr;  // EXACT
  LayerNormRowsFn layernorm_rows = nullptr; // EXACT

  QuantizeRowsI8Fn quantize_rows_i8 = nullptr;  // EXACT across ISAs
  GemmI8RowsFn gemm_i8_rows = nullptr;          // EXACT across ISAs
};

// Per-ISA tables. Scalar always exists; the others return nullptr when
// their TU was compiled without the matching target support.
const KernelTable* ScalarKernelTable();
const KernelTable* Avx2KernelTable();  // null unless compiled with AVX2+FMA

}  // namespace isrec::kernels

#endif  // ISREC_TENSOR_KERNELS_KERNELS_H_
