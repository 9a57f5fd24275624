// Kernel micro-benchmarks: the tensor primitives the models are built
// from. Two parts:
//
//  1. A deterministic thread-count sweep (1/2/4/8) over training- and
//    serving-shaped GEMM/SpMM workloads, writing BENCH_tensor_ops.json
//    (override with --sweep-out PATH) and asserting that every parallel
//    result is BITWISE identical to the single-thread run — the
//    enforceable half of the determinism contract in DESIGN.md
//    "Threading model". Exits nonzero on any mismatch.
//  2. With --kernels, a kernel-ISA sweep: scalar vs the best compiled
//    SIMD tier vs the int8 serving path, per shape, with inputs built
//    OUTSIDE the timed region (unlike the thread sweep, whose run()
//    regenerates inputs — fine for a determinism check, but RNG time
//    swamps the kernel). Emitted as a "kernel_sweep" JSON section with
//    "isa" / "dtype" fields; EXACT-class kernels are asserted bitwise
//    identical to the scalar reference, and the serving-shaped GEMM
//    must beat scalar by >= 2x when a SIMD tier is available.
//  3. The google-benchmark suite, for regression-testing the substrate
//    and the sparse-vs-dense GCN design choice.
//
// The sweep JSON also carries an "obs_overhead" block (instrumentation
// cost, disabled vs enabled, on the dominant training GEMM — the sweep
// itself runs with obs disabled so timings stay comparable) and a
// "metrics" block (the obs registry snapshot from one instrumented pass
// over the sweep kernels).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/attention.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels/registry.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "utils/parallel.h"
#include "utils/rng.h"

namespace isrec {
namespace {

void BM_MatMul(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, 1.0f, rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_BatchMatMulTransB(benchmark::State& state) {
  const Index b = state.range(0);
  Rng rng(2);
  Tensor q = Tensor::Randn({b, 20, 32}, 1.0f, rng);
  Tensor k = Tensor::Randn({b, 20, 32}, 1.0f, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BatchMatMul(q, k, false, true).data());
  }
}
BENCHMARK(BM_BatchMatMulTransB)->Arg(16)->Arg(64);

void BM_Softmax(benchmark::State& state) {
  const Index rows = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::Randn({rows, 101}, 1.0f, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(x).data());
  }
}
BENCHMARK(BM_Softmax)->Arg(64)->Arg(1024);

void BM_ForwardBackwardMlpChain(benchmark::State& state) {
  Rng rng(4);
  Tensor w1 = Tensor::Randn({64, 128}, 0.1f, rng, true);
  Tensor w2 = Tensor::Randn({128, 64}, 0.1f, rng, true);
  Tensor x = Tensor::Randn({256, 64}, 1.0f, rng);
  for (auto _ : state) {
    Tensor loss = Sum(MatMul(Relu(MatMul(x, w1)), w2));
    loss.Backward();
    w1.ZeroGrad();
    w2.ZeroGrad();
  }
}
BENCHMARK(BM_ForwardBackwardMlpChain);

void BM_GcnSparse(benchmark::State& state) {
  const Index k = state.range(0);
  Rng rng(5);
  std::vector<std::pair<Index, Index>> edges;
  for (Index i = 0; i < k; ++i) {
    for (Index d = 1; d <= 3; ++d) edges.push_back({i, (i + d) % k});
  }
  SparseMatrix adj = SparseMatrix::NormalizedAdjacency(k, edges);
  Tensor x = Tensor::Randn({64, k, 8}, 1.0f, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpMM(adj, x).data());
  }
}
BENCHMARK(BM_GcnSparse)->Arg(64)->Arg(256)->Arg(592);

void BM_GcnDenseEquivalent(benchmark::State& state) {
  // The dense alternative the sparse design is measured against.
  const Index k = state.range(0);
  Rng rng(6);
  Tensor adj = Tensor::Randn({k, k}, 0.1f, rng);
  Tensor x = Tensor::Randn({64, k, 8}, 1.0f, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BatchMatMul(adj, x).data());
  }
}
BENCHMARK(BM_GcnDenseEquivalent)->Arg(64)->Arg(256)->Arg(592);

void BM_AttentionLayer(benchmark::State& state) {
  const Index t = state.range(0);
  Rng rng(7);
  nn::MultiHeadSelfAttention attn(32, 1, 0.0f, rng);
  attn.SetTraining(false);
  Tensor x = Tensor::Randn({32, t, 32}, 1.0f, rng);
  Tensor mask =
      nn::MakeAttentionMask(32, t, std::vector<bool>(32 * t, true), true);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.Forward(x, mask).data());
  }
}
BENCHMARK(BM_AttentionLayer)->Arg(10)->Arg(20)->Arg(50);

void BM_DisabledTraceSpan(benchmark::State& state) {
  // Per-site cost of an ISREC_TRACE_SPAN on the disabled path: one
  // branch on one relaxed atomic load (the obs overhead contract).
  obs::EnableTracing(false);
  for (auto _ : state) {
    ISREC_TRACE_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DisabledTraceSpan);

void BM_DisabledMetricsGuard(benchmark::State& state) {
  obs::EnableMetrics(false);
  for (auto _ : state) {
    bool enabled = obs::MetricsEnabled();
    benchmark::DoNotOptimize(enabled);
  }
}
BENCHMARK(BM_DisabledMetricsGuard);

// -- Thread sweep -------------------------------------------------------

/// One sweep workload: runs a kernel and returns every output byte that
/// must be thread-count independent (forward results, and gradients for
/// the fwd+bwd workload).
struct SweepKernel {
  std::string name;
  std::string shape;
  std::function<std::vector<float>()> run;
};

std::vector<SweepKernel> SweepKernels() {
  std::vector<SweepKernel> kernels;

  // Training-shaped GEMM: one transformer FFN matmul over a [B*T, d]
  // activation block.
  kernels.push_back(
      {"gemm_train", "[1280,64]x[64,256]", [] {
         Rng rng(101);
         Tensor a = Tensor::Randn({1280, 64}, 1.0f, rng);
         Tensor b = Tensor::Randn({64, 256}, 1.0f, rng);
         NoGradGuard no_grad;
         return BatchMatMul(a, b, false, false).ToVector();
       }});

  // Tied-weight output logits, the dominant training matmul: states
  // [B*T, d] against the item table [V, d] transposed.
  kernels.push_back(
      {"gemm_logits_trans_b", "[1280,64]x[3706,64]^T", [] {
         Rng rng(102);
         Tensor states = Tensor::Randn({1280, 64}, 1.0f, rng);
         Tensor table = Tensor::Randn({3706, 64}, 1.0f, rng);
         NoGradGuard no_grad;
         return BatchMatMul(states, table, false, true).ToVector();
       }});

  // Serving-shaped GEMM: one micro-batch of last-states against the
  // full catalog.
  kernels.push_back(
      {"gemm_serving", "[32,64]x[3706,64]^T", [] {
         Rng rng(103);
         Tensor states = Tensor::Randn({32, 64}, 1.0f, rng);
         Tensor table = Tensor::Randn({3706, 64}, 1.0f, rng);
         NoGradGuard no_grad;
         return BatchMatMul(states, table, false, true).ToVector();
       }});

  // Forward + backward: the backward GEMMs exercise the trans_a /
  // trans_b row-partitioned variants with gradient operands.
  kernels.push_back(
      {"gemm_fwd_bwd", "[512,64]x[64,128]+grads", [] {
         Rng rng(104);
         Tensor a = Tensor::Randn({512, 64}, 1.0f, rng, true);
         Tensor b = Tensor::Randn({64, 128}, 1.0f, rng, true);
         Sum(MatMul(a, b)).Backward();
         std::vector<float> out(a.grad(), a.grad() + a.numel());
         out.insert(out.end(), b.grad(), b.grad() + b.numel());
         return out;
       }});

  // SpMM over a concept-graph-sized normalized adjacency (row-
  // partitioned CSR), batch of GCN activations.
  kernels.push_back(
      {"spmm_gcn", "adj[600,600] * x[64,600,32]", [] {
         Rng rng(105);
         std::vector<std::pair<Index, Index>> edges;
         for (Index i = 0; i < 600; ++i) {
           for (Index d = 1; d <= 3; ++d) edges.push_back({i, (i + d) % 600});
         }
         const SparseMatrix adj = SparseMatrix::NormalizedAdjacency(600, edges);
         Tensor x = Tensor::Randn({64, 600, 32}, 1.0f, rng);
         NoGradGuard no_grad;
         return SpMM(adj, x).ToVector();
       }});
  return kernels;
}

/// Best-of-N wall time in milliseconds; `out` receives the last result.
double TimeKernel(const SweepKernel& kernel, std::vector<float>* out) {
  constexpr int kReps = 5;
  double best = 1e30;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<float> v = kernel.run();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
    *out = std::move(v);
  }
  return best;
}

// A/B measurement of the obs instrumentation cost on the dominant
// training GEMM. `disabled_ms` vs `enabled_ms` bounds the overhead of
// the *recording* path; the disabled path does strictly less work (the
// guard branch only), so it is bounded by the same figure. The per-site
// disabled cost is measured separately (BM_DisabledTraceSpan /
// BM_DisabledMetricsGuard, nanoseconds per call).
struct ObsOverhead {
  double disabled_ms = 0.0;
  double enabled_ms = 0.0;
  double overhead_pct = 0.0;
  double disabled_span_ns = 0.0;
};

ObsOverhead MeasureObsOverhead() {
  obs::EnableMetrics(false);
  obs::EnableTracing(false);
  utils::SetNumThreads(2);  // Exercise the sharded ParallelFor path.
  const SweepKernel kernel = SweepKernels()[1];  // gemm_logits_trans_b.
  std::vector<float> scratch;
  constexpr int kPasses = 3;  // TimeKernel is already best-of-5.
  ObsOverhead result;
  result.disabled_ms = 1e30;
  result.enabled_ms = 1e30;
  for (int pass = 0; pass < kPasses; ++pass) {
    result.disabled_ms = std::min(result.disabled_ms,
                                  TimeKernel(kernel, &scratch));
  }
  obs::EnableMetrics(true);
  obs::EnableTracing(true);
  for (int pass = 0; pass < kPasses; ++pass) {
    result.enabled_ms = std::min(result.enabled_ms,
                                 TimeKernel(kernel, &scratch));
  }
  obs::EnableMetrics(false);
  obs::EnableTracing(false);
  obs::ClearTrace();
  utils::SetNumThreads(1);
  result.overhead_pct =
      (result.enabled_ms / result.disabled_ms - 1.0) * 100.0;

  // Tight-loop cost of a span construction/destruction while disabled.
  constexpr int kSpans = 1 << 22;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ISREC_TRACE_SPAN("bench.disabled");
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.disabled_span_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kSpans;
  return result;
}

// -- Kernel ISA sweep (--kernels) ---------------------------------------

/// One measured point: a (kernel, ISA, dtype) triple. Speedups are
/// against the row's scalar fp32 baseline, so fp32-SIMD and int8
/// numbers in the same row are directly comparable.
struct IsaPoint {
  std::string isa;
  std::string dtype;
  double ms = 0.0;
  double speedup = 1.0;
  bool identical = true;
};

struct IsaRow {
  std::string name;
  std::string shape;
  std::vector<IsaPoint> points;
};

/// One timed body at a fixed dtype. `exact` marks EXACT-class kernels
/// (DESIGN.md §12): every ISA must reproduce the scalar run bitwise.
/// ULP-class rows (the trans_b reduction GEMMs) record `identical` as
/// informational only. `inner` is how many times the body repeats the
/// kernel per timed call (reported ms is divided by it) — the serving
/// shape is small enough that one output allocation + result copy
/// would otherwise swamp the kernel itself.
struct IsaVariant {
  std::string dtype;
  bool exact;
  int inner;
  std::function<std::vector<float>()> run;
};

struct IsaCase {
  std::string name;
  std::string shape;
  std::vector<IsaVariant> variants;
};

std::vector<IsaCase> KernelSweepCases() {
  std::vector<IsaCase> cases;
  Rng rng(201);

  // Training FFN GEMM — plain variant, EXACT class.
  {
    Tensor a = Tensor::Randn({1280, 64}, 1.0f, rng);
    Tensor b = Tensor::Randn({64, 256}, 1.0f, rng);
    cases.push_back({"gemm_train",
                     "[1280,64]x[64,256]",
                     {{"fp32", true, 1, [a, b] {
                         NoGradGuard no_grad;
                         return BatchMatMul(a, b, false, false).ToVector();
                       }}}});
  }

  // Tied-weight logits GEMM — trans_b, ULP class (FMA reduction).
  {
    Tensor states = Tensor::Randn({1280, 64}, 1.0f, rng);
    Tensor table = Tensor::Randn({3706, 64}, 1.0f, rng);
    cases.push_back({"gemm_logits_trans_b",
                     "[1280,64]x[3706,64]^T",
                     {{"fp32", false, 1, [states, table] {
                         NoGradGuard no_grad;
                         return BatchMatMul(states, table, false, true)
                             .ToVector();
                       }}}});
  }

  // Serving-shaped GEMM in both dtypes. The int8 operands are quantized
  // once, outside timing, with the shared scalar quantizer — so the
  // int8 scores (EXACT across ISAs) must match bitwise everywhere.
  {
    constexpr Index kB = 32, kV = 3706, kD = 64;
    Tensor states = Tensor::Randn({kB, kD}, 1.0f, rng);
    Tensor table = Tensor::Randn({kV, kD}, 1.0f, rng);
    auto qa = std::make_shared<std::vector<int8_t>>(kB * kD);
    auto qa_scales = std::make_shared<std::vector<float>>(kB);
    auto qb = std::make_shared<std::vector<int8_t>>(kV * kD);
    auto qb_scales = std::make_shared<std::vector<float>>(kV);
    const kernels::KernelTable* scalar = kernels::ScalarKernelTable();
    scalar->quantize_rows_i8(states.data(), qa->data(), qa_scales->data(), 0,
                             kB, kD);
    scalar->quantize_rows_i8(table.data(), qb->data(), qb_scales->data(), 0,
                             kV, kD);
    constexpr int kInner = 8;
    cases.push_back(
        {"gemm_serving",
         "[32,64]x[3706,64]^T",
         {{"fp32", false, kInner,
           [states, table] {
             NoGradGuard no_grad;
             Tensor scores;
             for (int r = 0; r < kInner; ++r) {
               scores = BatchMatMul(states, table, false, true);
             }
             return scores.ToVector();
           }},
          {"int8", true, kInner, [qa, qa_scales, qb, qb_scales] {
             std::vector<float> out(kB * kV);
             for (int r = 0; r < kInner; ++r) {
               kernels::Active().gemm_i8_rows(qa->data(), qa_scales->data(),
                                              qb->data(), qb_scales->data(),
                                              out.data(), 0, kB, kV, kD);
             }
             return out;
           }}}});
  }

  // CSR SpMM — EXACT class.
  {
    std::vector<std::pair<Index, Index>> edges;
    for (Index i = 0; i < 600; ++i) {
      for (Index d = 1; d <= 3; ++d) edges.push_back({i, (i + d) % 600});
    }
    auto adj = std::make_shared<SparseMatrix>(
        SparseMatrix::NormalizedAdjacency(600, edges));
    Tensor x = Tensor::Randn({64, 600, 32}, 1.0f, rng);
    cases.push_back({"spmm_gcn",
                     "adj[600,600] * x[64,600,32]",
                     {{"fp32", true, 1, [adj, x] {
                         NoGradGuard no_grad;
                         return SpMM(*adj, x).ToVector();
                       }}}});
  }

  // Row-wise softmax — EXACT class (sums keep scalar order).
  {
    Tensor x = Tensor::Randn({1024, 101}, 1.0f, rng);
    cases.push_back({"softmax",
                     "[1024,101]",
                     {{"fp32", true, 1, [x] {
                         NoGradGuard no_grad;
                         return Softmax(x).ToVector();
                       }}}});
  }
  return cases;
}

/// Times every sweep case under every runtime-available ISA tier at one
/// thread (isolating the ISA effect from sharding). Returns the number
/// of failures: an EXACT-class result differing from scalar, or — when
/// a SIMD tier exists — the serving-shaped GEMM not clearing 2x.
int RunKernelIsaSweep(std::vector<IsaRow>* rows) {
  utils::SetNumThreads(1);
  std::vector<kernels::Isa> isas;
  for (kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2}) {
    if (kernels::Table(isa) != nullptr) isas.push_back(isa);
  }
  std::printf(
      "== kernel ISA sweep (1 thread; inputs prebuilt outside timing) ==\n");
  int failures = 0;
  for (const IsaCase& kcase : KernelSweepCases()) {
    IsaRow row{kcase.name, kcase.shape, {}};
    double scalar_fp32_ms = 0.0;
    for (const IsaVariant& variant : kcase.variants) {
      std::vector<float> reference;
      for (kernels::Isa isa : isas) {
        if (!kernels::SetActiveForTesting(isa)) continue;
        std::vector<float> result;
        const double ms =
            TimeKernel({kcase.name, kcase.shape, variant.run}, &result) /
            variant.inner;
        IsaPoint point;
        point.isa = kernels::IsaName(isa);
        point.dtype = variant.dtype;
        point.ms = ms;
        if (isa == kernels::Isa::kScalar) {
          reference = std::move(result);
          if (variant.dtype == "fp32") scalar_fp32_ms = ms;
        } else {
          point.identical =
              result.size() == reference.size() &&
              std::memcmp(result.data(), reference.data(),
                          reference.size() * sizeof(float)) == 0;
          if (variant.exact && !point.identical) {
            ++failures;
            std::fprintf(stderr,
                         "FAIL: %s (%s, %s) is EXACT-class but differs "
                         "from the scalar reference\n",
                         kcase.name.c_str(), point.isa.c_str(),
                         variant.dtype.c_str());
          }
        }
        const double baseline = scalar_fp32_ms > 0.0 ? scalar_fp32_ms : ms;
        point.speedup = baseline / ms;
        std::printf("  %-20s %-24s %-6s %-4s %8.3f ms  %6.2fx  %s\n",
                    kcase.name.c_str(), kcase.shape.c_str(),
                    point.isa.c_str(), point.dtype.c_str(), point.ms,
                    point.speedup,
                    point.identical ? "bitwise==scalar" : "ulp-class");
        row.points.push_back(std::move(point));
      }
    }
    rows->push_back(std::move(row));
  }
  kernels::ResetActiveForTesting();

  // Acceptance: with a SIMD tier compiled in and usable, the serving-
  // shaped GEMM must beat the scalar fp32 baseline by at least 2x.
  if (isas.size() > 1) {
    double best = 0.0;
    for (const IsaRow& row : *rows) {
      if (row.name != "gemm_serving") continue;
      for (const IsaPoint& point : row.points) {
        if (point.isa != "scalar") best = std::max(best, point.speedup);
      }
    }
    if (best < 2.0) {
      ++failures;
      std::fprintf(stderr,
                   "FAIL: gemm_serving best non-scalar speedup %.2fx < 2x\n",
                   best);
    }
  }
  return failures;
}

int RunThreadSweep(const std::string& out_path, bool kernel_sweep) {
  struct Point {
    Index threads;
    double ms;
    bool identical;
  };
  struct Row {
    SweepKernel kernel;
    std::vector<Point> points;
  };

  const unsigned num_cores = std::thread::hardware_concurrency();
  std::printf("== thread sweep (%u hardware core%s) ==\n", num_cores,
              num_cores == 1 ? "" : "s");
  int mismatches = 0;
  std::vector<Row> rows;
  for (const SweepKernel& kernel : SweepKernels()) {
    Row row{kernel, {}};
    std::vector<float> reference;
    for (const Index threads : {1, 2, 4, 8}) {
      utils::SetNumThreads(threads);
      std::vector<float> result;
      const double ms = TimeKernel(kernel, &result);
      bool identical = true;
      if (threads == 1) {
        reference = std::move(result);
      } else {
        identical = result.size() == reference.size() &&
                    std::memcmp(result.data(), reference.data(),
                                reference.size() * sizeof(float)) == 0;
        if (!identical) ++mismatches;
      }
      std::printf("  %-20s %-24s threads=%ld  %8.3f ms  %s\n",
                  kernel.name.c_str(), kernel.shape.c_str(),
                  static_cast<long>(threads), ms,
                  identical ? "bitwise==serial" : "MISMATCH");
      row.points.push_back({threads, ms, identical});
    }
    rows.push_back(std::move(row));
  }
  utils::SetNumThreads(1);

  std::vector<IsaRow> isa_rows;
  if (kernel_sweep) mismatches += RunKernelIsaSweep(&isa_rows);

  // The sweep above runs with obs disabled so its timings stay
  // comparable across revisions; the instrumentation cost is measured
  // explicitly here, and a separate instrumented pass populates the
  // registry snapshot attached to the JSON.
  const ObsOverhead overhead = MeasureObsOverhead();
  std::printf(
      "  obs overhead (gemm_logits_trans_b, 2 threads): disabled %.3f ms, "
      "enabled %.3f ms (%+.2f%%); disabled span %.2f ns\n",
      overhead.disabled_ms, overhead.enabled_ms, overhead.overhead_pct,
      overhead.disabled_span_ns);

  obs::ResetAllMetrics();
  obs::EnableMetrics(true);
  for (const Row& row : rows) {
    std::vector<float> scratch = row.kernel.run();
    (void)scratch;
  }
  obs::EnableMetrics(false);
  const std::string metrics_json = obs::DumpMetricsJson();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"tensor_ops_thread_sweep\",\n");
  std::fprintf(f, "  \"num_hardware_cores\": %u,\n", num_cores);
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t k = 0; k < rows.size(); ++k) {
    const Row& row = rows[k];
    std::fprintf(f, "    {\"name\": \"%s\", \"shape\": \"%s\", \"results\": [",
                 row.kernel.name.c_str(), row.kernel.shape.c_str());
    for (size_t p = 0; p < row.points.size(); ++p) {
      const Point& pt = row.points[p];
      std::fprintf(
          f,
          "%s\n      {\"threads\": %ld, \"ms\": %.4f, \"speedup\": %.3f, "
          "\"identical\": %s}",
          p == 0 ? "" : ",", static_cast<long>(pt.threads), pt.ms,
          row.points[0].ms / pt.ms, pt.identical ? "true" : "false");
    }
    std::fprintf(f, "\n    ]}%s\n", k + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  if (!isa_rows.empty()) {
    std::fprintf(f, "  \"kernel_sweep\": [\n");
    for (size_t k = 0; k < isa_rows.size(); ++k) {
      const IsaRow& row = isa_rows[k];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"shape\": \"%s\", \"results\": [",
                   row.name.c_str(), row.shape.c_str());
      for (size_t p = 0; p < row.points.size(); ++p) {
        const IsaPoint& pt = row.points[p];
        std::fprintf(
            f,
            "%s\n      {\"isa\": \"%s\", \"dtype\": \"%s\", \"ms\": %.4f, "
            "\"speedup\": %.3f, \"identical\": %s}",
            p == 0 ? "" : ",", pt.isa.c_str(), pt.dtype.c_str(), pt.ms,
            pt.speedup, pt.identical ? "true" : "false");
      }
      std::fprintf(f, "\n    ]}%s\n", k + 1 == isa_rows.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n");
  }
  std::fprintf(f,
               "  \"obs_overhead\": {\"kernel\": \"gemm_logits_trans_b\", "
               "\"disabled_ms\": %.4f, \"enabled_ms\": %.4f, "
               "\"overhead_pct\": %.3f, \"disabled_span_ns\": %.2f},\n",
               overhead.disabled_ms, overhead.enabled_ms,
               overhead.overhead_pct, overhead.disabled_span_ns);
  std::fprintf(f, "  \"metrics\": %s}\n", metrics_json.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %d parallel result(s) differ from the serial run\n",
                 mismatches);
  }
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace isrec

int main(int argc, char** argv) {
  std::string sweep_out = "BENCH_tensor_ops.json";
  bool kernel_sweep = false;
  std::vector<char*> bench_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep-out") == 0 && i + 1 < argc) {
      sweep_out = argv[++i];
    } else if (std::strcmp(argv[i], "--kernels") == 0) {
      kernel_sweep = true;
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  const int sweep_status = isrec::RunThreadSweep(sweep_out, kernel_sweep);

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return sweep_status;
}
