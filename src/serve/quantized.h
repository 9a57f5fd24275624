#ifndef ISREC_SERVE_QUANTIZED_H_
#define ISREC_SERVE_QUANTIZED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eval/recommender.h"
#include "models/seq_base.h"
#include "tensor/tensor.h"

namespace isrec::serve {

/// Per-row symmetric int8 quantization of a dense [rows, cols] fp32
/// matrix: q[r, c] = clamp(lrintf(x[r, c] * 127 / amax_r), -127, 127)
/// with scale[r] = amax_r / 127. An all-zero source row gets scale 0
/// and an all-zero q row, so its dequantized dot contribution is
/// exactly 0 (never 0/0). Quantization runs through the shared scalar
/// kernel on every ISA, so the quantized values — and therefore int8
/// scores — are identical across scalar/AVX2.
struct QuantizedMatrix {
  Index rows = 0;
  Index cols = 0;
  std::vector<int8_t> data;   // [rows, cols]
  std::vector<float> scales;  // [rows]
};

QuantizedMatrix QuantizeRowsInt8(const float* src, Index rows, Index cols);

/// Serving-time int8 scorer: wraps a sequential model, keeping its fp32
/// encoder (histories -> last states) but replacing catalog scoring
/// with int8 x int8 -> int32 dot products over the quantized item
/// table — no dequantize in the inner loop, one fp32 rescale per
/// output. Built at LoadCheckpoint time (see LoadOptions); opt-in via
/// `isrec_serve --quantize int8`.
///
/// Tolerance contract: int8 scores are NOT bitwise equal to fp32
/// scores; the documented guarantee is ranking agreement — top-K
/// overlap@10 >= 0.99 against the fp32 scorer on the synthetic
/// checkpoints (asserted by tests/quantize_test.cc). Training is
/// exempt from quantization entirely and stays fp32
/// bitwise-deterministic.
///
/// Thread-safe for concurrent Score/ScoreBatch like the base model:
/// the encoder seam carries the base's refcounted eval-mode guard, and
/// scoring reads only const quantized tables.
class QuantizedScorer : public eval::Recommender {
 public:
  /// Quantizes the first `num_items` rows of the model's (already
  /// built) item embedding table.
  QuantizedScorer(models::SequentialModelBase& base, Index num_items);

  std::string name() const override;

  /// Trains the wrapped model, then re-quantizes the item table.
  void Fit(const data::Dataset& dataset,
           const data::LeaveOneOutSplit& split) override;

  std::vector<float> Score(Index user, const std::vector<Index>& history,
                           const std::vector<Index>& candidates) override;

  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<Index>& users,
      const std::vector<std::vector<Index>>& histories,
      const std::vector<std::vector<Index>>& candidate_lists) override;

  /// The quantized item table (tests: all-zero-row scale guard).
  const QuantizedMatrix& item_matrix() const { return items_; }

  models::SequentialModelBase& base() { return base_; }

 private:
  void QuantizeItemTable();

  models::SequentialModelBase& base_;
  Index num_items_;
  Index dim_ = 0;
  QuantizedMatrix items_;  // [num_items, d]
};

}  // namespace isrec::serve

#endif  // ISREC_SERVE_QUANTIZED_H_
