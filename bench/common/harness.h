#ifndef ISREC_BENCH_COMMON_HARNESS_H_
#define ISREC_BENCH_COMMON_HARNESS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/isrec.h"
#include "data/dataset.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/recommender.h"

namespace isrec::bench {

/// True when the ISREC_BENCH_QUICK environment variable is set: benches
/// then shrink epochs/datasets to finish in seconds (CI smoke mode).
bool QuickMode();

/// Per-dataset hyperparameters used by all table benches, derived from
/// the preset's statistics (notably the sequence-length regime).
struct BenchParams {
  Index seq_len = 12;
  Index embed_dim = 32;
  Index seq_epochs = 20;       // Transformer/GRU/Caser models.
  Index isrec_epochs = 20;     // ISRec variants.
  Index pairwise_epochs = 25;  // MF-family models.
};

/// Parameters tuned for a given simulation preset.
BenchParams ParamsFor(const data::SyntheticConfig& preset);

/// Sequence-model config assembled from BenchParams.
models::SeqModelConfig MakeSeqConfig(const BenchParams& params);

/// ISRec config assembled from BenchParams (paper defaults: d' = 8,
/// lambda scaled to the concept vocabulary, 2 GCN layers).
core::IsrecConfig MakeIsrecConfig(const BenchParams& params,
                                  Index num_concepts);

/// The full Table 2 model zoo, in paper column order.
std::vector<std::unique_ptr<eval::Recommender>> BuildZoo(
    const BenchParams& params, Index num_concepts);

/// Fits the model and evaluates with the standard 100-negative protocol.
eval::MetricReport FitAndEvaluate(eval::Recommender& model,
                                  const data::Dataset& dataset,
                                  const data::LeaveOneOutSplit& split);

/// Returns the PASS/FAIL label of a shape check and counts each FAIL.
std::string ShapeLabel(bool pass);

/// Number of FAIL labels ShapeLabel has returned so far; a bench's exit
/// code, so a failed shape check fails the run.
int ShapeFailures();

}  // namespace isrec::bench

#endif  // ISREC_BENCH_COMMON_HARNESS_H_
