#include "bench/common/harness.h"

#include <cstdlib>

#include "models/bert4rec.h"
#include "models/caser.h"
#include "models/gru4rec.h"
#include "models/mf_models.h"
#include "models/pop_rec.h"
#include "models/sasrec.h"

namespace isrec::bench {

bool QuickMode() { return std::getenv("ISREC_BENCH_QUICK") != nullptr; }

BenchParams ParamsFor(const data::SyntheticConfig& preset) {
  BenchParams params;
  params.seq_epochs = 12;
  // ISRec has the most modules and converges slowest; tune it longer
  // (per-model budgets, as in the paper's per-baseline tuning).
  params.isrec_epochs = 20;
  params.pairwise_epochs = 18;
  // Window ~ max sequence length, capped for the long MovieLens-style
  // presets (Table 6 shows diminishing returns past the average length).
  params.seq_len = std::min<Index>(preset.max_sequence_length, 50);
  if (preset.max_sequence_length > 25) {
    // Long-sequence presets: each epoch carries many more supervised
    // positions, so fewer epochs are needed.
    params.seq_epochs = 8;
    params.isrec_epochs = 16;
    params.pairwise_epochs = 15;
  }
  if (QuickMode()) {
    params.seq_epochs = 2;
    params.isrec_epochs = 2;
    params.pairwise_epochs = 3;
  }
  return params;
}

models::SeqModelConfig MakeSeqConfig(const BenchParams& params) {
  models::SeqModelConfig config;
  config.embed_dim = params.embed_dim;
  config.seq_len = params.seq_len;
  config.ffn_dim = params.embed_dim * 2;
  config.epochs = params.seq_epochs;
  return config;
}

core::IsrecConfig MakeIsrecConfig(const BenchParams& params,
                                  Index num_concepts) {
  core::IsrecConfig config;
  config.seq = MakeSeqConfig(params);
  config.seq.epochs = params.isrec_epochs;
  config.intent_dim = 8;  // Paper: best d' (Fig. 3).
  // Paper: lambda = 10 with K up to 592; keep the same activation ratio
  // regime for smaller simulated vocabularies.
  config.num_active = std::min<Index>(10, std::max<Index>(4, num_concepts / 8));
  config.gcn_layers = 2;
  return config;
}

std::vector<std::unique_ptr<eval::Recommender>> BuildZoo(
    const BenchParams& params, Index num_concepts) {
  models::SeqModelConfig seq = MakeSeqConfig(params);
  models::PairwiseConfig pair;
  pair.dim = params.embed_dim;
  pair.epochs = params.pairwise_epochs;

  std::vector<std::unique_ptr<eval::Recommender>> zoo;
  zoo.push_back(std::make_unique<models::PopRec>());
  zoo.push_back(std::make_unique<models::BprMf>(pair));
  zoo.push_back(std::make_unique<models::Ncf>(pair));
  zoo.push_back(std::make_unique<models::Fpmc>(pair));
  // The recurrent models converge slower than the attention models on
  // these presets; train them longer (per-baseline tuning, Appendix B).
  models::SeqModelConfig gru = seq;
  gru.epochs = seq.epochs * 2;
  zoo.push_back(std::make_unique<models::Gru4Rec>(gru));
  zoo.push_back(std::make_unique<models::Gru4RecPlus>(gru));
  zoo.push_back(std::make_unique<models::Dgcf>(pair));
  zoo.push_back(std::make_unique<models::Caser>(seq));
  zoo.push_back(std::make_unique<models::SasRec>(seq));
  // The Cloze objective supervises only the masked ~30% of positions per
  // pass, so BERT4Rec needs proportionally more epochs to converge (the
  // original paper also trains it much longer than SASRec).
  models::SeqModelConfig bert = seq;
  bert.epochs = seq.epochs * 2;
  zoo.push_back(std::make_unique<models::Bert4Rec>(bert));
  zoo.push_back(
      std::make_unique<core::IsrecModel>(MakeIsrecConfig(params,
                                                         num_concepts)));
  return zoo;
}

eval::MetricReport FitAndEvaluate(eval::Recommender& model,
                                  const data::Dataset& dataset,
                                  const data::LeaveOneOutSplit& split) {
  model.Fit(dataset, split);
  eval::EvalConfig config;
  return eval::EvaluateRanking(model, dataset, split, config);
}

namespace {
int g_shape_failures = 0;
}  // namespace

std::string ShapeLabel(bool pass) {
  if (!pass) ++g_shape_failures;
  return pass ? "PASS" : "FAIL";
}

int ShapeFailures() { return g_shape_failures; }

}  // namespace isrec::bench
