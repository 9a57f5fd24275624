#include "serve/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "nn/module.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "utils/check.h"
#include "utils/logging.h"
#include "utils/stopwatch.h"

namespace isrec::serve {
namespace {

constexpr uint32_t kMagic = 0x4953434b;  // "ISCK"

// Upper bounds a well-formed checkpoint never exceeds; anything larger
// is a corrupt length prefix and must not reach a vector reserve.
constexpr uint64_t kMaxStringLen = 1u << 20;
constexpr uint64_t kMaxVecLen = 1u << 24;

// -- Little binary (de)serialization helpers ---------------------------

void WriteU32(std::FILE* f, uint32_t v) {
  ISREC_CHECK_EQ(std::fwrite(&v, sizeof(v), 1, f), 1u);
}
void WriteU64(std::FILE* f, uint64_t v) {
  ISREC_CHECK_EQ(std::fwrite(&v, sizeof(v), 1, f), 1u);
}
void WriteI64(std::FILE* f, int64_t v) {
  ISREC_CHECK_EQ(std::fwrite(&v, sizeof(v), 1, f), 1u);
}
void WriteF32(std::FILE* f, float v) {
  ISREC_CHECK_EQ(std::fwrite(&v, sizeof(v), 1, f), 1u);
}
void WriteBool(std::FILE* f, bool v) {
  const uint8_t byte = v ? 1 : 0;
  ISREC_CHECK_EQ(std::fwrite(&byte, sizeof(byte), 1, f), 1u);
}
void WriteStr(std::FILE* f, const std::string& s) {
  WriteU64(f, s.size());
  if (!s.empty()) ISREC_CHECK_EQ(std::fwrite(s.data(), 1, s.size(), f), s.size());
}
void WriteIndexVec(std::FILE* f, const std::vector<Index>& v) {
  WriteU64(f, v.size());
  for (Index x : v) WriteI64(f, x);
}

// Fail-soft reader: the first short read (or implausible length prefix)
// latches ok=false, every later read returns zeros, and Load rejects the
// file in one place — a truncated or corrupt checkpoint must produce a
// typed kModelError, not a CHECK abort.
struct Reader {
  std::FILE* f = nullptr;
  bool ok = true;

  bool Read(void* dst, size_t size, size_t count) {
    if (ok && std::fread(dst, size, count, f) == count) return true;
    ok = false;
    return false;
  }
};

uint32_t ReadU32(Reader& r) {
  uint32_t v = 0;
  r.Read(&v, sizeof(v), 1);
  return v;
}
uint64_t ReadU64(Reader& r) {
  uint64_t v = 0;
  r.Read(&v, sizeof(v), 1);
  return v;
}
int64_t ReadI64(Reader& r) {
  int64_t v = 0;
  r.Read(&v, sizeof(v), 1);
  return v;
}
float ReadF32(Reader& r) {
  float v = 0;
  r.Read(&v, sizeof(v), 1);
  return v;
}
bool ReadBool(Reader& r) {
  uint8_t byte = 0;
  r.Read(&byte, sizeof(byte), 1);
  return byte != 0;
}
std::string ReadStr(Reader& r) {
  const uint64_t len = ReadU64(r);
  if (!r.ok || len > kMaxStringLen) {
    r.ok = false;
    return {};
  }
  std::string s(len, '\0');
  if (len > 0) r.Read(s.data(), 1, len);
  return s;
}
std::vector<Index> ReadIndexVec(Reader& r) {
  const uint64_t n = ReadU64(r);
  if (!r.ok || n > kMaxVecLen) {
    r.ok = false;
    return {};
  }
  std::vector<Index> v(n);
  for (uint64_t i = 0; i < n; ++i) v[i] = ReadI64(r);
  return v;
}

// -- Sections ----------------------------------------------------------

void WriteConfig(std::FILE* f, const core::IsrecConfig& c) {
  const models::SeqModelConfig& s = c.seq;
  WriteI64(f, s.embed_dim);
  WriteI64(f, s.num_layers);
  WriteI64(f, s.num_heads);
  WriteI64(f, s.ffn_dim);
  WriteI64(f, s.seq_len);
  WriteF32(f, s.dropout);
  WriteBool(f, s.use_concepts);
  WriteBool(f, s.use_positions);
  WriteI64(f, s.batch_size);
  WriteI64(f, s.epochs);
  WriteF32(f, s.lr);
  WriteF32(f, s.weight_decay);
  WriteF32(f, s.clip_norm);
  WriteU64(f, s.seed);
  WriteI64(f, c.intent_dim);
  WriteI64(f, c.num_active);
  WriteI64(f, c.gcn_layers);
  WriteF32(f, c.gumbel_tau);
  WriteBool(f, c.use_gnn);
  WriteBool(f, c.use_intent);
  WriteBool(f, c.learn_adjacency);
  WriteBool(f, c.use_residual);
  WriteBool(f, c.identity_gcn_init);
}

core::IsrecConfig ReadConfig(Reader& r) {
  core::IsrecConfig c;
  models::SeqModelConfig& s = c.seq;
  s.embed_dim = ReadI64(r);
  s.num_layers = ReadI64(r);
  s.num_heads = ReadI64(r);
  s.ffn_dim = ReadI64(r);
  s.seq_len = ReadI64(r);
  s.dropout = ReadF32(r);
  s.use_concepts = ReadBool(r);
  s.use_positions = ReadBool(r);
  s.batch_size = ReadI64(r);
  s.epochs = ReadI64(r);
  s.lr = ReadF32(r);
  s.weight_decay = ReadF32(r);
  s.clip_norm = ReadF32(r);
  s.seed = ReadU64(r);
  c.intent_dim = ReadI64(r);
  c.num_active = ReadI64(r);
  c.gcn_layers = ReadI64(r);
  c.gumbel_tau = ReadF32(r);
  c.use_gnn = ReadBool(r);
  c.use_intent = ReadBool(r);
  c.learn_adjacency = ReadBool(r);
  c.use_residual = ReadBool(r);
  c.identity_gcn_init = ReadBool(r);
  return c;
}

// A config deserialized from disk is untrusted: reject dimensions a real
// SaveCheckpoint could never have written before they reach Build.
bool ConfigLooksSane(const core::IsrecConfig& c) {
  constexpr int64_t kMaxDim = 1 << 20;
  auto in_range = [](Index v) { return v > 0 && v <= kMaxDim; };
  return in_range(c.seq.embed_dim) && in_range(c.seq.num_layers) &&
         in_range(c.seq.num_heads) && in_range(c.seq.ffn_dim) &&
         in_range(c.seq.seq_len) && in_range(c.intent_dim) &&
         in_range(c.num_active) && c.gcn_layers >= 0 &&
         c.gcn_layers <= kMaxDim;
}

void WriteVocab(std::FILE* f, const data::Dataset& d) {
  WriteStr(f, d.name);
  WriteI64(f, d.num_users);
  WriteI64(f, d.num_items);
  WriteU64(f, d.item_concepts.size());
  for (const auto& concepts : d.item_concepts) WriteIndexVec(f, concepts);
  WriteI64(f, d.concepts.num_concepts());
  for (Index c = 0; c < d.concepts.num_concepts(); ++c) {
    WriteStr(f, d.concepts.name(c));
  }
  WriteU64(f, d.concepts.edges().size());
  for (const auto& [a, b] : d.concepts.edges()) {
    WriteI64(f, a);
    WriteI64(f, b);
  }
}

std::unique_ptr<data::Dataset> ReadVocab(Reader& r) {
  auto d = std::make_unique<data::Dataset>();
  d->name = ReadStr(r);
  d->num_users = ReadI64(r);
  d->num_items = ReadI64(r);
  const uint64_t num_tagged = ReadU64(r);
  if (!r.ok || static_cast<Index>(num_tagged) != d->num_items ||
      num_tagged > kMaxVecLen) {
    r.ok = false;
    return d;
  }
  d->item_concepts.reserve(num_tagged);
  for (uint64_t i = 0; i < num_tagged && r.ok; ++i) {
    d->item_concepts.push_back(ReadIndexVec(r));
  }
  const Index num_concepts = ReadI64(r);
  if (!r.ok || num_concepts < 0 ||
      static_cast<uint64_t>(num_concepts) > kMaxVecLen) {
    r.ok = false;
    return d;
  }
  std::vector<std::string> names;
  names.reserve(num_concepts);
  for (Index c = 0; c < num_concepts && r.ok; ++c) {
    names.push_back(ReadStr(r));
  }
  const uint64_t num_edges = ReadU64(r);
  if (!r.ok || num_edges > kMaxVecLen) {
    r.ok = false;
    return d;
  }
  std::vector<std::pair<Index, Index>> edges;
  edges.reserve(num_edges);
  for (uint64_t e = 0; e < num_edges && r.ok; ++e) {
    const Index a = ReadI64(r);
    const Index b = ReadI64(r);
    if (a < 0 || a >= num_concepts || b < 0 || b >= num_concepts) {
      r.ok = false;
      return d;
    }
    edges.emplace_back(a, b);
  }
  if (!r.ok) return d;
  d->concepts = data::ConceptGraph(num_concepts, std::move(edges),
                                   std::move(names));
  return d;
}

void WritePrior(std::FILE* f, const data::Dataset& d) {
  std::vector<float> counts(static_cast<size_t>(d.num_items), 0.0f);
  for (const auto& sequence : d.sequences) {
    for (Index item : sequence) {
      if (item >= 0 && item < d.num_items) {
        counts[static_cast<size_t>(item)] += 1.0f;
      }
    }
  }
  WriteU64(f, counts.size());
  for (float c : counts) WriteF32(f, c);
}

std::vector<float> ReadPrior(Reader& r, Index num_items) {
  const uint64_t n = ReadU64(r);
  if (!r.ok || static_cast<Index>(n) != num_items || n > kMaxVecLen) {
    r.ok = false;
    return {};
  }
  std::vector<float> prior(n);
  for (uint64_t i = 0; i < n && r.ok; ++i) prior[i] = ReadF32(r);
  return prior;
}

}  // namespace

void SaveCheckpoint(const core::IsrecModel& model, const std::string& path,
                    uint64_t epoch) {
  ISREC_TRACE_SPAN("checkpoint.save");
  const Stopwatch sw;
  const data::Dataset* dataset = model.dataset();
  ISREC_CHECK_MSG(dataset != nullptr,
                  "SaveCheckpoint requires a Fit (or Build) model");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ISREC_CHECK_MSG(f != nullptr, "cannot open " << path << " for writing");
  WriteU32(f, kMagic);
  WriteU32(f, kCheckpointVersion);
  WriteU64(f, epoch);
  WriteConfig(f, model.isrec_config());
  WriteVocab(f, *dataset);
  WritePrior(f, *dataset);
  nn::SaveParameters(model, f);
  std::fclose(f);
  static obs::Histogram& save_ms =
      obs::GetHistogram("serve.checkpoint_save_ms", obs::LatencyBucketsMs());
  save_ms.Observe(sw.ElapsedMillis());
}

namespace {

Outcome<std::shared_ptr<ServableModel>> LoadImpl(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::ModelError("cannot open checkpoint: " + path);
  }
  // Every early return below closes f exactly once.
  Reader r{f};
  const uint32_t magic = ReadU32(r);
  if (!r.ok || magic != kMagic) {
    std::fclose(f);
    return Status::ModelError("not an ISRec checkpoint (magic mismatch): " +
                              path);
  }
  const uint32_t version = ReadU32(r);
  if (!r.ok || version != kCheckpointVersion) {
    std::fclose(f);
    return Status::ModelError("checkpoint version " +
                              std::to_string(version) + " unsupported (want " +
                              std::to_string(kCheckpointVersion) +
                              "): " + path);
  }
  const uint64_t epoch = ReadU64(r);
  const core::IsrecConfig config = ReadConfig(r);
  if (!r.ok || !ConfigLooksSane(config)) {
    std::fclose(f);
    return Status::ModelError("corrupt checkpoint (bad config section): " +
                              path);
  }

  auto result = std::make_shared<ServableModel>();
  result->epoch = epoch;
  result->dataset = ReadVocab(r);
  if (!r.ok) {
    std::fclose(f);
    return Status::ModelError(
        "corrupt checkpoint (bad vocabulary section): " + path);
  }
  result->popularity = ReadPrior(r, result->dataset->num_items);
  if (!r.ok) {
    std::fclose(f);
    return Status::ModelError(
        "corrupt checkpoint (bad popularity-prior section): " + path);
  }
  result->model = std::make_unique<core::IsrecModel>(config);
  // Build instantiates the exact module tree of the saved model (the
  // config and vocabulary fully determine every parameter shape), so the
  // blob restores by name 1:1.
  result->model->Build(*result->dataset);
  const Status params = nn::TryLoadParameters(*result->model, f);
  std::fclose(f);
  if (!params.ok()) {
    return Status::ModelError("corrupt checkpoint " + path + ": " +
                              params.message());
  }
  return result;
}

}  // namespace

Outcome<std::shared_ptr<ServableModel>> ServableModel::Load(
    const std::string& path, const LoadOptions& options) {
  ISREC_TRACE_SPAN("checkpoint.load");
  const Stopwatch sw;
  Outcome<std::shared_ptr<ServableModel>> result = LoadImpl(path);
  if (result.ok() && options.quantization == Quantization::kInt8) {
    // Quantize the restored item table for int8 catalog scoring. The
    // fp32 model stays intact underneath (the scorer reuses its
    // encoder), so a replica can compare both paths from one load.
    ServableModel& loaded = *result.value();
    loaded.quantized = std::make_unique<QuantizedScorer>(
        *loaded.model, loaded.dataset->num_items);
  }
  if (!result.ok()) {
    ISREC_LOG(Warning) << result.status().message();
  }
  static obs::Histogram& load_ms =
      obs::GetHistogram("serve.checkpoint_load_ms", obs::LatencyBucketsMs());
  static obs::Counter& failures =
      obs::GetCounter("serve.checkpoint_load_failures");
  load_ms.Observe(sw.ElapsedMillis());
  if (!result.ok()) failures.Add(1);
  return result;
}

std::shared_ptr<ServableModel> ServableModel::Wrap(
    eval::Recommender& scorer, Index num_items,
    std::vector<float> popularity) {
  auto handle = std::make_shared<ServableModel>();
  handle->external_scorer = &scorer;
  handle->external_num_items = num_items;
  handle->popularity = std::move(popularity);
  return handle;
}

}  // namespace isrec::serve
