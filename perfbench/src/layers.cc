// Per-layer probes of the traced run. Each probe times one layer's public
// function on the run's captured inputs, from outside the program; the
// results are the per_layer metrics of BENCHMARK.json.

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>

#include "bench.h"
#include "data/batch.h"
#include "obs/heap_profiler.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/checkpoint.h"
#include "serve/recommend_http.h"
#include "tensor/kernels/registry.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "utils/parallel.h"
#include "utils/rng.h"
#include "utils/stopwatch.h"

namespace perfbench {
namespace {

namespace core = isrec::core;
namespace obs = isrec::obs;
namespace serve = isrec::serve;
using isrec::Stopwatch;
using isrec::Tensor;

constexpr size_t kBatch = 32;
constexpr int kReps = 15;
constexpr size_t kWireRequests = 100;
constexpr size_t kWireWarmup = 10;

/// Median wall time of `fn` in ms over `reps` calls, after one untimed.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  fn();
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    times.push_back(watch.ElapsedMillis());
  }
  return Median(times);
}

struct Batch {
  std::vector<Index> users;
  std::vector<std::vector<Index>> histories;
  std::vector<std::vector<Index>> candidates;
};

/// The first kBatch requests of `traffic`; each ranks `catalog` when
/// given, else its own candidate list.
Batch MakeBatch(const std::vector<serve::Request>& traffic,
                const std::vector<Index>* catalog) {
  Batch batch;
  for (size_t i = 0; i < kBatch && i < traffic.size(); ++i) {
    const serve::Request& request = traffic[i];
    batch.users.push_back(request.user);
    batch.histories.push_back(request.history);
    batch.candidates.push_back(catalog != nullptr ? *catalog
                                                  : request.candidates);
  }
  return batch;
}

class LayerTable {
 public:
  explicit LayerTable(Report& report) : report_(report) {}
  void Add(const char* layer, const std::string& name, double value,
           const char* unit) {
    report_.Add(name, value, unit);
    char line[256];
    std::snprintf(line, sizeof(line), "layer %-22s %-30s %14.6g %s", layer,
                  name.c_str(), value, unit);
    report_.Note(line);
  }

 private:
  Report& report_;
};

uint64_t CounterValue(const char* name) {
  return obs::GetCounter(name).Value();
}

double EncodeB32Ms(core::IsrecModel& model, const Batch& batch) {
  return MedianMs(kReps, [&] {
    model.EncodeStatesForServing(batch.users, batch.histories);
  });
}

void ProbeEngine(serve::ServingEngine& engine, LayerTable& table) {
  obs::ScopedSpan span("serve.ServingEngine::Stats");
  const serve::ServeStats s = engine.Stats();
  table.Add("serve engine", "serve.engine_ms_p50", s.p50_ms, "ms");
  table.Add("serve engine", "serve.engine_ms_p99", s.p99_ms, "ms");
  table.Add("serve engine", "serve.mean_batch_size", s.mean_batch_size, "req");
  table.Add("serve engine", "serve.allocs_per_request", s.allocs_per_request(),
            "count");
  table.Add("serve engine", "serve.alloc_bytes_per_request",
            s.alloc_bytes_per_request(), "B");
}

void ProbeModel(core::IsrecModel& model, const Batch& full, const Batch& cand,
                bool rank_candidates, LayerTable& table) {
  obs::ScopedSpan span("models.EncodeStatesForServing");
  size_t next = 0;
  const double b1 = MedianMs(4 * kReps, [&] {
    const size_t i = next++ % full.users.size();
    model.EncodeStatesForServing({full.users[i]}, {full.histories[i]});
  });
  const double b32 = EncodeB32Ms(model, full);
  const double score_full = MedianMs(kReps, [&] {
    model.ScoreBatch(full.users, full.histories, full.candidates);
  });
  const double score_cand = MedianMs(kReps, [&] {
    model.ScoreBatch(cand.users, cand.histories, cand.candidates);
  });
  table.Add("models", "model.encode_ms_b1", b1, "ms");
  table.Add("models", "model.encode_ms_b32", b32, "ms");
  table.Add("models", "model.score_ms_b32", score_full - b32, "ms");
  table.Add("models", "model.score_ms_b32_cand", score_cand - b32, "ms");

  // Exact registry counts around one B=32 full-catalog ScoreBatch, with
  // the kernels' intra-op pool at its default size so ParallelFor
  // dispatches show.
  isrec::utils::SetNumThreads(std::thread::hardware_concurrency());
  const uint64_t flops = CounterValue("tensor.gemm_flops");
  const uint64_t gemms = CounterValue("tensor.gemm_calls");
  const uint64_t spmms = CounterValue("tensor.spmm_calls");
  const uint64_t dispatches = CounterValue("parallel.dispatches");
  const auto scores =
      model.ScoreBatch(full.users, full.histories, full.candidates);
  table.Add("tensor/nn", "tensor.gemm_flops_b32",
            static_cast<double>(CounterValue("tensor.gemm_flops") - flops),
            "flop");
  table.Add("tensor/nn", "tensor.gemm_calls_b32",
            static_cast<double>(CounterValue("tensor.gemm_calls") - gemms),
            "count");
  table.Add("tensor/nn", "tensor.spmm_calls_b32",
            static_cast<double>(CounterValue("tensor.spmm_calls") - spmms),
            "count");
  table.Add("utils", "parallel.dispatches_b32",
            static_cast<double>(CounterValue("parallel.dispatches") -
                                dispatches),
            "count");
  isrec::utils::SetNumThreads(1);
  table.Add("tensor/nn", "kernels.isa",
            static_cast<double>(isrec::kernels::ActiveIsa()), "id");

  // serve::TopK over the lists this workload ranks.
  const Batch& ranked = rank_candidates ? cand : full;
  const auto ranked_scores =
      rank_candidates
          ? model.ScoreBatch(cand.users, cand.histories, cand.candidates)
          : scores;
  obs::ScopedSpan topk_span("serve::TopK");
  const double topk_ms = MedianMs(kReps, [&] {
    for (size_t b = 0; b < ranked.users.size(); ++b) {
      serve::TopK(ranked_scores[b], ranked.candidates[b], 10);
    }
  });
  table.Add("serve engine", "serve.topk_us",
            topk_ms * 1000.0 / static_cast<double>(ranked.users.size()), "us");
}

/// The paper's stages split from outside: encode B=32 with the public
/// ablation configs at the workload's dims, and difference the times.
void ProbeCoreStages(World& world, const Batch& full, LayerTable& table) {
  obs::ScopedSpan span("core.ablation_encode_b32");
  const core::IsrecConfig configs[3] = {
      world.config, core::WithoutGnn(world.config),
      core::WithoutGnnAndIntent(world.config)};
  double ms[3];
  for (int c = 0; c < 3; ++c) {
    core::IsrecModel model(configs[c]);
    model.Build(*world.dataset);
    model.SetTraining(false);
    ms[c] = EncodeB32Ms(model, full);
  }
  table.Add("core", "core.transformer_ms_b32", ms[2], "ms");
  table.Add("core", "core.intent_ms_b32", ms[1] - ms[2], "ms");
  table.Add("core", "core.gcn_ms_b32", ms[0] - ms[1], "ms");

  // The per-batch E*C recompute of Eq. 1: SpMM(E, C) + Add at the
  // workload's shapes.
  const isrec::data::Dataset& dataset = *world.dataset;
  std::vector<Index> rows, cols;
  std::vector<float> values;
  for (Index item = 0; item < dataset.num_items; ++item) {
    for (Index c : dataset.item_concepts[item]) {
      rows.push_back(item);
      cols.push_back(c);
      values.push_back(1.0f);
    }
  }
  const Index k = dataset.concepts.num_concepts();
  const Index d = world.config.seq.embed_dim;
  const isrec::SparseMatrix e(dataset.num_items, k, rows, cols, values);
  isrec::Rng rng(7);
  const Tensor c = Tensor::Randn({k, d}, 0.1f, rng);
  const Tensor items = Tensor::Randn({dataset.num_items, d}, 0.1f, rng);
  table.Add("core", "core.ec_table_ms",
            MedianMs(kReps, [&] { isrec::Add(items, isrec::SpMM(e, c)); }),
            "ms");
}

void ProbeCodec(serve::ServingEngine& engine,
                const std::vector<serve::Request>& traffic,
                LayerTable& table) {
  obs::ScopedSpan span("serve.recommend_http codec");
  const size_t n = std::min<size_t>(traffic.size(), 256);
  const double request_ms = MedianMs(kReps, [&] {
    for (size_t i = 0; i < n; ++i) {
      serve::Request parsed;
      std::string error;
      serve::RecommendRequestFromJson(
          serve::RecommendRequestToJson(traffic[i]), &parsed, &error);
    }
  });
  std::vector<serve::RecommendResponse> responses;
  for (size_t i = 0; i < 64 && i < n; ++i) {
    responses.push_back(
        serve::RecommendResponse::FromOutcome(engine.Recommend(traffic[i])));
  }
  const double response_ms = MedianMs(kReps, [&] {
    for (const serve::RecommendResponse& response : responses) {
      serve::RecommendResponse parsed;
      std::string error;
      serve::RecommendResponseFromJson(serve::RecommendResponseToJson(response),
                                       &parsed, &error);
    }
  });
  table.Add("serve/recommend_http", "codec.request_us",
            request_ms * 1000.0 / static_cast<double>(n), "us");
  table.Add("serve/recommend_http", "codec.response_us",
            response_ms * 1000.0 / static_cast<double>(responses.size()), "us");
}

/// Sequential keep-alive POSTs to `port`; the median round trip in ms.
double MedianRttMs(int port, const std::vector<serve::Request>& traffic,
                   uint64_t* failures) {
  obs::HttpClientOptions options;
  options.keep_alive = true;
  obs::HttpClient client(options);
  std::vector<double> times;
  for (size_t i = 0; i < kWireRequests + kWireWarmup; ++i) {
    const std::string body =
        serve::RecommendRequestToJson(traffic[i % traffic.size()]);
    Stopwatch watch;
    const obs::HttpClient::Result result = client.Post(
        "127.0.0.1", port, "/recommend", "application/json", body);
    const double ms = watch.ElapsedMillis();
    if (!result.ok || result.status != 200) ++*failures;
    if (i >= kWireWarmup) times.push_back(ms);
  }
  return Median(times);
}

/// HTTP and router layers: one replica over the workload's engine and a
/// router in front of it, started for the probe's duration.
void ProbeWire(serve::ServingEngine& engine,
               const std::vector<serve::Request>& traffic, Report& report,
               LayerTable& table) {
  obs::ScopedSpan span("obs/http+router probe");
  std::vector<std::unique_ptr<obs::AdminServer>> replicas;
  std::unique_ptr<isrec::router::Router> router;
  replicas.push_back(StartReplica(engine));
  if (replicas.back() != nullptr) router = StartRouter(replicas);
  uint64_t failures = 0;
  double direct = 0.0, routed = 0.0;
  if (router == nullptr) {
    report.Incorrect("the wire probe's router did not come up");
  } else {
    direct = MedianRttMs(replicas.front()->port(), traffic, &failures);
    routed = MedianRttMs(router->port(), traffic, &failures);
  }
  report.Attempted(2 * (kWireRequests + kWireWarmup));
  report.Failed(failures, "wire probe requests failed");
  const isrec::router::RouterDecisions decisions =
      router != nullptr ? router->decisions()
                        : isrec::router::RouterDecisions{};
  const uint64_t served = CounterValue("http.requests");
  table.Add("obs/http", "http.direct_rtt_ms_p50", direct, "ms");
  table.Add("obs/http", "http.keepalive_reuse_ratio",
            served == 0 ? 0.0
                        : static_cast<double>(
                              CounterValue("http.keepalive_reuses")) /
                              served,
            "ratio");
  table.Add("router", "router.hop_ms_p50", routed - direct, "ms");
  table.Add("router", "router.attempts_per_request",
            decisions.requests == 0
                ? 0.0
                : static_cast<double>(decisions.forwarded) / decisions.requests,
            "ratio");
  table.Add("router", "router.transport_errors",
            static_cast<double>(decisions.transport_errors), "count");
  if (router != nullptr) router->Stop();
  for (auto& replica : replicas) {
    if (replica != nullptr) replica->Stop();
  }
}

void ProbeTraining(const WorkloadSpec& spec, World& world, LayerTable& table) {
  obs::ScopedSpan span("models.TrainEpoch");
  // The refresh trainer's slice of users (16 at paper scale), so the
  // probe stays short.
  const auto dataset = SubsetDataset(world, spec.refresh_users);
  const isrec::data::LeaveOneOutSplit split(*dataset);
  core::IsrecModel model(world.config);
  model.Build(*dataset);
  isrec::data::SequenceBatcher batcher(split, world.config.seq.batch_size,
                                       world.config.seq.seq_len);
  model.SetTraining(true);
  Stopwatch watch;
  model.TrainEpoch(batcher);
  table.Add("models", "models.train_epoch_s", watch.ElapsedSeconds(), "s");
}

/// Checkpoint save/load and a hot swap into the engine. Runs last:
/// it replaces the served model.
void ProbeLifecycle(const Options& options, core::IsrecModel& model,
                    serve::ServingEngine& engine,
                    const std::vector<serve::Request>& traffic,
                    Report& report, LayerTable& table) {
  obs::ScopedSpan span("serve lifecycle");
  const std::string path = options.work_dir + "/probe-" +
                           std::to_string(getpid()) + ".isrec";
  const double save_ms =
      MedianMs(2, [&] { serve::SaveCheckpoint(model, path, 1); });
  const double load_ms = MedianMs(2, [&] { serve::ServableModel::Load(path); });
  std::vector<double> publish, first_new;
  uint64_t failures = 0;
  for (int r = 0; r < 3; ++r) {
    auto loaded = serve::ServableModel::Load(path);
    if (!loaded.ok()) {
      ++failures;
      continue;
    }
    Stopwatch watch;
    const auto version = engine.Publish(loaded.value());
    publish.push_back(watch.ElapsedMillis());
    if (!version.ok()) {
      ++failures;
      continue;
    }
    for (int attempt = 0; attempt < 100; ++attempt) {
      const auto outcome = engine.Recommend(traffic[0]);
      if (outcome.ok() && outcome.value().model_version == version.value()) {
        first_new.push_back(watch.ElapsedMillis());
        break;
      }
    }
  }
  std::remove(path.c_str());
  report.Attempted(3);
  report.Failed(failures, "lifecycle probe publishes failed");
  table.Add("serve/checkpoint", "checkpoint.save_ms", save_ms, "ms");
  table.Add("serve/checkpoint", "checkpoint.load_ms", load_ms, "ms");
  table.Add("serve lifecycle", "serve.publish_ms", Median(publish), "ms");
  table.Add("serve lifecycle", "serve.first_new_version_ms", Median(first_new),
            "ms");
}

}  // namespace

void ProbeLayers(const WorkloadSpec& spec, const Options& options,
                 World& world, Tier& tier,
                 const std::vector<serve::Request>& traffic, Report& report) {
  obs::ScopedSpan span("bench.probe_layers");
  LayerTable table(report);
  serve::ServingEngine& engine = *tier.engine;
  ProbeEngine(engine, table);
  // Counting every allocation would slow the timed probes below.
  obs::heap::EnableHeapProfiling(false);

  const auto handle = engine.CurrentModel();
  core::IsrecModel& model = world.model != nullptr
                                ? *world.model
                                : *handle->servable->model;
  WorkloadSpec candidate_spec = spec;
  candidate_spec.candidates = true;
  const std::vector<serve::Request> candidate_traffic =
      MakeTraffic(candidate_spec, world, kBatch, options.seed * 8 + 7);
  const Batch full = MakeBatch(traffic, &handle->catalog);
  const Batch cand = MakeBatch(spec.candidates ? traffic : candidate_traffic,
                               nullptr);

  ProbeModel(model, full, cand, spec.candidates, table);
  ProbeCoreStages(world, full, table);
  ProbeCodec(engine, traffic, table);
  ProbeWire(engine, traffic, report, table);
  ProbeTraining(spec, world, table);
  ProbeLifecycle(options, model, engine, traffic, report, table);
}

}  // namespace perfbench
