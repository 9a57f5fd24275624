// Tests of the isrec::serve subsystem: checkpoint round-trips, the
// ScoreBatch == Score contract the engine relies on, the serving-only
// EncodeLastState fast paths, the engine's identical-top-K guarantee,
// the LRU response cache wiring, and the v2 outcome contract — request
// deadlines, admission-control shedding, degraded fallbacks, fault
// injection, and the answer-everything shutdown guarantee.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/isrec.h"
#include "data/split.h"
#include "data/stream.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "models/pop_rec.h"
#include "models/sasrec.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "serve/fault.h"
#include "serve/online.h"
#include "serve/stats.h"
#include "utils/status.h"

namespace isrec::serve {
namespace {

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/isrec_serve_" + tag;
}

data::Dataset BeautySim() {
  for (const auto& preset : data::AllPresets()) {
    if (preset.name == "beauty_sim") {
      return data::GenerateSyntheticDataset(preset);
    }
  }
  ADD_FAILURE() << "beauty_sim preset missing";
  return {};
}

core::IsrecConfig SmallIsrecConfig(Index epochs) {
  core::IsrecConfig config;
  config.seq.embed_dim = 16;
  config.seq.num_layers = 2;
  config.seq.ffn_dim = 32;
  config.seq.seq_len = 8;
  config.seq.epochs = epochs;
  config.seq.batch_size = 64;
  config.seq.seed = 7;
  config.intent_dim = 4;
  config.num_active = 6;
  return config;
}

// Ten short probe histories over a 600-item catalog.
std::vector<std::vector<Index>> ProbeHistories() {
  std::vector<std::vector<Index>> probes;
  for (Index p = 0; p < 10; ++p) {
    std::vector<Index> h;
    for (Index i = 0; i <= p % 5; ++i) h.push_back((37 * p + 11 * i) % 600);
    probes.push_back(std::move(h));
  }
  return probes;
}

TEST(CheckpointTest, RoundTripIsBitwiseIdentical) {
  data::Dataset dataset = BeautySim();
  data::LeaveOneOutSplit split(dataset);

  core::IsrecModel model(SmallIsrecConfig(/*epochs=*/2));
  model.Fit(dataset, split);
  model.SetTraining(false);

  const std::string path = TempPath("roundtrip.isrec");
  SaveCheckpoint(model, path, /*epoch=*/2);
  Outcome<std::shared_ptr<ServableModel>> outcome = ServableModel::Load(path);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const std::shared_ptr<ServableModel>& restored = outcome.value();
  ASSERT_NE(restored->model, nullptr);
  EXPECT_EQ(restored->model->name(), model.name());
  EXPECT_EQ(restored->num_items(), dataset.num_items);
  EXPECT_EQ(restored->epoch, 2u);
  // The v2 format carries the popularity prior (per-item interaction
  // counts) for degraded fallbacks.
  ASSERT_EQ(restored->popularity.size(),
            static_cast<size_t>(dataset.num_items));
  float prior_mass = 0.0f;
  for (float count : restored->popularity) prior_mass += count;
  EXPECT_GT(prior_mass, 0.0f);

  std::vector<Index> candidates(dataset.num_items);
  for (Index i = 0; i < dataset.num_items; ++i) candidates[i] = i;
  for (const std::vector<Index>& history : ProbeHistories()) {
    const std::vector<float> expected = model.Score(0, history, candidates);
    const std::vector<float> actual =
        restored->model->Score(0, history, candidates);
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      // Bitwise: the checkpoint stores raw parameter bits and scoring is
      // deterministic, so not even the last ulp may differ.
      ASSERT_EQ(expected[i], actual[i]) << "score " << i;
    }
  }
}

TEST(CheckpointTest, LoadOfMissingFileIsTypedModelError) {
  Outcome<std::shared_ptr<ServableModel>> missing =
      ServableModel::Load(TempPath("does_not_exist"));
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), StatusCode::kModelError);
  EXPECT_NE(missing.status().message().find("cannot open"),
            std::string::npos)
      << missing.status().ToString();
}

TEST(CheckpointTest, RejectsTruncatedAndCorruptFiles) {
  data::Dataset dataset = BeautySim();
  core::IsrecModel model(SmallIsrecConfig(/*epochs=*/1));
  model.Build(dataset);  // untrained parameters are fine for this test

  const std::string path = TempPath("corrupt.isrec");
  SaveCheckpoint(model, path);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 4000u);

  auto write_and_load = [&path](const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.close();
    return ServableModel::Load(path);
  };

  // Truncation at every section: header, config, vocab, and params.
  // Every rejection is a typed kModelError with a diagnostic, never a
  // crash or a silently-wrong model.
  for (const size_t keep :
       {size_t{2}, size_t{40}, size_t{2000}, bytes.size() - 8}) {
    Outcome<std::shared_ptr<ServableModel>> loaded =
        write_and_load(bytes.substr(0, keep));
    EXPECT_FALSE(loaded.ok()) << "truncated to " << keep << " bytes";
    EXPECT_EQ(loaded.code(), StatusCode::kModelError);
    EXPECT_FALSE(loaded.status().message().empty());
  }

  std::string bad_magic = bytes;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x5a);
  {
    Outcome<std::shared_ptr<ServableModel>> loaded = write_and_load(bad_magic);
    EXPECT_EQ(loaded.code(), StatusCode::kModelError);
    EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
  }

  std::string bad_version = bytes;
  bad_version[4] = static_cast<char>(bad_version[4] + 1);
  {
    Outcome<std::shared_ptr<ServableModel>> loaded =
        write_and_load(bad_version);
    EXPECT_EQ(loaded.code(), StatusCode::kModelError);
    EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  }

  // The original bytes still load — the rejections above were not luck.
  EXPECT_TRUE(write_and_load(bytes).ok());
}

// The engine answers a micro-batch with one ScoreBatch call and promises
// results identical to per-request Score; these tests pin that contract
// for both model families, including heterogeneous histories and
// per-request candidate lists.
template <typename Model>
void ExpectScoreBatchMatchesScore(Model& model, Index num_items) {
  model.SetTraining(false);
  std::vector<Index> users;
  std::vector<std::vector<Index>> histories = ProbeHistories();
  std::vector<std::vector<Index>> candidate_lists;
  for (size_t r = 0; r < histories.size(); ++r) {
    users.push_back(static_cast<Index>(r));
    std::vector<Index> candidates;
    if (r % 2 == 0) {  // Full catalog on even requests ...
      for (Index i = 0; i < num_items; ++i) candidates.push_back(i);
    } else {  // ... a request-specific subset on odd ones.
      for (Index i = static_cast<Index>(r); i < num_items; i += 7) {
        candidates.push_back(i);
      }
    }
    candidate_lists.push_back(std::move(candidates));
  }

  const std::vector<std::vector<float>> batched =
      model.ScoreBatch(users, histories, candidate_lists);
  ASSERT_EQ(batched.size(), histories.size());
  for (size_t r = 0; r < histories.size(); ++r) {
    const std::vector<float> single =
        model.Score(users[r], histories[r], candidate_lists[r]);
    ASSERT_EQ(batched[r].size(), single.size());
    for (size_t i = 0; i < single.size(); ++i) {
      ASSERT_EQ(batched[r][i], single[i]) << "request " << r << " score " << i;
    }
  }
}

TEST(ScoreBatchTest, MatchesScoreForIsrec) {
  data::Dataset dataset = BeautySim();
  data::LeaveOneOutSplit split(dataset);
  core::IsrecModel model(SmallIsrecConfig(/*epochs=*/1));
  model.Fit(dataset, split);
  ExpectScoreBatchMatchesScore(model, dataset.num_items);
}

TEST(ScoreBatchTest, MatchesScoreForSasRec) {
  data::Dataset dataset = BeautySim();
  data::LeaveOneOutSplit split(dataset);
  models::SeqModelConfig config;
  config.embed_dim = 16;
  config.num_layers = 2;
  config.ffn_dim = 32;
  config.seq_len = 8;
  config.epochs = 1;
  config.seed = 7;
  models::SasRec model(config);
  model.Fit(dataset, split);
  ExpectScoreBatchMatchesScore(model, dataset.num_items);
}

// Reverts EncodeLastState to the base-class implementation (full Encode
// of every position, then slice the last), so the serving fast path can
// be compared against the reference it claims to equal.
class FullEncodeIsrec : public core::IsrecModel {
 public:
  explicit FullEncodeIsrec(core::IsrecConfig config)
      : core::IsrecModel(config) {}

 protected:
  Tensor EncodeLastState(const data::SequenceBatch& batch) override {
    return models::SequentialModelBase::EncodeLastState(batch);
  }
};

class FullEncodeSasRec : public models::SasRec {
 public:
  explicit FullEncodeSasRec(models::SeqModelConfig config)
      : models::SasRec(config) {}

 protected:
  Tensor EncodeLastState(const data::SequenceBatch& batch) override {
    return models::SequentialModelBase::EncodeLastState(batch);
  }
};

// The last-query attention path (TransformerEncoder::ForwardLastState)
// must be bitwise equal to encoding the full sequence and keeping the
// final position — every op it skips is row-independent.
TEST(EncodeLastStateTest, LastQueryPathMatchesFullEncode) {
  data::Dataset dataset = BeautySim();
  data::LeaveOneOutSplit split(dataset);
  const core::IsrecConfig config = SmallIsrecConfig(/*epochs=*/1);

  core::IsrecModel fast(config);
  fast.Fit(dataset, split);
  FullEncodeIsrec reference(config);
  reference.Fit(dataset, split);  // Same seed: identical parameters.
  fast.SetTraining(false);
  reference.SetTraining(false);

  std::vector<Index> candidates(dataset.num_items);
  for (Index i = 0; i < dataset.num_items; ++i) candidates[i] = i;
  for (const std::vector<Index>& history : ProbeHistories()) {
    const std::vector<float> a = fast.Score(0, history, candidates);
    const std::vector<float> b = reference.Score(0, history, candidates);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
}

TEST(EncodeLastStateTest, LastQueryPathMatchesFullEncodeSasRec) {
  data::Dataset dataset = BeautySim();
  data::LeaveOneOutSplit split(dataset);
  models::SeqModelConfig config;
  config.embed_dim = 16;
  config.num_layers = 3;  // Exercise >1 full layer before the last.
  config.ffn_dim = 32;
  config.seq_len = 8;
  config.epochs = 1;
  config.seed = 11;

  models::SasRec fast(config);
  fast.Fit(dataset, split);
  FullEncodeSasRec reference(config);
  reference.Fit(dataset, split);
  fast.SetTraining(false);
  reference.SetTraining(false);

  std::vector<Index> candidates(dataset.num_items);
  for (Index i = 0; i < dataset.num_items; ++i) candidates[i] = i;
  for (const std::vector<Index>& history : ProbeHistories()) {
    const std::vector<float> a = fast.Score(0, history, candidates);
    const std::vector<float> b = reference.Score(0, history, candidates);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
}

TEST(TopKTest, SortsByScoreThenItemId) {
  const std::vector<Index> candidates = {10, 20, 30, 40, 50};
  const std::vector<float> scores = {0.5f, 0.9f, 0.5f, 0.1f, 0.9f};
  const Recommendation rec = TopK(scores, candidates, 4);
  // Ties at 0.9 (items 20, 50) and 0.5 (items 10, 30) break by id.
  EXPECT_EQ(rec.items, (std::vector<Index>{20, 50, 10, 30}));
  EXPECT_EQ(rec.scores, (std::vector<float>{0.9f, 0.9f, 0.5f, 0.5f}));
}

TEST(TopKTest, KLargerThanCandidatesReturnsAll) {
  const Recommendation rec = TopK({1.0f, 2.0f}, {7, 3}, 10);
  EXPECT_EQ(rec.items, (std::vector<Index>{3, 7}));
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = BeautySim();
    split_ = std::make_unique<data::LeaveOneOutSplit>(dataset_);
    model_ = std::make_unique<core::IsrecModel>(SmallIsrecConfig(1));
    model_->Fit(dataset_, *split_);
    model_->SetTraining(false);
  }

  std::vector<Request> MakeRequests(Index n) const {
    const std::vector<Index>& users = split_->evaluable_users();
    std::vector<Request> requests;
    for (Index i = 0; i < n; ++i) {
      const Index u = users[i % users.size()];
      requests.push_back({u, split_->TestHistory(u), 10, {}, {}});
    }
    return requests;
  }

  data::Dataset dataset_;
  std::unique_ptr<data::LeaveOneOutSplit> split_;
  std::unique_ptr<core::IsrecModel> model_;
};

// The v2 happy-path pin: with no deadline, no faults, and admission
// control off, every outcome is kOk and the top-K lists (items AND
// scores) are bitwise identical to sequential per-request Score — the
// robustness machinery must be invisible when unused. Runs over the
// engine grid {threads, max_batch, window_us} from no batching to
// 256-request batches, with enough requests for the largest to form.
TEST_F(EngineTest, ConcurrentBatchedResultsMatchSequential) {
  struct GridPoint {
    Index threads, max_batch, window_us;
  };
  const GridPoint grid[] = {{1, 1, 0}, {4, 32, 500}, {8, 128, 2000},
                            {8, 256, 2000}};
  constexpr Index kRequests = 300;
  const std::vector<Request> requests = MakeRequests(kRequests);
  std::vector<Index> catalog(dataset_.num_items);
  for (Index i = 0; i < dataset_.num_items; ++i) catalog[i] = i;
  std::vector<Recommendation> want;
  for (const Request& request : requests) {
    want.push_back(TopK(model_->Score(request.user, request.history, catalog),
                        catalog, request.k));
  }

  for (const GridPoint& point : grid) {
    SCOPED_TRACE("threads=" + std::to_string(point.threads) +
                 " max_batch=" + std::to_string(point.max_batch) +
                 " window_us=" + std::to_string(point.window_us));
    EngineConfig config;
    config.num_threads = point.threads;
    config.max_batch_size = point.max_batch;
    config.batch_window_us = point.window_us;
    ServingEngine engine(ServableModel::Wrap(*model_, dataset_.num_items),
                         config);

    std::vector<std::future<Outcome<Recommendation>>> futures;
    for (const Request& request : requests) {
      futures.push_back(engine.RecommendAsync(request));
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      const Outcome<Recommendation> outcome = futures[i].get();
      ASSERT_TRUE(outcome.ok()) << "request " << i << ": "
                                << outcome.status().ToString();
      const Recommendation& got = outcome.value();
      ASSERT_EQ(got.items, want[i].items) << "request " << i;
      ASSERT_EQ(got.scores, want[i].scores) << "request " << i;
      EXPECT_FALSE(got.from_cache);
      // No Publish happened, so everything was scored by version 1 — the
      // no-swap happy path is the v1 engine bit for bit.
      EXPECT_EQ(got.model_version, 1u);
    }

    const ServeStats stats = engine.Stats();
    EXPECT_EQ(stats.num_requests, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_GE(stats.num_batches, 1u);
    if (point.max_batch > 1) {
      EXPECT_GT(stats.mean_batch_size, 1.0);  // Micro-batching engaged.
    } else {
      EXPECT_EQ(stats.mean_batch_size, 1.0);
    }
    uint64_t histogram_total = 0;
    for (size_t b = 1; b < stats.batch_size_histogram.size(); ++b) {
      EXPECT_LE(b, static_cast<size_t>(point.max_batch)) << "batch over cap";
      histogram_total += b * stats.batch_size_histogram[b];
    }
    EXPECT_EQ(histogram_total, static_cast<uint64_t>(kRequests));
  }
}

TEST_F(EngineTest, RepeatRequestsHitTheCache) {
  EngineConfig config;
  config.num_threads = 1;
  config.batch_window_us = 0;
  config.cache_capacity = 64;
  ServingEngine engine(ServableModel::Wrap(*model_, dataset_.num_items),
                       config);

  const Request request = MakeRequests(1)[0];
  const Outcome<Recommendation> first = engine.Recommend(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().from_cache);
  const Outcome<Recommendation> second = engine.Recommend(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().from_cache);
  EXPECT_EQ(second.value().items, first.value().items);
  EXPECT_EQ(second.value().scores, first.value().scores);

  // A different history must not hit the same entry.
  Request other = request;
  other.history.push_back((other.history.back() + 1) % dataset_.num_items);
  EXPECT_FALSE(engine.Recommend(other).value().from_cache);

  const ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_GT(stats.cache_hit_rate(), 0.0);
}

TEST_F(EngineTest, InFlightDuplicateIsServedFromCache) {
  EngineConfig config;
  config.num_threads = 1;
  config.max_batch_size = 1;  // The duplicate can never share A's batch.
  config.batch_window_us = 0;
  config.cache_capacity = 64;
  ServingEngine engine(ServableModel::Wrap(*model_, dataset_.num_items),
                       config);

  // Submit the duplicate while the original may still be in flight. Its
  // submit-time lookup can miss, but the single worker processes it
  // strictly after the original's Put, so the batch-time lookup hits.
  const Request request = MakeRequests(1)[0];
  std::future<Outcome<Recommendation>> first = engine.RecommendAsync(request);
  std::future<Outcome<Recommendation>> second = engine.RecommendAsync(request);
  const Recommendation a = first.get().value();
  const Recommendation b = second.get().value();
  EXPECT_FALSE(a.from_cache);
  EXPECT_TRUE(b.from_cache);
  EXPECT_EQ(b.items, a.items);
  EXPECT_EQ(b.scores, a.scores);

  const ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.num_requests, 2u);
}

TEST_F(EngineTest, PerRequestCandidateListsAreRespected)  {
  EngineConfig config;
  config.num_threads = 1;
  config.batch_window_us = 0;
  ServingEngine engine(ServableModel::Wrap(*model_, dataset_.num_items),
                       config);

  Request request = MakeRequests(1)[0];
  request.candidates = {5, 17, 42, 99, 256};
  request.k = 3;
  const Recommendation rec = engine.Recommend(request).value();
  ASSERT_EQ(rec.items.size(), 3u);
  for (Index item : rec.items) {
    EXPECT_TRUE(std::find(request.candidates.begin(),
                          request.candidates.end(),
                          item) != request.candidates.end());
  }
}

// -- The v2 outcome contract: deadlines, shedding, degradation ----------
//
// These tests pin every non-OK path deterministically: a Gate installed
// as the FaultInjector's before-score hook holds the single worker
// mid-"score", so queue buildup, deadline expiry, and shutdown ordering
// are under test control instead of timing luck.

// Deterministic scoring stand-in: score(c) = c % 97, so TopK output is
// known and cheap. The engine's robustness paths never depend on what
// the model computes, only on when and whether scoring happens.
class FakeModel : public eval::Recommender {
 public:
  std::string name() const override { return "fake"; }
  void Fit(const data::Dataset&, const data::LeaveOneOutSplit&) override {}
  std::vector<float> Score(Index, const std::vector<Index>&,
                           const std::vector<Index>& candidates) override {
    std::vector<float> scores;
    scores.reserve(candidates.size());
    for (Index c : candidates) scores.push_back(static_cast<float>(c % 97));
    return scores;
  }
};

// Reusable open/closed latch for before-score hooks.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Spins until the engine has started `n` scoring calls (i.e. the worker
// is blocked inside the Gate hook).
void WaitForScoreCalls(ServingEngine& engine, uint64_t n) {
  while (engine.fault_injector().score_calls() < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

EngineConfig SingleWorkerConfig() {
  EngineConfig config;
  config.num_threads = 1;
  config.max_batch_size = 1;
  config.batch_window_us = 0;
  return config;
}

TEST(EngineOutcomeTest, InvalidArgumentsAreAnsweredImmediately) {
  FakeModel model;
  ServingEngine engine(ServableModel::Wrap(model, /*num_items=*/100),
                       SingleWorkerConfig());

  Request bad_k{0, {1, 2}, 0, {}, {}};
  EXPECT_EQ(engine.Recommend(bad_k).code(), StatusCode::kInvalidArgument);

  Request bad_history{0, {100}, 10, {}, {}};  // Item id == num_items.
  EXPECT_EQ(engine.Recommend(bad_history).code(),
            StatusCode::kInvalidArgument);

  Request bad_candidate{0, {1}, 10, {-1}, {}};
  EXPECT_EQ(engine.Recommend(bad_candidate).code(),
            StatusCode::kInvalidArgument);

  Request bad_deadline{0, {1}, 10, {}, {-5.0, 0, false}};
  EXPECT_EQ(engine.Recommend(bad_deadline).code(),
            StatusCode::kInvalidArgument);

  const ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.invalid_arguments, 4u);
  EXPECT_EQ(stats.num_requests, 0u);  // None of them reached scoring.
}

TEST(EngineOutcomeTest, DeadlineExpiredBeforeDequeueIsAnsweredNotScored) {
  FakeModel model;
  ServingEngine engine(ServableModel::Wrap(model, /*num_items=*/100),
                       SingleWorkerConfig());
  Gate gate;
  engine.fault_injector().set_before_score([&gate] { gate.Wait(); });

  // A occupies the single worker inside the gate; B's deadline expires
  // while it can only sit in the queue.
  std::future<Outcome<Recommendation>> a =
      engine.RecommendAsync({0, {1, 2}, 5, {}, {}});
  WaitForScoreCalls(engine, 1);
  std::future<Outcome<Recommendation>> b =
      engine.RecommendAsync({1, {3, 4}, 5, {}, {/*deadline_ms=*/1.0, 0,
                                               false}});
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.Open();

  EXPECT_TRUE(a.get().ok());
  const Outcome<Recommendation> expired = b.get();
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(expired.has_value());
  // The expired request was answered at dequeue, before any scoring:
  // only A's batch ever reached the model.
  EXPECT_EQ(engine.fault_injector().score_calls(), 1u);
  EXPECT_EQ(engine.Stats().deadline_exceeded, 1u);
}

TEST(EngineOutcomeTest, RequestScoredPastDeadlineIsAnsweredExceeded) {
  FakeModel model;
  ServingEngine engine(ServableModel::Wrap(model, /*num_items=*/100),
                       SingleWorkerConfig());
  Gate gate;
  engine.fault_injector().set_before_score([&gate] { gate.Wait(); });

  // The worker dequeues A well inside its 300ms deadline, then the gate
  // holds the "model" past it: the work completed, the deadline did not
  // survive it, and the contract is a typed outcome, not a late answer.
  std::future<Outcome<Recommendation>> a =
      engine.RecommendAsync({0, {1, 2}, 5, {}, {/*deadline_ms=*/300.0, 0,
                                               false}});
  WaitForScoreCalls(engine, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  gate.Open();

  const Outcome<Recommendation> outcome = a.get();
  EXPECT_EQ(outcome.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.fault_injector().score_calls(), 1u);  // It WAS scored.
  EXPECT_EQ(engine.Stats().deadline_exceeded, 1u);
}

TEST(EngineOutcomeTest, WatermarkSheddingShedsLowestPriorityFirst) {
  FakeModel model;
  EngineConfig config = SingleWorkerConfig();
  config.shed_high_watermark = 2;
  config.shed_low_watermark = 1;
  ServingEngine engine(ServableModel::Wrap(model, /*num_items=*/100), config);
  Gate gate;
  engine.fault_injector().set_before_score([&gate] { gate.Wait(); });

  // A blocks the worker; B and C fill the queue to the high watermark.
  std::future<Outcome<Recommendation>> a =
      engine.RecommendAsync({0, {1}, 5, {}, {0.0, /*priority=*/0, false}});
  WaitForScoreCalls(engine, 1);
  std::future<Outcome<Recommendation>> b =
      engine.RecommendAsync({1, {2}, 5, {}, {0.0, /*priority=*/1, false}});
  std::future<Outcome<Recommendation>> c =
      engine.RecommendAsync({2, {3}, 5, {}, {0.0, /*priority=*/1, false}});

  // D (priority 0) arrives at the watermark: no queued request has
  // strictly lower priority, so D itself is shed — immediately, without
  // blocking the producer.
  std::future<Outcome<Recommendation>> d =
      engine.RecommendAsync({3, {4}, 5, {}, {0.0, /*priority=*/0, false}});
  ASSERT_EQ(d.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const Outcome<Recommendation> shed = d.get();
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded);

  // E (priority 2) displaces the oldest priority-1 request (B), which is
  // answered kOverloaded in E's place.
  std::future<Outcome<Recommendation>> e =
      engine.RecommendAsync({4, {5}, 5, {}, {0.0, /*priority=*/2, false}});
  ASSERT_EQ(b.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(b.get().code(), StatusCode::kOverloaded);

  gate.Open();
  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(c.get().ok());
  EXPECT_TRUE(e.get().ok());
  EXPECT_EQ(engine.Stats().rejected, 2u);  // D and the displaced B.
}

TEST(EngineOutcomeTest, ModelFaultWithoutFallbackIsModelError) {
  FakeModel model;
  EngineConfig config = SingleWorkerConfig();
  config.fault.score_throw = 1.0;  // Every scoring call throws.
  ServingEngine engine(ServableModel::Wrap(model, /*num_items=*/100), config);

  const Outcome<Recommendation> outcome =
      engine.Recommend({0, {1, 2}, 5, {}, {}});
  EXPECT_EQ(outcome.code(), StatusCode::kModelError);
  EXPECT_FALSE(outcome.has_value());
  EXPECT_EQ(engine.Stats().model_errors, 1u);
}

TEST(EngineOutcomeTest, DegradedFallbackMatchesPopRecOrdering) {
  data::Dataset dataset = BeautySim();
  data::LeaveOneOutSplit split(dataset);
  models::PopRec pop_rec;
  pop_rec.Fit(dataset, split);

  FakeModel model;
  EngineConfig config = SingleWorkerConfig();
  config.fault.score_throw = 1.0;
  config.fallback_scores.reserve(dataset.num_items);
  for (Index i = 0; i < dataset.num_items; ++i) {
    config.fallback_scores.push_back(
        static_cast<float>(pop_rec.popularity(i)));
  }
  ServingEngine engine(ServableModel::Wrap(model, dataset.num_items), config);

  const Index user = split.evaluable_users()[0];
  const Request request{user, split.TestHistory(user), 10, {},
                        {0.0, 0, /*allow_degraded=*/true}};
  const Outcome<Recommendation> outcome = engine.Recommend(request);
  EXPECT_FALSE(outcome.ok());
  ASSERT_TRUE(outcome.has_value());  // Degraded still carries an answer.
  EXPECT_EQ(outcome.code(), StatusCode::kDegraded);

  // The fallback ranking IS PopRec: same scores, same shared TopK
  // tie-breaking, so the lists are identical, not merely similar.
  std::vector<Index> catalog(dataset.num_items);
  for (Index i = 0; i < dataset.num_items; ++i) catalog[i] = i;
  const Recommendation want =
      TopK(pop_rec.Score(user, request.history, catalog), catalog, 10);
  EXPECT_EQ(outcome.value().items, want.items);
  EXPECT_EQ(outcome.value().scores, want.scores);
  EXPECT_EQ(engine.Stats().degraded, 1u);
}

TEST(EngineOutcomeTest, DestructorAnswersEveryQueuedRequest) {
  FakeModel model;
  EngineConfig config = SingleWorkerConfig();
  config.fallback_scores = {1.0f, 3.0f, 2.0f};  // For the degraded D.
  auto engine = std::make_unique<ServingEngine>(
      ServableModel::Wrap(model, /*num_items=*/100), config);
  Gate gate;
  engine->fault_injector().set_before_score([&gate] { gate.Wait(); });

  // A is mid-score when the destructor starts; B, C, D are still queued.
  std::future<Outcome<Recommendation>> a =
      engine->RecommendAsync({0, {1}, 5, {}, {}});
  WaitForScoreCalls(*engine, 1);
  std::future<Outcome<Recommendation>> b =
      engine->RecommendAsync({1, {2}, 5, {}, {}});
  std::future<Outcome<Recommendation>> c =
      engine->RecommendAsync({2, {3}, 5, {}, {}});
  std::future<Outcome<Recommendation>> d = engine->RecommendAsync(
      {3, {4}, 2, {}, {0.0, 0, /*allow_degraded=*/true}});

  std::thread destroyer([&engine] { engine.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Open();
  destroyer.join();

  // Every future resolved — no drops, no broken promises. The popped
  // batch (A) was still scored; queued work was answered kOverloaded,
  // or with the degraded fallback where the request allows one.
  EXPECT_TRUE(a.get().ok());
  EXPECT_EQ(b.get().code(), StatusCode::kOverloaded);
  EXPECT_EQ(c.get().code(), StatusCode::kOverloaded);
  const Outcome<Recommendation> degraded = d.get();
  EXPECT_EQ(degraded.code(), StatusCode::kDegraded);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_EQ(degraded.value().items, (std::vector<Index>{1, 2}));
}

TEST(EngineOutcomeTest, ProducerBlockedOnFullQueueIsReleasedAtShutdown) {
  FakeModel model;
  EngineConfig config = SingleWorkerConfig();
  config.queue_capacity = 1;  // Blocking backpressure engages instantly.
  auto engine = std::make_unique<ServingEngine>(
      ServableModel::Wrap(model, /*num_items=*/100), config);
  Gate gate;
  engine->fault_injector().set_before_score([&gate] { gate.Wait(); });

  // A occupies the worker, B fills the one-slot queue, so C's producer
  // blocks in the v1 backpressure wait. v1 CHECK-aborted when shutdown
  // raced a submit; v2 releases the producer with kOverloaded.
  std::future<Outcome<Recommendation>> a =
      engine->RecommendAsync({0, {1}, 5, {}, {}});
  WaitForScoreCalls(*engine, 1);
  std::future<Outcome<Recommendation>> b =
      engine->RecommendAsync({1, {2}, 5, {}, {}});
  std::optional<Outcome<Recommendation>> c;
  // The producer must use a pre-loaded raw pointer: reading the
  // unique_ptr's own storage would race the destroyer's reset() below
  // (the test orders "blocked inside Recommend" vs "destructor runs"
  // by sleeping, which is deliberate — but sleeps are not
  // synchronization for the pointer load itself).
  ServingEngine* raw_engine = engine.get();
  std::thread producer(
      [&c, raw_engine] { c = raw_engine->Recommend({2, {3}, 5, {}, {}}); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::thread destroyer([&engine] { engine.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Open();
  producer.join();
  destroyer.join();

  EXPECT_TRUE(a.get().ok());  // Popped before shutdown: still scored.
  EXPECT_EQ(b.get().code(), StatusCode::kOverloaded);
  ASSERT_TRUE(c.has_value());  // The producer returned — no hang.
  EXPECT_EQ(c->code(), StatusCode::kOverloaded);
}

TEST(EngineOutcomeTest, ObsOutcomeCountersMatchServeStats) {
  obs::EnableMetrics(true);
  obs::ResetAllMetrics();
  {
    FakeModel model;
    EngineConfig config = SingleWorkerConfig();
    config.fault.score_throw = 1.0;
    config.fallback_scores = {1.0f, 2.0f, 3.0f};
    ServingEngine engine(ServableModel::Wrap(model, /*num_items=*/100), config);

    // One of each: degraded, model error, invalid argument.
    EXPECT_EQ(engine.Recommend({0, {1}, 5, {}, {0.0, 0, true}}).code(),
              StatusCode::kDegraded);
    EXPECT_EQ(engine.Recommend({1, {2}, 5, {}, {}}).code(),
              StatusCode::kModelError);
    EXPECT_EQ(engine.Recommend({2, {3}, 0, {}, {}}).code(),
              StatusCode::kInvalidArgument);

    // The obs mirrors count exactly what ServeStats counts — one bump
    // per terminal non-OK answer, no double counting.
    const ServeStats stats = engine.Stats();
    EXPECT_EQ(stats.degraded, 1u);
    EXPECT_EQ(stats.model_errors, 1u);
    EXPECT_EQ(stats.invalid_arguments, 1u);
    EXPECT_EQ(obs::GetCounter("serve.degraded").Value(), stats.degraded);
    EXPECT_EQ(obs::GetCounter("serve.model_errors").Value(),
              stats.model_errors);
    EXPECT_EQ(obs::GetCounter("serve.invalid_arguments").Value(),
              stats.invalid_arguments);
    EXPECT_EQ(obs::GetCounter("serve.rejected").Value(), 0u);
    EXPECT_EQ(obs::GetCounter("serve.deadline_exceeded").Value(), 0u);
  }
  obs::EnableMetrics(false);
}

// Looks a counter up in a registry snapshot, the way /metrics sees it.
uint64_t SnapshotCounter(const std::string& name) {
  for (const auto& [counter, value] : obs::SnapshotMetrics().counters) {
    if (counter == name) return value;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

TEST(EngineOutcomeTest, RegistrySumsEnginesWithMetricsOff) {
  // Each count has one owner: ServeStats is per engine, and the registry
  // series of the same name sums every engine in the process — with
  // metrics off, and after one of the engines is gone.
  obs::EnableMetrics(false);
  obs::ResetAllMetrics();
  FakeModel model;
  auto first = std::make_unique<ServingEngine>(
      ServableModel::Wrap(model, /*num_items=*/100), SingleWorkerConfig());
  ServingEngine second(ServableModel::Wrap(model, /*num_items=*/100),
                       SingleWorkerConfig());
  for (Index user = 0; user < 3; ++user) {
    ASSERT_TRUE(first->Recommend({user, {1}, 5, {}, {}}).ok());
  }
  for (Index user = 0; user < 5; ++user) {
    ASSERT_TRUE(second.Recommend({user, {2}, 5, {}, {}}).ok());
  }

  const ServeStats first_stats = first->Stats();
  const ServeStats second_stats = second.Stats();
  EXPECT_EQ(first_stats.num_requests, 3u);
  EXPECT_EQ(first_stats.ok, 3u);
  EXPECT_EQ(second_stats.num_requests, 5u);
  EXPECT_EQ(second_stats.ok, 5u);
  EXPECT_EQ(SnapshotCounter("serve.requests"), 8u);
  EXPECT_EQ(SnapshotCounter("serve.ok"), 8u);

  first.reset();
  EXPECT_EQ(SnapshotCounter("serve.requests"), 8u);
  EXPECT_EQ(SnapshotCounter("serve.ok"), 8u);
  EXPECT_EQ(second.Stats().num_requests, 5u);
}

// -- Model lifecycle: hot swap, version pinning, cache isolation --------
//
// Every published generation gets a distinct score offset, so a
// response's scores identify EXACTLY which version produced it: score(c)
// for version v is (c % 97) + 1000 * (v - 1). Any blend of two
// generations inside one response would be visible in the raw floats.

class VersionedFakeModel : public eval::Recommender {
 public:
  explicit VersionedFakeModel(float offset) : offset_(offset) {}
  std::string name() const override { return "versioned-fake"; }
  void Fit(const data::Dataset&, const data::LeaveOneOutSplit&) override {}
  std::vector<float> Score(Index, const std::vector<Index>&,
                           const std::vector<Index>& candidates) override {
    std::vector<float> scores;
    scores.reserve(candidates.size());
    for (Index c : candidates) {
      scores.push_back(static_cast<float>(c % 97) + offset_);
    }
    return scores;
  }

 private:
  float offset_;
};

float OffsetForVersion(uint64_t version) {
  return 1000.0f * static_cast<float>(version - 1);
}

// A model whose scoring always fails — Publish validation must reject it
// via the probe smoke-score before any traffic can reach it.
class BrokenModel : public eval::Recommender {
 public:
  std::string name() const override { return "broken"; }
  void Fit(const data::Dataset&, const data::LeaveOneOutSplit&) override {}
  std::vector<float> Score(Index, const std::vector<Index>&,
                           const std::vector<Index>&) override {
    throw std::runtime_error("deliberately broken scorer");
  }
};

TEST(EngineSwapTest, PublishSwapsAtomicallyAndBumpsVersion) {
  VersionedFakeModel v1(OffsetForVersion(1));
  VersionedFakeModel v2(OffsetForVersion(2));
  ServingEngine engine(ServableModel::Wrap(v1, /*num_items=*/100),
                       SingleWorkerConfig());
  EXPECT_EQ(engine.Stats().model_version, 1u);
  EXPECT_EQ(engine.Stats().model_swaps, 0u);

  const Request request{0, {1, 2}, 3, {}, {}};
  const Outcome<Recommendation> before = engine.Recommend(request);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().model_version, 1u);

  const Outcome<uint64_t> published =
      engine.Publish(ServableModel::Wrap(v2, /*num_items=*/100));
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(published.value(), 2u);
  EXPECT_EQ(engine.Stats().model_version, 2u);
  EXPECT_EQ(engine.Stats().model_swaps, 1u);

  const Outcome<Recommendation> after = engine.Recommend(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().model_version, 2u);
  // Same items (offsets preserve ranking), shifted scores: the response
  // provably came from the new generation.
  EXPECT_EQ(after.value().items, before.value().items);
  ASSERT_EQ(after.value().scores.size(), before.value().scores.size());
  for (size_t i = 0; i < after.value().scores.size(); ++i) {
    EXPECT_EQ(after.value().scores[i], before.value().scores[i] + 1000.0f);
  }
}

TEST(EngineSwapTest, PublishRejectsBadModelWithoutTouchingLive) {
  VersionedFakeModel v1(OffsetForVersion(1));
  ServingEngine engine(ServableModel::Wrap(v1, /*num_items=*/100),
                       SingleWorkerConfig());

  // Null handle, empty catalog, and a scorer whose probe batch throws:
  // each is a typed kModelError, and none of them bumps the version.
  EXPECT_EQ(engine.Publish(nullptr).code(), StatusCode::kModelError);
  EXPECT_EQ(engine.Publish(ServableModel::Wrap(v1, /*num_items=*/0)).code(),
            StatusCode::kModelError);
  BrokenModel broken;
  const Outcome<uint64_t> rejected =
      engine.Publish(ServableModel::Wrap(broken, /*num_items=*/100));
  EXPECT_EQ(rejected.code(), StatusCode::kModelError);
  EXPECT_NE(rejected.status().message().find("probe"), std::string::npos)
      << rejected.status().ToString();

  // The live model is untouched: still version 1, still scoring.
  EXPECT_EQ(engine.Stats().model_version, 1u);
  EXPECT_EQ(engine.Stats().model_swaps, 0u);
  const Outcome<Recommendation> outcome = engine.Recommend({0, {1}, 3, {}, {}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().model_version, 1u);
}

TEST(EngineSwapTest, InFlightBatchFinishesOnPinnedVersion) {
  VersionedFakeModel v1(OffsetForVersion(1));
  VersionedFakeModel v2(OffsetForVersion(2));
  ServingEngine engine(ServableModel::Wrap(v1, /*num_items=*/100),
                       SingleWorkerConfig());
  Gate gate;
  engine.fault_injector().set_before_score([&gate] { gate.Wait(); });

  // A is mid-score (its batch pinned version 1) when version 2 goes
  // live. A must finish on the generation it pinned; B, submitted after
  // the swap, must score on the new one.
  std::future<Outcome<Recommendation>> a =
      engine.RecommendAsync({0, {1}, 3, {}, {}});
  WaitForScoreCalls(engine, 1);
  ASSERT_TRUE(engine.Publish(ServableModel::Wrap(v2, /*num_items=*/100)).ok());
  gate.Open();

  const Outcome<Recommendation> pinned = a.get();
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned.value().model_version, 1u);
  for (size_t i = 0; i < pinned.value().scores.size(); ++i) {
    EXPECT_LT(pinned.value().scores[i], 1000.0f) << "v2 score leaked into v1";
  }
  const Outcome<Recommendation> fresh = engine.Recommend({0, {1}, 3, {}, {}});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().model_version, 2u);
}

TEST(EngineSwapTest, RequestQueuedAcrossSwapIsRevalidatedAgainstNewCatalog) {
  VersionedFakeModel v1(OffsetForVersion(1));
  VersionedFakeModel v2(OffsetForVersion(2));
  ServingEngine engine(ServableModel::Wrap(v1, /*num_items=*/100),
                       SingleWorkerConfig());
  Gate gate;
  engine.fault_injector().set_before_score([&gate] { gate.Wait(); });

  // A holds the worker; B (history item 50, valid for v1's 100-item
  // catalog) waits in the queue while the catalog shrinks to 10 items.
  // The worker that pins version 2 must re-validate and reject B instead
  // of indexing outside the new catalog.
  std::future<Outcome<Recommendation>> a =
      engine.RecommendAsync({0, {1}, 3, {}, {}});
  WaitForScoreCalls(engine, 1);
  std::future<Outcome<Recommendation>> b =
      engine.RecommendAsync({1, {50}, 3, {}, {}});
  ASSERT_TRUE(engine.Publish(ServableModel::Wrap(v2, /*num_items=*/10)).ok());
  gate.Open();

  EXPECT_TRUE(a.get().ok());
  const Outcome<Recommendation> rejected = b.get();
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Stats().invalid_arguments, 1u);
}

TEST(EngineSwapTest, CacheEntriesNeverCrossVersions) {
  VersionedFakeModel v1(OffsetForVersion(1));
  VersionedFakeModel v2(OffsetForVersion(2));
  EngineConfig config = SingleWorkerConfig();
  config.cache_capacity = 64;
  ServingEngine engine(ServableModel::Wrap(v1, /*num_items=*/100), config);

  const Request request{7, {1, 2, 3}, 5, {}, {}};
  const Outcome<Recommendation> first = engine.Recommend(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().from_cache);
  const Outcome<Recommendation> hit = engine.Recommend(request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().from_cache);
  EXPECT_EQ(hit.value().model_version, 1u);

  ASSERT_TRUE(engine.Publish(ServableModel::Wrap(v2, /*num_items=*/100)).ok());

  // The identical request after the swap must MISS (keys carry the model
  // version) and come back freshly scored by version 2 — never version
  // 1's cached floats.
  const Outcome<Recommendation> after = engine.Recommend(request);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().from_cache);
  EXPECT_EQ(after.value().model_version, 2u);
  for (size_t i = 0; i < after.value().scores.size(); ++i) {
    EXPECT_EQ(after.value().scores[i], first.value().scores[i] + 1000.0f);
  }
  // And the new generation's entry is itself cached and version-tagged.
  const Outcome<Recommendation> after_hit = engine.Recommend(request);
  ASSERT_TRUE(after_hit.ok());
  EXPECT_TRUE(after_hit.value().from_cache);
  EXPECT_EQ(after_hit.value().model_version, 2u);
}

// The acceptance test for live hot swap: client threads hammer the
// engine across ten publishes. Every request must be answered kOk, and
// every response's scores must match exactly the generation its
// model_version claims — proving batches pin one version and the cache
// never serves across generations, under real concurrency.
TEST(EngineSwapTest, HotSwapUnderConcurrentLoadNeverMixesVersions) {
  constexpr uint64_t kSwaps = 10;
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 300;

  std::vector<std::unique_ptr<VersionedFakeModel>> generations;
  for (uint64_t v = 1; v <= kSwaps + 1; ++v) {
    generations.push_back(
        std::make_unique<VersionedFakeModel>(OffsetForVersion(v)));
  }

  EngineConfig config;
  config.num_threads = 2;
  config.max_batch_size = 8;
  config.batch_window_us = 100;
  config.cache_capacity = 128;  // Exercise version keying under swaps too.
  ServingEngine engine(ServableModel::Wrap(*generations[0], /*num_items=*/100),
                       config);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> not_ok{0};
  std::atomic<uint64_t> mixed{0};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerClient && !stop.load(); ++i) {
        Request request;
        request.user = t;
        request.history = {static_cast<Index>((t * 31 + i) % 100)};
        request.k = 5;
        const Outcome<Recommendation> outcome = engine.Recommend(request);
        answered.fetch_add(1);
        if (!outcome.ok()) {
          not_ok.fetch_add(1);
          continue;
        }
        const Recommendation& rec = outcome.value();
        if (rec.model_version < 1 || rec.model_version > kSwaps + 1) {
          mixed.fetch_add(1);
          continue;
        }
        const float offset = OffsetForVersion(rec.model_version);
        for (size_t j = 0; j < rec.items.size(); ++j) {
          const float want =
              static_cast<float>(rec.items[j] % 97) + offset;
          if (rec.scores[j] != want) {
            mixed.fetch_add(1);
            break;
          }
        }
      }
    });
  }

  // Besides the clients, each swap has a burst submitted against the
  // outgoing version still in flight when Publish runs, and is followed
  // by requests until one is answered by the new version: every one of
  // those must be kOk too.
  constexpr int kInflightPerSwap = 32;
  uint64_t swap_not_ok = 0;
  Index next_history = 0;
  auto submit = [&] {
    Request request;
    request.user = kClients + static_cast<Index>(next_history % 7);
    request.history = {next_history++ % 100};
    request.k = 5;
    return engine.RecommendAsync(request);
  };
  for (uint64_t v = 2; v <= kSwaps + 1; ++v) {
    std::vector<std::future<Outcome<Recommendation>>> inflight;
    for (int i = 0; i < kInflightPerSwap; ++i) inflight.push_back(submit());
    const Outcome<uint64_t> published = engine.Publish(
        ServableModel::Wrap(*generations[v - 1], /*num_items=*/100));
    ASSERT_TRUE(published.ok()) << published.status().ToString();
    EXPECT_EQ(published.value(), v);
    bool served_new = false;
    for (int i = 0; i < 10000 && !served_new; ++i) {
      const Outcome<Recommendation> outcome = submit().get();
      if (!outcome.ok()) {
        ++swap_not_ok;
      } else {
        served_new = outcome.value().model_version == v;
      }
    }
    EXPECT_TRUE(served_new) << "version " << v << " never answered";
    for (auto& future : inflight) {
      if (!future.get().ok()) ++swap_not_ok;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& client : clients) client.join();
  stop.store(true);

  EXPECT_EQ(swap_not_ok, 0u) << "requests across a publish failed";

  EXPECT_EQ(answered.load(),
            static_cast<uint64_t>(kClients) * kRequestsPerClient);
  EXPECT_EQ(not_ok.load(), 0u) << "requests failed during hot swap";
  EXPECT_EQ(mixed.load(), 0u)
      << "a response's scores did not match its claimed model_version";
  const ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.model_swaps, kSwaps);
  EXPECT_EQ(stats.model_version, kSwaps + 1);
}

// Regression (satellite of the lifecycle work): the destructor must drop
// the engine's model reference BEFORE resolving leftover promises, so a
// generation swapped out during shutdown is freed and never resurrected
// through the drain path. Pinned here by refcounts: after ~ServingEngine
// the test's own handles must be the last owners.
TEST(EngineSwapTest, DestructorReleasesModelBeforeAnsweringLeftovers) {
  VersionedFakeModel v1(OffsetForVersion(1));
  VersionedFakeModel v2(OffsetForVersion(2));
  std::shared_ptr<ServableModel> first =
      ServableModel::Wrap(v1, /*num_items=*/100);
  std::shared_ptr<ServableModel> second =
      ServableModel::Wrap(v2, /*num_items=*/100);

  auto engine =
      std::make_unique<ServingEngine>(first, SingleWorkerConfig());
  Gate gate;
  engine->fault_injector().set_before_score([&gate] { gate.Wait(); });

  // A's batch pins generation 1 mid-score; generation 2 goes live; B is
  // still queued when destruction starts.
  std::future<Outcome<Recommendation>> a =
      engine->RecommendAsync({0, {1}, 3, {}, {}});
  WaitForScoreCalls(*engine, 1);
  ASSERT_TRUE(engine->Publish(second).ok());
  std::future<Outcome<Recommendation>> b =
      engine->RecommendAsync({1, {2}, 3, {}, {}});

  std::thread destroyer([&engine] { engine.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Open();
  destroyer.join();

  // A finished on the version it pinned; B was drained, not scored.
  const Outcome<Recommendation> pinned = a.get();
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned.value().model_version, 1u);
  EXPECT_EQ(b.get().code(), StatusCode::kOverloaded);

  // Both generations are released: the engine dropped its reference (and
  // every worker pin) before the drain path answered B's promise — the
  // test's handles are the sole remaining owners.
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 1);
}

// -- OnlineTrainer: the streaming ingest -> train -> publish loop -------

// One deterministic RefreshOnce cycle end to end: skips below
// min_new_events, then ingests the stream tail, runs an incremental
// epoch, writes the versioned artifact, and publishes it into the live
// engine through the canonical load-validate-swap path.
TEST(OnlineTrainerTest, RefreshIngestsTrainsAndPublishes) {
  data::Dataset dataset = BeautySim();
  core::IsrecModel model(SmallIsrecConfig(/*epochs=*/1));
  model.Build(dataset);  // Binds without the cost of a full Fit.
  const std::string base = TempPath("online_base.isrec");
  SaveCheckpoint(model, base, /*epoch=*/0);

  Outcome<std::shared_ptr<ServableModel>> serving = ServableModel::Load(base);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  ServingEngine engine(serving.value(), SingleWorkerConfig());
  ASSERT_EQ(engine.Stats().model_version, 1u);

  // The trainer gets its own private model + dataset (checkpoints store
  // no sequences, so the interaction log is seeded from the preset —
  // exactly what isrec_serve --stream does).
  Outcome<std::shared_ptr<ServableModel>> trainable = ServableModel::Load(base);
  ASSERT_TRUE(trainable.ok());
  trainable.value()->dataset->sequences = dataset.sequences;

  const std::string stream = TempPath("online_events.log");
  std::remove(stream.c_str());
  OnlineTrainerConfig config;
  config.stream_path = stream;
  config.checkpoint_base = base;
  config.min_new_events = 3;
  config.epochs_per_refresh = 1;
  OnlineTrainer trainer(std::move(trainable.value()->model),
                        std::move(trainable.value()->dataset), config,
                        &engine);

  // No events yet: a clean skip — nothing trained, nothing published.
  ASSERT_TRUE(trainer.RefreshOnce().ok());
  EXPECT_EQ(trainer.Stats().skipped, 1u);
  EXPECT_EQ(trainer.Stats().refreshes, 0u);
  EXPECT_EQ(engine.Stats().model_version, 1u);

  // Two events are below min_new_events: ingested, still no refresh.
  ASSERT_TRUE(data::AppendEventStream(stream, {{0, 1}, {1, 2}}).ok());
  ASSERT_TRUE(trainer.RefreshOnce().ok());
  EXPECT_EQ(trainer.Stats().skipped, 2u);
  EXPECT_EQ(trainer.Stats().events_applied, 2u);
  EXPECT_EQ(engine.Stats().model_version, 1u);

  // The third event crosses the threshold: train, checkpoint, publish.
  ASSERT_TRUE(data::AppendEventStream(stream, {{2, 3}}).ok());
  ASSERT_TRUE(trainer.RefreshOnce().ok());
  const OnlineTrainerStats stats = trainer.Stats();
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.events_applied, 3u);
  EXPECT_EQ(stats.last_published_version, 2u);
  EXPECT_EQ(stats.last_checkpoint, base + ".v1");
  // The versioned artifact is a real, loadable checkpoint at the
  // cumulative epoch.
  Outcome<std::shared_ptr<ServableModel>> artifact =
      ServableModel::Load(stats.last_checkpoint);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value()->epoch, 1u);
  // And the live engine is already serving it.
  EXPECT_EQ(engine.Stats().model_version, 2u);
  EXPECT_EQ(engine.Stats().model_epoch, 1u);
  EXPECT_EQ(engine.Stats().model_swaps, 1u);
}

// -- StatsRecorder: reservoir percentiles and the lazy window -----------

TEST(StatsRecorderTest, ReservoirPercentilesWithinTolerance) {
  StatsRecorder recorder;
  // 20000 latencies cycling through every residue of [0, 1000) exactly
  // 20 times (37 is coprime to 1000), so the true percentiles are known:
  // p50 = 500, p95 = 950, p99 = 990. The reservoir keeps 4096 uniform
  // samples with a deterministic RNG, so the estimates are reproducible
  // and land well inside a few-sigma band of the truth.
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    recorder.RecordRequest(static_cast<double>((i * 37) % 1000),
                           /*cache_hit=*/false);
  }
  const ServeStats stats = recorder.Snapshot();
  EXPECT_EQ(stats.num_requests, static_cast<uint64_t>(kSamples));
  EXPECT_NEAR(stats.p50_ms, 500.0, 50.0);
  EXPECT_NEAR(stats.p95_ms, 950.0, 30.0);
  EXPECT_NEAR(stats.p99_ms, 990.0, 15.0);
}

TEST(StatsRecorderTest, MemoryStaysBoundedBeyondReservoirCapacity) {
  StatsRecorder recorder;
  const int n = static_cast<int>(StatsRecorder::kReservoirCapacity) * 3;
  for (int i = 0; i < n; ++i) {
    recorder.RecordRequest(1.0, /*cache_hit=*/false);
  }
  const ServeStats stats = recorder.Snapshot();
  // Every request is counted even though only kReservoirCapacity latency
  // samples are retained.
  EXPECT_EQ(stats.num_requests, static_cast<uint64_t>(n));
  EXPECT_EQ(stats.cache_misses, static_cast<uint64_t>(n));
  EXPECT_DOUBLE_EQ(stats.p50_ms, 1.0);
}

TEST(StatsRecorderTest, WindowStartIsLazyForIdleThenBurst) {
  StatsRecorder recorder;
  // Idle gap BEFORE the first record must not count toward the window:
  // the clock arms at the first recorded event.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (int i = 0; i < 100; ++i) {
    recorder.RecordRequest(0.5, /*cache_hit=*/false);
  }
  const ServeStats stats = recorder.Snapshot();
  EXPECT_LT(stats.elapsed_seconds, 0.15);
  EXPECT_GT(stats.qps, 0.0);
}

TEST(StatsRecorderTest, ResetReArmsTheWindowLazily) {
  StatsRecorder recorder;
  recorder.RecordRequest(1.0, /*cache_hit=*/false);
  recorder.Reset();
  // Everything is cleared...
  ServeStats cleared = recorder.Snapshot();
  EXPECT_EQ(cleared.num_requests, 0u);
  EXPECT_DOUBLE_EQ(cleared.elapsed_seconds, 0.0);
  // ...and the idle gap between Reset and the next burst is excluded,
  // exactly like a freshly constructed recorder (pins the documented
  // lazy re-arm contract).
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  recorder.RecordRequest(2.0, /*cache_hit=*/true);
  const ServeStats stats = recorder.Snapshot();
  EXPECT_EQ(stats.num_requests, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_LT(stats.elapsed_seconds, 0.15);
}

}  // namespace
}  // namespace isrec::serve
