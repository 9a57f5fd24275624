#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <numeric>
#include <unordered_set>

#include "bench.h"
#include "obs/trace.h"
#include "serve/recommend_http.h"

namespace perfbench {

namespace serve = isrec::serve;

namespace {

// Named in BENCHMARK.json; why each exists is in perfbench/README.md.
constexpr WorkloadSpec kWorkloads[] = {
    // name, paper_scale, candidates, engine_workers, refresh_under_load,
    // train_epochs, refresh_users, low_rps, high_rps.
    // Workers leave a core to the load generator (and, on
    // refresh_under_load, one more to the trainer).
    {"intent_heavy", true, false, 3, false, 0, 16, 2400.0, 4800.0},
    {"refresh_under_load", false, true, 2, true, 1, 0, 5000.0, 10000.0},
};

constexpr Index kTopK = 10;
constexpr size_t kNegatives = 100;
// Closed loop: enough in flight to fill every worker's batch.
constexpr size_t kWindow = 128;
constexpr int kOpenLoopCollectors = 3;

bool Collect(const isrec::Outcome<serve::Recommendation>& outcome, size_t i,
             size_t request, SampleSet* samples) {
  if (!outcome.ok()) return false;
  if (samples != nullptr) samples->Offer(i, request, outcome.value());
  return true;
}

using Future = std::future<isrec::Outcome<serve::Recommendation>>;

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.push_back(spec.name);
  return names;
}

Tier::~Tier() {
  trainer.reset();  // Publishes into the engine: stop it first.
  engine.reset();
}

void VersionBook::Add(std::shared_ptr<const serve::ModelHandle> handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  handles_[handle->version] = std::move(handle);
}

void VersionBook::AddCheckpoint(uint64_t version, const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  checkpoints_[version] = path;
}

std::shared_ptr<const serve::ModelHandle> VersionBook::Get(
    uint64_t version) const {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = handles_.find(version); it != handles_.end()) {
      return it->second;
    }
    auto it = checkpoints_.find(version);
    if (it == checkpoints_.end()) return nullptr;
    path = it->second;
  }
  // The engine published ServableModel::Load of this file with default
  // options, so loading it again restores the same weights bit for bit.
  auto loaded = serve::ServableModel::Load(path);
  if (!loaded.ok()) return nullptr;
  auto handle = std::make_shared<serve::ModelHandle>();
  handle->servable = loaded.value();
  handle->version = version;
  handle->catalog.resize(static_cast<size_t>(loaded.value()->num_items()));
  std::iota(handle->catalog.begin(), handle->catalog.end(), Index{0});
  return handle;
}

void SampleSet::Offer(size_t i, size_t request,
                      const serve::Recommendation& rec) {
  if (i % stride_ != 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.size() < limit_) samples_.push_back({request, rec});
}

std::vector<SampleSet::Sample> SampleSet::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(samples_);
}

serve::Recommendation Reference(const serve::ModelHandle& handle,
                                const serve::Request& request) {
  const std::vector<Index>& candidates =
      request.candidates.empty() ? handle.catalog : request.candidates;
  const std::vector<std::vector<float>> scores = handle.scorer().ScoreBatch(
      {request.user}, {request.history}, {candidates});
  return serve::TopK(scores.front(), candidates, request.k);
}

uint64_t CountMismatches(const std::vector<SampleSet::Sample>& samples,
                         const std::vector<serve::Request>& pool,
                         const VersionBook& book) {
  // One version at a time, so at most one reloaded generation is resident.
  std::map<uint64_t, std::vector<const SampleSet::Sample*>> by_version;
  for (const SampleSet::Sample& sample : samples) {
    by_version[sample.rec.model_version].push_back(&sample);
  }
  uint64_t mismatches = 0;
  for (const auto& [version, group] : by_version) {
    const auto handle = book.Get(version);
    for (const SampleSet::Sample* sample : group) {
      if (handle == nullptr) {
        ++mismatches;
        continue;
      }
      const serve::Recommendation expected =
          Reference(*handle, pool[sample->request]);
      const bool same =
          expected.items == sample->rec.items &&
          expected.scores.size() == sample->rec.scores.size() &&
          std::memcmp(expected.scores.data(), sample->rec.scores.data(),
                      expected.scores.size() * sizeof(float)) == 0;
      if (!same) ++mismatches;
    }
  }
  return mismatches;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Incorrect("metric " + name + " has no value (too few samples?)");
    value = -1.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Failed(uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  notes_.push_back("FAILED " + std::to_string(n) + ": " + why);
}

void Report::Incorrect(const std::string& why) {
  correct_ = false;
  notes_.push_back("INCORRECT: " + why);
}

void Report::Print() const {
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::vector<serve::Request> MakeTraffic(const WorkloadSpec& spec,
                                        const World& world, size_t n,
                                        uint64_t seed) {
  SplitMix rng(seed);
  const std::vector<Index>& users = world.split->evaluable_users();
  const size_t seq_len = static_cast<size_t>(world.config.seq.seq_len);
  const Index num_items = world.dataset->num_items;
  std::vector<serve::Request> traffic;
  traffic.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Index user = users[rng.Below(users.size())];
    const std::vector<Index>& history = world.split->TestHistory(user);
    serve::Request request;
    request.user = user;
    request.k = kTopK;
    // Only the last seq_len items reach the model.
    request.history.assign(
        history.end() - std::min(history.size(), seq_len), history.end());
    if (spec.candidates) {
      const Index target = world.split->TestTarget(user);
      std::unordered_set<Index> taken(history.begin(), history.end());
      taken.insert(target);
      request.candidates.push_back(target);
      while (request.candidates.size() < kNegatives + 1) {
        const Index item = static_cast<Index>(rng.Below(num_items));
        if (taken.insert(item).second) request.candidates.push_back(item);
      }
    }
    traffic.push_back(std::move(request));
  }
  return traffic;
}

std::unique_ptr<isrec::data::Dataset> SubsetDataset(const World& world,
                                                    Index users) {
  auto dataset = std::make_unique<isrec::data::Dataset>(*world.dataset);
  if (users > 0 && users < dataset->num_users) {
    dataset->sequences.resize(users);
    dataset->num_users = users;
  }
  return dataset;
}

std::unique_ptr<isrec::obs::AdminServer> StartReplica(
    serve::ServingEngine& engine) {
  isrec::obs::AdminServerConfig config;
  config.num_workers = 4;
  auto replica = std::make_unique<isrec::obs::AdminServer>(config);
  serve::RegisterAdminSections(*replica, engine);
  serve::RegisterRecommendEndpoint(*replica, engine);
  if (!replica->Start()) return nullptr;
  return replica;
}

std::unique_ptr<isrec::router::Router> StartRouter(
    const std::vector<std::unique_ptr<isrec::obs::AdminServer>>& replicas) {
  isrec::router::RouterConfig config;
  for (size_t r = 0; r < replicas.size(); ++r) {
    std::string name = "r";
    name += std::to_string(r + 1);
    config.replicas.push_back({name, "127.0.0.1", replicas[r]->port()});
  }
  config.probe.period_ms = 50.0;
  config.admin.num_workers = 4;
  // Untraced: no trace propagation, no fleet metrics scraping.
  config.trace_sample_every = 0;
  config.fleet_metrics = false;
  auto router = std::make_unique<isrec::router::Router>(config);
  if (!router->Start()) return nullptr;
  for (int i = 0; i < 1000 && router->table().NumRoutable() < replicas.size();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (router->table().NumRoutable() < replicas.size()) {
    router->Stop();
    return nullptr;
  }
  return router;
}

PhaseResult RunClosed(serve::ServingEngine& engine, const std::string& name,
                      double seconds,
                      const std::vector<serve::Request>& traffic,
                      SampleSet* samples) {
  isrec::obs::ScopedSpan span("bench.closed_loop");
  const size_t n = traffic.size();
  return RunClosedLoopAsync<Future>(
      name, seconds, kWindow,
      [&](size_t i) { return engine.RecommendAsync(traffic[i % n]); },
      [&](size_t i, Future& f) { return Collect(f.get(), i, i % n, samples); });
}

PhaseResult RunOpen(serve::ServingEngine& engine, const std::string& name,
                    const std::vector<double>& schedule,
                    const std::vector<serve::Request>& traffic,
                    SampleSet* samples) {
  isrec::obs::ScopedSpan span("bench.open_loop");
  const size_t n = traffic.size();
  return RunOpenLoopAsync<Future>(
      name, schedule, kOpenLoopCollectors,
      [&](size_t i) { return engine.RecommendAsync(traffic[i % n]); },
      [&](size_t i, Future& f) { return Collect(f.get(), i, i % n, samples); });
}

}  // namespace perfbench
