#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared state of one benchmark run: the workload's generated world
// (dataset, model), the serving tier built over it (engine, online
// trainer), the correctness gate and the metric report.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/isrec.h"
#include "data/dataset.h"
#include "data/split.h"
#include "loadgen.h"
#include "obs/admin_server.h"
#include "router/router.h"
#include "serve/engine.h"
#include "serve/online.h"

namespace perfbench {

using isrec::Index;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha;
  std::string work_dir = ".bench_build/run";  // Streams, checkpoints.
  /// Time idle refreshes and set-ups for a parent run over stdin/stdout
  /// (see RefreshChild in main.cc) instead of running the workload.
  bool refresh_child = false;
};

/// What distinguishes one workload's world and traffic.
struct WorkloadSpec {
  const char* name;
  bool paper_scale;          // K=592 world, untrained; else beauty_sim scale.
  bool candidates;           // Rank held-out item + 100 negatives.
  Index engine_workers;
  bool refresh_under_load;   // OnlineTrainer refreshes during the phases.
  Index train_epochs;        // Epochs trained during set-up.
  Index refresh_users;       // Users the refresh trainer sees; 0 = all.
  // Fixed open-loop arrival rates, req/s: parent and change receive
  // identical arrivals. perfbench/README.md says how they were set.
  double low_rps;
  double high_rps;
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The generated inputs and the served model.
struct World {
  std::unique_ptr<isrec::data::Dataset> dataset;
  std::unique_ptr<isrec::data::LeaveOneOutSplit> split;
  isrec::core::IsrecConfig config;
  /// Model the engines wrap; null when they serve a loaded checkpoint.
  std::unique_ptr<isrec::core::IsrecModel> model;
  double generate_s = 0.0;
};

/// The serving tier over a World. Destroy before the World.
struct Tier {
  std::unique_ptr<isrec::serve::ServingEngine> engine;
  std::unique_ptr<isrec::serve::OnlineTrainer> trainer;
  Index trainer_users = 0;  // Users in the trainer's private dataset.
  std::string stream_path;
  std::string checkpoint_base;
  /// The checkpoint the engine was started from; empty when it serves
  /// the World's model.
  std::string first_checkpoint;

  ~Tier();
};

/// Published model generations by version, for the correctness gate.
/// Generations published from a checkpoint are kept as its path and
/// reloaded when checked: holding their handles would keep every
/// generation of a run resident and count them in peak_rss_mb.
class VersionBook {
 public:
  /// A generation the benchmark holds anyway (the World's model).
  void Add(std::shared_ptr<const isrec::serve::ModelHandle> handle);
  void AddCheckpoint(uint64_t version, const std::string& path);
  /// The generation `version`, loaded from its checkpoint when needed;
  /// null when the version is unknown or does not load.
  std::shared_ptr<const isrec::serve::ModelHandle> Get(uint64_t version) const;

 private:
  mutable std::mutex mutex_;
  std::map<uint64_t, std::shared_ptr<const isrec::serve::ModelHandle>>
      handles_;
  std::map<uint64_t, std::string> checkpoints_;
};

/// Every stride-th response of a phase, kept for the correctness gate.
class SampleSet {
 public:
  struct Sample {
    size_t request;  // Index into the phase's request pool.
    isrec::serve::Recommendation rec;
  };
  SampleSet(size_t stride, size_t limit)
      : stride_(stride == 0 ? 1 : stride), limit_(limit) {}
  /// Keeps `rec` when `i` (the send index) falls on the stride, up to
  /// `limit` samples.
  void Offer(size_t i, size_t request, const isrec::serve::Recommendation& rec);
  std::vector<Sample> Take();

 private:
  size_t stride_;
  size_t limit_;
  std::mutex mutex_;
  std::vector<Sample> samples_;
};

/// The sequential reference: ScoreBatch over one request with the
/// version's scorer, then serve::TopK.
isrec::serve::Recommendation Reference(const isrec::serve::ModelHandle& handle,
                                       const isrec::serve::Request& request);

/// Samples whose items or scores differ bit for bit from the reference
/// of the version that served them (or whose version is unknown).
uint64_t CountMismatches(const std::vector<SampleSet::Sample>& samples,
                         const std::vector<isrec::serve::Request>& pool,
                         const VersionBook& book);

/// Named metrics plus the run's outcome counts; prints the result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);  // Printed before the result line.
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n, const std::string& why);
  void Incorrect(const std::string& why);
  /// Prints notes, then the one-line JSON result as the last line.
  void Print() const;
  bool correct() const { return correct_ && failed_ == 0; }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// A pool of `n` requests drawn from `seed`, sent in order and cycled.
std::vector<isrec::serve::Request> MakeTraffic(const WorkloadSpec& spec,
                                               const World& world, size_t n,
                                               uint64_t seed);

/// The world's vocabulary with its first `users` user sequences (all
/// when 0): a private dataset for a trainer.
std::unique_ptr<isrec::data::Dataset> SubsetDataset(const World& world,
                                                    Index users);

/// One HTTP replica serving POST /recommend (and the /varz load signals
/// the router probes) over `engine`; null when it cannot bind a port.
/// The traced run's wire probe starts it.
std::unique_ptr<isrec::obs::AdminServer> StartReplica(
    isrec::serve::ServingEngine& engine);

/// A router over `replicas`, once every replica is routable; null when
/// it cannot start or a replica never becomes routable.
std::unique_ptr<isrec::router::Router> StartRouter(
    const std::vector<std::unique_ptr<isrec::obs::AdminServer>>& replicas);

/// One closed-loop phase: a fixed window of requests in flight.
PhaseResult RunClosed(isrec::serve::ServingEngine& engine,
                      const std::string& name, double seconds,
                      const std::vector<isrec::serve::Request>& traffic,
                      SampleSet* samples);

/// One open-loop phase: request i (of the cycled pool) sent at
/// schedule[i].
PhaseResult RunOpen(isrec::serve::ServingEngine& engine,
                    const std::string& name,
                    const std::vector<double>& schedule,
                    const std::vector<isrec::serve::Request>& traffic,
                    SampleSet* samples);

/// Per-layer probes of the traced run (layers.cc). `traffic` holds the
/// run's captured requests; results go into `report`.
void ProbeLayers(const WorkloadSpec& spec, const Options& options,
                 World& world, Tier& tier,
                 const std::vector<isrec::serve::Request>& traffic,
                 Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
