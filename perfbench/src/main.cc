// Serving benchmark: runs one named workload from a seed and prints every
// metric with its unit. The last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics of a traced
// run. See perfbench/README.md.
//
//   perfbench --workload intent_heavy --seed 1 --seconds 10 --trace 0
//       [--git-sha SHA] [--work-dir DIR]

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "data/stream.h"
#include "data/synthetic.h"
#include "obs/heap_profiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stamp.h"
#include "utils/parallel.h"
#include "utils/stopwatch.h"

namespace perfbench {
namespace {

namespace core = isrec::core;
namespace data = isrec::data;
namespace serve = isrec::serve;
using isrec::Stopwatch;

// Set-ups per run: some before the measured window and the rest after
// it. Set-up is mostly one thread, whose speed on a shared host shifts in
// steps (±30%) that can last for seconds; sampling both ends of the run
// keeps one such step from setting the median.
constexpr int kSetupsBefore = 6;
constexpr int kSetupsAfter = 5;
// The served world (catalog, concept graph, model weights) is the same
// for every seed; --seed draws the traffic: users, arrivals, candidates,
// and refresh events.
constexpr uint64_t kWorldSeed = 1;
constexpr Index kEventsPerRefresh = 32;
// Requests per phase pool, cycled.
constexpr size_t kPool = 16384;
constexpr double kWarmupSeconds = 1.5;
// Interleaved rounds of capacity, low and high phases in a run.
constexpr int kRounds = 30;
// Correctness samples per phase (every stride-th response).
constexpr size_t kSamplesPerPhase = 300;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--work-dir DIR]\nworkloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--git-sha") {
      options->git_sha = value;
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--refresh-child") {
      options->refresh_child = value == "1";
    } else {
      return false;
    }
  }
  return FindWorkload(options->workload) != nullptr && options->seconds > 0.0;
}

core::IsrecConfig ModelConfig(const WorkloadSpec& spec, uint64_t seed) {
  core::IsrecConfig config;
  if (spec.paper_scale) {
    config.seq.embed_dim = 64;
    config.seq.ffn_dim = 128;
    config.seq.seq_len = 20;
  } else {
    config.seq.seq_len = 12;
  }
  config.num_active = 10;
  config.seq.epochs = spec.train_epochs;
  config.seq.seed = seed;
  config.seq.verbose = false;
  return config;
}

std::unique_ptr<World> GenerateWorld(const WorkloadSpec& spec, uint64_t seed) {
  auto world = std::make_unique<World>();
  data::SyntheticConfig config;
  if (spec.paper_scale) {
    // The paper's concept scale (K=592), which no preset reaches.
    config.name = "paper_scale";
    config.num_users = 1000;
    config.num_items = 3000;
    config.num_concepts = 592;
    config.min_sequence_length = 5;
    config.max_sequence_length = 25;
  } else {
    config = data::BeautySimConfig();
  }
  config.seed = seed;
  world->config = ModelConfig(spec, seed);
  Stopwatch watch;
  world->dataset =
      std::make_unique<data::Dataset>(data::GenerateSyntheticDataset(config));
  world->generate_s = watch.ElapsedSeconds();
  world->split = std::make_unique<data::LeaveOneOutSplit>(*world->dataset);
  return world;
}

/// A model bound to `dataset`: trained for the workload's set-up epochs,
/// or built with seeded, untrained weights.
std::unique_ptr<core::IsrecModel> MakeModel(const World& world,
                                            const data::Dataset& dataset) {
  auto model = std::make_unique<core::IsrecModel>(world.config);
  if (world.config.seq.epochs > 0) {
    const data::LeaveOneOutSplit split(dataset);
    model->Fit(dataset, split);
  } else {
    model->Build(dataset);
  }
  model->SetTraining(false);
  return model;
}

serve::OnlineTrainerConfig TrainerConfig(const Tier& tier) {
  serve::OnlineTrainerConfig config;
  config.stream_path = tier.stream_path;
  config.checkpoint_base = tier.checkpoint_base;
  config.min_new_events = 1;
  config.epochs_per_refresh = 1;
  config.initial_epoch = 1;
  return config;
}

/// Starts the workload's serving tier over `world`; null on failure.
std::unique_ptr<Tier> StartTier(const WorkloadSpec& spec, World& world,
                                const std::string& run_dir) {
  auto tier = std::make_unique<Tier>();
  tier->stream_path = run_dir + "/events.log";
  tier->checkpoint_base = run_dir + "/model";
  serve::EngineConfig config;
  config.max_batch_size = 32;
  config.batch_window_us = 200;
  config.num_threads = spec.engine_workers;

  if (!spec.refresh_under_load) {
    world.model = MakeModel(world, *world.dataset);
    tier->engine = std::make_unique<serve::ServingEngine>(
        serve::ServableModel::Wrap(*world.model, world.dataset->num_items),
        config);
    return tier;
  }

  // Serve a checkpoint of the trainer's model, as a deployment would.
  auto dataset = SubsetDataset(world, spec.refresh_users);
  auto model = MakeModel(world, *dataset);
  tier->first_checkpoint = tier->checkpoint_base + ".v1";
  serve::SaveCheckpoint(*model, tier->first_checkpoint, 1);
  auto loaded = serve::ServableModel::Load(tier->first_checkpoint);
  if (!loaded.ok()) return nullptr;
  tier->engine = std::make_unique<serve::ServingEngine>(loaded.value(), config);
  tier->trainer_users = dataset->num_users;
  tier->trainer = std::make_unique<serve::OnlineTrainer>(
      std::move(model), std::move(dataset), TrainerConfig(*tier),
      tier->engine.get());
  return tier;
}

/// Appends generated events to the trainer's stream, then runs one
/// RefreshOnce. Returns its wall time in seconds, or a negative value
/// when it failed or did not publish.
double RefreshOnce(Tier& tier, const World& world, SplitMix& rng,
                   VersionBook& book) {
  std::vector<data::Interaction> events;
  for (Index e = 0; e < kEventsPerRefresh; ++e) {
    events.push_back(
        {static_cast<Index>(rng.Below(tier.trainer_users)),
         static_cast<Index>(rng.Below(world.dataset->num_items))});
  }
  if (!data::AppendEventStream(tier.stream_path, events).ok()) return -1.0;
  const uint64_t before = tier.trainer->Stats().refreshes;
  isrec::obs::ScopedSpan span("serve.OnlineTrainer::RefreshOnce");
  Stopwatch watch;
  const isrec::Status status = tier.trainer->RefreshOnce();
  const double seconds = watch.ElapsedSeconds();
  const serve::OnlineTrainerStats stats = tier.trainer->Stats();
  if (!status.ok() || stats.refreshes != before + 1) return -1.0;
  book.AddCheckpoint(stats.last_published_version, stats.last_checkpoint);
  return seconds;
}

std::string RunDir(const Options& options) {
  return options.work_dir + "/" + options.workload + "-" +
         std::to_string(options.seed) + "-" + std::to_string(getpid());
}

/// Idle refreshes run in a child process, the same binary with
/// --refresh-child 1, so that they can fall between the measured rounds
/// while the trainer's working set (about 300 MB at paper scale) stays out
/// of the served process's peak_rss_mb. Each round the child also times one
/// set-up like the parent's, so that set-up, too, is sampled across the
/// whole run. The parent writes one byte per round; the child answers with
/// a line holding the refresh's and the set-up's wall times in seconds,
/// each negative when it failed.
class RefreshChild {
 public:
  RefreshChild() = default;
  RefreshChild(const RefreshChild&) = delete;
  RefreshChild& operator=(const RefreshChild&) = delete;

  /// Closes the child's input, so that it exits, and waits for it; kills
  /// it first when it stopped answering.
  ~RefreshChild() {
    if (to_ >= 0) close(to_);
    if (pid_ > 0) {
      if (failed_) kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
    if (from_ >= 0) close(from_);
  }

  /// Starts the child and waits until its trainer is ready.
  bool Start(const Options& options) {
    std::signal(SIGPIPE, SIG_IGN);  // A dead child fails a write instead.
    int to_child[2], from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0) return Fail();
    if (pipe2(from_child, O_CLOEXEC) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return Fail();
    }
    to_ = to_child[1];
    from_ = from_child[0];
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
    const std::string seed = std::to_string(options.seed);
    const char* argv[] = {"perfbench",     "--workload",
                          options.workload.c_str(), "--seed",
                          seed.c_str(),    "--work-dir",
                          options.work_dir.c_str(), "--refresh-child",
                          "1",             nullptr};
    const int error =
        posix_spawn(&pid_, "/proc/self/exe", &actions, nullptr,
                    const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    if (error != 0) {
      pid_ = -1;
      return Fail();
    }
    if (ReadLine() != "ready") return Fail();
    return true;
  }

  /// One set-up and one refresh in the child; false when the child did
  /// not answer.
  bool Round(double* refresh_s, double* setup_s) {
    if (failed_) return false;
    std::string line;
    if (write(to_, "r", 1) == 1) line = ReadLine();
    if (std::sscanf(line.c_str(), "%lf %lf", refresh_s, setup_s) != 2) {
      return Fail();
    }
    return true;
  }

 private:
  // Longest wait for one answer; a refresh takes under a second.
  static constexpr int kTimeoutMs = 60000;

  bool Fail() {
    failed_ = true;
    return false;
  }

  /// The child's next line, or "" on time-out or end of file.
  std::string ReadLine() {
    std::string line;
    char c = 0;
    while (true) {
      pollfd ready{from_, POLLIN, 0};
      if (poll(&ready, 1, kTimeoutMs) <= 0) return "";
      if (read(from_, &c, 1) != 1) return "";
      if (c == '\n') return line;
      line += c;
    }
  }

  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  bool failed_ = false;
};

/// The child side of RefreshChild: a tier over the workload's world, with
/// a trainer over the workload's slice of users publishing into it.
int RunRefreshChild(const Options& options) {
  const WorkloadSpec& spec = *FindWorkload(options.workload);
  const std::string run_dir = RunDir(options);
  const std::string setup_dir = run_dir + "/setup";
  std::error_code error;
  std::filesystem::create_directories(setup_dir, error);
  if (error) return 1;
  // Set-ups run with the parent's set-up threads, refreshes with one.
  const Index setup_threads = isrec::utils::GetNumThreads();
  isrec::utils::SetNumThreads(1);
  auto world = GenerateWorld(spec, kWorldSeed);
  auto tier = StartTier(spec, *world, run_dir);
  if (tier == nullptr) return 1;
  auto dataset = SubsetDataset(*world, spec.refresh_users);
  auto model = std::make_unique<core::IsrecModel>(world->config);
  model->Build(*dataset);
  tier->trainer_users = dataset->num_users;
  tier->trainer = std::make_unique<serve::OnlineTrainer>(
      std::move(model), std::move(dataset), TrainerConfig(*tier),
      tier->engine.get());
  VersionBook book;
  SplitMix rng(options.seed * 8 + 6);
  std::printf("ready\n");
  std::fflush(stdout);
  char request = 0;
  while (read(STDIN_FILENO, &request, 1) == 1) {
    double setup_s = -1.0;
    isrec::utils::SetNumThreads(setup_threads);
    {
      Stopwatch watch;
      auto setup_world = GenerateWorld(spec, kWorldSeed);
      auto setup_tier = StartTier(spec, *setup_world, setup_dir);
      if (setup_tier != nullptr) setup_s = watch.ElapsedSeconds();
    }
    isrec::utils::SetNumThreads(1);
    const double refresh_s = RefreshOnce(*tier, *world, rng, book);
    std::printf("%.9f %.9f\n", refresh_s, setup_s);
    std::fflush(stdout);
  }
  tier.reset();
  world.reset();
  std::filesystem::remove_all(run_dir, error);
  return 0;
}

std::string PhaseLine(const PhaseResult& phase) {
  const std::vector<double> sorted = phase.SortedLatency();
  std::vector<double> late = phase.late_ms;
  std::sort(late.begin(), late.end());
  const double p99 = Percentile(sorted, 0.99);
  char p99_text[32] = "-";  // Fewer than 1000 samples: no p99.
  if (!std::isnan(p99)) std::snprintf(p99_text, sizeof(p99_text), "%.3f", p99);
  char line[512];
  std::snprintf(line, sizeof(line),
                "phase %-10s sent=%llu ok=%llu failed=%llu wall_s=%.3f "
                "throughput_rps=%.1f n=%zu p50_ms=%.3f p99_ms=%s "
                "late_p99_ms=%.3f",
                phase.name.c_str(), static_cast<unsigned long long>(phase.sent),
                static_cast<unsigned long long>(phase.ok),
                static_cast<unsigned long long>(phase.failed), phase.wall_s,
                phase.Throughput(), sorted.size(), Percentile(sorted, 0.5),
                p99_text, late.empty() ? 0.0 : Percentile(late, 0.99));
  return line;
}

/// Each round's p-quantile latency (NaN for a round with too few
/// samples for it).
std::vector<double> RoundPercentiles(const std::vector<PhaseResult>& rounds,
                                     double p) {
  std::vector<double> values;
  for (const PhaseResult& round : rounds) {
    values.push_back(Percentile(round.SortedLatency(), p));
  }
  return values;
}

/// p-quantile latency over every round's requests pooled.
double PooledPercentile(const std::vector<PhaseResult>& rounds, double p) {
  std::vector<double> pooled;
  for (const PhaseResult& round : rounds) {
    pooled.insert(pooled.end(), round.latency_ms.begin(),
                  round.latency_ms.end());
  }
  std::sort(pooled.begin(), pooled.end());
  return Percentile(pooled, p);
}

std::vector<double> RoundThroughputs(const std::vector<PhaseResult>& rounds) {
  std::vector<double> values;
  for (const PhaseResult& round : rounds) values.push_back(round.Throughput());
  return values;
}

/// The value of the calm rounds (or refreshes): the nearest-rank 10th
/// percentile of the per-round values, best first (the 3rd best of 30).
/// Other tenants of a shared host slow the machine in episodes of several
/// seconds, which can cover half a run; a code change moves every round,
/// the calm ones too. NaN when any round has no value.
double CalmRound(std::vector<double> values, bool lower_is_better) {
  for (double v : values) {
    if (std::isnan(v)) return v;
  }
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  if (!lower_is_better) std::reverse(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(0.1 * values.size()));
  return values[std::max<size_t>(rank, 1) - 1];
}

/// Spans, registry metrics and heap accounting: on for the traced phases
/// only.
void SetTracing(bool on) {
  isrec::obs::EnableTracing(on);
  isrec::obs::EnableMetrics(on);
  isrec::obs::heap::EnableHeapProfiling(on);
}

int Run(const Options& options) {
  const WorkloadSpec& spec = *FindWorkload(options.workload);
  Report report;
  report.Note(StampLine(options.seed, options.git_sha));
  report.Note("workload " + options.workload + " trace=" +
              (options.trace ? "1" : "0"));
  // The traced run records spans in set-up and in its traced phases.
  isrec::obs::EnableTracing(options.trace);

  const std::string run_dir = RunDir(options);
  std::error_code error;
  std::filesystem::create_directories(run_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s\n", run_dir.c_str());
    return 1;
  }

  // Set-up, repeated: the median of these and of the RefreshChild's is
  // setup_s. Each repeat tears the last one down first and regenerates the
  // same world.
  std::unique_ptr<World> world;
  std::unique_ptr<Tier> tier;
  std::vector<double> setups;
  const Index setup_threads = isrec::utils::GetNumThreads();
  auto set_up = [&](int repeats) {
    isrec::utils::SetNumThreads(setup_threads);
    for (int r = 0; r < repeats; ++r) {
      tier.reset();
      world.reset();
      std::filesystem::remove_all(run_dir, error);
      std::filesystem::create_directories(run_dir, error);
      isrec::obs::ScopedSpan span("bench.setup");
      Stopwatch watch;
      world = GenerateWorld(spec, kWorldSeed);
      tier = StartTier(spec, *world, run_dir);
      if (tier == nullptr) return false;
      setups.push_back(watch.ElapsedSeconds());
    }
    return true;
  };
  if (!set_up(kSetupsBefore)) {
    std::fprintf(stderr, "cannot start the serving tier\n");
    return 1;
  }

  // Serving is sized for the four cores by its engine workers (see
  // WorkloadSpec); kernels run single-threaded inside each, as do
  // OnlineTrainer refreshes.
  isrec::utils::SetNumThreads(1);
  SetTracing(false);

  serve::ServingEngine& engine = *tier->engine;
  VersionBook book;
  if (tier->first_checkpoint.empty()) {
    book.Add(engine.CurrentModel());
  } else {
    book.AddCheckpoint(engine.CurrentModel()->version, tier->first_checkpoint);
  }

  const uint64_t seed = options.seed;
  using Requests = std::vector<serve::Request>;
  const Requests closed_traffic =
      MakeTraffic(spec, *world, kPool, seed * 8 + 3);
  const Requests low_traffic = MakeTraffic(spec, *world, kPool, seed * 8 + 4);
  const Requests high_traffic = MakeTraffic(spec, *world, kPool, seed * 8 + 5);

  // refresh_under_load runs OnlineTrainer refreshes back to back for the
  // whole measured window; the other workloads, in the untraced run, one
  // refresh and one more set-up after each round in a RefreshChild while
  // the engine is idle.
  std::unique_ptr<RefreshChild> refresh_child;
  if (!spec.refresh_under_load && !options.trace) {
    refresh_child = std::make_unique<RefreshChild>();
    if (!refresh_child->Start(options)) {
      std::fprintf(stderr, "cannot start the refresh process\n");
      return 1;
    }
  }
  std::vector<double> refresh_times;
  uint64_t refresh_failures = 0;
  uint64_t child_setup_failures = 0;
  auto record_refresh = [&](double seconds) {
    if (seconds < 0.0) {
      ++refresh_failures;
    } else {
      refresh_times.push_back(seconds);
    }
  };

  RunClosed(engine, "warmup", kWarmupSeconds, closed_traffic, nullptr);

  std::atomic<bool> stop_refresh{false};
  std::thread refresher;
  if (spec.refresh_under_load) {
    refresher = std::thread([&] {
      SplitMix rng(seed * 8 + 6);
      while (!stop_refresh.load()) {
        record_refresh(RefreshOnce(*tier, *world, rng, book));
      }
    });
  }

  // The measured window is kRounds rounds of capacity, low and high
  // phases, interleaved so that drift in the machine hits all three
  // alike (see CalmRound for how rounds become metrics). In the traced
  // run every round measures capacity untraced and then traced (the
  // ratio is the tracing overhead), and the open-loop phases run traced.
  const double round_s = options.seconds / kRounds;
  SampleSet capacity_samples(16, kSamplesPerPhase);
  SampleSet low_samples(
      static_cast<size_t>(spec.low_rps * 0.4 * options.seconds) /
          kSamplesPerPhase,
      kSamplesPerPhase);
  SampleSet high_samples(
      static_cast<size_t>(spec.high_rps * 0.4 * options.seconds) /
          kSamplesPerPhase,
      kSamplesPerPhase);
  std::vector<PhaseResult> capacity, capacity_traced, low, high;
  auto open_round = [&](int round) {
    const uint64_t round_seed = seed * 64 + static_cast<uint64_t>(round) * 2;
    low.push_back(RunOpen(
        engine, "low",
        PoissonSchedule(spec.low_rps, 0.4 * round_s, round_seed + 1),
        low_traffic, &low_samples));
    high.push_back(RunOpen(
        engine, "high",
        PoissonSchedule(spec.high_rps, 0.4 * round_s, round_seed + 2),
        high_traffic, &high_samples));
  };
  for (int round = 0; round < kRounds; ++round) {
    SetTracing(false);
    capacity.push_back(RunClosed(engine, "capacity", 0.2 * round_s,
                                 closed_traffic, &capacity_samples));
    if (options.trace) {
      SetTracing(true);
      capacity_traced.push_back(RunClosed(engine, "cap_traced", 0.2 * round_s,
                                          closed_traffic, nullptr));
    } else {
      open_round(round);
    }
    if (refresh_child != nullptr) {
      double refresh_s = -1.0, setup_s = -1.0;
      refresh_child->Round(&refresh_s, &setup_s);
      record_refresh(refresh_s);
      if (setup_s < 0.0) {
        ++child_setup_failures;
      } else {
        setups.push_back(setup_s);
      }
    }
  }
  if (options.trace) {
    // Engine stats and registry counters then cover the open-loop
    // phases alone.
    engine.ResetStats();
    isrec::obs::ResetAllMetrics();
    for (int round = 0; round < kRounds; ++round) open_round(round);
  }
  if (refresher.joinable()) {
    stop_refresh = true;
    refresher.join();
  }
  if (refresh_child != nullptr) {
    refresh_child.reset();
    rusage child{};
    getrusage(RUSAGE_CHILDREN, &child);
    report.Note("refresh process peak RSS " +
                std::to_string(child.ru_maxrss / 1024) + " MB");
  }
  const double peak_rss_mb = PeakRssMb();

  // Correctness gate: sampled responses against the sequential reference
  // of the version that served them.
  uint64_t mismatches = 0;
  size_t checked[3] = {0, 0, 0};
  {
    isrec::obs::ScopedSpan span("bench.verify");
    const std::vector<SampleSet::Sample> samples[3] = {
        capacity_samples.Take(), low_samples.Take(), high_samples.Take()};
    const Requests* pools[3] = {&closed_traffic, &low_traffic, &high_traffic};
    for (int p = 0; p < 3; ++p) {
      checked[p] = samples[p].size();
      mismatches += CountMismatches(samples[p], *pools[p], book);
    }
  }
  report.Note("correctness: checked " + std::to_string(checked[0]) + "/" +
              std::to_string(checked[1]) + "/" + std::to_string(checked[2]) +
              " capacity/low/high responses, " + std::to_string(mismatches) +
              " differ from the sequential reference");
  for (const auto* phases : {&capacity, &capacity_traced, &low, &high}) {
    for (const PhaseResult& phase : *phases) {
      report.Note(PhaseLine(phase));
      report.Attempted(phase.sent);
      report.Failed(phase.failed, "non-OK responses in phase " + phase.name);
    }
  }
  report.Failed(mismatches, "responses differ from the sequential reference");
  if (checked[0] == 0 || checked[1] == 0 || checked[2] == 0) {
    report.Incorrect("a phase produced no checked responses");
  }

  report.Attempted(refresh_times.size() + refresh_failures);
  report.Failed(refresh_failures, "OnlineTrainer refreshes failed");
  report.Failed(child_setup_failures, "set-ups in the refresh process failed");
  std::string refresh_line =
      "refreshes " + std::to_string(refresh_times.size()) + ", refresh_s:";
  for (double s : refresh_times) {
    refresh_line += ' ';
    refresh_line += std::to_string(s);
  }
  report.Note(refresh_line);

  // The untraced run's remaining set-ups, once the served tier is done
  // with (they replace it).
  if (!options.trace && !set_up(kSetupsAfter)) {
    report.Incorrect("a set-up after the measured window failed");
  }
  std::string setup_line = "setup_s of each set-up:";
  for (double s : setups) {
    setup_line += ' ';
    setup_line += std::to_string(s);
  }
  report.Note(setup_line);

  if (!options.trace) {
    report.Add("setup_s", Median(setups), "s");
    report.Add("p50_ms", CalmRound(RoundPercentiles(low, 0.5), true), "ms");
    report.Add("capacity_rps", CalmRound(RoundThroughputs(capacity), false),
               "req/s");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Add("refresh_s", CalmRound(refresh_times, true), "s");
  } else {
    std::vector<double> late;
    uint64_t sent = 0, failed = 0;
    for (const auto* phases : {&low, &high}) {
      for (const PhaseResult& phase : *phases) {
        late.insert(late.end(), phase.late_ms.begin(), phase.late_ms.end());
        sent += phase.sent;
        failed += phase.failed;
      }
    }
    std::sort(late.begin(), late.end());
    report.Add("gen.late_ms_p99", Percentile(late, 0.99), "ms");
    report.Add("gen.sent", static_cast<double>(sent), "count");
    report.Add("gen.failed", static_cast<double>(failed), "count");
    report.Add("trace.overhead_pct",
               (Median(RoundThroughputs(capacity)) /
                    Median(RoundThroughputs(capacity_traced)) -
                1.0) * 100.0,
               "%");
    // Tail latency over all rounds' requests pooled: on a shared host it
    // tracks other tenants' load more than the code, so it has no bound.
    report.Add("gen.p99_ms_low", PooledPercentile(low, 0.99), "ms");
    report.Add("gen.p99_ms_high", PooledPercentile(high, 0.99), "ms");
    report.Add("data.generate_s", world->generate_s, "s");
    ProbeLayers(spec, options, *world, *tier, low_traffic, report);
    // One file per workload, overwritten by the next traced run.
    const std::string trace_path =
        options.work_dir + "/trace-" + options.workload + ".json";
    if (isrec::obs::WriteChromeTrace(trace_path)) {
      report.Note("spans written to " + trace_path + " (" +
                  std::to_string(isrec::obs::TraceDroppedCount()) +
                  " older spans overwritten in the per-thread rings)");
    }
  }

  tier.reset();
  world.reset();
  std::filesystem::remove_all(run_dir, error);
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    perfbench::Usage();
    return 2;
  }
  if (!perfbench::TimingBuild()) {
    std::fprintf(stderr,
                 "refusing to time a %s build (sanitizer: %s); configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 perfbench::BuildType(), perfbench::Sanitizer());
    return 3;
  }
  if (options.refresh_child) return perfbench::RunRefreshChild(options);
  return perfbench::Run(options);
}
