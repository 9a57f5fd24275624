#ifndef ISREC_SERVE_ONLINE_H_
#define ISREC_SERVE_ONLINE_H_

// Online learning loop (DESIGN.md §13): a background OnlineTrainer tails
// an interaction event stream, folds fresh events into its private
// training dataset, runs incremental TrainEpoch passes, writes a
// versioned checkpoint, and publishes it into a live ServingEngine via
// the same load-validate-swap path the /admin/reload endpoint uses. The
// served model is NEVER trained in place — every published generation is
// a fresh immutable ServableModel restored from its own artifact, so a
// bad training step can be rejected (and rolled back by re-publishing an
// older checkpoint) without touching live traffic.

#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/isrec.h"
#include "data/dataset.h"
#include "data/stream.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "utils/status.h"

namespace isrec::obs {
class AdminServer;
}  // namespace isrec::obs

namespace isrec::serve {

/// Loads the checkpoint at `path` (ServableModel::Load with `options`)
/// and publishes it into `engine`. The one shared reload path: the
/// /admin/reload endpoint, the OnlineTrainer, and the CLI all swap
/// models through this, so validation (typed load errors + the engine's
/// probe smoke-score) cannot be bypassed. Returns the new live version.
Outcome<uint64_t> PublishFromCheckpoint(ServingEngine& engine,
                                        const std::string& path,
                                        const LoadOptions& options = {});

/// Registers `POST /admin/reload?checkpoint=PATH` on `admin`: loads,
/// validates, and atomically swaps the checkpoint into `engine`,
/// answering {"status": "OK", "model_version": N} on success or a JSON
/// error (HTTP 400/422) without touching the live model on failure.
/// `options` (e.g. int8 quantization) apply to every reload, so a
/// quantized replica stays quantized across swaps. The engine must
/// outlive the admin server (same rule as RegisterAdminSections).
void RegisterReloadEndpoint(obs::AdminServer& admin, ServingEngine& engine,
                            LoadOptions options = {});

struct OnlineTrainerConfig {
  /// Event stream log to tail (data::EventStreamTailer wire format).
  std::string stream_path;
  /// Versioned artifacts are written to "<checkpoint_base>.v<epoch>".
  std::string checkpoint_base;
  /// Seconds between refresh attempts in the background loop.
  double period_s = 5.0;
  /// A refresh is skipped (no train, no publish) until at least this
  /// many new in-vocabulary events have accumulated.
  Index min_new_events = 1;
  /// Incremental TrainEpoch passes per refresh.
  Index epochs_per_refresh = 1;
  /// Cumulative epochs already behind the starting model (from its
  /// checkpoint header), so published artifacts carry the true total.
  uint64_t initial_epoch = 0;
  /// Applied when loading the published artifact back for serving.
  LoadOptions load;
};

struct OnlineTrainerStats {
  uint64_t polls = 0;
  uint64_t events_ingested = 0;  // Parsed off the stream.
  uint64_t events_applied = 0;   // In-vocabulary, folded into the dataset.
  uint64_t refreshes = 0;        // Completed train->checkpoint->publish.
  uint64_t skipped = 0;          // Refresh attempts below min_new_events.
  uint64_t failures = 0;         // Poll/publish errors (see last_error).
  uint64_t epoch = 0;            // Cumulative epochs on the online model.
  double last_loss = 0.0;
  uint64_t last_published_version = 0;
  std::string last_checkpoint;
  std::string last_error;
};

/// Background incremental trainer. Owns a private model + dataset pair
/// (the model must be bound to exactly this dataset — Fit or
/// Build+LoadParameters against it) and a tailer on the event stream.
/// Start() runs RefreshOnce() every period_s on a background thread;
/// tests and the CLI can call RefreshOnce() directly for a synchronous,
/// deterministic cycle.
class OnlineTrainer {
 public:
  /// `model` must be bound to `*dataset` (its dataset() pointer aims at
  /// it). `engine` (not owned, may be null for train-only use) receives
  /// each published checkpoint; it must outlive the trainer.
  OnlineTrainer(std::unique_ptr<core::IsrecModel> model,
                std::unique_ptr<data::Dataset> dataset,
                OnlineTrainerConfig config, ServingEngine* engine);
  ~OnlineTrainer();

  OnlineTrainer(const OnlineTrainer&) = delete;
  OnlineTrainer& operator=(const OnlineTrainer&) = delete;

  /// Starts the background refresh loop. Idempotent.
  void Start();
  /// Stops and joins the loop (waits out any in-flight refresh).
  /// Idempotent; the destructor calls it.
  void Stop();

  /// One synchronous ingest->train->checkpoint->publish cycle: tail the
  /// stream, fold new events in, and — when min_new_events have
  /// arrived — run epochs_per_refresh TrainEpoch passes, save
  /// "<checkpoint_base>.v<epoch>", and publish it into the engine.
  /// Returns Ok both on a completed refresh and on a clean skip
  /// (too few events); errors leave the live model untouched.
  Status RefreshOnce();

  OnlineTrainerStats Stats() const;

 private:
  void Loop();

  const OnlineTrainerConfig config_;
  std::unique_ptr<data::Dataset> dataset_;
  std::unique_ptr<core::IsrecModel> model_;
  ServingEngine* engine_;  // Not owned.
  data::EventStreamTailer tailer_;
  Index pending_events_ = 0;  // Applied but not yet trained on.
  /// Last successful stream poll (construction time before the first) —
  /// the serve.online.last_poll_age_ms gauge measures from here.
  std::chrono::steady_clock::time_point last_poll_ =
      std::chrono::steady_clock::now();

  mutable std::mutex mutex_;  // Guards stats_ (the loop owns the rest).
  OnlineTrainerStats stats_;  // All but refreshes, which refreshes_ owns.
  /// Completed refreshes (serve.online_refreshes) and failed publishes
  /// (serve.online_publish_failures, registry only: stats_.failures
  /// counts them together with poll errors).
  obs::InstanceCounter refreshes_{"serve.online_refreshes"};
  obs::Counter& publish_failures_ =
      obs::GetCounter("serve.online_publish_failures");

  std::mutex loop_mutex_;
  std::condition_variable loop_cv_;
  bool stop_ = false;
  std::thread loop_;
};

}  // namespace isrec::serve

#endif  // ISREC_SERVE_ONLINE_H_
