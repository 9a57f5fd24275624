#include "serve/online.h"

#include <chrono>
#include <utility>
#include <vector>

#include "data/batch.h"
#include "data/split.h"
#include "obs/admin_server.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "utils/check.h"
#include "utils/json.h"
#include "utils/logging.h"

namespace isrec::serve {
namespace {

// Freshness gauges (DESIGN.md "Profiling plane" satellite): how far the
// online trainer lags its stream. Exported to /varz and /metrics like
// every other registry gauge.
void SetOnlineGauge(const char* metric, double value) {
  obs::GetGauge(metric).Set(value);
}

obs::HttpResponse JsonError(int status, const std::string& message) {
  obs::HttpResponse response;
  response.status = status;
  response.content_type = "application/json; charset=utf-8";
  response.body = "{\"status\": \"ERROR\", \"error\": " +
                  json::Escape(message) + "}\n";
  return response;
}

}  // namespace

Outcome<uint64_t> PublishFromCheckpoint(ServingEngine& engine,
                                        const std::string& path,
                                        const LoadOptions& options) {
  Outcome<std::shared_ptr<ServableModel>> loaded =
      ServableModel::Load(path, options);
  if (!loaded.ok()) {
    return Outcome<uint64_t>(loaded.status());
  }
  return engine.Publish(std::move(loaded.value()));
}

void RegisterReloadEndpoint(obs::AdminServer& admin, ServingEngine& engine,
                            LoadOptions options) {
  admin.AddHandler(
      "/admin/reload", [&engine, options](const obs::HttpRequest& request) {
        const std::string checkpoint = request.QueryOr("checkpoint", "");
        if (checkpoint.empty()) {
          return JsonError(400, "missing query parameter 'checkpoint'");
        }
        const Outcome<uint64_t> published =
            PublishFromCheckpoint(engine, checkpoint, options);
        if (!published.ok()) {
          // 422: the request was well-formed but the artifact failed
          // validation — the live model is untouched.
          return JsonError(422, published.status().ToString());
        }
        obs::HttpResponse response;
        response.content_type = "application/json; charset=utf-8";
        response.body =
            "{\"status\": \"OK\", \"model_version\": " +
            std::to_string(published.value()) +
            ", \"checkpoint\": " + json::Escape(checkpoint) + "}\n";
        return response;
      });
}

OnlineTrainer::OnlineTrainer(std::unique_ptr<core::IsrecModel> model,
                             std::unique_ptr<data::Dataset> dataset,
                             OnlineTrainerConfig config, ServingEngine* engine)
    : config_(std::move(config)),
      dataset_(std::move(dataset)),
      model_(std::move(model)),
      engine_(engine),
      tailer_(config_.stream_path) {
  ISREC_CHECK(model_ != nullptr);
  ISREC_CHECK(dataset_ != nullptr);
  ISREC_CHECK_MSG(model_->dataset() == dataset_.get(),
                  "OnlineTrainer model must be bound to the given dataset");
  ISREC_CHECK_GT(config_.epochs_per_refresh, 0);
  ISREC_CHECK(!config_.checkpoint_base.empty());
  stats_.epoch = config_.initial_epoch;
}

OnlineTrainer::~OnlineTrainer() { Stop(); }

void OnlineTrainer::Start() {
  std::lock_guard<std::mutex> lock(loop_mutex_);
  if (loop_.joinable()) return;
  stop_ = false;
  loop_ = std::thread([this] { Loop(); });
}

void OnlineTrainer::Stop() {
  {
    std::lock_guard<std::mutex> lock(loop_mutex_);
    if (!loop_.joinable()) return;
    stop_ = true;
  }
  loop_cv_.notify_all();
  loop_.join();
}

void OnlineTrainer::Loop() {
  const auto period = std::chrono::duration<double>(config_.period_s);
  std::unique_lock<std::mutex> lock(loop_mutex_);
  while (!stop_) {
    if (loop_cv_.wait_for(lock, period, [this] { return stop_; })) break;
    lock.unlock();
    const Status status = RefreshOnce();
    if (!status.ok()) {
      ISREC_LOG(Warning) << "online refresh failed: " << status.ToString();
    }
    lock.lock();
  }
}

Status OnlineTrainer::RefreshOnce() {
  // 1. Ingest: tail the stream and fold new events into the dataset.
  Outcome<std::vector<data::Interaction>> polled = tailer_.Poll();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.polls;
  }
  // Freshness gauges, updated every cycle whether or not the poll
  // succeeded: a stuck stream shows up as a growing last_poll_age_ms,
  // not a silently frozen dashboard.
  const auto poll_now = std::chrono::steady_clock::now();
  if (polled.ok()) last_poll_ = poll_now;
  SetOnlineGauge(
      "serve.online.last_poll_age_ms",
      std::chrono::duration<double, std::milli>(poll_now - last_poll_)
          .count());
  SetOnlineGauge("serve.online.malformed_lines",
                 static_cast<double>(tailer_.malformed_lines()));
  if (!polled.ok()) {
    SetOnlineGauge("serve.online.events_behind",
                   static_cast<double>(pending_events_));
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.failures;
    stats_.last_error = polled.status().ToString();
    return polled.status();
  }
  const std::vector<data::Interaction>& events = polled.value();
  const Index applied = data::ApplyEvents(events, dataset_.get());
  pending_events_ += applied;
  SetOnlineGauge("serve.online.events_behind",
                 static_cast<double>(pending_events_));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.events_ingested += events.size();
    stats_.events_applied += static_cast<uint64_t>(applied);
  }
  if (pending_events_ < config_.min_new_events) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.skipped;
    return Status::Ok();
  }
  pending_events_ = 0;
  SetOnlineGauge("serve.online.events_behind", 0.0);

  // 2. Incremental training on the grown dataset. The split/batcher are
  // rebuilt so the fresh tail lands in the training prefixes.
  ISREC_TRACE_SPAN("serve.online_refresh");
  const data::LeaveOneOutSplit split(*dataset_);
  const models::SeqModelConfig& seq = model_->isrec_config().seq;
  data::SequenceBatcher batcher(split, seq.batch_size, seq.seq_len);
  model_->SetTraining(true);
  float loss = 0.0f;
  for (Index e = 0; e < config_.epochs_per_refresh; ++e) {
    loss = model_->TrainEpoch(batcher);
  }
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.epoch += static_cast<uint64_t>(config_.epochs_per_refresh);
    stats_.last_loss = loss;
    epoch = stats_.epoch;
  }

  // 3. Versioned artifact: "<base>.v<epoch>" (epochs are monotonic, so
  // names never collide and the history stays replayable).
  const std::string checkpoint =
      config_.checkpoint_base + ".v" + std::to_string(epoch);
  SaveCheckpoint(*model_, checkpoint, epoch);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.last_checkpoint = checkpoint;
  }

  // 4. Publish through the canonical load-validate-swap path. A failure
  // here (corrupt write, rejected probe) leaves the live model as-is.
  if (engine_ != nullptr) {
    const Outcome<uint64_t> published =
        PublishFromCheckpoint(*engine_, checkpoint, config_.load);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!published.ok()) {
      ++stats_.failures;
      stats_.last_error = published.status().ToString();
      publish_failures_.Add();
      return published.status();
    }
    stats_.last_published_version = published.value();
  }
  refreshes_.Add();
  return Status::Ok();
}

OnlineTrainerStats OnlineTrainer::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  OnlineTrainerStats stats = stats_;
  stats.refreshes = refreshes_.Value();
  return stats;
}

}  // namespace isrec::serve
