#ifndef ISREC_OBS_ADMIN_SERVER_H_
#define ISREC_OBS_ADMIN_SERVER_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/rollup.h"

namespace isrec::obs {

/// Live introspection plane (DESIGN.md "Admin server & request
/// tracing"): one HttpServer exposing the process's obs state while it
/// runs. Endpoints:
///
///   /          tiny HTML index of the endpoints below
///   /healthz   "ok\n" + 200 while healthy, 503 while draining/unset
///   /metrics   Prometheus text exposition of the whole registry
///   /varz      JSON: registered sections + full registry snapshot
///   /statusz   human HTML: build info, uptime, rolling 1s/10s/60s
///              rates + windowed percentiles, registered sections
///   /tracez    recent per-request timelines (HTML, ?format=json)
///   /profilez  sampling profiler window: ?seconds=N&format=folded|json
///              (folded = flamegraph.pl-compatible collapsed stacks)
///   /heapz     heap-accounting snapshot (JSON): totals + top sites
///   /admin/loglevel  GET the current log level; PUT/POST a new one
///
/// Subsystems contribute without obs depending on them: they register
/// provider callbacks (AddVarzSection / AddStatuszSection /
/// SetHealthProvider) that the handler invokes per request.
struct AdminServerConfig {
  int port = 0;                      // 0 = ephemeral (see port()).
  std::string bind = "127.0.0.1";    // Loopback only by default.
  double sample_period_s = 1.0;      // Rolling-window sampling cadence.
  /// HTTP worker threads. 1 (the default) keeps the original
  /// one-connection-at-a-time admin behavior; data-plane embedders (a
  /// replica's /recommend, the isrec_router front-end) raise it so slow
  /// requests don't serialize behind each other.
  int num_workers = 1;
};

class AdminServer {
 public:
  /// Returns a JSON value (object/array/number — spliced verbatim).
  using JsonProvider = std::function<std::string()>;
  /// Returns an HTML fragment for one /statusz section.
  using HtmlProvider = std::function<std::string()>;
  /// Returns {healthy, detail line}.
  using HealthProvider = std::function<std::pair<bool, std::string>()>;

  explicit AdminServer(AdminServerConfig config = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds and starts serving + the registry sampler thread. False when
  /// the port can't be bound.
  bool Start();

  /// Stops the sampler and the HTTP server. Idempotent; the destructor
  /// calls it. Callers whose providers capture shorter-lived objects
  /// (an engine, ...) must Stop() before those objects die.
  void Stop();

  /// Bound port (for config.port = 0); 0 before Start.
  int port() const;

  /// Adds "key": <provider()> to the /varz JSON object. `key` must be
  /// unique; providers run on the server thread.
  void AddVarzSection(const std::string& key, JsonProvider provider);

  /// Adds an HTML <section> titled `title` to /statusz.
  void AddStatuszSection(const std::string& title, HtmlProvider provider);

  /// Overrides /healthz (default: healthy, "ok").
  void SetHealthProvider(HealthProvider provider);

  /// Routes `path` (exact match, consulted before the built-in pages)
  /// to `handler` — the extension point for data-plane endpoints that
  /// want to live on the same server as the introspection plane: a
  /// replica's POST /recommend, the router's /admin/drain. A handler on
  /// a built-in path (/tracez, ...) replaces that page — the router
  /// serves its stitched cross-process /tracez this way. Handlers run
  /// on the HTTP worker threads (concurrently when num_workers > 1) and
  /// must be thread-safe. Register before Start().
  void AddHandler(const std::string& path, HttpHandler handler);

  /// One-line build/version string shown on /statusz and /varz.
  void SetBuildInfo(const std::string& info);

 private:
  HttpResponse Handle(const HttpRequest& request);
  HttpResponse HandleIndex() const;
  HttpResponse HandleHealthz() const;
  HttpResponse HandleMetrics() const;
  HttpResponse HandleVarz() const;
  HttpResponse HandleStatusz() const;
  HttpResponse HandleTracez(const HttpRequest& request) const;
  HttpResponse HandleProfilez(const HttpRequest& request) const;
  HttpResponse HandleHeapz() const;
  HttpResponse HandleLoglevel(const HttpRequest& request) const;
  void SamplerLoop();

  AdminServerConfig config_;
  HttpServer http_;
  RollingAggregator rollup_;

  mutable std::mutex mutex_;  // Guards the provider lists + build info.
  std::vector<std::pair<std::string, JsonProvider>> varz_sections_;
  std::vector<std::pair<std::string, HtmlProvider>> statusz_sections_;
  std::vector<std::pair<std::string, HttpHandler>> handlers_;
  HealthProvider health_;
  std::string build_info_;

  std::mutex sampler_mutex_;
  std::condition_variable sampler_cv_;
  bool stopping_ = false;
  std::thread sampler_;
  int64_t started_ms_ = 0;
  bool started_ = false;
};

/// Escapes `&`, `<`, `>` and `"` for HTML text and attribute values.
std::string HtmlEscape(const std::string& s);

/// Prometheus metric names allow [a-zA-Z0-9_:]; the registry uses
/// dotted names, so every other character maps to '_'
/// ("serve.requests" → "serve_requests").
std::string SanitizeMetricName(const std::string& name);

/// Renders `snapshot` in the Prometheus text exposition format: metric
/// names sanitized ('.' → '_'), `# TYPE` lines, histograms as
/// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
std::string PrometheusText(const MetricsSnapshot& snapshot);

}  // namespace isrec::obs

#endif  // ISREC_OBS_ADMIN_SERVER_H_
