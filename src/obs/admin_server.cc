#include "obs/admin_server.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs/heap_profiler.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "utils/json.h"
#include "utils/logging.h"

namespace isrec::obs {

std::string SanitizeMetricName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FormatNumber(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

const char kStyle[] =
    "<style>body{font-family:monospace;margin:1.5em}"
    "table{border-collapse:collapse;margin:.5em 0}"
    "td,th{border:1px solid #999;padding:2px 8px;text-align:right}"
    "th{background:#eee}td:first-child,th:first-child{text-align:left}"
    "h2{margin-top:1.2em}</style>";

}  // namespace

std::string HtmlEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string n = SanitizeMetricName(name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string n = SanitizeMetricName(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + FormatNumber(value) + "\n";
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    const std::string n = SanitizeMetricName(h.name);
    out += "# TYPE " + n + " histogram\n";
    const std::vector<uint64_t> cumulative = h.CumulativeCounts();
    for (size_t b = 0; b < h.bounds.size(); ++b) {
      out += n + "_bucket{le=\"" + FormatNumber(h.bounds[b]) + "\"} " +
             std::to_string(cumulative[b]) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.total_count) + "\n";
    out += n + "_sum " + FormatNumber(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.total_count) + "\n";
  }
  return out;
}

AdminServer::AdminServer(AdminServerConfig config)
    : config_(std::move(config)) {}

AdminServer::~AdminServer() { Stop(); }

bool AdminServer::Start() {
  if (started_) return false;
  if (!http_.Start(config_.bind, config_.port,
                   [this](const HttpRequest& r) { return Handle(r); },
                   config_.num_workers)) {
    return false;
  }
  started_ = true;
  started_ms_ = NowMs();
  stopping_ = false;
  sampler_ = std::thread([this] { SamplerLoop(); });
  return true;
}

void AdminServer::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(sampler_mutex_);
    stopping_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  http_.Stop();
  started_ = false;
}

int AdminServer::port() const { return http_.port(); }

void AdminServer::AddVarzSection(const std::string& key,
                                 JsonProvider provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  varz_sections_.emplace_back(key, std::move(provider));
}

void AdminServer::AddStatuszSection(const std::string& title,
                                    HtmlProvider provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  statusz_sections_.emplace_back(title, std::move(provider));
}

void AdminServer::SetHealthProvider(HealthProvider provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  health_ = std::move(provider);
}

void AdminServer::AddHandler(const std::string& path, HttpHandler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  handlers_.emplace_back(path, std::move(handler));
}

void AdminServer::SetBuildInfo(const std::string& info) {
  std::lock_guard<std::mutex> lock(mutex_);
  build_info_ = info;
}

void AdminServer::SamplerLoop() {
  const auto period = std::chrono::duration<double>(
      config_.sample_period_s > 0.0 ? config_.sample_period_s : 1.0);
  std::unique_lock<std::mutex> lock(sampler_mutex_);
  while (!stopping_) {
    // Unlocked snapshot+store: the registry and aggregator have their
    // own locks, and stopping_ is only re-checked at the wait.
    lock.unlock();
    rollup_.AddSample(NowMs(), SnapshotMetrics());
    lock.lock();
    sampler_cv_.wait_for(lock, period, [this] { return stopping_; });
  }
}

HttpResponse AdminServer::Handle(const HttpRequest& request) {
  // Custom handlers are consulted before the built-ins so an embedder
  // can override a built-in page (the router replaces /tracez with its
  // stitched cross-process view).
  HttpHandler handler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [path, h] : handlers_) {
      if (path == request.path) {
        handler = h;
        break;
      }
    }
  }
  if (handler) return handler(request);
  if (request.path == "/" || request.path == "/index.html") {
    return HandleIndex();
  }
  if (request.path == "/healthz") return HandleHealthz();
  if (request.path == "/metrics") return HandleMetrics();
  if (request.path == "/varz") return HandleVarz();
  if (request.path == "/statusz") return HandleStatusz();
  if (request.path == "/tracez") return HandleTracez(request);
  if (request.path == "/profilez") return HandleProfilez(request);
  if (request.path == "/heapz") return HandleHeapz();
  if (request.path == "/admin/loglevel") return HandleLoglevel(request);
  HttpResponse response;
  response.status = 404;
  response.body = "not found: " + request.path + "\n";
  return response;
}

HttpResponse AdminServer::HandleIndex() const {
  HttpResponse response;
  response.content_type = "text/html; charset=utf-8";
  response.body = std::string("<!doctype html><title>isrec admin</title>") +
                  kStyle +
                  "<h1>isrec admin</h1><ul>"
                  "<li><a href=\"/healthz\">/healthz</a> — liveness</li>"
                  "<li><a href=\"/metrics\">/metrics</a> — Prometheus text "
                  "exposition</li>"
                  "<li><a href=\"/varz\">/varz</a> — JSON snapshot</li>"
                  "<li><a href=\"/statusz\">/statusz</a> — status page "
                  "(rates, percentiles)</li>"
                  "<li><a href=\"/tracez\">/tracez</a> — recent request "
                  "timelines (<a href=\"/tracez?format=json\">json</a>)</li>"
                  "<li><a href=\"/profilez?seconds=1\">/profilez</a> — "
                  "sampling profile, folded stacks "
                  "(<a href=\"/profilez?seconds=1&amp;format=json\">json</a>)"
                  "</li>"
                  "<li><a href=\"/heapz\">/heapz</a> — heap accounting "
                  "(allocs, live bytes, top sites)</li>"
                  "<li><a href=\"/admin/loglevel\">/admin/loglevel</a> — "
                  "get/set the log level</li>"
                  "</ul>";
  return response;
}

HttpResponse AdminServer::HandleHealthz() const {
  HealthProvider health;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    health = health_;
  }
  HttpResponse response;
  if (!health) {
    response.body = "ok\n";
    return response;
  }
  const auto [healthy, detail] = health();
  response.status = healthy ? 200 : 503;
  response.body = (healthy ? "ok" : "unhealthy") +
                  (detail.empty() ? std::string() : ": " + detail) + "\n";
  return response;
}

HttpResponse AdminServer::HandleMetrics() const {
  HttpResponse response;
  // The content type Prometheus scrapers expect for text exposition.
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = PrometheusText(SnapshotMetrics());
  return response;
}

HttpResponse AdminServer::HandleVarz() const {
  std::vector<std::pair<std::string, JsonProvider>> sections;
  std::string build_info;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sections = varz_sections_;
    build_info = build_info_;
  }
  std::string body = "{\n\"build_info\": " + json::Escape(build_info) + ",\n";
  body += "\"uptime_s\": " +
          FormatNumber(static_cast<double>(NowMs() - started_ms_) / 1000.0) +
          ",\n";
  for (const auto& [key, provider] : sections) {
    body += json::Escape(key) + ": " + provider() + ",\n";
  }
  // The trace clock reading lets a poller (the router's prober) estimate
  // this process's clock offset from the request round-trip (midpoint
  // method) and translate echoed span timestamps.
  body += "\"trace_clock_ns\": " + std::to_string(TraceClockNs()) + ",\n";
  body += "\"metrics\": " + DumpMetricsJson() + "}\n";
  HttpResponse response;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

HttpResponse AdminServer::HandleStatusz() const {
  std::vector<std::pair<std::string, HtmlProvider>> sections;
  std::string build_info;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sections = statusz_sections_;
    build_info = build_info_;
  }
  std::string body =
      std::string("<!doctype html><title>isrec statusz</title>") + kStyle +
      "<h1>statusz</h1>";
  char line[256];
  std::snprintf(line, sizeof(line),
                "<p>build: %s<br>uptime: %.1f s<br>samples: %zu</p>",
                HtmlEscape(build_info).c_str(),
                static_cast<double>(NowMs() - started_ms_) / 1000.0,
                rollup_.sample_count());
  body += line;

  // Rolling counter rates: one row per counter, one column per window.
  const WindowView w1 = rollup_.Window(1.0);
  const WindowView w10 = rollup_.Window(10.0);
  const WindowView w60 = rollup_.Window(60.0);
  body += "<h2>Counter rates (/s)</h2>";
  if (!w1.valid && !w10.valid && !w60.valid) {
    body += "<p>warming up (&lt; 2 samples)</p>";
  } else {
    body +=
        "<table><tr><th>counter</th><th>1s</th><th>10s</th>"
        "<th>60s</th></tr>";
    const WindowView* widest = w60.valid ? &w60 : (w10.valid ? &w10 : &w1);
    for (const auto& [name, rate60] : widest->counter_rates) {
      auto rate_in = [](const WindowView& w, const std::string& n) {
        for (const auto& [cn, r] : w.counter_rates) {
          if (cn == n) return r;
        }
        return 0.0;
      };
      std::snprintf(line, sizeof(line),
                    "<tr><td>%s</td><td>%.4g</td><td>%.4g</td>"
                    "<td>%.4g</td></tr>",
                    HtmlEscape(name).c_str(),
                    w1.valid ? rate_in(w1, name) : 0.0,
                    w10.valid ? rate_in(w10, name) : 0.0,
                    w60.valid ? rate_in(w60, name) : 0.0);
      body += line;
    }
    body += "</table>";

    body += "<h2>Histogram percentiles (trailing window)</h2>";
    std::snprintf(line, sizeof(line),
                  "<table><tr><th>histogram (%.0fs window)</th><th>count</th>"
                  "<th>p50</th><th>p95</th><th>p99</th></tr>",
                  widest->seconds);
    body += line;
    for (const HistogramSnapshot& h : widest->histograms) {
      std::snprintf(line, sizeof(line),
                    "<tr><td>%s</td><td>%llu</td><td>%.4g</td><td>%.4g</td>"
                    "<td>%.4g</td></tr>",
                    HtmlEscape(h.name).c_str(),
                    static_cast<unsigned long long>(h.total_count),
                    h.Percentile(0.50), h.Percentile(0.95),
                    h.Percentile(0.99));
      body += line;
    }
    body += "</table>";
  }

  for (const auto& [title, provider] : sections) {
    body += "<h2>" + HtmlEscape(title) + "</h2>";
    body += provider();
  }
  HttpResponse response;
  response.content_type = "text/html; charset=utf-8";
  response.body = std::move(body);
  return response;
}

HttpResponse AdminServer::HandleTracez(const HttpRequest& request) const {
  const std::vector<RequestTimeline> timelines = SnapshotRequestTimelines();
  HttpResponse response;
  if (request.QueryOr("format", "") == "json") {
    std::string body = "{\n\"dropped\": " +
                       std::to_string(RequestTimelineDropped()) +
                       ",\n\"timelines\": [";
    for (size_t t = 0; t < timelines.size(); ++t) {
      const RequestTimeline& tl = timelines[t];
      body += t == 0 ? "\n" : ",\n";
      body += "{\"request_id\": " + std::to_string(tl.request_id) +
              ", \"spans\": [";
      for (size_t s = 0; s < tl.spans.size(); ++s) {
        const RequestSpan& span = tl.spans[s];
        body += s == 0 ? "" : ", ";
        body += "{\"name\": " + json::Escape(span.name) +
                ", \"start_ns\": " + std::to_string(span.start_ns) +
                ", \"dur_ns\": " + std::to_string(span.dur_ns) +
                ", \"tid\": " + std::to_string(span.tid) + "}";
      }
      body += "]}";
    }
    body += "\n]\n}\n";
    response.content_type = "application/json";
    response.body = std::move(body);
    return response;
  }

  std::string body =
      std::string("<!doctype html><title>isrec tracez</title>") + kStyle +
      "<h1>tracez</h1>";
  char line[256];
  std::snprintf(
      line, sizeof(line),
      "<p>%zu sampled request timelines (newest first), %llu dropped "
      "spans. <a href=\"/tracez?format=json\">json</a></p>",
      timelines.size(),
      static_cast<unsigned long long>(RequestTimelineDropped()));
  body += line;
  if (!TracingEnabled() || !RequestTracingEnabled()) {
    body +=
        "<p><b>request tracing is off</b> — enable tracing and request "
        "tracing (e.g. isrec_serve --admin-port) to populate this "
        "page.</p>";
  }
  for (const RequestTimeline& tl : timelines) {
    const uint64_t t0 = tl.spans.empty() ? 0 : tl.spans.front().start_ns;
    std::snprintf(line, sizeof(line), "<h2>request %llu</h2>",
                  static_cast<unsigned long long>(tl.request_id));
    body += line;
    body +=
        "<table><tr><th>span</th><th>start (&micro;s)</th>"
        "<th>dur (&micro;s)</th><th>tid</th></tr>";
    for (const RequestSpan& span : tl.spans) {
      std::snprintf(line, sizeof(line),
                    "<tr><td>%s</td><td>%.1f</td><td>%.1f</td>"
                    "<td>%u</td></tr>",
                    HtmlEscape(span.name).c_str(),
                    static_cast<double>(span.start_ns - t0) / 1000.0,
                    static_cast<double>(span.dur_ns) / 1000.0, span.tid);
      body += line;
    }
    body += "</table>";
  }
  response.content_type = "text/html; charset=utf-8";
  response.body = std::move(body);
  return response;
}

HttpResponse AdminServer::HandleProfilez(const HttpRequest& request) const {
  // The handler blocks for the sampling window; the admin server's
  // worker pool keeps other endpoints responsive meanwhile (and with
  // num_workers == 1 a short window is still an acceptable stall for a
  // hand-driven debugging endpoint).
  double seconds = std::atof(request.QueryOr("seconds", "1").c_str());
  if (!(seconds > 0.0)) seconds = 1.0;
  seconds = std::min(seconds, 60.0);
  int hz = std::atoi(request.QueryOr("hz", "499").c_str());
  if (hz <= 0) hz = 499;
  hz = std::min(hz, 1000);
  const ProfileSnapshot snapshot = CollectProfileWindow(seconds, hz);
  HttpResponse response;
  if (request.QueryOr("format", "folded") == "json") {
    response.content_type = "application/json";
    response.body = ProfileSummaryJson(snapshot);
  } else {
    response.content_type = "text/plain; charset=utf-8";
    response.body = FoldedStacksText(snapshot);
  }
  return response;
}

HttpResponse AdminServer::HandleHeapz() const {
  HttpResponse response;
  response.content_type = "application/json";
  response.body = heap::HeapzJson();
  return response;
}

HttpResponse AdminServer::HandleLoglevel(const HttpRequest& request) const {
  HttpResponse response;
  if (request.method == "PUT" || request.method == "POST") {
    // Level from the body ("debug\n") or from ?level=debug — whichever
    // is present; the body wins when both are.
    std::string text = request.body;
    while (!text.empty() &&
           std::isspace(static_cast<unsigned char>(text.back()))) {
      text.pop_back();
    }
    while (!text.empty() &&
           std::isspace(static_cast<unsigned char>(text.front()))) {
      text.erase(text.begin());
    }
    if (text.empty()) text = request.QueryOr("level", "");
    LogLevel level;
    if (!ParseLogLevel(text.c_str(), &level)) {
      response.status = 400;
      response.content_type = "application/json";
      response.body =
          "{\"error\": \"unknown log level\", \"got\": " + json::Escape(text) +
          "}\n";
      return response;
    }
    SetLogLevel(level);
  }
  response.content_type = "application/json";
  response.body = std::string("{\"level\": \"") +
                  LogLevelName(GetLogLevel()) + "\"}\n";
  return response;
}

}  // namespace isrec::obs
