#include "router/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "utils/json.h"

namespace isrec::router {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

obs::HttpResponse JsonError(int status, const std::string& message) {
  obs::HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = "{\"error\": " + json::Escape(message) + "}";
  return response;
}

/// Earliest start among a trace's replica-side (non-"router") spans, or
/// 0 when it has none. The gap between the router's forward span start
/// and this is the request's network + server-accept latency.
uint64_t EarliestReplicaStart(const StitchedTrace& trace,
                              std::string* process) {
  uint64_t earliest = 0;
  bool found = false;
  for (const StitchedSpan& span : trace.spans) {
    if (span.process == "router") continue;
    if (!found || span.start_ns < earliest) {
      earliest = span.start_ns;
      *process = span.process;
      found = true;
    }
  }
  return found ? earliest : 0;
}

/// Start of the FIRST router.req.forward span, or 0 when absent.
uint64_t FirstForwardStart(const StitchedTrace& trace) {
  for (const StitchedSpan& span : trace.spans) {
    if (span.name == "router.req.forward") return span.start_ns;
  }
  return 0;
}

}  // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      ring_(config_.virtual_nodes),
      table_(config_.replicas),
      prober_(table_, config_.probe),
      forwarder_(obs::HttpClientOptions{
          static_cast<int>(config_.forward_connect_timeout_ms),
          static_cast<int>(config_.forward_read_timeout_ms)}),
      admin_(config_.admin),
      traces_(config_.trace_capacity) {
  for (const ReplicaConfig& replica : config_.replicas) {
    ring_.AddReplica(replica.name);
  }
}

Router::~Router() { Stop(); }

bool Router::Start() {
  admin_.SetHealthProvider([this] {
    const size_t routable = table_.NumRoutable();
    return std::make_pair(
        routable > 0, std::to_string(routable) + "/" +
                          std::to_string(table_.size()) +
                          " replicas routable");
  });
  admin_.AddVarzSection("router", [this] { return VarzJson(); });
  admin_.AddStatuszSection("Router replicas", [this] { return StatuszHtml(); });
  admin_.AddHandler("/recommend", [this](const obs::HttpRequest& request) {
    return HandleRecommend(request);
  });
  admin_.AddHandler("/admin/drain", [this](const obs::HttpRequest& request) {
    return HandleDrain(request);
  });
  admin_.AddHandler("/admin/undrain", [this](const obs::HttpRequest& request) {
    return HandleUndrain(request);
  });
  // Replaces the built-in per-process /tracez: on a router the stitched
  // cross-process view is strictly more useful.
  admin_.AddHandler("/tracez", [this](const obs::HttpRequest& request) {
    return HandleTracez(request);
  });
  if (config_.fleet_metrics) {
    admin_.AddHandler("/fleet/metrics",
                      [this](const obs::HttpRequest& request) {
                        return HandleFleetMetrics(request);
                      });
    admin_.AddStatuszSection("Fleet", [this] { return fleet_.StatuszHtml(); });
    prober_.SetSnapshotSink(
        [this](const std::string& replica, int64_t t_ms,
               const obs::MetricsSnapshot& snapshot) {
          fleet_.Update(replica, t_ms, snapshot);
        });
  }
  if (!admin_.Start()) return false;
  prober_.Start();
  return true;
}

void Router::Stop() {
  admin_.Stop();
  prober_.Stop();
}

RouterDecisions Router::decisions() const {
  RouterDecisions d;
  d.requests = requests_.Value();
  d.bad_requests = bad_requests_.Value();
  d.forwarded = forwarded_.Value();
  d.spilled = spilled_.Value();
  d.drain_rerouted = drain_rerouted_.Value();
  d.down_rerouted = down_rerouted_.Value();
  d.retried = retried_.Value();
  d.transport_errors = transport_errors_.Value();
  d.rejected = rejected_.Value();
  d.expired = expired_.Value();
  d.drains = drains_.Value();
  return d;
}

obs::HttpResponse Router::HandleRecommend(const obs::HttpRequest& http) {
  obs::HttpResponse out;
  out.content_type = "application/json";
  if (http.method != "POST") {
    out.status = 405;
    out.body = "{\"status\": \"INVALID_ARGUMENT\", "
               "\"message\": \"POST a JSON request body\"}";
    return out;
  }
  serve::Request request;
  std::string error;
  if (!serve::RecommendRequestFromJson(http.body, &request, &error)) {
    bad_requests_.Add();
    out.status = 400;
    serve::RecommendResponse response;
    response.status = Status::InvalidArgument(error);
    out.body = serve::RecommendResponseToJson(response);
    return out;
  }
  requests_.Add();
  // Trace decision: adopt an upstream trace id when the caller sent
  // one; otherwise sample per config ((n-1) % every == 0, so request
  // #1 is always traced). Inactive context = the historical untraced
  // path, bit for bit.
  obs::TraceContext context = obs::TraceContextFromHeaders(http);
  if (!context.active() && config_.trace_sample_every > 0) {
    const uint64_t n =
        trace_counter_.fetch_add(1, std::memory_order_relaxed);
    if (n % config_.trace_sample_every == 0) {
      context.trace_id = obs::NewTraceId();
      context.hop = 0;
    }
  }
  StitchedTrace trace;
  serve::RecommendResponse response;
  if (context.active()) {
    context.echo = true;  // Always ask the replica for its timeline.
    request.id = context.trace_id;
    trace.trace_id = context.trace_id;
    trace.hop = context.hop;
    response = Route(request, &out.status, context, &trace);
    traces_.Add(std::move(trace));
  } else {
    response = Route(request, &out.status, context, nullptr);
  }
  // The echo was for THIS router's stitching; the client gets the
  // protocol response without it.
  response.trace = serve::TraceEcho{};
  out.body = serve::RecommendResponseToJson(response);
  return out;
}

serve::RecommendResponse Router::Route(const serve::Request& request,
                                       int* http_status,
                                       const obs::TraceContext& context,
                                       StitchedTrace* trace) {
  const Clock::time_point arrival = Clock::now();
  const bool has_deadline = request.options.deadline_ms > 0.0;
  const std::vector<std::string> preference =
      ring_.Preference(HashRing::KeyForUser(request.user));

  // Collects one router-side span: into the stitched trace and,
  // mirrored, into the obs ring/timeline (names are static literals, as
  // obs requires). No-op on the untraced path.
  const auto add_span = [&](const char* name, uint64_t start_ns,
                            uint64_t end_ns, const std::string& detail) {
    if (trace == nullptr) return;
    trace->spans.push_back({name, "router", start_ns,
                            end_ns >= start_ns ? end_ns - start_ns : 0,
                            /*clock_offset_ns=*/0, /*offset_estimated=*/true,
                            detail});
    obs::RecordRequestSpan(name, start_ns, end_ns, trace->trace_id);
  };
  const uint64_t route_start_ns =
      trace != nullptr ? obs::TraceClockNs() : 0;
  // Invoked on every return path below.
  const auto finish = [&](const serve::RecommendResponse& response) {
    add_span("router.req.route", route_start_ns, obs::TraceClockNs(),
             response.status.ok() ? "" : response.status.message());
    *http_status = serve::HttpStatusForCode(response.status.code());
    return response;
  };

  serve::RecommendResponse answer;
  std::vector<std::string> tried;
  int overload_retries = 0;
  std::string last_transport_error;
  serve::RecommendResponse last_overloaded;
  bool have_overloaded = false;
  while (true) {
    double remaining_ms = 0.0;
    if (has_deadline) {
      remaining_ms = request.options.deadline_ms - MsSince(arrival);
      if (remaining_ms <= 0.0) {
        expired_.Add();
        answer.status = Status::DeadlineExceeded(
            "deadline exhausted at router after " +
            std::to_string(tried.size()) + " attempt(s)");
        return finish(answer);
      }
    }

    ReplicaConfig target;
    AcquireDecision decision;
    if (!table_.AcquireTarget(preference, tried, &target, &decision)) {
      if (have_overloaded) {
        // A replica DID answer (overloaded) and no alternative remains:
        // relay its answer rather than synthesizing one.
        return finish(last_overloaded);
      }
      rejected_.Add();
      answer.status = Status::Overloaded(
          last_transport_error.empty()
              ? "no routable replica"
              : "no routable replica (last transport error: " +
                    last_transport_error + ")");
      return finish(answer);
    }
    if (decision.spilled) {
      spilled_.Add();
      if (trace != nullptr) {
        const uint64_t now_ns = obs::TraceClockNs();
        add_span("router.req.spill", now_ns, now_ns,
                 "owner degraded; spilled to " + target.name);
      }
    }
    if (decision.skipped_draining) {
      drain_rerouted_.Add();
    }
    if (decision.skipped_down) down_rerouted_.Add();
    forwarded_.Add();

    serve::Request forwarded = request;
    double attempt_timeout_ms = 0.0;  // 0 = forwarder defaults.
    if (has_deadline) {
      forwarded.options.deadline_ms = remaining_ms;
      attempt_timeout_ms = remaining_ms + config_.forward_deadline_slack_ms;
    }
    const uint64_t forward_start_ns =
        trace != nullptr ? obs::TraceClockNs() : 0;
    const ForwardResult result = forwarder_.Forward(
        target.host, target.port, forwarded, attempt_timeout_ms,
        trace != nullptr ? &context : nullptr);
    add_span("router.req.forward", forward_start_ns, obs::TraceClockNs(),
             target.name);
    table_.ReleaseTarget(target.name,
                         result.answered ? "" : result.transport_error);
    tried.push_back(target.name);

    if (trace != nullptr && result.answered &&
        result.response.trace.present) {
      // Stitch the replica's echoed spans in, translated onto the
      // router clock via the probe-measured offset. Unsynced replicas
      // (no probe round yet) contribute raw timestamps, flagged so the
      // rendering doesn't pretend they line up.
      ReplicaSnapshot snapshot;
      const bool known = table_.Snapshot(target.name, &snapshot);
      const bool synced = known && snapshot.clock_synced;
      const int64_t offset_ns = synced ? snapshot.clock_offset_ns : 0;
      for (const serve::TraceEchoSpan& span : result.response.trace.spans) {
        const int64_t translated =
            static_cast<int64_t>(span.start_ns) + offset_ns;
        trace->spans.push_back({span.name, target.name,
                                translated > 0
                                    ? static_cast<uint64_t>(translated)
                                    : 0,
                                span.dur_ns, offset_ns, synced, ""});
      }
    }

    if (!result.answered) {
      // ReleaseTarget already marked the replica DOWN; re-home to the
      // next preference (bounded by the fleet size via `tried`).
      transport_errors_.Add();
      last_transport_error = target.name + ": " + result.transport_error;
      if (trace != nullptr) {
        const uint64_t now_ns = obs::TraceClockNs();
        add_span("router.req.retry", now_ns, now_ns,
                 "transport error from " + target.name + ": " +
                     result.transport_error);
      }
      continue;
    }
    if (result.response.status.code() == StatusCode::kOverloaded &&
        overload_retries < config_.max_overload_retries &&
        (!has_deadline ||
         request.options.deadline_ms - MsSince(arrival) >
             config_.retry_min_budget_ms)) {
      retried_.Add();
      ++overload_retries;
      last_overloaded = result.response;
      have_overloaded = true;
      if (trace != nullptr) {
        const uint64_t now_ns = obs::TraceClockNs();
        add_span("router.req.retry", now_ns, now_ns,
                 target.name + " overloaded; retrying");
      }
      continue;
    }
    return finish(result.response);
  }
}

obs::HttpResponse Router::HandleDrain(const obs::HttpRequest& http) {
  const std::string name = http.QueryOr("replica", "");
  if (name.empty()) {
    return JsonError(400, "missing query parameter 'replica'");
  }
  if (!table_.StartDrain(name)) {
    return JsonError(404, "unknown replica '" + name + "'");
  }
  drains_.Add();
  const double wait_ms = std::atof(http.QueryOr("wait_ms", "0").c_str());
  bool drained = false;
  if (wait_ms > 0.0) drained = table_.WaitDrained(name, wait_ms);

  ReplicaSnapshot snapshot;
  table_.Snapshot(name, &snapshot);
  obs::HttpResponse out;
  out.content_type = "application/json";
  out.body = "{\"replica\": " + json::Escape(name) +
             ", \"state\": " +
             json::Escape(std::string(ReplicaStateName(snapshot.state))) +
             ", \"in_flight\": " + std::to_string(snapshot.in_flight) +
             ", \"drained\": " +
             ((drained || (wait_ms <= 0.0 && snapshot.in_flight == 0 &&
                           snapshot.state == ReplicaState::kDraining))
                  ? "true"
                  : "false") +
             "}";
  return out;
}

obs::HttpResponse Router::HandleUndrain(const obs::HttpRequest& http) {
  const std::string name = http.QueryOr("replica", "");
  if (name.empty()) {
    return JsonError(400, "missing query parameter 'replica'");
  }
  if (!table_.Contains(name)) {
    return JsonError(404, "unknown replica '" + name + "'");
  }
  if (!table_.Undrain(name)) {
    return JsonError(409, "replica '" + name + "' is not draining");
  }
  obs::HttpResponse out;
  out.content_type = "application/json";
  out.body = "{\"replica\": " + json::Escape(name) +
             ", \"state\": \"DOWN\", "
             "\"note\": \"returns to service on the next healthy probe\"}";
  return out;
}

obs::HttpResponse Router::HandleFleetMetrics(const obs::HttpRequest&) {
  obs::HttpResponse out;
  out.content_type = "text/plain; version=0.0.4; charset=utf-8";
  out.body = fleet_.PrometheusFleetText();
  return out;
}

obs::HttpResponse Router::HandleTracez(const obs::HttpRequest& http) {
  const std::vector<StitchedTrace> traces = traces_.Snapshot();
  obs::HttpResponse out;
  if (http.QueryOr("format", "") == "json") {
    out.content_type = "application/json";
    std::string body =
        "{\"added\": " + std::to_string(traces_.added()) + ", \"traces\": [";
    for (size_t t = 0; t < traces.size(); ++t) {
      const StitchedTrace& trace = traces[t];
      if (t > 0) body += ", ";
      body += "{\"trace_id\": " +
              json::Escape(obs::FormatTraceId(trace.trace_id));
      body += ", \"hop\": " + std::to_string(trace.hop);
      std::string gap_process;
      const uint64_t forward_start = FirstForwardStart(trace);
      const uint64_t replica_start =
          EarliestReplicaStart(trace, &gap_process);
      if (forward_start != 0 && replica_start != 0) {
        body += ", \"network_gap_ns\": " +
                std::to_string(static_cast<int64_t>(replica_start) -
                               static_cast<int64_t>(forward_start));
      }
      body += ", \"spans\": [";
      for (size_t s = 0; s < trace.spans.size(); ++s) {
        const StitchedSpan& span = trace.spans[s];
        if (s > 0) body += ", ";
        body += "{\"name\": " + json::Escape(span.name);
        body += ", \"process\": " + json::Escape(span.process);
        body += ", \"start_ns\": " + std::to_string(span.start_ns);
        body += ", \"dur_ns\": " + std::to_string(span.dur_ns);
        body += ", \"clock_offset_ns\": " +
                std::to_string(span.clock_offset_ns);
        body += std::string(", \"offset_synced\": ") +
                (span.offset_estimated ? "true" : "false");
        body += ", \"detail\": " + json::Escape(span.detail) + "}";
      }
      body += "]}";
    }
    body += "]}\n";
    out.body = std::move(body);
    return out;
  }

  out.content_type = "text/html; charset=utf-8";
  std::string body =
      "<!doctype html><title>isrec router tracez</title>"
      "<style>body{font-family:monospace;margin:1.5em}"
      "table{border-collapse:collapse;margin:.5em 0}"
      "td,th{border:1px solid #999;padding:2px 8px;text-align:right}"
      "th{background:#eee}td:first-child,th:first-child{text-align:left}"
      "td:nth-child(2){text-align:left}.gap{background:#fff3cd}"
      ".unsynced{color:#a00}</style>"
      "<h1>stitched traces</h1><p>" +
      std::to_string(traces_.added()) + " traced request(s) since start, " +
      std::to_string(traces.size()) +
      " retained (<a href=\"/tracez?format=json\">json</a>)</p>";
  for (const StitchedTrace& trace : traces) {
    body += "<h2>trace " + obs::FormatTraceId(trace.trace_id) + " (hop " +
            std::to_string(trace.hop) + ")</h2>";
    std::string gap_process;
    const uint64_t forward_start = FirstForwardStart(trace);
    const uint64_t replica_start = EarliestReplicaStart(trace, &gap_process);
    body +=
        "<table><tr><th>process</th><th>span</th><th>start µs</th>"
        "<th>dur µs</th><th>clock</th><th>detail</th></tr>";
    const uint64_t origin_ns =
        trace.spans.empty() ? 0 : trace.spans.front().start_ns;
    bool gap_marked = false;
    char cell[64];
    for (const StitchedSpan& span : trace.spans) {
      // The first replica-side row IS the far edge of the network gap:
      // mark it so the forward→enqueue hole reads as wire time, not as
      // mystery latency inside either process.
      const bool is_gap_edge = !gap_marked && span.process != "router" &&
                               forward_start != 0 && replica_start != 0 &&
                               span.start_ns == replica_start;
      if (is_gap_edge) {
        gap_marked = true;
        std::snprintf(cell, sizeof(cell), "%.1f",
                      (static_cast<double>(replica_start) -
                       static_cast<double>(forward_start)) /
                          1000.0);
        body += std::string("<tr class=\"gap\"><td>network</td>"
                            "<td>→ forward to ") +
                obs::HtmlEscape(span.process) + "</td><td></td><td>" + cell +
                "</td><td></td><td>wire + accept gap</td></tr>";
      }
      body += "<tr><td>" + obs::HtmlEscape(span.process) + "</td>";
      body += "<td>" + obs::HtmlEscape(span.name) + "</td>";
      std::snprintf(cell, sizeof(cell), "%.1f",
                    (static_cast<double>(span.start_ns) -
                     static_cast<double>(origin_ns)) /
                        1000.0);
      body += std::string("<td>") + cell + "</td>";
      std::snprintf(cell, sizeof(cell), "%.1f",
                    static_cast<double>(span.dur_ns) / 1000.0);
      body += std::string("<td>") + cell + "</td>";
      if (span.process == "router") {
        body += "<td></td>";
      } else if (span.offset_estimated) {
        std::snprintf(cell, sizeof(cell), "%+.1f µs",
                      static_cast<double>(span.clock_offset_ns) / 1000.0);
        body += std::string("<td>") + cell + "</td>";
      } else {
        body += "<td class=\"unsynced\">unsynced</td>";
      }
      body += "<td>" + obs::HtmlEscape(span.detail) + "</td></tr>";
    }
    body += "</table>";
  }
  if (traces.empty()) {
    body += "<p>no stitched traces yet (sampling: every " +
            std::to_string(config_.trace_sample_every) +
            " request(s); 0 = off)</p>";
  }
  out.body = std::move(body);
  return out;
}

std::string Router::VarzJson() const {
  const RouterDecisions d = decisions();
  std::string out = "{\"routable\": " + std::to_string(table_.NumRoutable());
  out += ", \"decisions\": {";
  out += "\"requests\": " + std::to_string(d.requests);
  out += ", \"bad_requests\": " + std::to_string(d.bad_requests);
  out += ", \"forwarded\": " + std::to_string(d.forwarded);
  out += ", \"spilled\": " + std::to_string(d.spilled);
  out += ", \"drain_rerouted\": " + std::to_string(d.drain_rerouted);
  out += ", \"down_rerouted\": " + std::to_string(d.down_rerouted);
  out += ", \"retried\": " + std::to_string(d.retried);
  out += ", \"transport_errors\": " + std::to_string(d.transport_errors);
  out += ", \"rejected\": " + std::to_string(d.rejected);
  out += ", \"expired\": " + std::to_string(d.expired);
  out += ", \"drains\": " + std::to_string(d.drains);
  out += "}, \"replicas\": [";
  bool first = true;
  for (const ReplicaSnapshot& r : table_.SnapshotAll()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": " + json::Escape(r.name);
    out += ", \"address\": " +
           json::Escape(r.host + ":" + std::to_string(r.port));
    out += ", \"state\": " +
           json::Escape(std::string(ReplicaStateName(r.state)));
    out += ", \"in_flight\": " + std::to_string(r.in_flight);
    out += ", \"queue_depth\": " + std::to_string(r.queue_depth);
    out += std::string(", \"shedding\": ") + (r.shedding ? "true" : "false");
    out += ", \"model_version\": " + std::to_string(r.model_version);
    {
      char apr[32];
      std::snprintf(apr, sizeof(apr), "%.6g", r.allocs_per_request);
      out += std::string(", \"allocs_per_request\": ") + apr;
    }
    out += ", \"forwarded\": " + std::to_string(r.forwarded);
    out += ", \"transport_errors\": " + std::to_string(r.transport_errors);
    out += ", \"probes_ok\": " + std::to_string(r.probes_ok);
    out += ", \"probes_failed\": " + std::to_string(r.probes_failed);
    out += std::string(", \"clock_synced\": ") +
           (r.clock_synced ? "true" : "false");
    out += ", \"clock_offset_ns\": " + std::to_string(r.clock_offset_ns);
    out += ", \"clock_rtt_ns\": " + std::to_string(r.clock_rtt_ns);
    out += ", \"last_error\": " + json::Escape(r.last_error);
    out += "}";
  }
  out += "], \"tracing\": {";
  out += "\"sample_every\": " + std::to_string(config_.trace_sample_every);
  out += ", \"stitched\": " + std::to_string(traces_.added());
  out += "}, \"fleet\": {";
  out += "\"replicas_polled\": " + std::to_string(fleet_.replica_count());
  out += ", \"snapshot_updates\": " + std::to_string(fleet_.updates());
  out += "}}";
  return out;
}

std::string Router::StatuszHtml() const {
  std::string out =
      "<table><tr><th>replica</th><th>address</th><th>state</th>"
      "<th>in-flight</th><th>queue</th><th>shedding</th><th>model</th>"
      "<th>allocs/req</th>"
      "<th>forwarded</th>"
      "<th>transport errors</th><th>probes ok/failed</th>"
      "<th>last error</th></tr>";
  // Differing model versions across rows = rolling-swap skew in
  // progress (or a replica whose reload failed) — visible at a glance.
  for (const ReplicaSnapshot& r : table_.SnapshotAll()) {
    out += "<tr><td>" + r.name + "</td>";
    out += "<td>" + r.host + ":" + std::to_string(r.port) + "</td>";
    out += "<td>" + std::string(ReplicaStateName(r.state)) + "</td>";
    out += "<td>" + std::to_string(r.in_flight) + "</td>";
    out += "<td>" + std::to_string(r.queue_depth) + "</td>";
    out += std::string("<td>") + (r.shedding ? "yes" : "no") + "</td>";
    out += "<td>v" + std::to_string(r.model_version) + "</td>";
    {
      char apr[32];
      std::snprintf(apr, sizeof(apr), "%.4g", r.allocs_per_request);
      out += std::string("<td>") + apr + "</td>";
    }
    out += "<td>" + std::to_string(r.forwarded) + "</td>";
    out += "<td>" + std::to_string(r.transport_errors) + "</td>";
    out += "<td>" + std::to_string(r.probes_ok) + "/" +
           std::to_string(r.probes_failed) + "</td>";
    out += "<td>" + r.last_error + "</td></tr>";
  }
  out += "</table>";
  const RouterDecisions d = decisions();
  out += "<p>decisions: forwarded " + std::to_string(d.forwarded) +
         ", spilled " + std::to_string(d.spilled) + ", retried " +
         std::to_string(d.retried) + ", rerouted (drain " +
         std::to_string(d.drain_rerouted) + ", down " +
         std::to_string(d.down_rerouted) + "), rejected " +
         std::to_string(d.rejected) + ", drains " + std::to_string(d.drains) +
         "</p>";
  return out;
}

}  // namespace isrec::router
