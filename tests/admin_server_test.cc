// Tests of the live introspection plane (DESIGN.md "Admin server &
// request tracing"): the dependency-free HTTP server, the Prometheus
// text exposition (pinned against a hand-computed string), the rolling
// window aggregation, the admin endpoints, and the end-to-end acceptance
// contract — during sustained load with shedding and fault injection,
// /metrics counters sum-match the engine's final ServeStats and /tracez
// reconstructs a complete request timeline.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/isrec.h"
#include "data/synthetic.h"
#include "eval/recommender.h"
#include "gtest/gtest.h"
#include "obs/admin_server.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/rollup.h"
#include "obs/trace.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "serve/online.h"
#include "serve/stats.h"
#include "tests/test_json.h"
#include "utils/status.h"

namespace isrec {
namespace {

using isrec::testing::JsonParser;
using isrec::testing::JsonValue;

// RAII: leaves obs exactly as the test found it (disabled, clean).
struct ObsGuard {
  ObsGuard() { Restore(); }
  ~ObsGuard() {
    Restore();
    obs::ResetAllMetrics();
  }

  static void Restore() {
    obs::EnableMetrics(false);
    obs::EnableTracing(false);
    obs::EnableRequestTracing(false);
    obs::SetRequestSampleEvery(1);
    obs::ClearTrace();
    obs::ClearRequestTimelines();
  }
};

// Sends raw bytes to a server and returns everything it answers (for
// malformed-request and wrong-method coverage that HttpGet can't emit).
std::string RawExchange(int port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  (void)!::send(fd, bytes.data(), bytes.size(), 0);
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// Parses Prometheus text exposition sample lines ("name value", with
// any {labels} folded into the name) into a lookup map.
std::map<std::string, double> ParseMetricsText(const std::string& text) {
  std::map<std::string, double> values;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                nullptr);
  }
  return values;
}

// -- HttpServer ---------------------------------------------------------

TEST(HttpServerTest, ServesHandlerResponsesOnEphemeralPort) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, [](const obs::HttpRequest& r) {
    obs::HttpResponse response;
    response.body = r.method + " " + r.path + "\n";
    return response;
  }));
  ASSERT_GT(server.port(), 0);
  int status = 0;
  std::string body;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", server.port(), "/hello", &status,
                           &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "GET /hello\n");
  server.Stop();
  server.Stop();  // Idempotent.
}

TEST(HttpServerTest, DecodesQueryParameters) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, [](const obs::HttpRequest& r) {
    obs::HttpResponse response;
    response.body = r.QueryOr("format", "none") + "|" + r.QueryOr("q", "-");
    return response;
  }));
  int status = 0;
  std::string body;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", server.port(),
                           "/tracez?format=json&q=a%20b+c", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "json|a b c");
}

TEST(HttpServerTest, HandlerStatusAndExceptionsPropagate) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, [](const obs::HttpRequest& r) {
    if (r.path == "/boom") throw std::runtime_error("handler failure");
    obs::HttpResponse response;
    response.status = 404;
    response.body = "no such page\n";
    return response;
  }));
  int status = 0;
  std::string body;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", server.port(), "/missing", &status,
                           &body));
  EXPECT_EQ(status, 404);
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", server.port(), "/boom", &status,
                           &body));
  EXPECT_EQ(status, 500);
}

TEST(HttpServerTest, RejectsUnsupportedMethodsAndMalformedRequests) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  }));
  const std::string del = RawExchange(
      server.port(), "DELETE /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(del.find("405"), std::string::npos) << del;
  // POST and PUT are supported but REQUIRE a Content-Length body.
  const std::string post_without_length = RawExchange(
      server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post_without_length.find("400"), std::string::npos)
      << post_without_length;
  const std::string put_without_length = RawExchange(
      server.port(), "PUT /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(put_without_length.find("400"), std::string::npos)
      << put_without_length;
  const std::string garbage = RawExchange(server.port(), "not-http\r\n\r\n");
  EXPECT_NE(garbage.find("400"), std::string::npos) << garbage;
}

TEST(HttpServerTest, DeliversPostBodiesToHandlers) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, [](const obs::HttpRequest& r) {
    obs::HttpResponse response;
    response.body = r.method + "|" + r.path + "|" + r.body;
    return response;
  }));
  obs::HttpClient client;
  const obs::HttpClient::Result result = client.Post(
      "127.0.0.1", server.port(), "/recommend", "application/json",
      "{\"user\": 7}");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "POST|/recommend|{\"user\": 7}");
}

// -- HttpClient error paths (satellite) ----------------------------------

TEST(HttpClientTest, ConnectionRefusedReportsTransportError) {
  // Bind an ephemeral port, note it, close it: nothing listens there.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int dead_port = ntohs(addr.sin_port);
  ::close(fd);

  obs::HttpClient client({/*connect_timeout_ms=*/500, /*read_timeout_ms=*/500});
  const obs::HttpClient::Result result =
      client.Get("127.0.0.1", dead_port, "/healthz");
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(result.status, 0);
}

TEST(HttpClientTest, ReadTimeoutReportsTransportError) {
  // A listener that never accepts: the kernel completes the handshake
  // into the backlog, the request is sent, and the response never comes
  // — exactly a wedged replica. The client's read timeout must fire.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  obs::HttpClient client({/*connect_timeout_ms=*/500, /*read_timeout_ms=*/200});
  const auto start = std::chrono::steady_clock::now();
  const obs::HttpClient::Result result =
      client.Get("127.0.0.1", ntohs(addr.sin_port), "/healthz");
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  EXPECT_LT(elapsed_s, 5.0) << "timeout did not bound the stall";
  ::close(fd);
}

// -- HTTP keep-alive (satellite) -----------------------------------------

TEST(HttpServerTest, ParsesHeadersLowercasedIntoRequestMap) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, [](const obs::HttpRequest& r) {
    obs::HttpResponse response;
    // Names are lowercased, values trimmed, first occurrence wins.
    response.body = r.HeaderOr("x-isrec-trace", "<absent>") + "|" +
                    r.HeaderOr("x-isrec-trace-hop", "<absent>") + "|" +
                    r.HeaderOr("x-nope", "<absent>");
    return response;
  }));
  obs::HttpClient client;
  const obs::HttpClient::Result result =
      client.Get("127.0.0.1", server.port(), "/x", 0,
                 {{"X-Isrec-Trace", "  00c0ffee00c0ffee  "},
                  {"X-ISREC-TRACE-HOP", "1"},
                  {"X-Isrec-Trace-Hop", "9"}});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.body, "00c0ffee00c0ffee|1|<absent>");
}

TEST(HttpKeepAliveTest, ClientReusesOnePooledConnectionPerPeer) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, [](const obs::HttpRequest& r) {
    obs::HttpResponse response;
    response.body = "echo:" + r.body;
    return response;
  }));

  obs::HttpClient client({/*connect_timeout_ms=*/1000,
                          /*read_timeout_ms=*/2000, /*keep_alive=*/true});
  EXPECT_EQ(client.pooled_connections(), 0u);
  for (int i = 0; i < 10; ++i) {
    const obs::HttpClient::Result result =
        client.Post("127.0.0.1", server.port(), "/recommend",
                    "application/json", "r" + std::to_string(i));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.status, 200);
    EXPECT_EQ(result.body, "echo:r" + std::to_string(i));
    // After every exchange the (single) connection is parked for reuse.
    EXPECT_EQ(client.pooled_connections(), 1u) << "request " << i;
  }
}

TEST(HttpKeepAliveTest, StalePooledConnectionFallsBackToReconnect) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, [](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.body = "ok";
    return response;
  }));

  obs::HttpClient client({/*connect_timeout_ms=*/1000,
                          /*read_timeout_ms=*/2000, /*keep_alive=*/true});
  ASSERT_TRUE(client.Get("127.0.0.1", server.port(), "/x").ok);
  ASSERT_EQ(client.pooled_connections(), 1u);
  // The server closes an idle kept-alive connection after its short
  // idle window; the pooled fd is then stale and the next request must
  // transparently reconnect.
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  const obs::HttpClient::Result result =
      client.Get("127.0.0.1", server.port(), "/y");
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.body, "ok");
}

TEST(HttpKeepAliveTest, DefaultClientStillClosesPerRequest) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  }));
  obs::HttpClient client;  // keep_alive off: historical behavior.
  ASSERT_TRUE(client.Get("127.0.0.1", server.port(), "/x").ok);
  EXPECT_EQ(client.pooled_connections(), 0u);
}

// A kept-alive exchange costs a loopback round trip, not the peer's
// delayed-ACK timer: with the header and the body in two writes and
// Nagle on, each response here took ~44 ms (4.4 s for the loop).
TEST(HttpKeepAliveTest, SequentialKeepAlivePostsDoNotStall) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, [](const obs::HttpRequest& r) {
    obs::HttpResponse response;
    response.body = "echo:" + r.body;
    return response;
  }));
  obs::HttpClient client({/*connect_timeout_ms=*/1000,
                          /*read_timeout_ms=*/2000, /*keep_alive=*/true});
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) {
    const std::string id = std::to_string(i);
    const obs::HttpClient::Result result = client.Post(
        "127.0.0.1", server.port(), "/recommend", "application/json", id);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.body, "echo:" + id);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 1.0);
  EXPECT_EQ(client.pooled_connections(), 1u);
}

// Both ends of a connection run with TCP_NODELAY: the client's pooled
// socket and the server's accepted one, found among this process's fds
// by their addresses.
TEST(HttpKeepAliveTest, BothEndsSetTcpNoDelay) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, [](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.body = "ok";
    return response;
  }));
  obs::HttpClient client({/*connect_timeout_ms=*/1000,
                          /*read_timeout_ms=*/2000, /*keep_alive=*/true});
  ASSERT_TRUE(client.Get("127.0.0.1", server.port(), "/x").ok);
  ASSERT_EQ(client.pooled_connections(), 1u);

  auto port_of = [](const sockaddr_in& addr) { return ntohs(addr.sin_port); };
  int client_fds = 0, server_fds = 0;
  for (int fd = 0; fd < 4096; ++fd) {
    sockaddr_in local{}, peer{};
    socklen_t local_len = sizeof(local), peer_len = sizeof(peer);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &local_len) !=
            0 ||
        local.sin_family != AF_INET ||
        ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) !=
            0) {
      continue;  // Not a connected IPv4 socket (the listener has no peer).
    }
    const bool server_end = port_of(local) == server.port();
    const bool client_end = port_of(peer) == server.port();
    if (!server_end && !client_end) continue;
    int nodelay = 0;
    socklen_t len = sizeof(nodelay);
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
    EXPECT_NE(nodelay, 0) << (server_end ? "server" : "client") << " fd "
                          << fd;
    (server_end ? server_fds : client_fds) += 1;
  }
  EXPECT_EQ(client_fds, 1);
  EXPECT_EQ(server_fds, 1);
}

// A pooled connection older than keepalive_max_idle_ms is closed up
// front (the server's own idle reaper is about to kill it anyway),
// counted in http.keepalive_stale_avoided — a proactive reconnect
// instead of a doomed send + retry.
TEST(HttpKeepAliveTest, IdleAgedPooledConnectionReconnectsProactively) {
  ObsGuard guard;
  obs::EnableMetrics(true);
  obs::HttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, [](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.body = "ok";
    return response;
  }));
  obs::HttpClient client({/*connect_timeout_ms=*/1000,
                          /*read_timeout_ms=*/2000, /*keep_alive=*/true,
                          /*keepalive_max_idle_ms=*/50});
  obs::Counter& avoided = obs::GetCounter("http.keepalive_stale_avoided");
  const uint64_t avoided_before = avoided.Value();
  ASSERT_TRUE(client.Get("127.0.0.1", server.port(), "/x").ok);
  ASSERT_EQ(client.pooled_connections(), 1u);

  // Within the idle window the fd is reused: no avoidance counted.
  ASSERT_TRUE(client.Get("127.0.0.1", server.port(), "/y").ok);
  EXPECT_EQ(avoided.Value(), avoided_before);

  // Past the window the parked fd is discarded, counted, and the
  // request transparently runs on a fresh connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const obs::HttpClient::Result result =
      client.Get("127.0.0.1", server.port(), "/z");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.body, "ok");
  EXPECT_EQ(avoided.Value(), avoided_before + 1);
  EXPECT_EQ(client.pooled_connections(), 1u);  // The fresh fd is parked.
}

// -- Prometheus text exposition (satellite: pinned by hand) -------------

TEST(PrometheusTextTest, ExpositionMatchesHandComputedString) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters = {{"serve.requests", 3}};
  snapshot.gauges = {{"serve.queue_depth", 2.5}};
  obs::HistogramSnapshot h;
  h.name = "serve.latency_ms";
  h.bounds = {1.0, 2.0, 3.0};
  // One observation <= 1, one in (2, 3], one above every bound; the
  // exposition must render CUMULATIVE bucket counts.
  h.counts = {1, 0, 1, 1};
  h.total_count = 3;
  h.sum = 13.0;
  snapshot.histograms = {h};

  const std::string expected =
      "# TYPE serve_requests counter\n"
      "serve_requests 3\n"
      "# TYPE serve_queue_depth gauge\n"
      "serve_queue_depth 2.5\n"
      "# TYPE serve_latency_ms histogram\n"
      "serve_latency_ms_bucket{le=\"1\"} 1\n"
      "serve_latency_ms_bucket{le=\"2\"} 1\n"
      "serve_latency_ms_bucket{le=\"3\"} 2\n"
      "serve_latency_ms_bucket{le=\"+Inf\"} 3\n"
      "serve_latency_ms_sum 13\n"
      "serve_latency_ms_count 3\n";
  EXPECT_EQ(obs::PrometheusText(snapshot), expected);
}

TEST(PrometheusTextTest, LiveRegistryRoundTripsThroughParser) {
  ObsGuard guard;
  obs::EnableMetrics(true);
  obs::GetCounter("promtest.count").Add(41);
  obs::GetGauge("promtest.gauge").Set(-1.25);
  obs::Histogram& hist =
      obs::GetHistogram("promtest.hist", obs::LinearBuckets(1.0, 1.0, 4));
  hist.Reset();
  hist.Observe(0.5);
  hist.Observe(3.5);
  const std::map<std::string, double> values =
      ParseMetricsText(obs::PrometheusText(obs::SnapshotMetrics()));
  EXPECT_DOUBLE_EQ(values.at("promtest_count"), 41.0);
  EXPECT_DOUBLE_EQ(values.at("promtest_gauge"), -1.25);
  EXPECT_DOUBLE_EQ(values.at("promtest_hist_count"), 2.0);
  EXPECT_DOUBLE_EQ(values.at("promtest_hist_sum"), 4.0);
  EXPECT_DOUBLE_EQ(values.at("promtest_hist_bucket{le=\"1\"}"), 1.0);
  EXPECT_DOUBLE_EQ(values.at("promtest_hist_bucket{le=\"4\"}"), 2.0);
  EXPECT_DOUBLE_EQ(values.at("promtest_hist_bucket{le=\"+Inf\"}"), 2.0);
}

// -- RollingAggregator --------------------------------------------------

obs::MetricsSnapshot CounterSample(uint64_t value) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters = {{"roll.requests", value}};
  return snapshot;
}

TEST(RollupTest, WindowRatesFromInjectedSamples) {
  obs::RollingAggregator rollup(/*capacity=*/16);
  EXPECT_FALSE(rollup.Window(1.0).valid);  // Zero samples.
  rollup.AddSample(0, CounterSample(0));
  EXPECT_FALSE(rollup.Window(1.0).valid);  // One sample spans nothing.
  rollup.AddSample(1000, CounterSample(100));
  rollup.AddSample(2000, CounterSample(160));

  const obs::WindowView last_second = rollup.Window(1.0);
  ASSERT_TRUE(last_second.valid);
  EXPECT_DOUBLE_EQ(last_second.seconds, 1.0);
  ASSERT_EQ(last_second.counter_rates.size(), 1u);
  EXPECT_EQ(last_second.counter_rates[0].first, "roll.requests");
  EXPECT_DOUBLE_EQ(last_second.counter_rates[0].second, 60.0);

  // A wider-than-available window clamps to the retained span.
  const obs::WindowView wide = rollup.Window(60.0);
  ASSERT_TRUE(wide.valid);
  EXPECT_DOUBLE_EQ(wide.seconds, 2.0);
  EXPECT_DOUBLE_EQ(wide.counter_rates[0].second, 80.0);
}

TEST(RollupTest, CounterResetClampsRateToZero) {
  obs::RollingAggregator rollup(/*capacity=*/4);
  rollup.AddSample(0, CounterSample(500));
  rollup.AddSample(1000, CounterSample(20));  // ResetAllMetrics mid-window.
  const obs::WindowView window = rollup.Window(1.0);
  ASSERT_TRUE(window.valid);
  EXPECT_DOUBLE_EQ(window.counter_rates[0].second, 0.0);
}

TEST(RollupTest, CapacityBoundsRetainedSamples) {
  obs::RollingAggregator rollup(/*capacity=*/3);
  for (int i = 0; i < 10; ++i) {
    rollup.AddSample(i * 1000, CounterSample(static_cast<uint64_t>(i) * 10));
  }
  EXPECT_EQ(rollup.sample_count(), 3u);
  // Oldest retained sample is t=7000: a 60s request only reaches there.
  const obs::WindowView window = rollup.Window(60.0);
  ASSERT_TRUE(window.valid);
  EXPECT_DOUBLE_EQ(window.seconds, 2.0);
}

TEST(RollupTest, HistogramWindowDeltasGivePercentiles) {
  obs::HistogramSnapshot before;
  before.name = "roll.hist";
  before.bounds = {10.0, 20.0, 30.0};
  before.counts = {5, 0, 0, 0};
  before.total_count = 5;
  before.sum = 25.0;
  obs::HistogramSnapshot after = before;
  after.counts = {5, 0, 100, 0};  // 100 new observations in (20, 30].
  after.total_count = 105;
  after.sum = 2525.0;

  obs::MetricsSnapshot sample_a;
  sample_a.histograms = {before};
  obs::MetricsSnapshot sample_b;
  sample_b.histograms = {after};
  obs::RollingAggregator rollup(4);
  rollup.AddSample(0, sample_a);
  rollup.AddSample(1000, sample_b);

  const obs::WindowView window = rollup.Window(1.0);
  ASSERT_TRUE(window.valid);
  ASSERT_EQ(window.histograms.size(), 1u);
  const obs::HistogramSnapshot& delta = window.histograms[0];
  EXPECT_EQ(delta.total_count, 100u);
  EXPECT_DOUBLE_EQ(delta.sum, 2500.0);
  // All windowed mass is in (20, 30]: the old 5 observations <= 10 from
  // before the window must not drag the percentile down.
  EXPECT_GT(delta.Percentile(0.5), 20.0);
  EXPECT_LE(delta.Percentile(0.99), 30.0);
}

// A mid-window Reset() (counts drop to zero) must clamp the histogram
// delta to empty rather than go negative, and percentiles computed
// after the reset reflect only post-reset observations.
TEST(RollupTest, HistogramPercentilesSurviveMidWindowReset) {
  obs::HistogramSnapshot shape;
  shape.name = "roll.reset_hist";
  shape.bounds = {10.0, 20.0, 30.0};

  obs::HistogramSnapshot before_reset = shape;
  before_reset.counts = {50, 0, 0, 0};  // All mass <= 10.
  before_reset.total_count = 50;
  before_reset.sum = 250.0;
  obs::HistogramSnapshot at_reset = shape;  // Reset(): all zeros.
  at_reset.counts = {0, 0, 0, 0};
  obs::HistogramSnapshot after_reset = shape;
  after_reset.counts = {0, 0, 40, 0};  // Fresh mass in (20, 30].
  after_reset.total_count = 40;
  after_reset.sum = 1000.0;

  obs::RollingAggregator rollup(8);
  obs::MetricsSnapshot sample;
  sample.histograms = {before_reset};
  rollup.AddSample(0, sample);
  sample.histograms = {at_reset};
  rollup.AddSample(1000, sample);
  sample.histograms = {after_reset};
  rollup.AddSample(2000, sample);

  // The reset interval contributes nothing (clamped, not negative).
  const obs::WindowView reset_window = rollup.Window(2.0);
  ASSERT_TRUE(reset_window.valid);
  ASSERT_EQ(reset_window.histograms.size(), 1u);
  EXPECT_EQ(reset_window.histograms[0].total_count, 40u);
  // Percentiles see only the post-reset distribution: the 50 pre-reset
  // fast observations are gone with the reset, so p50 sits in (20, 30].
  EXPECT_GT(reset_window.histograms[0].Percentile(0.5), 20.0);
  EXPECT_LE(reset_window.histograms[0].Percentile(0.99), 30.0);

  // A window wholly after the reset behaves as if the reset never was.
  const obs::WindowView after_window = rollup.Window(1.0);
  ASSERT_TRUE(after_window.valid);
  EXPECT_EQ(after_window.histograms[0].total_count, 40u);
}

// -- AdminServer endpoints ----------------------------------------------

std::string Fetch(const obs::AdminServer& admin, const std::string& target,
                  int* status) {
  std::string body;
  EXPECT_TRUE(obs::HttpGet("127.0.0.1", admin.port(), target, status, &body))
      << target;
  return body;
}

TEST(AdminServerTest, EndpointsRespondWithExpectedContent) {
  ObsGuard guard;
  obs::EnableMetrics(true);
  obs::GetCounter("admintest.count").Add(9);
  obs::AdminServer admin;
  ASSERT_TRUE(admin.Start());
  ASSERT_GT(admin.port(), 0);

  int status = 0;
  EXPECT_EQ(Fetch(admin, "/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);

  const std::string metrics = Fetch(admin, "/metrics", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(metrics.find("# TYPE admintest_count counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("admintest_count 9"), std::string::npos);

  const std::string index = Fetch(admin, "/", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(index.find("/statusz"), std::string::npos);

  const std::string statusz = Fetch(admin, "/statusz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(statusz.find("isrec statusz"), std::string::npos);

  Fetch(admin, "/tracez", &status);
  EXPECT_EQ(status, 200);

  Fetch(admin, "/nonexistent", &status);
  EXPECT_EQ(status, 404);
  admin.Stop();
}

TEST(AdminServerTest, VarzSplicesSectionsAndRegistrySnapshot) {
  ObsGuard guard;
  obs::EnableMetrics(true);
  obs::GetCounter("varztest.count").Add(4);
  obs::AdminServer admin;
  admin.SetBuildInfo("test build");
  admin.AddVarzSection("custom", [] { return "{\"answer\": 42}"; });
  ASSERT_TRUE(admin.Start());

  int status = 0;
  const std::string body = Fetch(admin, "/varz", &status);
  EXPECT_EQ(status, 200);
  JsonValue root;
  ASSERT_TRUE(JsonParser(body).Parse(&root)) << body;
  ASSERT_EQ(root.kind, JsonValue::kObject);
  EXPECT_EQ(root.object.at("build_info").str, "test build");
  EXPECT_GE(root.object.at("uptime_s").number, 0.0);
  EXPECT_DOUBLE_EQ(
      root.object.at("custom").object.at("answer").number, 42.0);
  EXPECT_DOUBLE_EQ(root.object.at("metrics")
                       .object.at("counters")
                       .object.at("varztest.count")
                       .number,
                   4.0);
  admin.Stop();
}

// /varz always carries the trace clock (the prober's clock-sync probe
// reads it), whether or not tracing is enabled.
TEST(AdminServerTest, VarzCarriesTraceClock) {
  ObsGuard guard;
  obs::AdminServer admin;
  ASSERT_TRUE(admin.Start());
  int status = 0;
  const std::string body = Fetch(admin, "/varz", &status);
  EXPECT_EQ(status, 200);
  JsonValue root;
  ASSERT_TRUE(JsonParser(body).Parse(&root)) << body;
  ASSERT_TRUE(root.object.count("trace_clock_ns"));
  const double first = root.object.at("trace_clock_ns").number;
  EXPECT_GT(first, 0.0);
  // Monotone: a later scrape reads a later clock.
  JsonValue later;
  ASSERT_TRUE(JsonParser(Fetch(admin, "/varz", &status)).Parse(&later));
  EXPECT_GT(later.object.at("trace_clock_ns").number, first);
  admin.Stop();
}

// A custom handler registered on a built-in path takes precedence —
// how the router swaps the per-process /tracez for its stitched view.
TEST(AdminServerTest, CustomHandlerOverridesBuiltinPage) {
  ObsGuard guard;
  obs::AdminServer admin;
  admin.AddHandler("/tracez", [](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.body = "custom tracez";
    return response;
  });
  ASSERT_TRUE(admin.Start());
  int status = 0;
  EXPECT_EQ(Fetch(admin, "/tracez", &status), "custom tracez");
  EXPECT_EQ(status, 200);
  // Unreplaced built-ins still answer.
  Fetch(admin, "/statusz", &status);
  EXPECT_EQ(status, 200);
  admin.Stop();
}

TEST(AdminServerTest, HealthProviderControlsStatusCode) {
  ObsGuard guard;
  obs::AdminServer admin;
  std::atomic<bool> healthy{false};
  admin.SetHealthProvider([&healthy]() -> std::pair<bool, std::string> {
    return {healthy.load(), healthy.load() ? "serving" : "loading"};
  });
  ASSERT_TRUE(admin.Start());
  int status = 0;
  EXPECT_EQ(Fetch(admin, "/healthz", &status), "unhealthy: loading\n");
  EXPECT_EQ(status, 503);
  healthy.store(true);
  EXPECT_EQ(Fetch(admin, "/healthz", &status), "ok: serving\n");
  EXPECT_EQ(status, 200);
  admin.Stop();
}

TEST(AdminServerTest, TracezJsonListsIndexedTimelines) {
  ObsGuard guard;
  obs::EnableTracing(true);
  obs::EnableRequestTracing(true);
  obs::RecordRequestSpan("tracez.span_a", 100, 250, 11);
  obs::RecordRequestSpan("tracez.span_b", 300, 400, 11);
  obs::AdminServer admin;
  ASSERT_TRUE(admin.Start());
  int status = 0;
  const std::string body = Fetch(admin, "/tracez?format=json", &status);
  EXPECT_EQ(status, 200);
  JsonValue root;
  ASSERT_TRUE(JsonParser(body).Parse(&root)) << body;
  EXPECT_DOUBLE_EQ(root.object.at("dropped").number, 0.0);
  const JsonValue& timelines = root.object.at("timelines");
  ASSERT_EQ(timelines.array.size(), 1u);
  EXPECT_DOUBLE_EQ(timelines.array[0].object.at("request_id").number, 11.0);
  const JsonValue& spans = timelines.array[0].object.at("spans");
  ASSERT_EQ(spans.array.size(), 2u);
  EXPECT_EQ(spans.array[0].object.at("name").str, "tracez.span_a");
  EXPECT_DOUBLE_EQ(spans.array[0].object.at("dur_ns").number, 150.0);
  admin.Stop();
}

// -- End-to-end acceptance: engine + admin under load -------------------

// Deterministic scoring stand-in (same shape as serve_test's FakeModel):
// score(c) = c % 97, cheap and order-stable.
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

// The ISSUE acceptance test: under sustained load with admission-control
// shedding, fault injection, and deadlines — while a scraper hammers the
// endpoints — the final /metrics counters sum-match engine.Stats(), and
// /tracez reconstructs at least one complete request timeline
// (enqueue → queued → score → respond sharing one request id).
TEST(AdminIntegrationTest, MetricsSumMatchAndTimelineUnderLoad) {
  ObsGuard guard;
  obs::ResetAllMetrics();
  obs::EnableMetrics(true);
  obs::EnableTracing(true);
  obs::EnableRequestTracing(true);

  FakeModel model;
  serve::EngineConfig config;
  config.num_threads = 2;
  config.max_batch_size = 8;
  config.batch_window_us = 100;
  config.shed_high_watermark = 32;
  config.shed_low_watermark = 16;
  config.fault.score_delay_ms = 1.0;  // Slow model → queue buildup → shed.
  serve::ServingEngine engine(
      serve::ServableModel::Wrap(model, /*num_items=*/100), config);

  obs::AdminServerConfig admin_config;
  admin_config.sample_period_s = 0.05;
  obs::AdminServer admin(admin_config);
  serve::RegisterAdminSections(admin, engine);
  ASSERT_TRUE(admin.Start());

  // Scrapers run concurrently with the load: the introspection plane
  // must never wedge or crash the serving path.
  std::atomic<bool> stop_scraper{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    const char* targets[] = {"/metrics", "/varz", "/statusz",
                             "/tracez?format=json"};
    int i = 0;
    while (!stop_scraper.load()) {
      int status = 0;
      std::string body;
      if (obs::HttpGet("127.0.0.1", admin.port(), targets[i++ % 4], &status,
                       &body) &&
          status == 200) {
        scrapes.fetch_add(1);
      }
    }
  });

  // Sustained mixed load: tight deadlines and priority spread under a
  // deliberately slow model, so ok / shed / deadline paths all fire.
  std::vector<std::future<Outcome<serve::Recommendation>>> futures;
  for (int i = 0; i < 200; ++i) {
    serve::Request request;
    request.user = i % 50;
    request.history = {static_cast<Index>((7 * i) % 100),
                       static_cast<Index>((13 * i) % 100)};
    request.k = 5;
    request.options.priority = i % 3;
    if (i % 10 == 0) request.options.deadline_ms = 0.01;
    futures.push_back(engine.RecommendAsync(std::move(request)));
  }
  for (auto& future : futures) future.get();

  // A clean tail after the storm drains: the newest request ids, so
  // their timelines cannot have been evicted, and nothing sheds them.
  constexpr int kTail = 8;
  std::vector<std::future<Outcome<serve::Recommendation>>> tail;
  for (int i = 0; i < kTail; ++i) {
    tail.push_back(engine.RecommendAsync({static_cast<Index>(i),
                                          {1, 2, 3}, 5, {}, {}}));
  }
  uint64_t tail_ok = 0;
  for (auto& future : tail) {
    if (future.get().ok()) ++tail_ok;
  }
  EXPECT_EQ(tail_ok, static_cast<uint64_t>(kTail));

  const serve::ServeStats stats = engine.Stats();
  const uint64_t answered = stats.ok + stats.rejected +
                            stats.deadline_exceeded + stats.degraded +
                            stats.invalid_arguments + stats.model_errors;
  EXPECT_EQ(answered, 200u + kTail);  // Every request got one outcome.
  EXPECT_GT(stats.ok, 0u);
  // The storm was sized to overflow the watermark / blow the 10us
  // deadlines: at least one non-OK path must actually have fired, or
  // the sum-match below would be vacuous.
  EXPECT_GT(stats.rejected + stats.deadline_exceeded, 0u);

  // /metrics after the load: scraped counters equal the final stats.
  int status = 0;
  const std::map<std::string, double> metrics =
      ParseMetricsText(Fetch(admin, "/metrics", &status));
  EXPECT_EQ(status, 200);
  // Counters register lazily on first bump, so a path that never fired
  // is legitimately absent from the exposition — absent means 0.
  const auto metric = [&metrics](const std::string& name) {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second;
  };
  EXPECT_EQ(metric("serve_ok"), static_cast<double>(stats.ok));
  EXPECT_EQ(metric("serve_rejected"), static_cast<double>(stats.rejected));
  EXPECT_EQ(metric("serve_deadline_exceeded"),
            static_cast<double>(stats.deadline_exceeded));
  EXPECT_EQ(metric("serve_degraded"), static_cast<double>(stats.degraded));
  EXPECT_EQ(metric("serve_invalid_arguments"),
            static_cast<double>(stats.invalid_arguments));
  EXPECT_EQ(metric("serve_model_errors"),
            static_cast<double>(stats.model_errors));
  EXPECT_EQ(metric("serve_requests"),
            static_cast<double>(stats.num_requests));
  EXPECT_EQ(metric("serve_batches"),
            static_cast<double>(stats.num_batches));

  // /tracez reconstructs a complete timeline for a scored request. The
  // respond span is recorded just after the future resolves, so poll
  // briefly instead of racing the worker.
  bool reconstructed = false;
  for (int attempt = 0; attempt < 100 && !reconstructed; ++attempt) {
    const std::string body = Fetch(admin, "/tracez?format=json", &status);
    JsonValue root;
    ASSERT_TRUE(JsonParser(body).Parse(&root)) << body;
    for (const JsonValue& timeline : root.object.at("timelines").array) {
      bool enqueue = false, queued = false, score = false, respond = false;
      for (const JsonValue& span : timeline.object.at("spans").array) {
        const std::string& name = span.object.at("name").str;
        enqueue |= name == "serve.req.enqueue";
        queued |= name == "serve.req.queued";
        score |= name == "serve.req.score";
        respond |= name == "serve.req.respond";
      }
      if (enqueue && queued && score && respond) {
        reconstructed = true;
        break;
      }
    }
    if (!reconstructed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(reconstructed)
      << "no complete enqueue→queued→score→respond timeline in /tracez";

  // Parity (satellite): the /varz "serve_stats" section, the canonical
  // ServeStatsJson, and the outcomes: CLI line all render the same
  // counts. Time-derived fields (elapsed_s, qps) keep ticking between
  // the two snapshots and are excluded.
  const std::string varz = Fetch(admin, "/varz", &status);
  JsonValue varz_root;
  ASSERT_TRUE(JsonParser(varz).Parse(&varz_root)) << varz;
  const JsonValue& varz_stats = varz_root.object.at("serve_stats");
  JsonValue local_stats;
  ASSERT_TRUE(JsonParser(serve::ServeStatsJson(stats)).Parse(&local_stats));
  for (const char* key :
       {"requests", "batches", "mean_batch_size", "cache_hits",
        "cache_misses", "p50_ms", "p95_ms", "p99_ms", "ok", "rejected",
        "deadline_exceeded", "degraded", "invalid_arguments",
        "model_errors"}) {
    ASSERT_TRUE(varz_stats.object.count(key)) << key;
    EXPECT_DOUBLE_EQ(varz_stats.object.at(key).number,
                     local_stats.object.at(key).number)
        << key;
  }
  const std::string expected_line =
      "outcomes: OK=" + std::to_string(stats.ok) +
      " DEADLINE_EXCEEDED=" + std::to_string(stats.deadline_exceeded) +
      " OVERLOADED=" + std::to_string(stats.rejected) +
      " INVALID_ARGUMENT=" + std::to_string(stats.invalid_arguments) +
      " MODEL_ERROR=" + std::to_string(stats.model_errors) +
      " DEGRADED=" + std::to_string(stats.degraded);
  EXPECT_EQ(serve::OutcomesLine(stats), expected_line);

  stop_scraper.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);

  admin.Stop();  // Before the engine the sections capture dies.
}

// Pins the /varz serve_stats load-signal contract the isrec_router
// prober scrapes (satellite): `queue_depth` (number) and `shedding`
// (bool) must exist under exactly these names as cheap top-level
// fields. Renaming them silently breaks DEGRADED detection fleet-wide.
TEST(AdminIntegrationTest, VarzServeStatsExposesRouterLoadSignals) {
  ObsGuard guard;
  obs::EnableMetrics(true);
  FakeModel model;
  serve::EngineConfig config;
  config.num_threads = 1;
  config.max_batch_size = 4;
  config.batch_window_us = 0;
  serve::ServingEngine engine(
      serve::ServableModel::Wrap(model, /*num_items=*/50), config);
  obs::AdminServer admin;
  serve::RegisterAdminSections(admin, engine);
  ASSERT_TRUE(admin.Start());

  int status = 0;
  const std::string body = Fetch(admin, "/varz", &status);
  EXPECT_EQ(status, 200);
  JsonValue root;
  ASSERT_TRUE(JsonParser(body).Parse(&root)) << body;
  ASSERT_TRUE(root.object.count("serve_stats")) << body;
  const JsonValue& stats = root.object.at("serve_stats");
  ASSERT_TRUE(stats.object.count("queue_depth"));
  EXPECT_EQ(stats.object.at("queue_depth").kind, JsonValue::kNumber);
  ASSERT_TRUE(stats.object.count("shedding"));
  EXPECT_EQ(stats.object.at("shedding").kind, JsonValue::kBool);
  // Idle engine: empty queue, not shedding.
  EXPECT_DOUBLE_EQ(stats.object.at("queue_depth").number, 0.0);
  EXPECT_FALSE(stats.object.at("shedding").boolean);
  // Model lifecycle signals the prober also scrapes: the live version
  // (here 1, nothing published since construction) and the swap count.
  ASSERT_TRUE(stats.object.count("model_version"));
  EXPECT_DOUBLE_EQ(stats.object.at("model_version").number, 1.0);
  ASSERT_TRUE(stats.object.count("model_swaps"));
  EXPECT_DOUBLE_EQ(stats.object.at("model_swaps").number, 0.0);
  admin.Stop();
}

// POST /admin/reload: the operational hot-swap entry point. A missing
// parameter is a 400, a bad artifact is a 422 that leaves the live model
// untouched, and a valid checkpoint swaps in atomically with the new
// version echoed back.
TEST(AdminIntegrationTest, ReloadEndpointValidatesAndSwaps) {
  ObsGuard guard;
  data::Dataset dataset;
  for (const auto& preset : data::AllPresets()) {
    if (preset.name == "beauty_sim") {
      dataset = data::GenerateSyntheticDataset(preset);
    }
  }
  core::IsrecConfig model_config;
  model_config.seq.embed_dim = 16;
  model_config.seq.num_layers = 1;
  model_config.seq.ffn_dim = 32;
  model_config.seq.seq_len = 8;
  model_config.intent_dim = 4;
  model_config.num_active = 6;
  core::IsrecModel model(model_config);
  model.Build(dataset);  // Untrained weights are fine: swap ≠ quality.
  const std::string v1_path = ::testing::TempDir() + "/admin_reload_v1.isrec";
  const std::string v2_path = ::testing::TempDir() + "/admin_reload_v2.isrec";
  serve::SaveCheckpoint(model, v1_path, /*epoch=*/3);
  serve::SaveCheckpoint(model, v2_path, /*epoch=*/4);

  Outcome<std::shared_ptr<serve::ServableModel>> loaded =
      serve::ServableModel::Load(v1_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  serve::EngineConfig engine_config;
  engine_config.num_threads = 1;
  engine_config.max_batch_size = 4;
  engine_config.batch_window_us = 0;
  serve::ServingEngine engine(loaded.value(), engine_config);
  obs::AdminServer admin;
  serve::RegisterReloadEndpoint(admin, engine);
  ASSERT_TRUE(admin.Start());

  int status = 0;
  std::string body = Fetch(admin, "/admin/reload", &status);
  EXPECT_EQ(status, 400);
  EXPECT_NE(body.find("checkpoint"), std::string::npos) << body;

  body = Fetch(admin, "/admin/reload?checkpoint=/no/such/file", &status);
  EXPECT_EQ(status, 422);
  EXPECT_NE(body.find("ERROR"), std::string::npos) << body;
  // The failed reload never touched the live model.
  EXPECT_EQ(engine.Stats().model_version, 1u);
  EXPECT_EQ(engine.Stats().model_epoch, 3u);
  EXPECT_EQ(engine.Stats().model_swaps, 0u);

  body = Fetch(admin, "/admin/reload?checkpoint=" + v2_path, &status);
  EXPECT_EQ(status, 200);
  JsonValue root;
  ASSERT_TRUE(JsonParser(body).Parse(&root)) << body;
  EXPECT_EQ(root.object.at("status").str, "OK");
  EXPECT_DOUBLE_EQ(root.object.at("model_version").number, 2.0);
  EXPECT_EQ(engine.Stats().model_version, 2u);
  EXPECT_EQ(engine.Stats().model_epoch, 4u);
  EXPECT_EQ(engine.Stats().model_swaps, 1u);

  // The swapped-in model serves: a request scored after the reload
  // carries the new version.
  const Outcome<serve::Recommendation> outcome =
      engine.Recommend({0, {1, 2}, 3, {}, {}});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().model_version, 2u);
  admin.Stop();
}

// The happy-path identity contract: with the admin plane never started
// and obs disabled, engine results are the same as ever (the admin
// server is an opt-in sidecar, not a tax).
TEST(AdminIntegrationTest, DisabledAdminPlaneLeavesServingUntouched) {
  ObsGuard guard;
  FakeModel model;
  serve::EngineConfig config;
  config.num_threads = 1;
  config.max_batch_size = 4;
  config.batch_window_us = 0;
  serve::ServingEngine engine(
      serve::ServableModel::Wrap(model, /*num_items=*/50), config);
  const Outcome<serve::Recommendation> outcome =
      engine.Recommend({0, {1, 2}, 3, {}, {}});
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().items.size(), 3u);
  // score(c) = c % 97 over 0..49: the best candidates are 49, 48, 47.
  EXPECT_EQ(outcome.value().items[0], 49);
  EXPECT_EQ(outcome.value().items[1], 48);
  EXPECT_EQ(outcome.value().items[2], 47);
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  EXPECT_TRUE(obs::SnapshotRequestTimelines().empty());
}

}  // namespace
}  // namespace isrec
