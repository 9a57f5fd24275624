// Tests of the continuous profiling plane (DESIGN.md "Profiling
// plane"): the sampling span-stack profiler (folded-stack export,
// windowed collection, live serving-pipeline labels), the
// hooked-allocator heap accounting (exact AllocationCounter scope sums
// under concurrency, innermost-scope charging), the bitwise
// non-interference contract — training and serving compute identical
// numbers with the whole plane on or off — and the admin endpoints
// /profilez, /heapz, and GET/PUT /admin/loglevel.

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/batch.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "models/sasrec.h"
#include "obs/admin_server.h"
#include "obs/heap_profiler.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "tests/test_json.h"
#include "utils/logging.h"

namespace isrec {
namespace {

using isrec::testing::JsonParser;
using isrec::testing::JsonValue;

// RAII: leaves the profiling plane (and the rest of obs) exactly as the
// test found it — sampler stopped, aggregates cleared, heap accounting
// off and zeroed.
struct ProfGuard {
  ProfGuard() { Restore(); }
  ~ProfGuard() {
    Restore();
    obs::ResetAllMetrics();
  }

  static void Restore() {
    obs::StopProfiler();
    obs::ClearProfile();
    obs::heap::EnableHeapProfiling(false);
    obs::heap::ResetHeapProfile();
    obs::EnableMetrics(false);
    obs::EnableTracing(false);
    obs::EnableRequestTracing(false);
    obs::ClearTrace();
    obs::ClearRequestTimelines();
  }
};

// A thread that keeps a nested span pair open nearly all the time, so a
// sampling window reliably lands in it.
class SpanHolder {
 public:
  SpanHolder() {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        ISREC_TRACE_SPAN("prof_test.outer");
        ISREC_TRACE_SPAN("prof_test.inner");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ~SpanHolder() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

data::Dataset SmallDataset() {
  data::SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 50;
  config.num_concepts = 12;
  config.min_sequence_length = 5;
  config.max_sequence_length = 10;
  config.seed = 21;
  return data::GenerateSyntheticDataset(config);
}

models::SeqModelConfig SmallModelConfig() {
  models::SeqModelConfig config;
  config.embed_dim = 16;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.seq_len = 8;
  config.batch_size = 16;
  config.epochs = 0;
  config.seed = 5;
  return config;
}

// -- Sampling profiler ---------------------------------------------------

TEST(ProfilerTest, WindowCapturesOpenSpanStacksAsFoldedText) {
  ProfGuard guard;
  ASSERT_FALSE(obs::ProfilerRunning());
  SpanHolder holder;

  const obs::ProfileSnapshot snapshot =
      obs::CollectProfileWindow(/*seconds=*/0.4, /*hz=*/997);
  // The window auto-started the sampler and stopped it again.
  EXPECT_FALSE(obs::ProfilerRunning());
  EXPECT_GT(snapshot.samples, 0u);
  EXPECT_EQ(snapshot.hz, 997);

  const std::string folded = obs::FoldedStacksText(snapshot);
  // Collapsed-stack grammar: outermost-first, ';'-joined, " count\n".
  EXPECT_NE(folded.find("prof_test.outer;prof_test.inner "), std::string::npos)
      << folded;

  JsonValue json;
  ASSERT_TRUE(JsonParser(obs::ProfileSummaryJson(snapshot)).Parse(&json));
  ASSERT_NE(json.Find("samples"), nullptr);
  EXPECT_EQ(json.Find("samples")->number,
            static_cast<double>(snapshot.samples));
  EXPECT_EQ(json.Find("hz")->number, 997.0);
  ASSERT_NE(json.Find("stacks"), nullptr);
  EXPECT_FALSE(json.Find("stacks")->array.empty());
}

TEST(ProfilerTest, ExplicitStartKeepsSamplerAcrossWindows) {
  ProfGuard guard;
  obs::StartProfiler(/*hz=*/997);
  ASSERT_TRUE(obs::ProfilerRunning());
  {
    SpanHolder holder;
    (void)obs::CollectProfileWindow(/*seconds=*/0.1, /*hz=*/997);
  }
  // The sampler was started explicitly, so the window must not stop it.
  EXPECT_TRUE(obs::ProfilerRunning());
  obs::StopProfiler();
  EXPECT_FALSE(obs::ProfilerRunning());
}

// Acceptance: the folded stacks of a window over a live engine carry
// the serving pipeline's span labels — the same spans /tracez shows.
TEST(ProfilerTest, ServingPipelineSpansAppearInFoldedStacks) {
  ProfGuard guard;
  const data::Dataset dataset = SmallDataset();
  const data::LeaveOneOutSplit split(dataset);
  models::SasRec model(SmallModelConfig());
  model.Fit(dataset, split);
  model.SetTraining(false);

  serve::EngineConfig config;
  config.num_threads = 2;
  config.max_batch_size = 4;
  serve::ServingEngine engine(
      serve::ServableModel::Wrap(model, dataset.num_items), config);

  obs::StartProfiler(/*hz=*/997);
  std::atomic<bool> stop{false};
  // Two drivers keep the workers scoring for the whole window.
  std::vector<std::thread> drivers;
  for (int t = 0; t < 2; ++t) {
    drivers.emplace_back([&engine, &stop, t] {
      Index user = t;
      while (!stop.load(std::memory_order_relaxed)) {
        serve::Request request;
        request.user = user % 60;
        request.history = {1, 2, 3, static_cast<Index>(user % 50)};
        request.k = 5;
        (void)engine.Recommend(request);
        ++user;
      }
    });
  }
  // Sample until a scoring span shows up. One 400 ms window is plenty
  // alone, but under a parallel ctest run the sampler can get starved,
  // so keep the traffic flowing and re-check up to a 10 s deadline.
  std::string folded;
  for (int attempt = 0; attempt < 25; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    folded = obs::FoldedStacksText(obs::SnapshotProfile());
    if (folded.find("serve.score_batch") != std::string::npos) break;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& d : drivers) d.join();
  obs::StopProfiler();

  EXPECT_NE(folded.find("serve.score_batch"), std::string::npos) << folded;
}

// -- Bitwise non-interference --------------------------------------------

// The profiling plane observes; it must never perturb. Training losses
// and served recommendations are bitwise identical with the sampler,
// the heap hook, and tracing all on vs all off.
TEST(ProfilerDeterminismTest, TrainAndServeBitwiseIdenticalWithProfilingOnOrOff) {
  ProfGuard guard;
  const data::Dataset dataset = SmallDataset();
  const data::LeaveOneOutSplit split(dataset);

  auto run = [&](bool profiling_on) {
    if (profiling_on) {
      obs::StartProfiler(/*hz=*/997);
      obs::heap::EnableHeapProfiling(true);
      obs::EnableMetrics(true);
      obs::EnableTracing(true);
    }
    models::SasRec model(SmallModelConfig());
    model.Fit(dataset, split);  // 0 epochs: builds only.
    data::SequenceBatcher batcher(split, model.config().batch_size,
                                  model.config().seq_len);
    std::vector<float> losses;
    for (int epoch = 0; epoch < 2; ++epoch) {
      losses.push_back(model.TrainEpoch(batcher));
    }
    model.SetTraining(false);

    serve::EngineConfig config;
    config.num_threads = 2;
    config.max_batch_size = 4;
    std::vector<serve::Recommendation> recs;
    {
      serve::ServingEngine engine(
          serve::ServableModel::Wrap(model, dataset.num_items), config);
      for (Index user = 0; user < 8; ++user) {
        serve::Request request;
        request.user = user;
        request.history = split.TestHistory(user);
        request.k = 10;
        Outcome<serve::Recommendation> outcome = engine.Recommend(request);
        EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
        recs.push_back(std::move(outcome).value());
      }
    }
    obs::StopProfiler();
    obs::heap::EnableHeapProfiling(false);
    obs::EnableMetrics(false);
    obs::EnableTracing(false);
    return std::make_pair(losses, recs);
  };

  const auto [losses_off, recs_off] = run(false);
  const auto [losses_on, recs_on] = run(true);

  ASSERT_EQ(losses_off.size(), losses_on.size());
  for (size_t i = 0; i < losses_off.size(); ++i) {
    EXPECT_EQ(losses_off[i], losses_on[i]) << "epoch " << i;
  }
  ASSERT_EQ(recs_off.size(), recs_on.size());
  for (size_t i = 0; i < recs_off.size(); ++i) {
    EXPECT_EQ(recs_off[i].items, recs_on[i].items) << "request " << i;
    EXPECT_EQ(recs_off[i].scores, recs_on[i].scores) << "request " << i;
  }

  // The instrumented run actually recorded: proves the comparison is
  // on vs off, not off vs off.
  EXPECT_GT(obs::SnapshotProfile().samples, 0u);
  EXPECT_GT(obs::TraceEventCount(), 0u);
  if (obs::heap::HookCompiled()) {
    EXPECT_GT(obs::heap::SnapshotHeapTotals().allocs, 0u);
  }
}

// -- Heap accounting -----------------------------------------------------

TEST(HeapProfilerTest, DisabledScopeIsInactiveAndCountsNothing) {
  ProfGuard guard;
  ASSERT_FALSE(obs::heap::HeapProfilingEnabled());
  obs::heap::AllocationCounter scope;
  EXPECT_FALSE(scope.active());
  char* p = new char[128];
  p[0] = 1;
  delete[] p;
  EXPECT_EQ(scope.count(), 0u);
  EXPECT_EQ(scope.bytes(), 0u);
}

TEST(HeapProfilerTest, InnermostScopeChargingNests) {
  if (!obs::heap::HookCompiled()) {
    GTEST_SKIP() << "allocator hook compiled out (-DISREC_HEAP_PROFILE=OFF)";
  }
  ProfGuard guard;
  obs::heap::EnableHeapProfiling(true);

  uint64_t inner_count = 0, inner_bytes = 0;
  obs::heap::AllocationCounter outer;
  ASSERT_TRUE(outer.active());
  char* a = new char[32];
  {
    obs::heap::AllocationCounter inner;
    char* b = new char[48];
    b[0] = 1;
    delete[] b;
    inner_count = inner.count();
    inner_bytes = inner.bytes();
  }
  char* c = new char[16];
  a[0] = c[0] = 1;
  const uint64_t outer_count = outer.count();
  const uint64_t outer_bytes = outer.bytes();
  delete[] a;
  delete[] c;
  obs::heap::EnableHeapProfiling(false);

  // An allocation is charged to the innermost active scope only.
  EXPECT_EQ(inner_count, 1u);
  EXPECT_EQ(inner_bytes, 48u);
  EXPECT_EQ(outer_count, 2u);
  EXPECT_EQ(outer_bytes, 32u + 16u);
}

// Acceptance: under 4 concurrent threads, per-thread AllocationCounter
// scopes sum exactly — not approximately — to the hooked process
// totals of the window they cover.
TEST(HeapProfilerTest, ScopesSumExactlyToHookedTotalsAcrossThreads) {
  if (!obs::heap::HookCompiled()) {
    GTEST_SKIP() << "allocator hook compiled out (-DISREC_HEAP_PROFILE=OFF)";
  }
  ProfGuard guard;

  constexpr int kThreads = 4;
  constexpr int kAllocs = 1000;
  constexpr size_t kBytes = 64;

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::atomic<bool> release{false};
  uint64_t counts[kThreads] = {};
  uint64_t bytes[kThreads] = {};
  bool active[kThreads] = {};
  std::vector<std::vector<char*>> ptrs(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Everything that allocates (vector growth) happens before the
      // barrier, so the measured window sees only the new[] calls.
      ptrs[t].reserve(kAllocs);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      {
        obs::heap::AllocationCounter scope;
        active[t] = scope.active();
        for (int i = 0; i < kAllocs; ++i) {
          char* p = new char[kBytes];
          p[0] = static_cast<char>(i);
          ptrs[t].push_back(p);  // Reserved: never reallocates.
        }
        counts[t] = scope.count();
        bytes[t] = scope.bytes();
      }
      done.fetch_add(1, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
      }
      for (char* p : ptrs[t]) delete[] p;
    });
  }

  while (ready.load() < kThreads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::heap::EnableHeapProfiling(true);
  const obs::heap::HeapTotals before = obs::heap::SnapshotHeapTotals();
  go.store(true, std::memory_order_release);
  // Spin without allocating: the totals delta must see ONLY the
  // threads' scoped allocations.
  while (done.load(std::memory_order_acquire) < kThreads) {
  }
  const obs::heap::HeapTotals after = obs::heap::SnapshotHeapTotals();
  obs::heap::EnableHeapProfiling(false);
  release.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  uint64_t scope_count = 0, scope_bytes = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(active[t]) << "thread " << t;
    EXPECT_EQ(counts[t], static_cast<uint64_t>(kAllocs)) << "thread " << t;
    EXPECT_EQ(bytes[t], kAllocs * kBytes) << "thread " << t;
    scope_count += counts[t];
    scope_bytes += bytes[t];
  }
  EXPECT_EQ(after.allocs - before.allocs, scope_count);
  EXPECT_EQ(after.alloc_bytes - before.alloc_bytes, scope_bytes);
  EXPECT_EQ(scope_count, static_cast<uint64_t>(kThreads) * kAllocs);
  EXPECT_EQ(scope_bytes, static_cast<uint64_t>(kThreads) * kAllocs * kBytes);
}

TEST(HeapProfilerTest, SiteTableAttributesAllocationsToOpenSpans) {
  if (!obs::heap::HookCompiled()) {
    GTEST_SKIP() << "allocator hook compiled out (-DISREC_HEAP_PROFILE=OFF)";
  }
  ProfGuard guard;
  // Span frames are pushed only while the profile hook is on.
  obs::StartProfiler(/*hz=*/1);
  obs::heap::EnableHeapProfiling(true);
  {
    ISREC_TRACE_SPAN("prof_test.alloc_site");
    for (int i = 0; i < 10; ++i) {
      char* p = new char[256];
      p[0] = static_cast<char>(i);
      delete[] p;
    }
  }
  obs::heap::EnableHeapProfiling(false);
  obs::StopProfiler();

  bool found = false;
  for (const obs::heap::AllocSite& site : obs::heap::TopAllocationSites()) {
    if (std::strcmp(site.span, "prof_test.alloc_site") == 0) {
      found = true;
      EXPECT_GE(site.count, 10u);
      EXPECT_GE(site.bytes, 10u * 256u);
    }
  }
  EXPECT_TRUE(found);
}

// -- Admin endpoints -----------------------------------------------------

// Sends raw bytes to a server and returns everything it answers (PUT
// coverage; HttpClient only speaks GET/POST).
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

TEST(ProfilingEndpointsTest, ProfilezServesFoldedStacksAndJsonSummary) {
  ProfGuard guard;
  obs::AdminServer admin;
  ASSERT_TRUE(admin.Start());
  SpanHolder holder;

  int status = 0;
  std::string body;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", admin.port(),
                           "/profilez?seconds=0.3&hz=997", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("prof_test.outer;prof_test.inner "), std::string::npos)
      << body;

  ASSERT_TRUE(obs::HttpGet("127.0.0.1", admin.port(),
                           "/profilez?seconds=0.2&hz=997&format=json",
                           &status, &body));
  EXPECT_EQ(status, 200);
  JsonValue json;
  ASSERT_TRUE(JsonParser(body).Parse(&json)) << body;
  ASSERT_NE(json.Find("samples"), nullptr);
  EXPECT_GT(json.Find("samples")->number, 0.0);
  EXPECT_EQ(json.Find("hz")->number, 997.0);

  // The windows stopped the sampler again: nothing left running.
  EXPECT_FALSE(obs::ProfilerRunning());
  admin.Stop();
}

TEST(ProfilingEndpointsTest, HeapzReportsGatesTotalsAndSites) {
  ProfGuard guard;
  obs::AdminServer admin;
  ASSERT_TRUE(admin.Start());

  int status = 0;
  std::string body;
  ASSERT_TRUE(
      obs::HttpGet("127.0.0.1", admin.port(), "/heapz", &status, &body));
  EXPECT_EQ(status, 200);
  JsonValue json;
  ASSERT_TRUE(JsonParser(body).Parse(&json)) << body;
  ASSERT_NE(json.Find("hook_compiled"), nullptr);
  EXPECT_EQ(json.Find("hook_compiled")->boolean, obs::heap::HookCompiled());
  ASSERT_NE(json.Find("enabled"), nullptr);
  EXPECT_FALSE(json.Find("enabled")->boolean);
  ASSERT_NE(json.Find("sites"), nullptr);

  if (obs::heap::HookCompiled()) {
    obs::heap::EnableHeapProfiling(true);
    std::vector<std::unique_ptr<char[]>> keep;
    for (int i = 0; i < 50; ++i) keep.emplace_back(new char[64]);
    ASSERT_TRUE(
        obs::HttpGet("127.0.0.1", admin.port(), "/heapz", &status, &body));
    obs::heap::EnableHeapProfiling(false);
    JsonValue live;
    ASSERT_TRUE(JsonParser(body).Parse(&live)) << body;
    EXPECT_TRUE(live.Find("enabled")->boolean);
    EXPECT_GT(live.Find("allocs")->number, 0.0);
    EXPECT_GT(live.Find("alloc_bytes")->number, 0.0);
  }
  admin.Stop();
}

TEST(ProfilingEndpointsTest, LoglevelGetPutRoundTripAndRejection) {
  ProfGuard guard;
  const LogLevel saved = GetLogLevel();
  obs::AdminServer admin;
  ASSERT_TRUE(admin.Start());

  int status = 0;
  std::string body;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", admin.port(), "/admin/loglevel",
                           &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find(std::string("\"level\": \"") + LogLevelName(saved)),
            std::string::npos)
      << body;

  // PUT with the level as the body (whitespace tolerated).
  const std::string put_response = RawExchange(
      admin.port(),
      "PUT /admin/loglevel HTTP/1.1\r\nHost: t\r\nContent-Length: 7\r\n"
      "Connection: close\r\n\r\n debug\n");
  EXPECT_NE(put_response.find("200"), std::string::npos) << put_response;
  EXPECT_NE(put_response.find("\"level\": \"debug\""), std::string::npos)
      << put_response;
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);

  // POST works identically (curl -d convenience).
  obs::HttpClient client;
  const obs::HttpClient::Result posted = client.Post(
      "127.0.0.1", admin.port(), "/admin/loglevel", "text/plain", "error");
  ASSERT_TRUE(posted.ok) << posted.error;
  EXPECT_EQ(posted.status, 200);
  EXPECT_NE(posted.body.find("\"level\": \"error\""), std::string::npos);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);

  // Empty body falls back to the ?level= query parameter.
  const obs::HttpClient::Result via_query = client.Post(
      "127.0.0.1", admin.port(), "/admin/loglevel?level=warning",
      "text/plain", "");
  ASSERT_TRUE(via_query.ok) << via_query.error;
  EXPECT_EQ(via_query.status, 200);
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);

  // Unknown levels are a 400 and change nothing.
  const obs::HttpClient::Result bad = client.Post(
      "127.0.0.1", admin.port(), "/admin/loglevel", "text/plain", "loud");
  ASSERT_TRUE(bad.ok) << bad.error;
  EXPECT_EQ(bad.status, 400);
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);

  admin.Stop();
  SetLogLevel(saved);
}

// The 400 echoes the caller's unparsed body, so the echo must be a
// JSON string literal even when the body holds control bytes.
TEST(ProfilingEndpointsTest, LoglevelRejectionEscapesControlBytes) {
  ProfGuard guard;
  const LogLevel saved = GetLogLevel();
  obs::AdminServer admin;
  ASSERT_TRUE(admin.Start());

  obs::HttpClient client;
  const obs::HttpClient::Result bad =
      client.Post("127.0.0.1", admin.port(), "/admin/loglevel", "text/plain",
                  std::string("lo\x01ud"));
  ASSERT_TRUE(bad.ok) << bad.error;
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("\"lo\\u0001ud\""), std::string::npos) << bad.body;
  std::string object = bad.body;
  while (!object.empty() && object.back() == '\n') object.pop_back();
  for (char c : object) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << bad.body;
  }
  EXPECT_EQ(GetLogLevel(), saved);

  admin.Stop();
}

}  // namespace
}  // namespace isrec
