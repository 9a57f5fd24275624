// Tests of the sharded serving tier (DESIGN.md §11): the consistent
// hash ring's property suite (balance, minimal movement, determinism),
// the replica state machine, the recommend JSON codec, routing policy
// against scripted fake replicas (overload retry, degraded spillover,
// admin validation), and the end-to-end acceptance contract — a router
// over two real engines answers identically to a direct engine call,
// re-homes around a killed replica, and drains a replica under
// concurrent load with zero dropped requests.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "eval/recommender.h"
#include "gtest/gtest.h"
#include "obs/admin_server.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "router/fleet.h"
#include "router/forwarder.h"
#include "router/hash_ring.h"
#include "router/prober.h"
#include "router/replica_table.h"
#include "router/router.h"
#include "serve/engine.h"
#include "serve/recommend_http.h"
#include "utils/json.h"

namespace isrec {
namespace {

// -- HashRing properties (satellite) -------------------------------------

std::vector<std::string> ReplicaNames(int n) {
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) names.push_back("replica-" + std::to_string(i));
  return names;
}

// With 128 vnodes, every replica's share of a large key population must
// be within [0.5, 2.0]x fair — the bound the router's capacity planning
// assumes.
TEST(HashRingTest, BalancedAcrossFleetSizes) {
  constexpr int kKeys = 20000;
  for (int fleet : {2, 4, 8}) {
    router::HashRing ring(/*virtual_nodes=*/128);
    for (const std::string& name : ReplicaNames(fleet)) ring.AddReplica(name);
    std::map<std::string, int> owned;
    for (Index user = 0; user < kKeys; ++user) {
      owned[ring.Owner(router::HashRing::KeyForUser(user))] += 1;
    }
    ASSERT_EQ(owned.size(), static_cast<size_t>(fleet));
    const double fair = static_cast<double>(kKeys) / fleet;
    for (const auto& [name, count] : owned) {
      EXPECT_GE(count, fair * 0.5) << fleet << " replicas, " << name;
      EXPECT_LE(count, fair * 2.0) << fleet << " replicas, " << name;
    }
  }
}

// Adding a replica only moves keys TO the new replica; removing one
// only moves the removed replica's keys. Everything else stays put.
TEST(HashRingTest, MinimalMovementOnAddAndRemove) {
  constexpr int kKeys = 5000;
  router::HashRing ring(128);
  for (const std::string& name : ReplicaNames(4)) ring.AddReplica(name);
  std::vector<std::string> before(kKeys);
  for (Index user = 0; user < kKeys; ++user) {
    before[user] = ring.Owner(router::HashRing::KeyForUser(user));
  }

  ASSERT_TRUE(ring.AddReplica("replica-new"));
  int moved = 0;
  for (Index user = 0; user < kKeys; ++user) {
    const std::string after = ring.Owner(router::HashRing::KeyForUser(user));
    if (after != before[user]) {
      EXPECT_EQ(after, "replica-new") << "key moved between old replicas";
      ++moved;
    }
  }
  // The newcomer takes roughly 1/5 of the keyspace — and nothing else
  // reshuffles.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kKeys / 2);

  ASSERT_TRUE(ring.RemoveReplica("replica-new"));
  for (Index user = 0; user < kKeys; ++user) {
    EXPECT_EQ(ring.Owner(router::HashRing::KeyForUser(user)), before[user]);
  }
}

// Placement is a pure function of the member set: insertion order and
// process lifetime must not matter (a restarted router routes the same).
TEST(HashRingTest, DeterministicPlacementRegardlessOfInsertionOrder) {
  router::HashRing forward(64), reverse(64);
  const std::vector<std::string> names = ReplicaNames(5);
  for (const std::string& name : names) forward.AddReplica(name);
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    reverse.AddReplica(*it);
  }
  for (Index user = 0; user < 2000; ++user) {
    const uint64_t key = router::HashRing::KeyForUser(user);
    EXPECT_EQ(forward.Owner(key), reverse.Owner(key));
    EXPECT_EQ(forward.Preference(key), reverse.Preference(key));
  }
}

// Preference lists start at the owner and enumerate every replica
// exactly once — the re-homing walk can always find a survivor.
TEST(HashRingTest, PreferenceListsEveryReplicaOnceOwnerFirst) {
  router::HashRing ring(128);
  for (const std::string& name : ReplicaNames(4)) ring.AddReplica(name);
  for (Index user = 0; user < 500; ++user) {
    const uint64_t key = router::HashRing::KeyForUser(user);
    const std::vector<std::string> preference = ring.Preference(key);
    ASSERT_EQ(preference.size(), 4u);
    EXPECT_EQ(preference[0], ring.Owner(key));
    const std::set<std::string> distinct(preference.begin(), preference.end());
    EXPECT_EQ(distinct.size(), 4u);
  }
}

TEST(HashRingTest, EmptyAndDuplicateMembership) {
  router::HashRing ring(8);
  EXPECT_EQ(ring.Owner(123), "");
  EXPECT_TRUE(ring.Preference(123).empty());
  EXPECT_TRUE(ring.AddReplica("a"));
  EXPECT_FALSE(ring.AddReplica("a"));  // Duplicate.
  EXPECT_EQ(ring.num_replicas(), 1u);
  EXPECT_FALSE(ring.RemoveReplica("b"));
  EXPECT_EQ(ring.Owner(123), "a");
}

// -- ReplicaTable state machine -------------------------------------------

std::vector<router::ReplicaConfig> TwoReplicas() {
  return {{"r1", "127.0.0.1", 1001}, {"r2", "127.0.0.1", 1002}};
}

router::ReplicaState StateOf(const router::ReplicaTable& table,
                             const std::string& name) {
  router::ReplicaSnapshot snapshot;
  EXPECT_TRUE(table.Snapshot(name, &snapshot));
  return snapshot.state;
}

TEST(ReplicaTableTest, ProbeDrivenStateMachine) {
  router::ReplicaTable table(TwoReplicas());
  // Replicas start DOWN: the prober must prove them healthy first.
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kDown);
  EXPECT_EQ(table.NumRoutable(), 0u);

  table.ApplyProbe("r1", true, 0, false, 64, 2, "");
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kUp);

  // Shedding or a deep queue degrades; recovery restores UP.
  table.ApplyProbe("r1", true, 0, true, 64, 2, "");
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kDegraded);
  table.ApplyProbe("r1", true, 64, false, 64, 2, "");
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kDegraded);
  table.ApplyProbe("r1", true, 3, false, 64, 2, "");
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kUp);

  // One failed probe (below threshold 2) keeps it routable; the second
  // flips DOWN; a healthy probe revives.
  table.ApplyProbe("r1", false, 0, false, 64, 2, "refused");
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kUp);
  table.ApplyProbe("r1", false, 0, false, 64, 2, "refused");
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kDown);
  table.ApplyProbe("r1", true, 0, false, 64, 2, "");
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kUp);
}

TEST(ReplicaTableTest, DrainIsStickyUnderHealthyProbesAndUndrainReverses) {
  router::ReplicaTable table(TwoReplicas());
  table.ApplyProbe("r1", true, 0, false, 64, 2, "");
  ASSERT_TRUE(table.StartDrain("r1"));
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kDraining);

  // Healthy probes must NOT lift a drain.
  table.ApplyProbe("r1", true, 0, false, 64, 2, "");
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kDraining);

  // Undrain hands the replica back to the prober (DOWN, then UP).
  ASSERT_TRUE(table.Undrain("r1"));
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kDown);
  EXPECT_FALSE(table.Undrain("r1"));  // Only DRAINING undrains.
  table.ApplyProbe("r1", true, 0, false, 64, 2, "");
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kUp);

  // A drained replica that dies (restart workflow) goes DOWN via probe
  // failures and returns on the next healthy probe.
  ASSERT_TRUE(table.StartDrain("r1"));
  table.ApplyProbe("r1", false, 0, false, 64, 2, "refused");
  table.ApplyProbe("r1", false, 0, false, 64, 2, "refused");
  EXPECT_EQ(StateOf(table, "r1"), router::ReplicaState::kDown);

  EXPECT_FALSE(table.StartDrain("nope"));
  EXPECT_FALSE(table.Undrain("nope"));
}

TEST(ReplicaTableTest, AcquireSkipsUnroutableAndSpillsOffDegraded) {
  router::ReplicaTable table(TwoReplicas());
  const std::vector<std::string> preference = {"r1", "r2"};
  router::ReplicaConfig target;
  router::AcquireDecision decision;

  // Nothing routable yet.
  EXPECT_FALSE(table.AcquireTarget(preference, {}, &target, &decision));

  table.ApplyProbe("r1", true, 0, false, 64, 2, "");
  table.ApplyProbe("r2", true, 0, false, 64, 2, "");
  ASSERT_TRUE(table.AcquireTarget(preference, {}, &target, &decision));
  EXPECT_EQ(target.name, "r1");  // Owner first.
  EXPECT_FALSE(decision.spilled);
  table.ReleaseTarget("r1");

  // Degraded owner spills to the UP second choice.
  table.ApplyProbe("r1", true, 0, true, 64, 2, "");
  ASSERT_TRUE(table.AcquireTarget(preference, {}, &target, &decision));
  EXPECT_EQ(target.name, "r2");
  EXPECT_TRUE(decision.spilled);
  table.ReleaseTarget("r2");

  // Both degraded: no spill target, the owner keeps its keys.
  table.ApplyProbe("r2", true, 0, true, 64, 2, "");
  ASSERT_TRUE(table.AcquireTarget(preference, {}, &target, &decision));
  EXPECT_EQ(target.name, "r1");
  EXPECT_FALSE(decision.spilled);
  table.ReleaseTarget("r1");

  // Draining owner: skip is recorded, traffic re-homes.
  table.ApplyProbe("r1", true, 0, false, 64, 2, "");
  table.ApplyProbe("r2", true, 0, false, 64, 2, "");
  ASSERT_TRUE(table.StartDrain("r1"));
  ASSERT_TRUE(table.AcquireTarget(preference, {}, &target, &decision));
  EXPECT_EQ(target.name, "r2");
  EXPECT_TRUE(decision.skipped_draining);
  table.ReleaseTarget("r2");

  // Exclusion (a retry that already tried r2) leaves nothing.
  EXPECT_FALSE(table.AcquireTarget(preference, {"r2"}, &target, &decision));
}

TEST(ReplicaTableTest, TransportErrorOnReleaseMarksDown) {
  router::ReplicaTable table(TwoReplicas());
  table.ApplyProbe("r1", true, 0, false, 64, 2, "");
  router::ReplicaConfig target;
  router::AcquireDecision decision;
  ASSERT_TRUE(table.AcquireTarget({"r1"}, {}, &target, &decision));
  table.ReleaseTarget("r1", "connection reset");
  router::ReplicaSnapshot snapshot;
  ASSERT_TRUE(table.Snapshot("r1", &snapshot));
  EXPECT_EQ(snapshot.state, router::ReplicaState::kDown);
  EXPECT_EQ(snapshot.in_flight, 0u);
  EXPECT_EQ(snapshot.transport_errors, 1u);
  EXPECT_EQ(snapshot.last_error, "connection reset");
}

TEST(ReplicaTableTest, WaitDrainedBlocksUntilInFlightReachesZero) {
  router::ReplicaTable table(TwoReplicas());
  table.ApplyProbe("r1", true, 0, false, 64, 2, "");
  router::ReplicaConfig target;
  router::AcquireDecision decision;
  ASSERT_TRUE(table.AcquireTarget({"r1"}, {}, &target, &decision));
  ASSERT_TRUE(table.StartDrain("r1"));

  // One request still in flight: the drain cannot complete.
  EXPECT_FALSE(table.WaitDrained("r1", 50.0));

  std::thread releaser([&table] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    table.ReleaseTarget("r1");
  });
  EXPECT_TRUE(table.WaitDrained("r1", 5000.0));
  releaser.join();

  router::ReplicaSnapshot snapshot;
  ASSERT_TRUE(table.Snapshot("r1", &snapshot));
  EXPECT_EQ(snapshot.in_flight, 0u);
  EXPECT_EQ(snapshot.state, router::ReplicaState::kDraining);
}

// -- Recommend protocol codec ---------------------------------------------

TEST(RecommendCodecTest, RequestRoundTripsThroughJson) {
  serve::Request request;
  request.user = 42;
  request.history = {7, 8, 9};
  request.k = 5;
  request.candidates = {1, 2, 3};
  request.options.deadline_ms = 12.5;
  request.options.priority = 2;
  request.options.allow_degraded = true;
  request.id = 99;

  serve::Request decoded;
  std::string error;
  ASSERT_TRUE(serve::RecommendRequestFromJson(
      serve::RecommendRequestToJson(request), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.user, 42);
  EXPECT_EQ(decoded.history, (std::vector<Index>{7, 8, 9}));
  EXPECT_EQ(decoded.k, 5);
  EXPECT_EQ(decoded.candidates, (std::vector<Index>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(decoded.options.deadline_ms, 12.5);
  EXPECT_EQ(decoded.options.priority, 2);
  EXPECT_TRUE(decoded.options.allow_degraded);
  EXPECT_EQ(decoded.id, 99u);
}

TEST(RecommendCodecTest, ResponseRoundTripsWithExactScores) {
  serve::RecommendResponse response;
  response.status = Status::Degraded("fallback ranking");
  response.has_value = true;
  response.recommendation.items = {4, 2, 0};
  // Values chosen to be awkward in decimal: %.9g must round-trip them.
  response.recommendation.scores = {0.1f, 3.14159274f, 1.0f / 3.0f};
  response.recommendation.from_cache = true;

  serve::RecommendResponse decoded;
  std::string error;
  ASSERT_TRUE(serve::RecommendResponseFromJson(
      serve::RecommendResponseToJson(response), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.status.code(), StatusCode::kDegraded);
  EXPECT_EQ(decoded.status.message(), "fallback ranking");
  ASSERT_TRUE(decoded.has_value);
  EXPECT_EQ(decoded.recommendation.items, (std::vector<Index>{4, 2, 0}));
  ASSERT_EQ(decoded.recommendation.scores.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.recommendation.scores[i],
              response.recommendation.scores[i])
        << i;
  }
  EXPECT_TRUE(decoded.recommendation.from_cache);
}

TEST(RecommendCodecTest, ValuelessResponseOmitsItems) {
  serve::RecommendResponse response;
  response.status = Status::Overloaded("queue full");
  const std::string json = serve::RecommendResponseToJson(response);
  EXPECT_EQ(json.find("items"), std::string::npos);
  serve::RecommendResponse decoded;
  std::string error;
  ASSERT_TRUE(serve::RecommendResponseFromJson(json, &decoded, &error));
  EXPECT_FALSE(decoded.has_value);
  EXPECT_EQ(decoded.status.code(), StatusCode::kOverloaded);
}

TEST(RecommendCodecTest, RejectsMalformedRequests) {
  serve::Request request;
  std::string error;
  EXPECT_FALSE(serve::RecommendRequestFromJson("not json", &request, &error));
  EXPECT_FALSE(serve::RecommendRequestFromJson("{}", &request, &error));
  EXPECT_FALSE(serve::RecommendRequestFromJson(
      "{\"user\": \"seven\"}", &request, &error));
  EXPECT_FALSE(serve::RecommendRequestFromJson(
      "{\"user\": 1, \"history\": [1, \"x\"]}", &request, &error));
  EXPECT_FALSE(error.empty());
}

TEST(RecommendCodecTest, HttpStatusMirrorsProtocolStatus) {
  EXPECT_EQ(serve::HttpStatusForCode(StatusCode::kOk), 200);
  EXPECT_EQ(serve::HttpStatusForCode(StatusCode::kDegraded), 200);
  EXPECT_EQ(serve::HttpStatusForCode(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(serve::HttpStatusForCode(StatusCode::kModelError), 500);
  EXPECT_EQ(serve::HttpStatusForCode(StatusCode::kOverloaded), 503);
  EXPECT_EQ(serve::HttpStatusForCode(StatusCode::kDeadlineExceeded), 504);

  StatusCode code;
  ASSERT_TRUE(serve::StatusCodeFromName("OVERLOADED", &code));
  EXPECT_EQ(code, StatusCode::kOverloaded);
  EXPECT_FALSE(serve::StatusCodeFromName("NO_SUCH_STATUS", &code));
}

// -- Routing policy against scripted fake replicas ------------------------

// A protocol-speaking fake replica: /healthz and /varz as the prober
// expects, /recommend answering a canned (settable) protocol response.
class FakeReplica {
 public:
  bool Start() {
    return server_.Start(
        "127.0.0.1", 0,
        [this](const obs::HttpRequest& request) { return Handle(request); },
        /*num_workers=*/2);
  }
  void Stop() { server_.Stop(); }
  int port() const { return server_.port(); }

  void set_response(const serve::RecommendResponse& response) {
    std::lock_guard<std::mutex> lock(mutex_);
    response_json_ = serve::RecommendResponseToJson(response);
    response_status_ = serve::HttpStatusForCode(response.status.code());
  }
  void set_load(uint64_t queue_depth, bool shedding) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_depth_ = queue_depth;
    shedding_ = shedding;
  }
  int recommends() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return recommends_;
  }

 private:
  obs::HttpResponse Handle(const obs::HttpRequest& request) {
    std::lock_guard<std::mutex> lock(mutex_);
    obs::HttpResponse out;
    if (request.path == "/healthz") {
      out.body = "ok\n";
    } else if (request.path == "/varz") {
      out.content_type = "application/json";
      out.body = "{\"serve_stats\": {\"queue_depth\": " +
                 std::to_string(queue_depth_) + ", \"shedding\": " +
                 (shedding_ ? "true" : "false") + "}}";
    } else if (request.path == "/recommend") {
      ++recommends_;
      out.status = response_status_;
      out.content_type = "application/json";
      out.body = response_json_;
    } else {
      out.status = 404;
    }
    return out;
  }

  obs::HttpServer server_;
  mutable std::mutex mutex_;
  std::string response_json_ =
      "{\"status\": \"OK\", \"message\": \"\", \"items\": [1], "
      "\"scores\": [1], \"from_cache\": false}";
  int response_status_ = 200;
  uint64_t queue_depth_ = 0;
  bool shedding_ = false;
  int recommends_ = 0;
};

obs::HttpRequest PostRecommend(Index user) {
  obs::HttpRequest request;
  request.method = "POST";
  request.path = "/recommend";
  serve::Request protocol_request;
  protocol_request.user = user;
  protocol_request.history = {1, 2};
  protocol_request.k = 1;
  request.body = serve::RecommendRequestToJson(protocol_request);
  return request;
}

router::RouterConfig TwoFakeConfig(const FakeReplica& a,
                                   const FakeReplica& b) {
  router::RouterConfig config;
  config.replicas = {{"r1", "127.0.0.1", a.port()},
                     {"r2", "127.0.0.1", b.port()}};
  // Probing is driven manually (ProbeAllOnce) for determinism: park the
  // background sweep far away.
  config.probe.period_ms = 60000.0;
  config.admin.num_workers = 2;
  return config;
}

TEST(RouterPolicyTest, RetriesOverloadedWithinBoundThenRelays) {
  FakeReplica a, b;
  ASSERT_TRUE(a.Start());
  ASSERT_TRUE(b.Start());
  serve::RecommendResponse overloaded;
  overloaded.status = Status::Overloaded("queue full");
  a.set_response(overloaded);
  b.set_response(overloaded);

  router::RouterConfig config = TwoFakeConfig(a, b);
  config.max_overload_retries = 1;
  router::Router router(std::move(config));
  ASSERT_TRUE(router.Start());
  router.prober().ProbeAllOnce();
  ASSERT_EQ(router.table().NumRoutable(), 2u);

  const obs::HttpResponse response = router.HandleRecommend(PostRecommend(7));
  EXPECT_EQ(response.status, 503);  // Relayed after the retry budget.
  EXPECT_NE(response.body.find("OVERLOADED"), std::string::npos);
  const router::RouterDecisions d = router.decisions();
  EXPECT_EQ(d.requests, 1u);
  EXPECT_EQ(d.forwarded, 2u);  // Original + exactly one retry.
  EXPECT_EQ(d.retried, 1u);
  EXPECT_EQ(a.recommends() + b.recommends(), 2);

  router.Stop();
  a.Stop();
  b.Stop();
}

TEST(RouterPolicyTest, SpillsDegradedOwnersTrafficToUpReplica) {
  FakeReplica a, b;
  ASSERT_TRUE(a.Start());
  ASSERT_TRUE(b.Start());
  a.set_load(0, /*shedding=*/true);  // r1 reports shedding -> DEGRADED.

  router::Router router(TwoFakeConfig(a, b));
  ASSERT_TRUE(router.Start());
  router.prober().ProbeAllOnce();
  router::ReplicaSnapshot snapshot;
  ASSERT_TRUE(router.table().Snapshot("r1", &snapshot));
  ASSERT_EQ(snapshot.state, router::ReplicaState::kDegraded);

  // Hit enough users that some are owned by r1; ALL answers must come
  // from r2 while r1 is degraded and r2 is UP.
  for (Index user = 0; user < 40; ++user) {
    const obs::HttpResponse response =
        router.HandleRecommend(PostRecommend(user));
    EXPECT_EQ(response.status, 200);
  }
  EXPECT_EQ(a.recommends(), 0);
  EXPECT_EQ(b.recommends(), 40);
  const router::RouterDecisions d = router.decisions();
  EXPECT_EQ(d.forwarded, 40u);
  // With 128 vnodes, some of 40 users are deterministically r1-owned;
  // each of those was a spill.
  EXPECT_GT(d.spilled, 0u);
  EXPECT_LT(d.spilled, 40u);

  router.Stop();
  a.Stop();
  b.Stop();
}

TEST(RouterPolicyTest, NoRoutableReplicaAnswersOverloadedLocally) {
  FakeReplica a, b;
  ASSERT_TRUE(a.Start());
  ASSERT_TRUE(b.Start());
  // Deliberately NOT Start()ed: no probe ever runs (Start's first sweep
  // would mark the fakes UP), so everything stays DOWN and the handler
  // is driven directly.
  router::Router router(TwoFakeConfig(a, b));
  const obs::HttpResponse response = router.HandleRecommend(PostRecommend(1));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("no routable replica"), std::string::npos);
  EXPECT_EQ(router.decisions().rejected, 1u);

  // Malformed bodies are a router-local 400.
  obs::HttpRequest bad;
  bad.method = "POST";
  bad.path = "/recommend";
  bad.body = "{\"no_user\": true}";
  EXPECT_EQ(router.HandleRecommend(bad).status, 400);
  EXPECT_EQ(router.decisions().bad_requests, 1u);

  router.Stop();
  a.Stop();
  b.Stop();
}

TEST(RouterPolicyTest, AdminDrainEndpointsValidateInput) {
  FakeReplica a, b;
  ASSERT_TRUE(a.Start());
  ASSERT_TRUE(b.Start());
  router::Router router(TwoFakeConfig(a, b));
  ASSERT_TRUE(router.Start());
  router.prober().ProbeAllOnce();

  obs::HttpRequest request;
  request.method = "GET";
  request.path = "/admin/drain";
  EXPECT_EQ(router.HandleDrain(request).status, 400);  // Missing replica=.
  request.query["replica"] = "ghost";
  EXPECT_EQ(router.HandleDrain(request).status, 404);
  EXPECT_EQ(router.HandleUndrain(request).status, 404);

  request.query["replica"] = "r1";
  EXPECT_EQ(router.HandleUndrain(request).status, 409);  // Not draining.
  const obs::HttpResponse drain = router.HandleDrain(request);
  EXPECT_EQ(drain.status, 200);
  EXPECT_NE(drain.body.find("\"state\": \"DRAINING\""), std::string::npos);
  EXPECT_NE(drain.body.find("\"drained\": true"), std::string::npos);
  EXPECT_EQ(router.HandleUndrain(request).status, 200);
  EXPECT_EQ(StateOf(router.table(), "r1"), router::ReplicaState::kDown);

  router.Stop();
  a.Stop();
  b.Stop();
}

TEST(RouterPolicyTest, DecisionsEqualRegistrySeriesWithMetricsOff) {
  // Each decision is counted once, into the router's own value and the
  // router.<field> series together, so the two agree with metrics off.
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::EnableMetrics(false);
  obs::ResetAllMetrics();
  FakeReplica a, b;
  ASSERT_TRUE(a.Start());
  ASSERT_TRUE(b.Start());
  a.set_load(0, /*shedding=*/true);  // r1 DEGRADED: its users spill.
  router::Router router(TwoFakeConfig(a, b));
  ASSERT_TRUE(router.Start());
  router.prober().ProbeAllOnce();

  for (Index user = 0; user < 20; ++user) {
    EXPECT_EQ(router.HandleRecommend(PostRecommend(user)).status, 200);
  }
  obs::HttpRequest bad = PostRecommend(0);
  bad.body = "{\"no_user\": true}";
  EXPECT_EQ(router.HandleRecommend(bad).status, 400);
  obs::HttpRequest drain;
  drain.method = "GET";
  drain.path = "/admin/drain";
  drain.query["replica"] = "r1";
  EXPECT_EQ(router.HandleDrain(drain).status, 200);
  for (Index user = 0; user < 20; ++user) {
    EXPECT_EQ(router.HandleRecommend(PostRecommend(user)).status, 200);
  }

  const router::RouterDecisions d = router.decisions();
  EXPECT_EQ(d.requests, 40u);
  EXPECT_EQ(d.forwarded, 40u);
  EXPECT_GT(d.spilled, 0u);
  EXPECT_GT(d.drain_rerouted, 0u);
  EXPECT_EQ(d.bad_requests, 1u);
  EXPECT_EQ(d.drains, 1u);
  std::map<std::string, uint64_t> series;
  for (const auto& [name, value] : obs::SnapshotMetrics().counters) {
    series[name] = value;
  }
  const std::pair<const char*, uint64_t> fields[] = {
      {"router.requests", d.requests},
      {"router.bad_requests", d.bad_requests},
      {"router.forwarded", d.forwarded},
      {"router.spilled", d.spilled},
      {"router.drain_rerouted", d.drain_rerouted},
      {"router.down_rerouted", d.down_rerouted},
      {"router.retried", d.retried},
      {"router.transport_errors", d.transport_errors},
      {"router.rejected", d.rejected},
      {"router.expired", d.expired},
      {"router.drains", d.drains},
  };
  for (const auto& [name, value] : fields) {
    ASSERT_EQ(series.count(name), 1u) << name;
    EXPECT_EQ(series[name], value) << name;
  }

  router.Stop();
  a.Stop();
  b.Stop();
  obs::EnableMetrics(metrics_were_enabled);
  obs::ResetAllMetrics();
}

// -- End-to-end: router over two real serving engines ---------------------

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

// One in-process replica: engine + admin server with POST /recommend,
// exactly what `isrec_serve --serve` assembles.
struct TestReplica {
  FakeModel model;
  std::unique_ptr<serve::ServingEngine> engine;
  std::unique_ptr<obs::AdminServer> admin;

  bool Start() {
    serve::EngineConfig config;
    config.num_threads = 2;
    config.max_batch_size = 8;
    config.batch_window_us = 0;
    engine = std::make_unique<serve::ServingEngine>(
        serve::ServableModel::Wrap(model, /*num_items=*/100), config);
    obs::AdminServerConfig admin_config;
    admin_config.num_workers = 4;
    admin = std::make_unique<obs::AdminServer>(admin_config);
    serve::RegisterAdminSections(*admin, *engine);
    serve::RegisterRecommendEndpoint(*admin, *engine);
    return admin->Start();
  }
  void Stop() {
    if (admin != nullptr) admin->Stop();
  }
  ~TestReplica() { Stop(); }
};

struct RouterOverTwoEngines {
  TestReplica replicas[2];
  std::unique_ptr<router::Router> router;

  bool Start(int fail_threshold = 2, uint64_t trace_sample_every = 64) {
    if (!replicas[0].Start() || !replicas[1].Start()) return false;
    router::RouterConfig config;
    config.replicas = {{"r1", "127.0.0.1", replicas[0].admin->port()},
                       {"r2", "127.0.0.1", replicas[1].admin->port()}};
    config.probe.period_ms = 50.0;
    config.probe.fail_threshold = fail_threshold;
    config.admin.num_workers = 4;
    config.trace_sample_every = trace_sample_every;
    router = std::make_unique<router::Router>(std::move(config));
    if (!router->Start()) return false;
    // The first probe sweep runs immediately; wait for both replicas.
    for (int i = 0; i < 200 && router->table().NumRoutable() < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return router->table().NumRoutable() == 2;
  }
  void Stop() {
    if (router != nullptr) router->Stop();
    replicas[0].Stop();
    replicas[1].Stop();
  }
};

serve::RecommendResponse PostViaHttp(obs::HttpClient& client, int port,
                                     const serve::Request& request,
                                     int* http_status) {
  const obs::HttpClient::Result result =
      client.Post("127.0.0.1", port, "/recommend", "application/json",
                  serve::RecommendRequestToJson(request));
  EXPECT_TRUE(result.ok) << result.error;
  *http_status = result.status;
  serve::RecommendResponse response;
  std::string error;
  EXPECT_TRUE(serve::RecommendResponseFromJson(result.body, &response,
                                               &error))
      << error << ": " << result.body;
  return response;
}

// Acceptance: routed answers are byte-identical to a direct engine call.
TEST(RouterIntegrationTest, RoutedAnswersMatchDirectEngine) {
  RouterOverTwoEngines tier;
  ASSERT_TRUE(tier.Start());
  obs::HttpClient client;
  for (Index user = 0; user < 20; ++user) {
    serve::Request request;
    request.user = user;
    request.history = {user % 7, (user * 3) % 11};
    request.k = 5;
    int http_status = 0;
    const serve::RecommendResponse routed =
        PostViaHttp(client, tier.router->port(), request, &http_status);
    EXPECT_EQ(http_status, 200);
    ASSERT_TRUE(routed.has_value) << routed.status.message();

    const Outcome<serve::Recommendation> direct =
        tier.replicas[0].engine->Recommend(request);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(routed.recommendation.items, direct.value().items) << user;
    EXPECT_EQ(routed.recommendation.scores, direct.value().scores) << user;
  }
  // Consistent hashing spread the 20 users over both replicas.
  router::ReplicaSnapshot r1, r2;
  ASSERT_TRUE(tier.router->table().Snapshot("r1", &r1));
  ASSERT_TRUE(tier.router->table().Snapshot("r2", &r2));
  EXPECT_GT(r1.forwarded, 0u);
  EXPECT_GT(r2.forwarded, 0u);
  EXPECT_EQ(r1.forwarded + r2.forwarded, 20u);
  tier.Stop();
}

// Acceptance: killing a replica re-homes its keys with no failed answers.
TEST(RouterIntegrationTest, KilledReplicaGoesDownAndTrafficRehomes) {
  RouterOverTwoEngines tier;
  // An effectively-infinite probe failure threshold: only the forward
  // path's transport error may mark r2 DOWN, so the first request after
  // the kill deterministically hits the dead socket and re-homes.
  ASSERT_TRUE(tier.Start(/*fail_threshold=*/1000000));

  // Find a user whose ring owner is r2, then kill r2's server.
  Index victim_user = -1;
  for (Index user = 0; user < 1000; ++user) {
    if (tier.router->ring().Owner(router::HashRing::KeyForUser(user)) ==
        "r2") {
      victim_user = user;
      break;
    }
  }
  ASSERT_GE(victim_user, 0);
  tier.replicas[1].Stop();

  serve::Request request;
  request.user = victim_user;
  request.history = {1, 2, 3};
  request.k = 3;
  obs::HttpClient client;
  int http_status = 0;
  const serve::RecommendResponse response =
      PostViaHttp(client, tier.router->port(), request, &http_status);
  // First attempt hits the dead replica, errors at transport, re-homes
  // to r1, and still answers OK.
  EXPECT_EQ(http_status, 200);
  EXPECT_TRUE(response.has_value) << response.status.message();

  const router::RouterDecisions d = tier.router->decisions();
  EXPECT_GE(d.transport_errors, 1u);
  EXPECT_EQ(d.rejected, 0u);
  EXPECT_EQ(StateOf(tier.router->table(), "r2"), router::ReplicaState::kDown);

  // Subsequent requests skip the DOWN replica up front.
  const serve::RecommendResponse again =
      PostViaHttp(client, tier.router->port(), request, &http_status);
  EXPECT_EQ(http_status, 200);
  EXPECT_TRUE(again.has_value);
  EXPECT_GT(tier.router->decisions().down_rerouted, 0u);
  tier.Stop();
}

// THE acceptance test of the drain story: drain a replica while
// concurrent clients hammer the router — every single request must be
// answered OK (zero drops), the drained replica must quiesce to zero
// in-flight, and the books (client-side counts vs router decisions vs
// replica engine stats) must balance exactly.
TEST(RouterIntegrationTest, DrainUnderLoadDropsNothing) {
  RouterOverTwoEngines tier;
  ASSERT_TRUE(tier.Start());
  tier.replicas[0].engine->ResetStats();
  tier.replicas[1].engine->ResetStats();

  // Each client sends at least kPerThread requests and keeps sending
  // until the drain call has returned, so the load spans the drain.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20;
  enum DrainPhase { kBefore, kInFlight, kReturned };
  std::atomic<int> phase{kBefore};
  std::atomic<int> ok{0}, not_ok{0}, spanned_drain{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      obs::HttpClient client;
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < kPerThread || phase.load() != kReturned; ++i) {
        serve::Request request;
        request.user = t * 100 + i % 100;
        request.history = {1, 2};
        request.k = 3;
        const int sent_in = phase.load();
        int http_status = 0;
        const serve::RecommendResponse response =
            PostViaHttp(client, tier.router->port(), request, &http_status);
        // Sent before the drain call returned, answered after it began.
        if (sent_in != kReturned && phase.load() != kBefore) {
          spanned_drain.fetch_add(1);
        }
        if (http_status == 200 && response.status.code() == StatusCode::kOk) {
          ok.fetch_add(1);
        } else {
          not_ok.fetch_add(1);
        }
      }
    });
  }
  start.store(true);
  // Once the load is flowing, drain r1 through the router's own admin
  // plane and wait for quiescence — the zero-drop drain sequence of
  // DESIGN.md §11.
  for (int i = 0; i < 1000 && ok.load() + not_ok.load() < kThreads; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::HttpClient admin_client;
  phase.store(kInFlight);
  const obs::HttpClient::Result drain = admin_client.Get(
      "127.0.0.1", tier.router->port(),
      "/admin/drain?replica=r1&wait_ms=10000");
  phase.store(kReturned);
  ASSERT_TRUE(drain.ok) << drain.error;
  EXPECT_EQ(drain.status, 200);
  EXPECT_NE(drain.body.find("\"drained\": true"), std::string::npos)
      << drain.body;
  for (std::thread& client : clients) client.join();
  EXPECT_GT(spanned_drain.load(), 0) << "no request was in flight mid-drain";

  // Zero drops: every request answered OK, none rejected/expired/errored.
  const int sent = ok.load() + not_ok.load();
  EXPECT_GE(sent, kThreads * kPerThread);
  EXPECT_EQ(ok.load(), sent);
  EXPECT_EQ(not_ok.load(), 0);
  const router::RouterDecisions d = tier.router->decisions();
  EXPECT_EQ(d.requests, static_cast<uint64_t>(sent));
  EXPECT_EQ(d.rejected, 0u);
  EXPECT_EQ(d.expired, 0u);
  EXPECT_EQ(d.transport_errors, 0u);

  // The drained replica quiesced and stayed DRAINING.
  router::ReplicaSnapshot r1;
  ASSERT_TRUE(tier.router->table().Snapshot("r1", &r1));
  EXPECT_EQ(r1.state, router::ReplicaState::kDraining);
  EXPECT_EQ(r1.in_flight, 0u);

  // The books balance: what the router forwarded is exactly what the
  // two engines answered (no retries fired, so forwarded == requests),
  // verified against the replicas' own serve stats.
  const serve::ServeStats stats1 = tier.replicas[0].engine->Stats();
  const serve::ServeStats stats2 = tier.replicas[1].engine->Stats();
  EXPECT_EQ(stats1.ok + stats2.ok, static_cast<uint64_t>(sent));
  EXPECT_EQ(d.forwarded, d.requests);

  // Post-drain traffic to an r1-owned user re-homes (drain_rerouted).
  Index r1_user = -1;
  for (Index user = 0; user < 1000; ++user) {
    if (tier.router->ring().Owner(router::HashRing::KeyForUser(user)) ==
        "r1") {
      r1_user = user;
      break;
    }
  }
  ASSERT_GE(r1_user, 0);
  serve::Request request;
  request.user = r1_user;
  request.history = {1};
  request.k = 1;
  int http_status = 0;
  const serve::RecommendResponse rehomed =
      PostViaHttp(admin_client, tier.router->port(), request, &http_status);
  EXPECT_EQ(http_status, 200);
  EXPECT_TRUE(rehomed.has_value);
  EXPECT_GT(tier.router->decisions().drain_rerouted, 0u);
  const serve::ServeStats drained_stats = tier.replicas[0].engine->Stats();
  EXPECT_EQ(drained_stats.ok, stats1.ok) << "drained replica got traffic";

  tier.Stop();
}

// The router's own obs plane: /varz decisions mirror decisions(), the
// per-replica table is present, and /metrics exposes router_* counters.
TEST(RouterIntegrationTest, RouterAdminPlaneExposesDecisionsAndReplicas) {
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::EnableMetrics(true);
  RouterOverTwoEngines tier;
  ASSERT_TRUE(tier.Start());
  obs::HttpClient client;
  serve::Request request;
  request.user = 5;
  request.history = {1};
  request.k = 2;
  int http_status = 0;
  PostViaHttp(client, tier.router->port(), request, &http_status);
  EXPECT_EQ(http_status, 200);

  const obs::HttpClient::Result varz =
      client.Get("127.0.0.1", tier.router->port(), "/varz");
  ASSERT_TRUE(varz.ok);
  json::JsonValue root;
  ASSERT_TRUE(json::JsonParser(varz.body).Parse(&root)) << varz.body;
  const json::JsonValue* router_section = root.Find("router");
  ASSERT_NE(router_section, nullptr);
  const json::JsonValue* decisions = router_section->Find("decisions");
  ASSERT_NE(decisions, nullptr);
  ASSERT_NE(decisions->Find("requests"), nullptr);
  EXPECT_DOUBLE_EQ(decisions->Find("requests")->number,
                   static_cast<double>(tier.router->decisions().requests));
  const json::JsonValue* replicas = router_section->Find("replicas");
  ASSERT_NE(replicas, nullptr);
  ASSERT_EQ(replicas->array.size(), 2u);
  EXPECT_EQ(replicas->array[0].Find("state")->str, "UP");

  const obs::HttpClient::Result metrics =
      client.Get("127.0.0.1", tier.router->port(), "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.body.find("router_forwarded"), std::string::npos);

  const obs::HttpClient::Result healthz =
      client.Get("127.0.0.1", tier.router->port(), "/healthz");
  ASSERT_TRUE(healthz.ok);
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("2/2 replicas routable"), std::string::npos);

  tier.Stop();
  obs::EnableMetrics(metrics_were_enabled);
  obs::ResetAllMetrics();
}

// -- Fleet metrics aggregation (tentpole) ---------------------------------

// A hand-built replica snapshot: requests/ok counters, a queue gauge,
// and a small latency histogram with `fast` observations in the first
// bucket and `slow` in the overflow bucket.
obs::MetricsSnapshot ReplicaSnapshotOf(uint64_t requests, uint64_t fast,
                                       uint64_t slow, double queue = 0.0) {
  obs::MetricsSnapshot s;
  s.counters = {{"serve.ok", requests}, {"serve.requests", requests}};
  s.gauges = {{"serve.queue_depth", queue}};
  obs::HistogramSnapshot h;
  h.name = "serve.latency_ms";
  h.bounds = {1.0, 8.0};
  h.counts = {fast, 0, slow};
  h.total_count = fast + slow;
  h.sum = 0.5 * fast + 16.0 * slow;
  s.histograms = {h};
  return s;
}

// The fold is delta-based and restart-safe: counters that went backwards
// contribute a zero delta (never negative), and absent restarts the
// accumulated view equals the replica's own lifetime totals.
TEST(FleetAggregatorTest, AccumulatesClampedDeltasAcrossRestart) {
  router::FleetAggregator fleet;
  fleet.Update("r1", 0, ReplicaSnapshotOf(10, 8, 2));
  fleet.Update("r1", 1000, ReplicaSnapshotOf(25, 20, 5));

  obs::MetricsSnapshot acc;
  ASSERT_TRUE(fleet.Accumulated("r1", &acc));
  ASSERT_EQ(acc.counters.size(), 2u);
  EXPECT_EQ(acc.counters[1].first, "serve.requests");
  EXPECT_EQ(acc.counters[1].second, 25u);
  ASSERT_EQ(acc.histograms.size(), 1u);
  EXPECT_EQ(acc.histograms[0].total_count, 25u);
  EXPECT_EQ(acc.histograms[0].counts[0], 20u);
  EXPECT_EQ(acc.histograms[0].counts[2], 5u);

  // Restart: the replica comes back with SMALLER lifetime counts. The
  // restart poll folds a zero delta; later polls resume accumulating.
  fleet.Update("r1", 2000, ReplicaSnapshotOf(3, 2, 1));
  ASSERT_TRUE(fleet.Accumulated("r1", &acc));
  EXPECT_EQ(acc.counters[1].second, 25u);
  fleet.Update("r1", 3000, ReplicaSnapshotOf(7, 5, 2));
  ASSERT_TRUE(fleet.Accumulated("r1", &acc));
  EXPECT_EQ(acc.counters[1].second, 29u);  // 25 + (7 - 3).
  EXPECT_EQ(acc.histograms[0].total_count, 29u);
  EXPECT_FALSE(fleet.Accumulated("ghost", &acc));
}

// Fleet totals sum the per-replica accumulations: counters, gauges, and
// histograms bucketwise (identical bounds — same binary fleet-wide).
TEST(FleetAggregatorTest, FleetTotalsSumAcrossReplicas) {
  router::FleetAggregator fleet;
  fleet.Update("r1", 0, ReplicaSnapshotOf(10, 8, 2, /*queue=*/3.0));
  fleet.Update("r2", 0, ReplicaSnapshotOf(4, 4, 0, /*queue=*/1.0));
  EXPECT_EQ(fleet.replica_count(), 2u);
  EXPECT_EQ(fleet.updates(), 2u);

  const obs::MetricsSnapshot totals = fleet.FleetTotals();
  ASSERT_EQ(totals.counters.size(), 2u);
  EXPECT_EQ(totals.counters[1].first, "serve.requests");
  EXPECT_EQ(totals.counters[1].second, 14u);
  ASSERT_EQ(totals.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(totals.gauges[0].second, 4.0);
  ASSERT_EQ(totals.histograms.size(), 1u);
  EXPECT_EQ(totals.histograms[0].total_count, 14u);
  EXPECT_EQ(totals.histograms[0].counts[0], 12u);
  EXPECT_EQ(totals.histograms[0].counts[2], 2u);
}

// The Prometheus exposition carries every series twice: labeled per
// replica and unlabeled as the fleet sum, with histogram buckets in the
// cumulative le= convention.
TEST(FleetAggregatorTest, PrometheusTextHasLabeledAndSummedSeries) {
  router::FleetAggregator fleet;
  fleet.Update("r1", 0, ReplicaSnapshotOf(10, 8, 2));
  fleet.Update("r2", 0, ReplicaSnapshotOf(4, 4, 0));
  const std::string text = fleet.PrometheusFleetText();
  EXPECT_NE(text.find("# TYPE serve_requests counter\n"), std::string::npos);
  EXPECT_NE(text.find("serve_requests{replica=\"r1\"} 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_requests{replica=\"r2\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nserve_requests 14\n"), std::string::npos);
  // Cumulative buckets: fleet-merged le="8" covers the 12 fast
  // observations; +Inf equals the fleet count.
  EXPECT_NE(text.find("serve_latency_ms_bucket{replica=\"r1\",le=\"1\"} 8\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_bucket{le=\"+Inf\"} 14\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_count 14\n"), std::string::npos);
}

// MetricsSnapshotFromJson inverts DumpMetricsJson: pull a real registry
// dump through the parser and compare against the live snapshot. The
// dump prints doubles at %.6g, so float fields round-trip to 6
// significant digits, not bitwise — the registry is process-wide, and
// when the whole binary runs as one process earlier tests leave
// instruments like serve.latency_ms whose 1048.576 bound dumps as
// "1048.58". Counts stay exact.
double NearTol(double reference) {
  return 1e-5 * std::max(1.0, std::fabs(reference));
}

TEST(FleetAggregatorTest, MetricsSnapshotFromJsonInvertsDump) {
  const bool were_enabled = obs::MetricsEnabled();
  obs::EnableMetrics(true);
  obs::ResetAllMetrics();
  obs::GetCounter("fleetjson.count").Add(7);
  obs::GetGauge("fleetjson.gauge").Set(2.5);
  obs::Histogram& h =
      obs::GetHistogram("fleetjson.hist", obs::LinearBuckets(1.0, 1.0, 3));
  h.Observe(0.5);
  h.Observe(2.5);
  h.Observe(100.0);

  json::JsonValue root;
  ASSERT_TRUE(json::JsonParser(obs::DumpMetricsJson()).Parse(&root));
  obs::MetricsSnapshot parsed;
  ASSERT_TRUE(router::MetricsSnapshotFromJson(root, &parsed));

  const obs::MetricsSnapshot live = obs::SnapshotMetrics();
  EXPECT_EQ(parsed.counters, live.counters);
  ASSERT_EQ(parsed.gauges.size(), live.gauges.size());
  for (size_t i = 0; i < live.gauges.size(); ++i) {
    EXPECT_EQ(parsed.gauges[i].first, live.gauges[i].first);
    EXPECT_NEAR(parsed.gauges[i].second, live.gauges[i].second,
                NearTol(live.gauges[i].second));
  }
  ASSERT_EQ(parsed.histograms.size(), live.histograms.size());
  for (size_t i = 0; i < live.histograms.size(); ++i) {
    EXPECT_EQ(parsed.histograms[i].name, live.histograms[i].name);
    ASSERT_EQ(parsed.histograms[i].bounds.size(),
              live.histograms[i].bounds.size());
    for (size_t b = 0; b < live.histograms[i].bounds.size(); ++b) {
      EXPECT_NEAR(parsed.histograms[i].bounds[b],
                  live.histograms[i].bounds[b],
                  NearTol(live.histograms[i].bounds[b]));
    }
    EXPECT_EQ(parsed.histograms[i].counts, live.histograms[i].counts);
    EXPECT_EQ(parsed.histograms[i].total_count,
              live.histograms[i].total_count);
  }
  obs::MetricsSnapshot ignored;
  json::JsonValue not_object;
  EXPECT_FALSE(router::MetricsSnapshotFromJson(not_object, &ignored));

  obs::ResetAllMetrics();
  obs::EnableMetrics(were_enabled);
}

// -- Prober jitter (satellite) --------------------------------------------

TEST(ProberJitterTest, JitteredPeriodStaysInBandAndIsReproducible) {
  const int64_t base_us = 1000000;
  uint64_t state = 42;
  bool saw_distinct = false;
  int64_t first = 0;
  for (int i = 0; i < 1000; ++i) {
    const int64_t period =
        router::JitteredPeriodUs(base_us, 0.2, &state);
    EXPECT_GE(period, 800000);
    EXPECT_LE(period, 1200000);
    if (i == 0) first = period;
    if (period != first) saw_distinct = true;
  }
  EXPECT_TRUE(saw_distinct);

  // Same seed, same stream.
  uint64_t a = 7, b = 7;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(router::JitteredPeriodUs(base_us, 0.2, &a),
              router::JitteredPeriodUs(base_us, 0.2, &b));
  }
  // Jitter off (or a degenerate base) passes through untouched.
  uint64_t c = 7;
  EXPECT_EQ(router::JitteredPeriodUs(base_us, 0.0, &c), base_us);
  EXPECT_EQ(router::JitteredPeriodUs(0, 0.2, &c), 0);
}

// -- Trace echo codec (tentpole) ------------------------------------------

TEST(RecommendCodecTest, TraceEchoRoundTripsThroughJson) {
  serve::RecommendResponse response;
  response.status = Status::Ok();
  response.has_value = true;
  response.recommendation.items = {3, 1};
  response.recommendation.scores = {0.5f, 0.25f};
  response.trace.present = true;
  response.trace.clock_ns = 123456789;
  response.trace.spans = {{"serve.req.enqueue", 100, 50, 7},
                          {"serve.req.score", 200, 1000, 8}};

  serve::RecommendResponse parsed;
  std::string error;
  ASSERT_TRUE(serve::RecommendResponseFromJson(
      serve::RecommendResponseToJson(response), &parsed, &error))
      << error;
  ASSERT_TRUE(parsed.trace.present);
  EXPECT_EQ(parsed.trace.clock_ns, 123456789u);
  ASSERT_EQ(parsed.trace.spans.size(), 2u);
  EXPECT_EQ(parsed.trace.spans[0].name, "serve.req.enqueue");
  EXPECT_EQ(parsed.trace.spans[0].start_ns, 100u);
  EXPECT_EQ(parsed.trace.spans[0].dur_ns, 50u);
  EXPECT_EQ(parsed.trace.spans[0].tid, 7u);
  EXPECT_EQ(parsed.trace.spans[1].name, "serve.req.score");
}

// The untraced wire format is EXACTLY the pre-tracing one: no "trace"
// key at all, so propagation off means byte-identical responses.
TEST(RecommendCodecTest, UntracedResponseHasNoTraceKey) {
  serve::RecommendResponse response;
  response.status = Status::Ok();
  response.has_value = true;
  response.recommendation.items = {3};
  response.recommendation.scores = {0.5f};
  const std::string json = serve::RecommendResponseToJson(response);
  EXPECT_EQ(json.find("trace"), std::string::npos) << json;
  serve::RecommendResponse parsed;
  std::string error;
  ASSERT_TRUE(serve::RecommendResponseFromJson(json, &parsed, &error));
  EXPECT_FALSE(parsed.trace.present);
}

// -- Stitched tracing + fleet metrics, end to end (tentpole) --------------

// A router with trace_sample_every=1 over two live replicas: every
// request produces a stitched timeline whose spans come from BOTH
// processes under one trace id, and the fleet metrics plane sums the
// polled replica registries.
//
// (In this in-process test both "replicas" share one obs registry, so
// each replica's /varz reports process-wide serve counters; the
// fleet-sum identity asserted here is the aggregator's replica-sum ==
// unlabeled-sum consistency. The true cross-process identity —
// fleet serve_requests == Σ per-replica serve_requests — is asserted in
// the CI router smoke job against real isrec_serve processes.)
TEST(RouterIntegrationTest, StitchedTraceAndFleetMetricsAcrossTwoReplicas) {
  const bool metrics_were_enabled = obs::MetricsEnabled();
  const bool tracing_was_enabled = obs::TracingEnabled();
  const bool request_tracing_was_enabled = obs::RequestTracingEnabled();
  obs::EnableMetrics(true);
  obs::EnableTracing(true);
  obs::EnableRequestTracing(true);

  RouterOverTwoEngines tier;
  ASSERT_TRUE(tier.Start(/*fail_threshold=*/2, /*trace_sample_every=*/1));
  obs::HttpClient client;
  for (Index user = 0; user < 8; ++user) {
    serve::Request request;
    request.user = user;
    request.history = {user % 5};
    request.k = 3;
    int http_status = 0;
    const serve::RecommendResponse response =
        PostViaHttp(client, tier.router->port(), request, &http_status);
    EXPECT_EQ(http_status, 200);
    ASSERT_TRUE(response.has_value);
    // The echo is stripped before the reply reaches the client.
    EXPECT_FALSE(response.trace.present);
  }

  // Every request was traced; each stitched trace must contain router
  // spans AND replica spans, all under the request's single trace id.
  EXPECT_EQ(tier.router->traces().added(), 8u);
  const obs::HttpClient::Result tracez = client.Get(
      "127.0.0.1", tier.router->port(), "/tracez?format=json");
  ASSERT_TRUE(tracez.ok) << tracez.error;
  json::JsonValue root;
  ASSERT_TRUE(json::JsonParser(tracez.body).Parse(&root)) << tracez.body;
  const json::JsonValue* traces = root.Find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->array.size(), 8u);
  for (const json::JsonValue& trace : traces->array) {
    const json::JsonValue* id = trace.Find("trace_id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(id->str.size(), 16u);
    uint64_t parsed_id = 0;
    EXPECT_TRUE(obs::ParseTraceId(id->str, &parsed_id));
    const json::JsonValue* spans = trace.Find("spans");
    ASSERT_NE(spans, nullptr);
    bool has_router = false, has_replica = false, has_forward = false;
    for (const json::JsonValue& span : spans->array) {
      const std::string& process = span.Find("process")->str;
      const std::string& name = span.Find("name")->str;
      if (process == "router") has_router = true;
      if (process == "r1" || process == "r2") {
        has_replica = true;
        EXPECT_EQ(name.rfind("serve.", 0), 0u) << name;
      }
      if (name == "router.req.forward") has_forward = true;
    }
    EXPECT_TRUE(has_router);
    EXPECT_TRUE(has_replica) << tracez.body;
    EXPECT_TRUE(has_forward);
    // Both processes present => the forward/enqueue network gap is
    // computable and reported.
    EXPECT_NE(trace.Find("network_gap_ns"), nullptr);
  }
  // The HTML rendering marks the network gap.
  const obs::HttpClient::Result html =
      client.Get("127.0.0.1", tier.router->port(), "/tracez");
  ASSERT_TRUE(html.ok);
  EXPECT_NE(html.body.find("wire + accept gap"), std::string::npos);

  // Fleet metrics: wait until the prober has pulled each replica's varz
  // snapshot twice since the traffic (four fleet updates), so the page
  // reflects the requests above, then check its sum identity.
  const uint64_t updates_after_traffic = tier.router->fleet().updates();
  for (int i = 0; i < 300 && tier.router->fleet().updates() <
                                 updates_after_traffic + 4;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(tier.router->fleet().updates(), updates_after_traffic + 4);
  ASSERT_EQ(tier.router->fleet().replica_count(), 2u);
  const obs::HttpClient::Result fleet = client.Get(
      "127.0.0.1", tier.router->port(), "/fleet/metrics");
  ASSERT_TRUE(fleet.ok);
  uint64_t r1 = 0, r2 = 0, total = 0;
  size_t pos = 0;
  int parsed_lines = 0;
  while (pos < fleet.body.size()) {
    const size_t eol = fleet.body.find('\n', pos);
    const std::string line = fleet.body.substr(pos, eol - pos);
    pos = eol == std::string::npos ? fleet.body.size() : eol + 1;
    if (line.rfind("serve_requests{replica=\"r1\"} ", 0) == 0) {
      r1 = std::strtoull(line.c_str() + 29, nullptr, 10);
      ++parsed_lines;
    } else if (line.rfind("serve_requests{replica=\"r2\"} ", 0) == 0) {
      r2 = std::strtoull(line.c_str() + 29, nullptr, 10);
      ++parsed_lines;
    } else if (line.rfind("serve_requests ", 0) == 0) {
      total = std::strtoull(line.c_str() + 15, nullptr, 10);
      ++parsed_lines;
    }
  }
  EXPECT_EQ(parsed_lines, 3) << fleet.body;
  EXPECT_EQ(total, r1 + r2);
  EXPECT_GT(total, 0u);

  // /statusz renders the fleet table next to the replica table.
  const obs::HttpClient::Result statusz =
      client.Get("127.0.0.1", tier.router->port(), "/statusz");
  ASSERT_TRUE(statusz.ok);
  EXPECT_NE(statusz.body.find("Fleet"), std::string::npos);

  tier.Stop();
  obs::EnableRequestTracing(request_tracing_was_enabled);
  obs::EnableTracing(tracing_was_enabled);
  obs::EnableMetrics(metrics_were_enabled);
  obs::ResetAllMetrics();
}

// Sampling 0 disables propagation: no trace is stitched and the replica
// receives the exact pre-tracing request (no X-Isrec-Trace header, so
// its handler never even looks at the trace plumbing).
TEST(RouterIntegrationTest, SamplingZeroDisablesTracePropagation) {
  RouterOverTwoEngines tier;
  ASSERT_TRUE(tier.Start(/*fail_threshold=*/2, /*trace_sample_every=*/0));
  obs::HttpClient client;
  serve::Request request;
  request.user = 5;
  request.history = {1};
  request.k = 2;
  int http_status = 0;
  const serve::RecommendResponse response =
      PostViaHttp(client, tier.router->port(), request, &http_status);
  EXPECT_EQ(http_status, 200);
  ASSERT_TRUE(response.has_value);
  EXPECT_FALSE(response.trace.present);
  EXPECT_EQ(tier.router->traces().added(), 0u);
  tier.Stop();
}

}  // namespace
}  // namespace isrec
