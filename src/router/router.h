#ifndef ISREC_ROUTER_ROUTER_H_
#define ISREC_ROUTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/admin_server.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "router/fleet.h"
#include "router/forwarder.h"
#include "router/hash_ring.h"
#include "router/prober.h"
#include "router/replica_table.h"
#include "router/trace_store.h"
#include "serve/recommend_http.h"

namespace isrec::router {

struct RouterConfig {
  /// The backend fleet. Names are ring identities: keep them stable
  /// across restarts or keys re-home.
  std::vector<ReplicaConfig> replicas;

  /// Virtual nodes per replica on the consistent-hash ring.
  int virtual_nodes = 128;

  /// Background health/load probing.
  ProberConfig probe;

  /// Maximum extra attempts after a replica answers kOverloaded.
  int max_overload_retries = 1;

  /// Minimum remaining deadline budget (ms) worth spending on a retry;
  /// below it the router relays the overloaded answer instead.
  double retry_min_budget_ms = 2.0;

  /// Extra time (ms) granted to a forward past the request's remaining
  /// deadline, so a replica that enforces the deadline itself gets to
  /// say DEADLINE_EXCEEDED on the wire instead of the socket timing out.
  double forward_deadline_slack_ms = 50.0;

  /// Forward socket timeouts for requests without a deadline.
  double forward_connect_timeout_ms = 500.0;
  double forward_read_timeout_ms = 5000.0;

  /// The router's own HTTP plane: /recommend + admin endpoints share
  /// one server. Raise num_workers for real traffic.
  obs::AdminServerConfig admin = {.num_workers = 8};

  /// Distributed tracing: mint a trace id for every N-th /recommend
  /// request ((n-1) % N == 0, so the FIRST request is always traced —
  /// deterministic for smoke tests). The id is propagated to the
  /// replica as X-Isrec-Trace with an echo request, and the stitched
  /// cross-process timeline lands in /tracez. 0 disables propagation
  /// entirely: no headers sent, the replica path stays byte-identical.
  /// A request arriving WITH an X-Isrec-Trace header is always traced,
  /// independent of sampling.
  uint64_t trace_sample_every = 64;

  /// Stitched traces retained for /tracez (ring, oldest evicted).
  size_t trace_capacity = 64;

  /// Aggregate replica registry snapshots from the prober's /varz polls
  /// into /fleet/metrics and the /statusz fleet table. Off: the prober
  /// never parses the "metrics" object.
  bool fleet_metrics = true;
};

/// This router's decision counts since start. Each field is an
/// obs::InstanceCounter: one Add per decision updates the router's own
/// value and the process-wide series `router.<field>`, with metrics on
/// or off.
struct RouterDecisions {
  uint64_t requests = 0;          // /recommend requests parsed OK.
  uint64_t bad_requests = 0;      // /recommend requests that failed to parse.
  uint64_t forwarded = 0;         // Attempts sent to some replica.
  uint64_t spilled = 0;           // Owner DEGRADED -> routed to an UP replica.
  uint64_t drain_rerouted = 0;    // Owner DRAINING -> next preference.
  uint64_t down_rerouted = 0;     // Owner DOWN -> next preference.
  uint64_t retried = 0;           // Extra attempt after kOverloaded.
  uint64_t transport_errors = 0;  // Forward attempts that died on the socket.
  uint64_t rejected = 0;          // Answered locally: no routable replica.
  uint64_t expired = 0;           // Answered locally: deadline already gone.
  uint64_t drains = 0;            // /admin/drain accepted.
};

/// The sharded serving front-end (DESIGN.md §11): consistent-hashes
/// users across replicas, probes replica health/load in the background,
/// re-homes keys past DRAINING/DOWN replicas, spills DEGRADED owners'
/// load to UP replicas, retries kOverloaded answers within the client's
/// deadline budget, and drains replicas with zero dropped requests.
///
/// Endpoints on its admin server (all one HttpServer):
///   POST /recommend                  data plane (protocol of
///                                    serve/recommend_http.h)
///   GET  /admin/drain?replica=NAME[&wait_ms=N]    start (and optionally
///                                    await) a zero-drop drain
///   GET  /admin/undrain?replica=NAME return a drained replica to probing
///   GET  /tracez                     stitched cross-process timelines
///                                    (HTML, ?format=json)
///   GET  /fleet/metrics              Prometheus exposition aggregated
///                                    across replicas ({replica=...}
///                                    series + unlabeled fleet sums)
///   /healthz /metrics /varz /statusz the usual obs plane, with a
///                                    per-replica table and a fleet table
class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Registers handlers, starts the admin/data server and the prober.
  /// False when the port can't be bound.
  bool Start();

  /// Stops the HTTP server, then the prober. Idempotent.
  void Stop();

  /// Bound HTTP port; 0 before Start.
  int port() const { return admin_.port(); }

  ReplicaTable& table() { return table_; }
  Prober& prober() { return prober_; }
  const HashRing& ring() const { return ring_; }
  FleetAggregator& fleet() { return fleet_; }
  TraceStore& traces() { return traces_; }

  RouterDecisions decisions() const;

  /// Handlers, public so in-process tests can drive routing without a
  /// socket round-trip to the router itself.
  obs::HttpResponse HandleRecommend(const obs::HttpRequest& request);
  obs::HttpResponse HandleDrain(const obs::HttpRequest& request);
  obs::HttpResponse HandleUndrain(const obs::HttpRequest& request);
  obs::HttpResponse HandleTracez(const obs::HttpRequest& request);
  obs::HttpResponse HandleFleetMetrics(const obs::HttpRequest& request);

 private:
  /// The routing loop: preference walk, acquire/forward/release,
  /// re-home on transport failure, bounded overload retry. A non-null
  /// `trace` collects router-side spans plus the replica's echoed
  /// timeline (translated onto the router clock), and `context` is
  /// propagated on the forward hop.
  serve::RecommendResponse Route(const serve::Request& request,
                                 int* http_status,
                                 const obs::TraceContext& context,
                                 StitchedTrace* trace);

  std::string VarzJson() const;
  std::string StatuszHtml() const;

  RouterConfig config_;
  HashRing ring_;        // Membership fixed at construction; reads only.
  ReplicaTable table_;
  Prober prober_;
  Forwarder forwarder_;
  obs::AdminServer admin_;
  FleetAggregator fleet_;
  TraceStore traces_;
  std::atomic<uint64_t> trace_counter_{0};  // Requests seen, for sampling.

  obs::InstanceCounter requests_{"router.requests"};
  obs::InstanceCounter bad_requests_{"router.bad_requests"};
  obs::InstanceCounter forwarded_{"router.forwarded"};
  obs::InstanceCounter spilled_{"router.spilled"};
  obs::InstanceCounter drain_rerouted_{"router.drain_rerouted"};
  obs::InstanceCounter down_rerouted_{"router.down_rerouted"};
  obs::InstanceCounter retried_{"router.retried"};
  obs::InstanceCounter transport_errors_{"router.transport_errors"};
  obs::InstanceCounter rejected_{"router.rejected"};
  obs::InstanceCounter expired_{"router.expired"};
  obs::InstanceCounter drains_{"router.drains"};
};

}  // namespace isrec::router

#endif  // ISREC_ROUTER_ROUTER_H_
