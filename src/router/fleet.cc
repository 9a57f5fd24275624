#include "router/fleet.h"

#include <algorithm>
#include <cstdio>

#include "obs/admin_server.h"

namespace isrec::router {
namespace {

uint64_t ClampedDelta(uint64_t newer, uint64_t older) {
  // A value that went backwards means the replica restarted between
  // polls; the honest delta for that interval is unknown, and 0 keeps
  // fleet totals monotone (same convention as obs::RollingAggregator).
  return newer >= older ? newer - older : 0;
}

std::string FormatNumber(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

uint64_t CounterOr(const std::vector<std::pair<std::string, uint64_t>>& sorted,
                   const std::string& name, uint64_t fallback) {
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), name,
      [](const auto& entry, const std::string& key) {
        return entry.first < key;
      });
  return it != sorted.end() && it->first == name ? it->second : fallback;
}

/// Adds `delta` to the name-sorted counter vector, inserting the name
/// if new.
void AddCounter(std::vector<std::pair<std::string, uint64_t>>* sorted,
                const std::string& name, uint64_t delta) {
  auto it = std::lower_bound(sorted->begin(), sorted->end(), name,
                             [](const auto& entry, const std::string& key) {
                               return entry.first < key;
                             });
  if (it != sorted->end() && it->first == name) {
    it->second += delta;
  } else {
    sorted->insert(it, {name, delta});
  }
}

obs::HistogramSnapshot* FindHistogram(
    std::vector<obs::HistogramSnapshot>* histograms, const std::string& name) {
  for (obs::HistogramSnapshot& h : *histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const obs::HistogramSnapshot* FindHistogram(
    const std::vector<obs::HistogramSnapshot>& histograms,
    const std::string& name) {
  for (const obs::HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

/// Accumulates the poll-over-poll delta of `incoming` vs `last` into
/// `acc` (bucketwise clamped). A bounds change (replica rebuilt with a
/// different binary) rebases: the accumulated distribution restarts
/// from the incoming snapshot.
void FoldHistogram(obs::HistogramSnapshot* acc,
                   const obs::HistogramSnapshot& incoming,
                   const obs::HistogramSnapshot* last) {
  const bool comparable = last != nullptr && last->bounds == incoming.bounds &&
                          last->counts.size() == incoming.counts.size();
  if (acc->bounds != incoming.bounds ||
      acc->counts.size() != incoming.counts.size()) {
    // Rebase: the accumulated shape no longer matches the replica's.
    acc->bounds = incoming.bounds;
    acc->counts.assign(incoming.counts.size(), 0);
    acc->total_count = 0;
    acc->sum = 0.0;
  }
  uint64_t delta_total = 0;
  for (size_t i = 0; i < incoming.counts.size(); ++i) {
    const uint64_t before = comparable ? last->counts[i] : 0;
    const uint64_t delta = ClampedDelta(incoming.counts[i], before);
    acc->counts[i] += delta;
    delta_total += delta;
  }
  acc->total_count += delta_total;
  const double sum_before = comparable ? last->sum : 0.0;
  const double delta_sum = incoming.sum - sum_before;
  if (delta_sum > 0.0) acc->sum += delta_sum;
}

}  // namespace

bool MetricsSnapshotFromJson(const json::JsonValue& metrics,
                             obs::MetricsSnapshot* out) {
  if (metrics.kind != json::JsonValue::kObject) return false;
  *out = obs::MetricsSnapshot{};
  if (const json::JsonValue* counters = metrics.Find("counters")) {
    if (counters->kind == json::JsonValue::kObject) {
      for (const auto& [name, value] : counters->object) {
        if (value.kind != json::JsonValue::kNumber) continue;
        out->counters.emplace_back(name,
                                   static_cast<uint64_t>(value.number));
      }
    }
  }
  if (const json::JsonValue* gauges = metrics.Find("gauges")) {
    if (gauges->kind == json::JsonValue::kObject) {
      for (const auto& [name, value] : gauges->object) {
        if (value.kind != json::JsonValue::kNumber) continue;
        out->gauges.emplace_back(name, value.number);
      }
    }
  }
  if (const json::JsonValue* histograms = metrics.Find("histograms")) {
    if (histograms->kind == json::JsonValue::kObject) {
      for (const auto& [name, value] : histograms->object) {
        if (value.kind != json::JsonValue::kObject) continue;
        const json::JsonValue* bounds = value.Find("bounds");
        const json::JsonValue* counts = value.Find("bucket_counts");
        if (bounds == nullptr || bounds->kind != json::JsonValue::kArray ||
            counts == nullptr || counts->kind != json::JsonValue::kArray ||
            counts->array.size() != bounds->array.size() + 1) {
          continue;
        }
        obs::HistogramSnapshot h;
        h.name = name;
        h.bounds.reserve(bounds->array.size());
        for (const json::JsonValue& b : bounds->array) {
          if (b.kind != json::JsonValue::kNumber) break;
          h.bounds.push_back(b.number);
        }
        if (h.bounds.size() != bounds->array.size()) continue;
        h.counts.reserve(counts->array.size());
        for (const json::JsonValue& c : counts->array) {
          if (c.kind != json::JsonValue::kNumber) break;
          const uint64_t count = static_cast<uint64_t>(c.number);
          h.counts.push_back(count);
          h.total_count += count;
        }
        if (h.counts.size() != counts->array.size()) continue;
        if (const json::JsonValue* sum = value.Find("sum")) {
          if (sum->kind == json::JsonValue::kNumber) h.sum = sum->number;
        }
        out->histograms.push_back(std::move(h));
      }
    }
  }
  // JsonValue.object is a std::map, so counters/gauges/histograms come
  // out name-sorted — the MetricsSnapshot invariant — for free.
  return true;
}

void FleetAggregator::FoldLocked(ReplicaAgg* agg,
                                 const obs::MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    const uint64_t before =
        agg->has_last ? CounterOr(agg->last.counters, name, 0) : 0;
    AddCounter(&agg->counters, name, ClampedDelta(value, before));
  }
  for (const obs::HistogramSnapshot& incoming : snapshot.histograms) {
    obs::HistogramSnapshot* acc = FindHistogram(&agg->histograms,
                                                incoming.name);
    if (acc == nullptr) {
      obs::HistogramSnapshot fresh;
      fresh.name = incoming.name;
      agg->histograms.push_back(std::move(fresh));
      acc = &agg->histograms.back();
    }
    const obs::HistogramSnapshot* last =
        agg->has_last ? FindHistogram(agg->last.histograms, incoming.name)
                      : nullptr;
    FoldHistogram(acc, incoming, last);
  }
  std::sort(agg->histograms.begin(), agg->histograms.end(),
            [](const obs::HistogramSnapshot& a,
               const obs::HistogramSnapshot& b) { return a.name < b.name; });
}

void FleetAggregator::Update(const std::string& replica, int64_t t_ms,
                             const obs::MetricsSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  ReplicaAgg& agg = replicas_[replica];
  FoldLocked(&agg, snapshot);
  agg.last = snapshot;
  agg.has_last = true;
  agg.polls += 1;
  updates_ += 1;
  // The rolling window samples the ACCUMULATED view, not the raw one,
  // so a replica restart inside the window reads as a flat spot rather
  // than a negative rate.
  obs::MetricsSnapshot accumulated;
  accumulated.counters = agg.counters;
  accumulated.histograms = agg.histograms;
  agg.rolling.AddSample(t_ms, accumulated);
}

bool FleetAggregator::Accumulated(const std::string& replica,
                                  obs::MetricsSnapshot* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = replicas_.find(replica);
  if (it == replicas_.end()) return false;
  out->counters = it->second.counters;
  out->gauges = it->second.last.gauges;
  out->histograms = it->second.histograms;
  return true;
}

obs::MetricsSnapshot FleetAggregator::FleetTotals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return FleetTotalsLocked();
}

obs::MetricsSnapshot FleetAggregator::FleetTotalsLocked() const {
  obs::MetricsSnapshot totals;
  std::map<std::string, double> gauge_totals;
  for (const auto& [name, agg] : replicas_) {
    for (const auto& [counter, value] : agg.counters) {
      AddCounter(&totals.counters, counter, value);
    }
    for (const auto& [gauge, value] : agg.last.gauges) {
      gauge_totals[gauge] += value;
    }
    for (const obs::HistogramSnapshot& h : agg.histograms) {
      obs::HistogramSnapshot* merged = FindHistogram(&totals.histograms,
                                                     h.name);
      if (merged == nullptr) {
        totals.histograms.push_back(h);
        continue;
      }
      if (merged->bounds != h.bounds ||
          merged->counts.size() != h.counts.size()) {
        continue;  // Incomparable shapes (mixed binaries): keep the first.
      }
      for (size_t i = 0; i < h.counts.size(); ++i) {
        merged->counts[i] += h.counts[i];
      }
      merged->total_count += h.total_count;
      merged->sum += h.sum;
    }
  }
  totals.gauges.assign(gauge_totals.begin(), gauge_totals.end());
  std::sort(totals.histograms.begin(), totals.histograms.end(),
            [](const obs::HistogramSnapshot& a,
               const obs::HistogramSnapshot& b) { return a.name < b.name; });
  return totals;
}

std::string FleetAggregator::PrometheusFleetText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const obs::MetricsSnapshot totals = FleetTotalsLocked();
  std::string out;
  for (const auto& [name, total] : totals.counters) {
    const std::string n = obs::SanitizeMetricName(name);
    out += "# TYPE " + n + " counter\n";
    for (const auto& [replica, agg] : replicas_) {
      out += n + "{replica=\"" + replica + "\"} " +
             std::to_string(CounterOr(agg.counters, name, 0)) + "\n";
    }
    out += n + " " + std::to_string(total) + "\n";
  }
  for (const auto& [name, total] : totals.gauges) {
    const std::string n = obs::SanitizeMetricName(name);
    out += "# TYPE " + n + " gauge\n";
    for (const auto& [replica, agg] : replicas_) {
      for (const auto& [gauge, value] : agg.last.gauges) {
        if (gauge != name) continue;
        out += n + "{replica=\"" + replica + "\"} " + FormatNumber(value) +
               "\n";
      }
    }
    out += n + " " + FormatNumber(total) + "\n";
  }
  for (const obs::HistogramSnapshot& merged : totals.histograms) {
    const std::string n = obs::SanitizeMetricName(merged.name);
    out += "# TYPE " + n + " histogram\n";
    for (const auto& [replica, agg] : replicas_) {
      const obs::HistogramSnapshot* h = FindHistogram(agg.histograms,
                                                      merged.name);
      if (h == nullptr) continue;
      const std::string label = "{replica=\"" + replica + "\"";
      const std::vector<uint64_t> cumulative = h->CumulativeCounts();
      for (size_t b = 0; b < h->bounds.size(); ++b) {
        out += n + "_bucket" + label + ",le=\"" + FormatNumber(h->bounds[b]) +
               "\"} " + std::to_string(cumulative[b]) + "\n";
      }
      out += n + "_bucket" + label + ",le=\"+Inf\"} " +
             std::to_string(h->total_count) + "\n";
      out += n + "_sum" + label + "} " + FormatNumber(h->sum) + "\n";
      out += n + "_count" + label + "} " + std::to_string(h->total_count) +
             "\n";
    }
    const std::vector<uint64_t> cumulative = merged.CumulativeCounts();
    for (size_t b = 0; b < merged.bounds.size(); ++b) {
      out += n + "_bucket{le=\"" + FormatNumber(merged.bounds[b]) + "\"} " +
             std::to_string(cumulative[b]) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(merged.total_count) +
           "\n";
    out += n + "_sum " + FormatNumber(merged.sum) + "\n";
    out += n + "_count " + std::to_string(merged.total_count) + "\n";
  }
  return out;
}

std::string FleetAggregator::StatuszHtml(double window_s) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out =
      "<table><tr><th>replica</th><th>polls</th><th>req/s (" +
      FormatNumber(window_s) +
      "s)</th><th>p50 ms</th><th>p95 ms</th><th>p99 ms</th>"
      "<th>requests</th><th>ok</th><th>degraded</th><th>rejected</th>"
      "<th>deadline</th></tr>";
  uint64_t fleet_requests = 0, fleet_ok = 0, fleet_degraded = 0,
           fleet_rejected = 0, fleet_deadline = 0;
  double fleet_rate = 0.0;
  for (const auto& [replica, agg] : replicas_) {
    const obs::WindowView window = agg.rolling.Window(window_s);
    double rate = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    if (window.valid) {
      for (const auto& [name, per_s] : window.counter_rates) {
        if (name == "serve.requests") rate = per_s;
      }
      for (const obs::HistogramSnapshot& h : window.histograms) {
        if (h.name != "serve.latency_ms") continue;
        p50 = h.Percentile(0.50);
        p95 = h.Percentile(0.95);
        p99 = h.Percentile(0.99);
      }
    }
    const uint64_t requests = CounterOr(agg.counters, "serve.requests", 0);
    const uint64_t ok = CounterOr(agg.counters, "serve.ok", 0);
    const uint64_t degraded = CounterOr(agg.counters, "serve.degraded", 0);
    const uint64_t rejected = CounterOr(agg.counters, "serve.rejected", 0);
    const uint64_t deadline =
        CounterOr(agg.counters, "serve.deadline_exceeded", 0);
    fleet_requests += requests;
    fleet_ok += ok;
    fleet_degraded += degraded;
    fleet_rejected += rejected;
    fleet_deadline += deadline;
    fleet_rate += rate;
    char row[512];
    std::snprintf(row, sizeof(row),
                  "<tr><td>%s</td><td>%llu</td><td>%.1f</td><td>%.2f</td>"
                  "<td>%.2f</td><td>%.2f</td><td>%llu</td><td>%llu</td>"
                  "<td>%llu</td><td>%llu</td><td>%llu</td></tr>",
                  obs::HtmlEscape(replica).c_str(),
                  static_cast<unsigned long long>(agg.polls), rate, p50, p95,
                  p99, static_cast<unsigned long long>(requests),
                  static_cast<unsigned long long>(ok),
                  static_cast<unsigned long long>(degraded),
                  static_cast<unsigned long long>(rejected),
                  static_cast<unsigned long long>(deadline));
    out += row;
  }
  char fleet_row[512];
  std::snprintf(fleet_row, sizeof(fleet_row),
                "<tr><th>fleet</th><td></td><td>%.1f</td><td></td><td></td>"
                "<td></td><td>%llu</td><td>%llu</td><td>%llu</td>"
                "<td>%llu</td><td>%llu</td></tr>",
                fleet_rate, static_cast<unsigned long long>(fleet_requests),
                static_cast<unsigned long long>(fleet_ok),
                static_cast<unsigned long long>(fleet_degraded),
                static_cast<unsigned long long>(fleet_rejected),
                static_cast<unsigned long long>(fleet_deadline));
  out += fleet_row;
  out += "</table>";
  if (replicas_.empty()) out += "<p>no replica snapshots polled yet</p>";
  return out;
}

size_t FleetAggregator::replica_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replicas_.size();
}

uint64_t FleetAggregator::updates() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return updates_;
}

}  // namespace isrec::router
