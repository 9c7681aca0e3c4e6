// Process-wide metrics registry.
//
// One instrument vocabulary for the whole stack — compiler, switch model,
// runtime, simulation, benches — replacing the ad-hoc stat structs each of
// them grew independently. Three metric kinds:
//
//   Counter    monotonic uint64, relaxed-atomic increments (hot-path safe)
//   Gauge      last-written double (set/add)
//   Histogram  fixed upper-bound buckets with atomic counts; p50/p90/p99
//              read out by linear interpolation inside the bucket
//
// Metrics are identified by (name, label set) and registered on first use;
// handles returned by the registry are stable for the registry's lifetime,
// so hot paths hold raw pointers and never touch the registration mutex.
// Exporters render the whole registry as Prometheus text exposition or as
// JSON (the machine-readable form CI validates against a schema).
//
// OpCounts is the one op-count type of the system: the interpreter fills it
// per pass, Outcomes carry it, OpCountsRecorder sums it onto the registry,
// and perf::CostModel prices it. It lives here because telemetry is the
// leaf library every other layer already depends on.
#pragma once

#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gallium::telemetry {

// Label sets are small (1-3 entries); a sorted vector keeps the identity
// canonical without dragging in a map per metric.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

// Minimal JSON string escaping shared by every telemetry exporter.
std::string JsonEscape(const std::string& s);

class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

// Fixed-bucket histogram. `bounds` are inclusive upper bounds in ascending
// order; one implicit overflow bucket catches everything above the last
// bound. Observations are two relaxed atomic adds (bucket + running sum),
// so the instrument is safe under concurrent writers.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t Count() const;
  double Sum() const;
  // Quantile estimate (q in [0,1]): find the bucket holding the q-th
  // observation, interpolate linearly between its bounds. Values in the
  // overflow bucket report the last finite bound (the estimate saturates).
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds + overflow
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

// 1-2-5 series from 1 µs to 1 s: the default resolution for every latency
// instrument in the repo (sync commits, resyncs, end-to-end stamps).
std::vector<double> DefaultLatencyBucketsUs();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create. Asserts (and returns the existing instrument) if the
  // same (name, labels) identity was registered with a different kind.
  Counter* GetCounter(const std::string& name, LabelSet labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, LabelSet labels = {},
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, LabelSet labels = {},
                          std::vector<double> bounds = DefaultLatencyBucketsUs(),
                          const std::string& help = "");

  // Prometheus text exposition format (HELP/TYPE headers, _bucket/_sum/
  // _count expansion for histograms).
  std::string ToPrometheusText() const;
  // {"metrics":[{name,type,labels,value|buckets+quantiles},...]}
  std::string ToJson() const;

  size_t size() const;

  // The process-wide default instance (tools that want one shared scrape
  // target). Libraries take a registry pointer instead of assuming this.
  static MetricsRegistry& Default();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Metric {
    std::string name;
    LabelSet labels;
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Metric* FindOrCreate(const std::string& name, LabelSet labels,
                       const std::string& help, Kind kind,
                       std::vector<double> bounds);

  mutable std::mutex mu_;
  // Registration order preserved for deterministic export.
  std::vector<std::unique_ptr<Metric>> metrics_;
  std::map<std::string, size_t> index_;  // canonical key -> metrics_ index
};

// Interpreter op counts of one pass (or a sum of passes), per op kind.
struct OpCounts {
  int64_t insts = 0;
  int64_t alu_ops = 0;
  int64_t header_ops = 0;
  int64_t map_lookups = 0;
  int64_t map_updates = 0;
  int64_t vector_ops = 0;
  int64_t global_ops = 0;
  int64_t payload_ops = 0;
  int64_t branches = 0;

  OpCounts& operator+=(const OpCounts& other);
  int64_t Total() const;
  bool operator==(const OpCounts&) const = default;
};

// Field table driving the registry recorder and the exporters (one counter
// / JSON key per op kind, no hand-maintained switch statements).
struct OpCountField {
  const char* name;
  int64_t OpCounts::* field;
};
inline constexpr OpCountField kOpCountFields[] = {
    {"insts", &OpCounts::insts},
    {"alu", &OpCounts::alu_ops},
    {"header", &OpCounts::header_ops},
    {"map_lookup", &OpCounts::map_lookups},
    {"map_update", &OpCounts::map_updates},
    {"vector", &OpCounts::vector_ops},
    {"global", &OpCounts::global_ops},
    {"payload", &OpCounts::payload_ops},
    {"branch", &OpCounts::branches},
};

// Both run on the per-packet hot path (once per pipeline pass) — keep them
// inline so an optimized build reduces them to straight-line adds.
inline OpCounts& OpCounts::operator+=(const OpCounts& other) {
  for (const auto& f : kOpCountFields) this->*(f.field) += other.*(f.field);
  return *this;
}

inline int64_t OpCounts::Total() const {
  int64_t total = 0;
  for (const auto& f : kOpCountFields) total += this->*(f.field);
  return total;
}

// Registry-backed accumulator for op counts: one counter per op kind under
// a common metric name, distinguished by a "kind" label. Add() is on the
// per-packet hot path, so it accumulates into a plain local OpCounts (one
// cache line, no atomics); Flush()/Totals() push the pending deltas onto
// the registry counters, which remain the durable scrape target. Add and
// Flush assume a single writer (the owning middlebox serializes Process);
// the registry counters themselves stay safe to scrape concurrently.
class OpCountsRecorder {
 public:
  OpCountsRecorder() = default;
  OpCountsRecorder(MetricsRegistry* registry, const std::string& metric_name,
                   LabelSet base_labels);

  bool bound() const { return counters_[0] != nullptr; }
  void Add(const OpCounts& counts) { pending_ += counts; }
  void Flush() const;
  OpCounts Totals() const;

 private:
  Counter* counters_[std::size(kOpCountFields)] = {};
  mutable OpCounts pending_;
};

}  // namespace gallium::telemetry
