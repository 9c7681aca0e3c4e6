// Per-packet, INT-style tracing.
//
// A PacketTrace is the trace context a packet carries as it traverses the
// offloaded pipeline: one TraceHop per stage crossed (switch pre-pass, the
// switch->server sync channel, the server pass, the state-sync commit, the
// return wire, the switch post-pass), each recording the stage id, the op
// counts the interpreter executed there, the RMT stages the pass occupied,
// and a latency stamp (filled in from the cost model by perf::StampTrace).
// Fault-path happenings — retransmits, sync retries, degraded-mode
// fallbacks, resyncs — append TraceFaultEvents to the same context, so a
// single trace answers both "where did this packet spend its time?" and
// "what went wrong on the way".
//
// The Tracer collects completed traces into a bounded ring and exports
// them as Chrome trace-event JSON, directly loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing: one lane per pipeline location,
// one slice per hop, instant markers for fault events.
//
// OpCounts is the one op-count type of the system: the interpreter fills it
// per pass, Outcomes and trace hops carry it, the registry recorder sums
// it, and perf::CostModel prices it. It lives here because telemetry is the
// leaf library every other layer already depends on.
#pragma once

#include <cstdint>
#include <deque>
#include <iterator>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.h"

namespace gallium::telemetry {

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

// Canonical hop stage ids (free-form strings are allowed; these are what
// the offloaded runtime emits).
inline constexpr char kHopSwitchPre[] = "switch.pre";
inline constexpr char kHopWireToServer[] = "wire.to_server";
inline constexpr char kHopServer[] = "server";
inline constexpr char kHopSyncCommit[] = "sync.commit";
inline constexpr char kHopWireToSwitch[] = "wire.to_switch";
inline constexpr char kHopSwitchPost[] = "switch.post";
inline constexpr char kHopDegraded[] = "server.degraded";
inline constexpr char kHopServerFull[] = "server.cache_recovery";

struct TraceHop {
  std::string stage;        // one of the kHop* ids above
  OpCounts ops;             // interpreter op counts executed in this hop
  int transfer_bytes = 0;   // wire hops: Gallium header bytes carried
  int stages_occupied = 0;  // switch hops: RMT stages the pass crossed
  double ts_us = 0;         // offset from packet start (stamped)
  double duration_us = 0;   // cost-model duration (stamped; sync hops carry
                            // the modeled control-plane latency natively)
};

struct TraceFaultEvent {
  std::string kind;    // "retransmit" | "sync.retry" | "sync.batch_drop" |
                       // "sync.ack_drop" | "switch.restart" | "resync" |
                       // "degraded" | "cache_miss" | "sync.failure"
  std::string detail;
  double ts_us = 0;
};

struct PacketTrace {
  uint64_t packet_id = 0;
  std::string scope;  // middlebox name
  bool fast_path = false;
  bool degraded = false;
  bool cache_miss = false;
  bool ok = true;
  double start_us = 0;  // absolute packet start (assigned by the driver)
  double total_us = 0;  // stamped end-to-end duration
  std::vector<TraceHop> hops;
  std::vector<TraceFaultEvent> events;

  // "switch.pre -> wire.to_server -> server -> ..." — the reconstructed
  // path, used by golden tests and log lines.
  std::string PathString() const;
};

// Bounded collector of completed packet traces (ring buffer: oldest traces
// are dropped once `capacity` is exceeded, with a drop count kept).
class Tracer {
 public:
  explicit Tracer(size_t capacity = 4096) : capacity_(capacity) {}

  void Commit(PacketTrace trace);

  uint64_t committed() const;
  uint64_t dropped() const;
  std::vector<PacketTrace> Snapshot() const;

  // Chrome trace-event JSON of the current ring contents; see
  // TracesToChromeJson for the format.
  std::string ToChromeJson() const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<PacketTrace> traces_;
  uint64_t committed_ = 0;
  uint64_t dropped_ = 0;
};

// Chrome trace-event JSON ({"traceEvents":[...]}): per-hop "X" complete
// events laid out on one thread lane per pipeline location (switch / wire /
// server / sync), instant events for faults. Loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Free function so drivers can stamp
// a Snapshot() (perf::StampTrace) before rendering it.
std::string TracesToChromeJson(const std::vector<PacketTrace>& traces);

}  // namespace gallium::telemetry
