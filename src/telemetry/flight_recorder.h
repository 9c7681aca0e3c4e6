// Always-on black-box flight recorder.
//
// A fixed set of lanes (one per worker plus lane 0 for control-plane /
// engine-level events), each a fixed-capacity power-of-two ring of POD
// FlightEvent records. Record() is the only hot-path entry point: one
// relaxed fetch_add on a global sequence counter, one relaxed fetch_add on
// the lane cursor, a steady-clock read, and six word stores into a
// preallocated slot — no locks, no allocation, ever. Old events are
// overwritten when a lane wraps (the dropped count is tracked), so the
// recorder holds the *most recent* history of each lane: exactly what a
// postmortem wants.
//
// Writers are single-threaded per lane by convention (worker w records on
// lane w+1; the dispatcher and control plane record on lane 0), matching
// the engine's SPSC discipline. Dumps taken while writers are still
// running may observe a torn in-flight slot at the ring head; dumps taken
// at quiescence — the postmortem hook, --flight-dump after a run, the
// chaos-failure listener — are exact.
//
// Dump formats (both versioned via kDumpVersion):
//   ToJson()       — {"flight_recorder": {...,"events":[...]}} validated by
//                    scripts/schema/flight_dump.schema.json.
//   ToChromeJson() — Chrome trace-event JSON, one timeline thread per lane,
//                    loadable in Perfetto: per-packet hops (recorded with
//                    OffloadedOptions::trace_hops) as measured slices,
//                    every other event as an instant. The repo's only
//                    Perfetto exporter.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/events.h"

namespace gallium::telemetry {

class MetricsRegistry;

struct FlightEvent {
  uint64_t seq = 0;    // global record order across all lanes
  uint64_t ts_ns = 0;  // steady-clock nanoseconds
  uint16_t id = 0;     // EventId
  uint16_t lane = 0;
  uint32_t reserved = 0;
  uint64_t args[3] = {0, 0, 0};
};

class FlightRecorder {
 public:
  static constexpr uint32_t kDumpVersion = 1;
  // Lane 0 + 16 worker lanes covers every configuration the engine
  // accepts; Record() clamps out-of-range lanes to 0 rather than dropping.
  static constexpr uint16_t kDefaultLanes = 17;
  static constexpr uint32_t kDefaultCapacityPerLane = 2048;

  explicit FlightRecorder(uint16_t lanes = kDefaultLanes,
                          uint32_t capacity_per_lane = kDefaultCapacityPerLane);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // The process-wide always-on instance. Subsystems that are not handed an
  // explicit recorder fall back to this one, so every run — tests, benches,
  // galliumc — has a black box by default.
  static FlightRecorder& Default();

  // Hot path. Zero allocation; safe from any thread (lanes are
  // single-writer by convention, see header comment).
  void Record(uint16_t lane, EventId id, uint64_t a0 = 0, uint64_t a1 = 0,
              uint64_t a2 = 0) noexcept;

  uint16_t lanes() const { return num_lanes_; }
  uint32_t capacity_per_lane() const { return capacity_; }
  uint64_t events_recorded() const;
  // Events overwritten by ring wrap (recorded minus still resident).
  uint64_t events_dropped() const;
  // Events currently resident on one lane (≤ capacity_per_lane).
  uint32_t LaneOccupancy(uint16_t lane) const;

  // All resident events merged across lanes, ordered by global seq.
  std::vector<FlightEvent> Snapshot() const;

  // Versioned structured dump (see header comment for schema).
  std::string ToJson() const;
  // Chrome trace-event rendering: one named thread per lane. Each hop event
  // becomes an "X" slice from its packet's previous event on the lane (the
  // packet.begin or the previous hop) to the hop's own timestamp, so slice
  // durations are measured wall time that add up to the packet's
  // end-to-end time; packet.begin itself is not drawn, nor is a packet
  // whose packet.begin was overwritten by ring wrap. Every other event is
  // an instant carrying its decoded args.
  std::string ToChromeJson() const;

  // Writes ToJson() to `path` and ToChromeJson() to `path` with a
  // ".trace.json" suffix appended (postmortem convention: the pair travels
  // together). Returns false if either file cannot be written.
  bool DumpToFile(const std::string& path) const;

  // Registers/refreshes recorder self-metrics on `registry`:
  // gallium_flight_events_recorded / _dropped gauges and the per-lane
  // gallium_flight_ring_occupancy gauge.
  void PublishMetrics(MetricsRegistry* registry) const;

  // Drops all resident events and zeroes the counters. Test-only; not
  // thread-safe against concurrent Record().
  void Clear();

 private:
  struct Lane {
    std::atomic<uint64_t> head{0};  // free-running write cursor
    std::unique_ptr<FlightEvent[]> slots;
  };

  uint16_t num_lanes_;
  uint32_t capacity_;  // power of two
  uint32_t mask_;
  std::atomic<uint64_t> next_seq_{0};
  std::unique_ptr<Lane[]> lanes_;
};

}  // namespace gallium::telemetry
