#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "telemetry/metrics.h"

namespace gallium::telemetry {
namespace {

struct EventInfo {
  const char* name;
  const char* a0;
  const char* a1;
  const char* a2;
};

// Indexed by EventId. Names are the stable external contract (dumps,
// schema, Perfetto); keep them in sync with events.h comments.
constexpr EventInfo kEventInfo[] = {
    {"watchdog.mode_change", "from", "to", "transitions"},
    {"watchdog.probe_miss", "consecutive_misses", "ewma_us", nullptr},
    {"sync.shed_episode_begin", "backlog_depth", nullptr, nullptr},
    {"sync.shed_episode_end", "packets_shed", nullptr, nullptr},
    {"sync.backpressure", "backlog_depth", nullptr, nullptr},
    {"sync.backlog_pump", "mutations", "latency_us", "depth"},
    {"sync.retry", "attempt", "seq", nullptr},
    {"sync.batch_drop", "seq", nullptr, nullptr},
    {"sync.ack_drop", "seq", nullptr, nullptr},
    {"sync.failure", "seq", "attempts", nullptr},
    {"switch.restart", "epoch", nullptr, nullptr},
    {"resync.begin", "backlog_cleared", nullptr, nullptr},
    {"resync.end", "latency_us", "entries", nullptr},
    {"degraded.enter", "packets_total", nullptr, nullptr},
    {"degraded.exit", "packets_degraded", nullptr, nullptr},
    {"fault.grey_window_begin", "packet_index", nullptr, nullptr},
    {"fault.grey_window_end", "packet_index", nullptr, nullptr},
    {"fault.outage_begin", "packet_index", nullptr, nullptr},
    {"fault.outage_end", "packet_index", nullptr, nullptr},
    {"flow_table.resize_begin", "old_buckets", "new_buckets", "size"},
    {"flow_table.resize_end", "migrated_buckets", "stash_size", nullptr},
    {"flow_table.stash_spill", "stash_size", "kick_chain_bound", nullptr},
    {"flow_table.forced_migration", "buckets", nullptr, nullptr},
    {"flow_table.sweep", "slots_visited", "expired", nullptr},
    {"engine.ring_high_water", "worker", "occupancy", "capacity"},
    {"packet.begin", "packet_id", nullptr, nullptr},
    {"switch.pre", "packet_id", "ops_total", "rmt_stages"},
    {"wire.to_server", "packet_id", "ops_total", "transfer_bytes"},
    {"server", "packet_id", "ops_total", nullptr},
    {"sync.commit", "packet_id", "ops_total", "model_latency_us"},
    {"wire.to_switch", "packet_id", "ops_total", "transfer_bytes"},
    {"switch.post", "packet_id", "ops_total", "rmt_stages"},
    {"server.degraded", "packet_id", "ops_total", nullptr},
    {"server.cache_recovery", "packet_id", "ops_total", nullptr},
    {"link.retransmit", "direction", "seq", nullptr},
};
static_assert(sizeof(kEventInfo) / sizeof(kEventInfo[0]) ==
                  static_cast<size_t>(EventId::kNumEventIds),
              "kEventInfo out of sync with EventId");

const EventInfo& Info(EventId id) {
  const auto idx = static_cast<size_t>(id);
  if (idx >= static_cast<size_t>(EventId::kNumEventIds)) {
    static constexpr EventInfo kUnknown = {"unknown", "a0", "a1", "a2"};
    return kUnknown;
  }
  return kEventInfo[idx];
}

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

void AppendArgsJson(std::ostringstream& out, const FlightEvent& e) {
  const EventInfo& info = Info(static_cast<EventId>(e.id));
  const char* names[3] = {info.a0, info.a1, info.a2};
  out << "{";
  bool first = true;
  for (int i = 0; i < 3; ++i) {
    if (names[i] == nullptr) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << names[i] << "\":" << e.args[i];
  }
  out << "}";
}

}  // namespace

const char* EventName(EventId id) { return Info(id).name; }

const char* EventArgName(EventId id, int arg) {
  const EventInfo& info = Info(id);
  switch (arg) {
    case 0:
      return info.a0;
    case 1:
      return info.a1;
    case 2:
      return info.a2;
    default:
      return nullptr;
  }
}

FlightRecorder::FlightRecorder(uint16_t lanes, uint32_t capacity_per_lane)
    : num_lanes_(lanes == 0 ? 1 : lanes),
      capacity_(RoundUpPow2(capacity_per_lane == 0 ? 1 : capacity_per_lane)),
      mask_(capacity_ - 1),
      lanes_(new Lane[num_lanes_]) {
  for (uint16_t l = 0; l < num_lanes_; ++l) {
    lanes_[l].slots.reset(new FlightEvent[capacity_]);
  }
}

FlightRecorder& FlightRecorder::Default() {
  // Leaked on purpose, like MetricsRegistry::Default(): destruction order
  // against worker threads at exit is unknowable.
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

void FlightRecorder::Record(uint16_t lane, EventId id, uint64_t a0,
                            uint64_t a1, uint64_t a2) noexcept {
  Lane& l = lanes_[lane < num_lanes_ ? lane : 0];
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t pos = l.head.fetch_add(1, std::memory_order_relaxed);
  FlightEvent& e = l.slots[pos & mask_];
  e.seq = seq;
  e.ts_ns = SteadyNowNs();
  e.id = static_cast<uint16_t>(id);
  e.lane = lane < num_lanes_ ? lane : 0;
  e.args[0] = a0;
  e.args[1] = a1;
  e.args[2] = a2;
}

uint64_t FlightRecorder::events_recorded() const {
  return next_seq_.load(std::memory_order_relaxed);
}

uint64_t FlightRecorder::events_dropped() const {
  uint64_t dropped = 0;
  for (uint16_t l = 0; l < num_lanes_; ++l) {
    const uint64_t head = lanes_[l].head.load(std::memory_order_relaxed);
    if (head > capacity_) dropped += head - capacity_;
  }
  return dropped;
}

uint32_t FlightRecorder::LaneOccupancy(uint16_t lane) const {
  if (lane >= num_lanes_) return 0;
  const uint64_t head = lanes_[lane].head.load(std::memory_order_relaxed);
  return static_cast<uint32_t>(std::min<uint64_t>(head, capacity_));
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> events;
  for (uint16_t l = 0; l < num_lanes_; ++l) {
    const uint64_t head = lanes_[l].head.load(std::memory_order_acquire);
    const uint64_t resident = std::min<uint64_t>(head, capacity_);
    for (uint64_t pos = head - resident; pos < head; ++pos) {
      events.push_back(lanes_[l].slots[pos & mask_]);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return events;
}

std::string FlightRecorder::ToJson() const {
  const std::vector<FlightEvent> events = Snapshot();
  std::ostringstream out;
  out << "{\"flight_recorder\":{";
  out << "\"version\":" << kDumpVersion;
  out << ",\"lanes\":" << num_lanes_;
  out << ",\"capacity_per_lane\":" << capacity_;
  out << ",\"events_recorded\":" << events_recorded();
  out << ",\"events_dropped\":" << events_dropped();
  out << ",\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (i != 0) out << ",";
    out << "{\"seq\":" << e.seq;
    out << ",\"ts_ns\":" << e.ts_ns;
    out << ",\"lane\":" << e.lane;
    out << ",\"id\":" << e.id;
    out << ",\"name\":\"" << EventName(static_cast<EventId>(e.id)) << "\"";
    out << ",\"args\":";
    AppendArgsJson(out, e);
    out << "}";
  }
  out << "]}}";
  return out.str();
}

std::string FlightRecorder::ToChromeJson() const {
  const std::vector<FlightEvent> events = Snapshot();
  uint64_t base_ns = events.empty() ? 0 : events.front().ts_ns;
  for (const FlightEvent& e : events) base_ns = std::min(base_ns, e.ts_ns);

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"gallium flight recorder\"}}";
  for (uint16_t l = 0; l < num_lanes_; ++l) {
    if (LaneOccupancy(l) == 0) continue;
    out << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << l
        << ",\"args\":{\"name\":\"";
    if (l == 0) {
      out << "lane 0 (control)";
    } else {
      out << "worker " << (l - 1);
    }
    out << "\"}}";
  }
  // The packet whose hops each lane is drawing, and where its last slice
  // ended. A lane's writer runs one packet at a time, so the packet's
  // events are in order on its lane; a hop whose packet.begin was
  // overwritten by ring wrap finds no open packet and is skipped.
  struct OpenPacket {
    bool open = false;
    uint64_t id = 0;
    uint64_t last_ns = 0;
  };
  std::vector<OpenPacket> open(num_lanes_);
  // Nanoseconds as Chrome's microsecond timestamps.
  const auto us = [](uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
    return std::string(buf);
  };
  for (const FlightEvent& e : events) {
    const auto id = static_cast<EventId>(e.id);
    OpenPacket& pkt = open[e.lane];
    if (id == EventId::kPacketBegin) {
      pkt = {true, e.args[0], e.ts_ns};
      continue;
    }
    if (IsHopEvent(id)) {
      if (!pkt.open || pkt.id != e.args[0]) continue;
      // The slice runs from the packet's previous event to this hop's own
      // timestamp: measured wall time, summing to the packet's end-to-end
      // time.
      out << ",{\"name\":\"" << EventName(id)
          << "\",\"cat\":\"packet\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.lane
          << ",\"ts\":" << us(pkt.last_ns - base_ns)
          << ",\"dur\":" << us(e.ts_ns - pkt.last_ns)
          << ",\"args\":";
      pkt.last_ns = e.ts_ns;
    } else {
      out << ",{\"name\":\"" << EventName(id)
          << "\",\"cat\":\"flight\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
             "\"tid\":"
          << e.lane << ",\"ts\":" << us(e.ts_ns - base_ns) << ",\"args\":";
    }
    AppendArgsJson(out, e);
    out << "}";
  }
  out << "]}";
  return out.str();
}

bool FlightRecorder::DumpToFile(const std::string& path) const {
  const auto write = [](const std::string& file, const std::string& body) {
    std::FILE* f = std::fopen(file.c_str(), "w");
    if (f == nullptr) return false;
    const size_t n = std::fwrite(body.data(), 1, body.size(), f);
    const bool ok = n == body.size() && std::fclose(f) == 0;
    if (!ok && n != body.size()) std::fclose(f);
    return ok;
  };
  return write(path, ToJson()) && write(path + ".trace.json", ToChromeJson());
}

void FlightRecorder::PublishMetrics(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->GetGauge("gallium_flight_events_recorded", {})
      ->Set(static_cast<double>(events_recorded()));
  registry->GetGauge("gallium_flight_events_dropped", {})
      ->Set(static_cast<double>(events_dropped()));
  for (uint16_t l = 0; l < num_lanes_; ++l) {
    const uint32_t occ = LaneOccupancy(l);
    if (occ == 0) continue;
    registry
        ->GetGauge("gallium_flight_ring_occupancy",
                   {{"lane", std::to_string(l)}})
        ->Set(static_cast<double>(occ));
  }
}

void FlightRecorder::Clear() {
  for (uint16_t l = 0; l < num_lanes_; ++l) {
    lanes_[l].head.store(0, std::memory_order_relaxed);
  }
  next_seq_.store(0, std::memory_order_relaxed);
}

}  // namespace gallium::telemetry
