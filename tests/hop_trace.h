// Per-packet hop paths read back from a flight recorder, for tests of the
// runtime's hop tracing (OffloadedOptions::trace_hops).
#pragma once

#include <string>
#include <vector>

#include "telemetry/flight_recorder.h"

namespace gallium::testing {

// One packet as its lane recorded it: the packet.begin's id and lane, then
// its hop events in record order.
struct HopPacket {
  uint16_t lane = 0;
  uint64_t id = 0;
  std::vector<telemetry::FlightEvent> hops;

  // "switch.pre -> wire.to_server -> ..." — the reconstructed path.
  std::string Path() const {
    std::string path;
    for (const auto& hop : hops) {
      if (!path.empty()) path += " -> ";
      path += telemetry::EventName(static_cast<telemetry::EventId>(hop.id));
    }
    return path;
  }
};

// Every resident packet.begin with the hops that follow it on its lane, in
// record order. Hops whose packet.begin is not resident are skipped.
inline std::vector<HopPacket> HopPackets(
    const telemetry::FlightRecorder& recorder) {
  std::vector<HopPacket> packets;
  std::vector<long> open(recorder.lanes(), -1);  // lane -> index in packets
  for (const telemetry::FlightEvent& e : recorder.Snapshot()) {
    const auto id = static_cast<telemetry::EventId>(e.id);
    if (id == telemetry::EventId::kPacketBegin) {
      open[e.lane] = static_cast<long>(packets.size());
      packets.push_back({e.lane, e.args[0], {}});
    } else if (telemetry::IsHopEvent(id) && open[e.lane] >= 0 &&
               packets[open[e.lane]].id == e.args[0]) {
      packets[open[e.lane]].hops.push_back(e);
    }
  }
  return packets;
}

// True when `hop` is a pass that ran on the switch / on the server.
inline bool IsSwitchHop(const telemetry::FlightEvent& hop) {
  const auto id = static_cast<telemetry::EventId>(hop.id);
  return id == telemetry::EventId::kHopSwitchPre ||
         id == telemetry::EventId::kHopSwitchPost;
}
inline bool IsServerHop(const telemetry::FlightEvent& hop) {
  const auto id = static_cast<telemetry::EventId>(hop.id);
  return id == telemetry::EventId::kHopServer ||
         id == telemetry::EventId::kHopDegraded ||
         id == telemetry::EventId::kHopServerFull;
}

}  // namespace gallium::testing
