// Flight-recorder event taxonomy.
//
// Every event is a fixed-size binary record: an EventId, a steady-clock
// timestamp, the lane it was recorded on, and up to three u64 arguments
// whose meaning is fixed per id (EventArgName). The taxonomy deliberately
// covers *transitions* — edges the cumulative counters in metrics.h cannot
// reconstruct after the fact: which came first, how deep the backlog was
// when shedding started, how long a resize drain actually took. With
// OffloadedOptions::trace_hops off (the default), steady per-packet
// activity (bursts, lookups, hits) is intentionally absent; those belong in
// counters and histograms, not the ring. With it on, every packet also
// records a packet.begin and one hop event per pipeline layer as that
// layer finishes, so consecutive timestamps of one packet on its lane are
// the measured wall time of each layer (FlightRecorder::ToChromeJson draws
// them as slices).
//
// Ids are append-only: dumps are versioned (FlightRecorder::kDumpVersion)
// and external consumers key on the string name, so renumbering an id is a
// breaking change. Add new ids before kNumEventIds only.
#pragma once

#include <cstdint>

namespace gallium::telemetry {

enum class EventId : uint16_t {
  // Watchdog / health (src/runtime/health.cc).
  kWatchdogModeChange = 0,  // a0=from Mode, a1=to Mode, a2=transitions
  kProbeMiss = 1,           // a0=consecutive_misses, a1=ewma_us

  // Sync queue / control plane (src/runtime/offloaded_middlebox.cc).
  kShedEpisodeBegin = 2,   // a0=backlog depth at first shed
  kShedEpisodeEnd = 3,     // a0=packets shed in the episode
  kSyncBackpressure = 4,   // a0=backlog depth forcing the inline drain
  kSyncBacklogPump = 5,    // a0=mutations drained, a1=latency_us, a2=depth
  kSyncRetry = 6,          // a0=attempt, a1=seq
  kSyncBatchDrop = 7,      // a0=seq
  kSyncAckDrop = 8,        // a0=seq
  kSyncFailure = 9,        // a0=seq, a1=attempts
  kSwitchRestart = 10,     // a0=new epoch
  kResyncBegin = 11,       // a0=backlog mutations cleared
  kResyncEnd = 12,         // a0=latency_us, a1=entries replayed
  kDegradedEnter = 13,     // a0=packets processed so far
  kDegradedExit = 14,      // a0=packets handled while degraded

  // Fault-injector window edges (src/runtime/fault.h).
  kGreyWindowBegin = 15,  // a0=packet index
  kGreyWindowEnd = 16,    // a0=packet index
  kOutageBegin = 17,      // a0=packet index
  kOutageEnd = 18,        // a0=packet index

  // Flow tables (src/state/flow_table.cc).
  kFlowTableResizeBegin = 19,      // a0=old buckets, a1=new buckets, a2=size
  kFlowTableResizeEnd = 20,        // a0=migrated buckets, a1=stash size
  kFlowTableStashSpill = 21,       // a0=stash size, a1=kick-chain bound
  kFlowTableForcedMigration = 22,  // a0=buckets migrated in the burst
  kFlowTableSweep = 23,            // a0=slots visited, a1=entries expired

  // Engine (src/engine/engine.cc).
  kEngineRingHighWater = 24,  // a0=worker, a1=occupancy, a2=capacity

  // Per-packet hops (src/runtime/offloaded_middlebox.cc), recorded only
  // with OffloadedOptions::trace_hops, each as its layer finishes.
  // packet_id is the recording instance's packet index, so each tracing
  // instance needs a lane of its own (the engine gives worker w lane w+1).
  // Every hop carries a0=packet_id, a1=ops_total, and its figure in a2.
  kPacketBegin = 25,      // a0=packet_id
  kHopSwitchPre = 26,     // switch.pre, a2=rmt_stages
  kHopWireToServer = 27,  // wire.to_server, a2=transfer_bytes
  kHopServer = 28,        // server
  kHopSyncCommit = 29,    // sync.commit, a2=model_latency_us
  kHopWireToSwitch = 30,  // wire.to_switch, a2=transfer_bytes
  kHopSwitchPost = 31,    // switch.post, a2=rmt_stages
  kHopDegraded = 32,      // server.degraded: whole program on the server
  kHopServerFull = 33,    // server.cache_recovery: §7 cache-miss pass

  // Data links (src/runtime/offloaded_middlebox.cc).
  kLinkRetransmit = 34,  // a0=direction (0 switch->server, 1 server->switch),
                         // a1=frame seq

  kNumEventIds
};

// Stable string name for dumps ("watchdog.mode_change" etc.).
const char* EventName(EventId id);

// Name of argument slot `arg` (0..2) for `id`; nullptr when the slot is
// unused. Dump writers only serialize named slots.
const char* EventArgName(EventId id, int arg);

// True for the per-packet hop ids (kHopSwitchPre..kHopServerFull).
constexpr bool IsHopEvent(EventId id) {
  return id >= EventId::kHopSwitchPre && id <= EventId::kHopServerFull;
}

}  // namespace gallium::telemetry
