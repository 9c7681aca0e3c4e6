// Calibrated performance model.
//
// The paper's testbed (Xeon E5-2680 @2.5 GHz, Mellanox CX-4 100 Gb NICs,
// Barefoot Tofino) is replaced by explicit cost arithmetic. Constants are
// calibrated so the *baseline* (FastClick) lands in the paper's measured
// ranges — ~23 µs end-to-end latency, tens of Gb/s per 4 cores — and the
// offloaded path differs from it by exactly the effects Gallium changes:
// which packets touch the server, how many instructions run there, and how
// often control-plane synchronization happens. See EXPERIMENTS.md for the
// calibration notes.
#pragma once

#include <cstdint>

#include "rmt/placement.h"
#include "telemetry/metrics.h"

namespace gallium::perf {

struct CostModel {
  // --- Server ------------------------------------------------------------------
  double server_ghz = 2.5;  // Xeon E5-2680

  // Fixed per-packet driver/framework overhead (DPDK rx+tx, FastClick
  // scheduling) and the per-byte touch cost (checksum/copy passes).
  double cycles_pkt_fixed = 200.0;
  double cycles_per_byte = 0.75;

  // Per-IR-operation costs (cache-resident hash map, header parsing, ALU).
  double cycles_alu = 2.0;
  double cycles_header_op = 6.0;
  double cycles_map_lookup = 120.0;
  double cycles_map_update = 180.0;
  double cycles_vector_op = 8.0;
  double cycles_global_op = 4.0;
  double cycles_payload_op = 60.0;   // pattern scan setup
  double cycles_payload_per_byte = 0.6;
  double cycles_branch = 1.5;

  // --- Devices / wires ------------------------------------------------------------
  double link_gbps = 100.0;
  double switch_pipeline_us = 0.8;   // Tofino ingress->egress, full pipeline
  // Stage-resolved decomposition of switch_pipeline_us (RMT backend):
  // parser/deparser plus a per-traversed-stage cost. With the default
  // 12-stage profile, parse + 12 stages reproduces the flat constant.
  double switch_parse_us = 0.2;
  double switch_stage_us = 0.05;
  // Per-pipe packet budget of the match-action clock: an RMT pipeline
  // forwards one packet per clock regardless of program complexity (§2.1).
  double switch_clock_mpps = 1450.0;
  double nic_latency_us = 3.0;       // PCIe + MAC, per NIC traversal
  double endhost_stack_us = 7.5;     // Linux endpoint send or receive path

  // Aggregate packet-generation capability of the sender hosts (Linux
  // stacks, ten iperf streams): limits small-packet throughput.
  double sender_pps_millions = 50.0;

  // --- Control-plane reliability (hardened state sync) --------------------------
  // Mirrors runtime::SyncPolicy: retransmit timeout and exponential backoff
  // of the reliable sync client. Kept here so the analytical latency model
  // can price a faulty control channel the same way the simulated runtime
  // experiences it.
  double control_retry_timeout_us = 500.0;
  double control_backoff_factor = 2.0;
  double control_max_backoff_us = 8000.0;
  // ~135 µs per touched table on a successful delivery (Table 3).
  double control_apply_us = 135.0;

  // --- Derived helpers ---------------------------------------------------------
  // Cycles to process one packet in software given executed-op counts.
  double PacketCycles(const telemetry::OpCounts& stats, int wire_bytes,
                      int payload_bytes) const;
  // Server processing time in microseconds.
  double PacketServerUs(const telemetry::OpCounts& stats, int wire_bytes,
                        int payload_bytes) const;
  // Wire serialization delay for one packet.
  double WireUs(int wire_bytes) const {
    return wire_bytes * 8.0 / (link_gbps * 1000.0);
  }
  // Packets/second one server core sustains for packets with these costs.
  double CorePps(double cycles_per_packet) const {
    return server_ghz * 1e9 / cycles_per_packet;
  }
  // Modeled output-commit wait for a sync batch touching `tables` tables
  // that needed `retries` retransmissions: each retry waits out the
  // (exponentially backed-off) timeout before the final successful apply.
  double SyncRetryLatencyUs(int tables, int retries) const;
  // Expected sync latency per batch when each delivery (batch or ack) is
  // lost independently with probability `loss`: sum over the retry
  // distribution, truncated at `max_attempts`.
  double ExpectedSyncLatencyUs(int tables, double loss,
                               int max_attempts = 10) const;

  // --- RMT stage-aware hooks (rmt::PlaceTables output) ---------------------------
  // One traversal of a pipeline whose placement occupies `stages_occupied`
  // stages: parse/deparse plus the per-stage cost of every stage up to the
  // highest occupied one (the packet physically crosses all of them).
  double SwitchTraversalUs(int stages_occupied) const {
    return switch_parse_us + switch_stage_us * stages_occupied;
  }
  // Predicted switch-side throughput for a placed program. RMT forwards at
  // the match-action clock whatever the placement looks like; the line rate
  // for `wire_bytes` packets caps it.
  double PredictedSwitchMpps(const rmt::PlacementReport& report,
                             int wire_bytes) const;
  // How many additional copies of this program's per-stage demand the
  // pipeline could co-host (multi-middlebox sharing headroom): floor over
  // stages of free/used for the binding resource. Returns INT_MAX-like
  // large value when the placement is empty.
  int SharingHeadroom(const rmt::PlacementReport& report) const;
};

}  // namespace gallium::perf
