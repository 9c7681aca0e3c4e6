#include "perf/harness.h"

#include <algorithm>

#include "workload/packet_gen.h"

namespace gallium::perf {

namespace {

telemetry::OpCounts DivideStats(const telemetry::OpCounts& total, int count) {
  telemetry::OpCounts mean;
  if (count == 0) return mean;
  for (const auto& f : telemetry::kOpCountFields) {
    mean.*(f.field) = total.*(f.field) / count;
  }
  return mean;
}

}  // namespace

Result<MiddleboxProfile> ProfileMiddlebox(
    const std::function<Result<mbox::MiddleboxSpec>()>& build, int num_flows,
    uint64_t seed) {
  GALLIUM_ASSIGN_OR_RETURN(mbox::MiddleboxSpec spec_sw, build());
  GALLIUM_ASSIGN_OR_RETURN(mbox::MiddleboxSpec spec_off, build());

  runtime::SoftwareMiddlebox software(spec_sw);
  runtime::OffloadedOptions options;
  options.serialize_wire = false;  // profiling loop, wire cost modeled later
  GALLIUM_ASSIGN_OR_RETURN(auto offloaded, runtime::OffloadedMiddlebox::Create(
                                               spec_off, options));

  MiddleboxProfile profile;
  profile.name = spec_sw.name;

  Rng rng(seed);
  // iperf-like long TCP flows (the paper's microbenchmark runs ten parallel
  // connections): established flows dominate, so the fast-path fraction
  // reflects steady state (~99.9% for NAT/LB).
  workload::TraceOptions trace_options;
  trace_options.num_flows = num_flows;
  trace_options.min_flow_bytes = 500000;
  trace_options.max_flow_bytes = 2000000;
  const workload::Trace trace = workload::MakeTrace(rng, trace_options);

  telemetry::OpCounts baseline_total;
  telemetry::OpCounts server_total;
  int slow_packets = 0;
  int synced_packets = 0;
  double sync_latency_total = 0;
  uint64_t now_ms = 0;

  for (const net::Packet& pkt : trace.packets) {
    ++now_ms;
    net::Packet sw_pkt = pkt;
    auto sw_out = software.Process(sw_pkt, now_ms);
    if (!sw_out.status.ok()) return sw_out.status;
    baseline_total += sw_out.stats;

    auto off_out = offloaded->Process(pkt, now_ms);
    if (!off_out.status.ok()) return off_out.status;
    if (!off_out.fast_path) {
      ++slow_packets;
      server_total += off_out.server_stats;
      if (off_out.state_synced) {
        ++synced_packets;
        sync_latency_total += off_out.sync_latency_us;
      }
    }
  }

  const int total = static_cast<int>(trace.packets.size());
  profile.baseline_stats = DivideStats(baseline_total, total);
  profile.server_slow_stats = DivideStats(server_total, slow_packets);
  profile.fast_path_fraction =
      total == 0 ? 1.0 : 1.0 - static_cast<double>(slow_packets) / total;
  profile.sync_per_slow_packet =
      slow_packets == 0 ? 0.0
                        : static_cast<double>(synced_packets) / slow_packets;
  profile.mean_sync_latency_us =
      synced_packets == 0 ? 0.0 : sync_latency_total / synced_packets;
  return profile;
}

double FastClickLatencyUs(const CostModel& cost,
                          const telemetry::OpCounts& stats, int wire_bytes) {
  const double processing =
      cost.PacketServerUs(stats, wire_bytes, /*payload_bytes=*/0);
  return cost.endhost_stack_us                       // sender stack
         + cost.WireUs(wire_bytes)                   // host -> switch
         + cost.switch_pipeline_us                   // plain forwarding
         + cost.WireUs(wire_bytes)                   // switch -> middlebox
         + cost.nic_latency_us + processing + cost.nic_latency_us
         + cost.WireUs(wire_bytes)                   // middlebox -> switch
         + cost.switch_pipeline_us
         + cost.WireUs(wire_bytes)                   // switch -> receiver
         + cost.endhost_stack_us;                    // receiver stack
}

double OffloadedFastPathLatencyUs(const CostModel& cost, int wire_bytes) {
  return cost.endhost_stack_us + cost.WireUs(wire_bytes) +
         cost.switch_pipeline_us  // pre+post run inside the pipeline pass
         + cost.WireUs(wire_bytes) + cost.endhost_stack_us;
}

double OffloadedFastPathLatencyUs(const CostModel& cost, int wire_bytes,
                                  int stages_occupied) {
  return cost.endhost_stack_us + cost.WireUs(wire_bytes) +
         cost.SwitchTraversalUs(stages_occupied) + cost.WireUs(wire_bytes) +
         cost.endhost_stack_us;
}

double ClickThroughputGbps(const CostModel& cost,
                           const telemetry::OpCounts& stats, int wire_bytes,
                           int cores) {
  const double cycles = cost.PacketCycles(stats, wire_bytes, 0);
  const double capacity_pps = cores * cost.CorePps(cycles);
  const double line_pps = cost.link_gbps * 1e9 / (wire_bytes * 8.0);
  const double offered_pps =
      std::min(cost.sender_pps_millions * 1e6, line_pps);
  const double achieved = std::min(offered_pps, capacity_pps);
  return achieved * wire_bytes * 8.0 / 1e9;
}

double OffloadedThroughputGbps(const CostModel& cost,
                               const MiddleboxProfile& profile,
                               int wire_bytes) {
  const double line_pps = cost.link_gbps * 1e9 / (wire_bytes * 8.0);
  const double offered_pps =
      std::min(cost.sender_pps_millions * 1e6, line_pps);
  double achieved = offered_pps;

  const double slow_fraction = 1.0 - profile.fast_path_fraction;
  if (slow_fraction > 0) {
    // Slow-path packets are bounded by the single server core; they throttle
    // the total only when their share exceeds what the core sustains.
    const double slow_cycles =
        cost.PacketCycles(profile.server_slow_stats, wire_bytes, 0);
    const double server_pps = cost.CorePps(slow_cycles);
    achieved = std::min(achieved, server_pps / slow_fraction);
  }
  return achieved * wire_bytes * 8.0 / 1e9;
}

}  // namespace gallium::perf
