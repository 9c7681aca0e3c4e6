#include "perf/cost_model.h"

#include <algorithm>
#include <cmath>

namespace gallium::perf {

double CostModel::PacketCycles(const telemetry::OpCounts& stats,
                               int wire_bytes, int payload_bytes) const {
  double cycles = cycles_pkt_fixed + cycles_per_byte * wire_bytes;
  cycles += cycles_alu * stats.alu_ops;
  cycles += cycles_header_op * stats.header_ops;
  cycles += cycles_map_lookup * stats.map_lookups;
  cycles += cycles_map_update * stats.map_updates;
  cycles += cycles_vector_op * stats.vector_ops;
  cycles += cycles_global_op * stats.global_ops;
  cycles += stats.payload_ops *
            (cycles_payload_op + cycles_payload_per_byte * payload_bytes);
  cycles += cycles_branch * stats.branches;
  return cycles;
}

double CostModel::PacketServerUs(const telemetry::OpCounts& stats,
                                 int wire_bytes, int payload_bytes) const {
  return PacketCycles(stats, wire_bytes, payload_bytes) /
         (server_ghz * 1000.0);
}

double CostModel::SyncRetryLatencyUs(int tables, int retries) const {
  double wait = 0;
  double timeout = control_retry_timeout_us;
  for (int i = 0; i < retries; ++i) {
    wait += timeout;
    timeout = std::min(timeout * control_backoff_factor, control_max_backoff_us);
  }
  // Table 3 shape: per-table up to two tables, sub-linear beyond.
  const double apply =
      tables <= 2 ? control_apply_us * tables
                  : control_apply_us * 2 + (control_apply_us * 0.375) *
                                               (tables - 2);
  return wait + apply;
}

double CostModel::ExpectedSyncLatencyUs(int tables, double loss,
                                        int max_attempts) const {
  loss = std::clamp(loss, 0.0, 0.999);
  double expected = 0;
  double p_reach = 1.0;  // probability the client is still retrying
  for (int r = 0; r < max_attempts; ++r) {
    const double p_success_here = p_reach * (1.0 - loss);
    expected += p_success_here * SyncRetryLatencyUs(tables, r);
    p_reach *= loss;
  }
  // Residual mass: retries exhausted — the runtime gives up and schedules a
  // resync; charge the full backed-off wait.
  expected += p_reach * SyncRetryLatencyUs(tables, max_attempts);
  return expected;
}

double CostModel::PredictedSwitchMpps(const rmt::PlacementReport& report,
                                      int wire_bytes) const {
  // RMT processes one packet per pipeline clock independent of how many
  // stages the program occupies; the wire caps small-packet rates.
  const double line_mpps =
      link_gbps * 1e3 / (std::max(64, wire_bytes) * 8.0);
  (void)report;  // occupancy does not derate a single program's rate
  return std::min(switch_clock_mpps, line_mpps);
}

int CostModel::SharingHeadroom(const rmt::PlacementReport& report) const {
  const rmt::RmtTargetModel& t = report.target;
  int headroom = 1 << 20;
  bool any = false;
  for (const rmt::StageOccupancy& occ : report.stages) {
    if (occ.tables.empty()) continue;
    any = true;
    struct {
      int used, cap;
    } dims[] = {
        {occ.sram_blocks, t.sram_blocks_per_stage},
        {occ.tcam_blocks, t.tcam_blocks_per_stage},
        {occ.hash_units, t.hash_units_per_stage},
        {occ.action_alus, t.action_alus_per_stage},
        {occ.crossbar_bits, t.crossbar_bits_per_stage},
        {occ.num_tables, t.max_tables_per_stage},
    };
    for (const auto& d : dims) {
      if (d.used == 0) continue;
      headroom = std::min(headroom, (d.cap - d.used) / d.used);
    }
  }
  return any ? headroom : (1 << 20);
}

}  // namespace gallium::perf
