// Cost-model harness: composes packet-level runtime facts (op counts,
// fast-path fractions, sync latencies) with the calibrated cost model into
// the modeled end-to-end numbers the paper reports — latency (Table 2), TCP
// microbenchmark throughput (Fig. 7), and the inputs of the realistic
// workload simulations (Figs. 8 & 9). Every value here is a model output,
// not a measurement; the benches label it `model`.
#pragma once

#include <functional>
#include <vector>

#include "mbox/middleboxes.h"
#include "perf/cost_model.h"
#include "runtime/offloaded_middlebox.h"
#include "runtime/software_middlebox.h"
#include "util/rng.h"

namespace gallium::perf {

// Representative per-packet behavior of one middlebox under a TCP workload,
// measured by running a trace through both runtimes.
struct MiddleboxProfile {
  std::string name;
  telemetry::OpCounts baseline_stats;    // mean per-packet ops, software
  telemetry::OpCounts server_slow_stats; // mean per-slow-packet server ops
  double fast_path_fraction = 1.0;       // offloaded: share never hitting server
  double sync_per_slow_packet = 0.0;     // share of slow packets that sync
  double mean_sync_latency_us = 0.0;
};

// Runs `num_flows` TCP flows through both runtimes and averages.
Result<MiddleboxProfile> ProfileMiddlebox(
    const std::function<Result<mbox::MiddleboxSpec>()>& build, int num_flows,
    uint64_t seed = 7);

// --- Latency (Table 2) -----------------------------------------------------

// End-to-end one-way latency through the FastClick deployment:
// endhost -> switch -> middlebox server -> switch -> endhost.
double FastClickLatencyUs(const CostModel& cost,
                          const telemetry::OpCounts& stats, int wire_bytes);

// End-to-end latency through the Gallium deployment's fast path:
// endhost -> switch (pre+post in-pipeline) -> endhost.
double OffloadedFastPathLatencyUs(const CostModel& cost, int wire_bytes);

// Stage-aware variant: the pipeline traversal is priced by the stages the
// RMT placement actually occupies instead of the flat full-pipe constant.
double OffloadedFastPathLatencyUs(const CostModel& cost, int wire_bytes,
                                  int stages_occupied);

// --- Throughput (Fig. 7) ------------------------------------------------------

// Achievable throughput of the FastClick middlebox on `cores` cores for
// fixed-size packets.
double ClickThroughputGbps(const CostModel& cost,
                           const telemetry::OpCounts& stats, int wire_bytes,
                           int cores);

// Achievable throughput of the offloaded middlebox (server restricted to
// one core, as in §6.3's setup).
double OffloadedThroughputGbps(const CostModel& cost,
                               const MiddleboxProfile& profile,
                               int wire_bytes);

}  // namespace gallium::perf
