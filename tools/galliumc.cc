// galliumc — the Gallium compiler driver.
//
// Compiles one of the built-in middleboxes and writes the deployable
// artifacts:
//   <out>/<name>.p4       — the switch program (pre + post partitions)
//   <out>/<name>_server.cc — the DPDK server program (non-offloaded part)
//   <out>/<name>_input.cc  — the rendered input source (what Table 1 counts)
//   <out>/<name>_plan.txt  — partition plan, transfers, state placement
//
// Usage:
//   galliumc <middlebox> [--out DIR] [--pipeline-depth K]
//            [--metadata-bytes N] [--transfer-bytes N] [--memory-mb N]
//            [--objective count|weighted] [--optimize] [--print]
//            [--resources] [--run N] [--chaos-seed S]
//            [--fault-plan KIND:SEED] [--sync-queue DEPTH]
//            [--pump-interval N] [--shed] [--watchdog]
//            [--verify] [--campaign] [--mutate CLASS]
//            [--metrics-out FILE] [--trace-out FILE]
//            [--metrics-every N] [--flight-dump FILE]
//
//   <middlebox> ∈ {minilb, nat, lb, firewall, proxy, trojan, router}
//
// --resources prints the RMT placement report: the per-stage occupancy of
// every table the plan puts on the switch, the peak stage utilization, and
// the cost model's stage-aware latency/throughput prediction.
//
// --run N drives N synthetic packets through the offloaded runtime after
// compiling and reports the fast-path fraction and the fault/recovery
// counters; --chaos-seed S additionally runs them over a seeded faulty
// substrate (lossy links, lossy control plane, switch restarts/outages).
// --fault-plan KIND:SEED replays a named fault-plan generator instead
// (KIND ∈ {random, overload, grey}) — the reproduction handle the chaos
// tests print on failure. --sync-queue DEPTH enables the bounded coalescing
// sync backlog (with --pump-interval N packets between drains and --shed
// selecting ingress shedding over backpressure at the bound), and
// --watchdog enables the health watchdog; both print their counters after
// the run.
//
// --metrics-out FILE scrapes the telemetry registry after the compile (and
// the --run traffic, when requested) into FILE: JSON when the path ends in
// .json, Prometheus text exposition otherwise. Includes per-phase compile
// timings, the runtime's packet/sync/fault counters, per-op-kind execution
// counts, and the per-RMT-stage switch counters.
//
// --trace-out FILE switches per-packet hop tracing on for the --run traffic
// and writes the flight recorder as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing): one slice per hop on the worker lane that
// ran it, each lasting the measured wall time of its layer.
//
// --flight-dump FILE serializes the run's flight recorder (watchdog
// transitions, sync backpressure/shed episodes, flow-table resizes, ring
// high-water marks, and the hops when --trace-out is on) after the run —
// FILE as versioned JSON plus FILE.trace.json as a Perfetto timeline.
// SIGUSR2 triggers the same dump mid-run at the next packet boundary.
// --metrics-every N (engine path) quiesces and rewrites --metrics-out every
// N packets so a live gallium-top can watch the counters move.
//
// --verify gates the compile on translation validation (symbolic path
// equivalence of the composed pre/server/post pipeline against the source
// IR) plus the offload-safety lint suite. --campaign additionally runs the
// Gauntlet-style mutation campaign (all seeded bug classes) against the
// plan; --mutate CLASS restricts it to one class (label-mis-removal,
// dropped-write-back, reordered-sync, wrong-table-action,
// swapped-boundary).
//
// Exit-code contract (stable; CI and tooling rely on it):
//   0  success
//   1  generic failure (I/O, runtime errors, IR verification)
//   2  usage error
//   3  partition/placement infeasibility (JSON diagnostic on stderr)
//   4  verification failure: translation validation rejected the plan, an
//      error-severity lint fired, or a mutation campaign missed a mutant
//      (JSON diagnostic with per-finding details on stderr)
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "cppgen/support.h"
#include "engine/engine.h"
#include "ir/printer.h"
#include "mbox/middleboxes.h"
#include "net/headers.h"
#include "perf/harness.h"
#include "runtime/fault.h"
#include "runtime/health.h"
#include "runtime/offloaded_middlebox.h"
#include "runtime/sync_queue.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "verify/mutation.h"
#include "workload/packet_gen.h"

namespace {

using namespace gallium;

// SIGUSR2 asks the running tool for a flight-recorder dump at the next
// packet boundary — the live-postmortem path an operator uses against a
// wedged run. The handler only flips the flag; all I/O happens on the
// traffic loop's thread.
volatile std::sig_atomic_t g_flight_dump_requested = 0;

void OnFlightDumpSignal(int) { g_flight_dump_requested = 1; }

bool DumpFlightRecorder(const telemetry::FlightRecorder& flight,
                        const std::string& path) {
  if (!flight.DumpToFile(path)) {
    std::fprintf(stderr, "galliumc: cannot write flight dump %s\n",
                 path.c_str());
    return false;
  }
  std::printf("  wrote flight dump to %s (+ %s.trace.json)\n", path.c_str(),
              path.c_str());
  return true;
}

// Services a pending SIGUSR2 request, if any.
void MaybeDumpFlightRecorder(const telemetry::FlightRecorder& flight,
                             const std::string& path) {
  if (g_flight_dump_requested == 0) return;
  g_flight_dump_requested = 0;
  (void)DumpFlightRecorder(flight,
                           path.empty() ? "gallium_flight_dump.json" : path);
}

bool WriteMetricsFile(telemetry::MetricsRegistry* registry,
                      const std::string& path);

Result<mbox::MiddleboxSpec> BuildByName(const std::string& name) {
  if (name == "minilb") return mbox::BuildMiniLb();
  if (name == "nat") return mbox::BuildMazuNat();
  if (name == "lb") return mbox::BuildLoadBalancer();
  if (name == "firewall") return mbox::BuildFirewall();
  if (name == "proxy") return mbox::BuildProxy();
  if (name == "trojan") return mbox::BuildTrojanDetector();
  if (name == "router") {
    // A representative routing table exercising the lpm match kind.
    std::vector<mbox::RouteEntry> routes;
    routes.push_back({0, 0, 9, 0x9});  // default route
    for (uint32_t i = 0; i < 8; ++i) {
      routes.push_back({net::MakeIpv4(10, static_cast<uint8_t>(i), 0, 0), 16,
                        i, 0x100ull + i});
    }
    return mbox::BuildIpRouter(routes);
  }
  return InvalidArgument(
      "unknown middlebox '" + name +
      "' (try: minilb nat lb firewall proxy trojan router)");
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "galliumc: cannot write %s\n", path.c_str());
    return false;
  }
  out << contents;
  return true;
}

bool WriteMetricsFile(telemetry::MetricsRegistry* registry,
                      const std::string& path) {
  const bool json =
      path.size() >= 5 && path.rfind(".json") == path.size() - 5;
  return WriteFile(path,
                   json ? registry->ToJson() : registry->ToPrometheusText());
}

void PrintUsage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: galliumc <minilb|nat|lb|firewall|proxy|trojan|router>\n"
      "                [--out DIR] [--pipeline-depth K] [--metadata-bytes N]\n"
      "                [--transfer-bytes N] [--memory-mb N]\n"
      "                [--objective count|weighted] [--optimize] [--print]\n"
      "                [--resources] [--run N] [--chaos-seed S]\n"
      "                [--workers N] [--burst N] [--flow-capacity N]\n"
      "                [--fault-plan KIND:SEED] [--sync-queue DEPTH]\n"
      "                [--pump-interval N] [--shed] [--watchdog]\n"
      "                [--verify] [--campaign] [--mutate CLASS]\n"
      "                [--metrics-out FILE] [--trace-out FILE]\n"
      "                [--metrics-every N] [--flight-dump FILE]\n"
      "\n"
      "engine:\n"
      "  --workers N    drive --run traffic through the multi-worker packet\n"
      "                 engine with N per-core shards (RSS-style 5-tuple\n"
      "                 steering, shared globals on the sync core)\n"
      "  --burst N      burst size for the run-to-completion loop\n"
      "                 (default 32; implies the engine path)\n"
      "  --flow-capacity N  pre-size every exact-match host map's flat flow\n"
      "                 table for N entries (default: grow incrementally);\n"
      "                 set to the expected concurrent-flow population for\n"
      "                 resize-free steady state\n"
      "\n"
      "robustness:\n"
      "  --fault-plan KIND:SEED  replay a named fault generator (random,\n"
      "                          overload, grey) — the spec chaos failures\n"
      "                          print for reproduction\n"
      "  --sync-queue DEPTH      bounded coalescing sync backlog of DEPTH\n"
      "                          batches (0 = legacy inline sync)\n"
      "  --pump-interval N       drain the backlog every N packets\n"
      "  --shed                  shed at ingress when the backlog is full\n"
      "                          (default: backpressure)\n"
      "  --watchdog              enable the health watchdog (hysteretic\n"
      "                          offloaded/degraded failure detector)\n"
      "\n"
      "telemetry:\n"
      "  --metrics-out FILE  dump the metrics registry (compile timings,\n"
      "                      runtime counters, per-stage switch counters):\n"
      "                      JSON if FILE ends in .json, Prometheus text\n"
      "                      otherwise\n"
      "  --trace-out FILE    trace every hop of the --run traffic and write\n"
      "                      the flight recorder as Chrome trace-event JSON\n"
      "                      (Perfetto-loadable, measured hop durations)\n"
      "  --metrics-every N   (engine path) quiesce and rewrite --metrics-out\n"
      "                      every N packets, so gallium-top can watch the\n"
      "                      run live\n"
      "  --flight-dump FILE  serialize the run's flight recorder after\n"
      "                      the run: FILE holds the versioned JSON dump and\n"
      "                      FILE.trace.json the Perfetto timeline; SIGUSR2\n"
      "                      forces a dump mid-run at the next packet\n"
      "                      boundary\n"
      "\n"
      "verification:\n"
      "  --verify         gate the compile on translation validation +\n"
      "                   offload-safety lints\n"
      "  --campaign       run the mutation campaign (all seeded bug classes)\n"
      "  --mutate CLASS   run one class: label-mis-removal,\n"
      "                   dropped-write-back, reordered-sync,\n"
      "                   wrong-table-action, swapped-boundary\n"
      "\n"
      "exit codes:\n"
      "  0  success\n"
      "  1  generic failure\n"
      "  2  usage error\n"
      "  3  partition/placement infeasibility (JSON diagnostic on stderr)\n"
      "  4  verification failure (JSON diagnostic on stderr)\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

// Drives `num_packets` synthetic packets through the offloaded runtime and
// prints the counters, including the fault/retry/degraded-mode ones. The
// runtime publishes its counters into `registry` and its events into
// `flight` (worker w on lane w+1), per-packet hops too when `trace_hops`.
int RunTraffic(const mbox::MiddleboxSpec& spec, int num_packets,
               uint64_t chaos_seed, bool chaos,
               const std::string& fault_spec,
               const runtime::SyncQueueOptions& sync_queue, bool watchdog,
               int workers, int burst, uint64_t flow_capacity,
               int metrics_every, const std::string& metrics_out,
               const std::string& flight_dump,
               telemetry::MetricsRegistry* registry,
               telemetry::FlightRecorder* flight, bool trace_hops) {
  runtime::FaultPlan plan;
  runtime::OffloadedOptions options;
  options.registry = registry;
  options.flight = flight;
  options.flight_lane = 1;  // the bare middlebox is worker 0
  options.trace_hops = trace_hops;
  options.sync_queue = sync_queue;
  options.health.enabled = watchdog;
  options.flow_capacity = flow_capacity;
  if (!fault_spec.empty()) {
    auto parsed = runtime::FaultPlanFromSpec(
        fault_spec, static_cast<uint64_t>(num_packets));
    if (!parsed.ok()) {
      std::fprintf(stderr, "galliumc: bad --fault-plan: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    plan = *parsed;
    options.fault_plan = &plan;
    std::printf("  chaos: %s\n", plan.ToString().c_str());
  } else if (chaos) {
    plan = runtime::MakeRandomFaultPlan(chaos_seed,
                                        static_cast<uint64_t>(num_packets));
    options.fault_plan = &plan;
    std::printf("  chaos: %s\n", plan.ToString().c_str());
  }
  Rng rng(chaos_seed ^ 0x5ca1ab1eull);
  workload::TraceOptions trace_options;
  trace_options.num_flows = std::max(8, num_packets / 8);
  trace_options.ingress_port = mbox::kPortInternal;
  const workload::Trace trace = workload::MakeTrace(rng, trace_options);
  if (trace.packets.empty()) {
    std::fprintf(stderr, "galliumc: empty trace\n");
    return 1;
  }

  // --workers / --burst: route the traffic through the multi-worker engine
  // (per-core shards, RSS steering, burst loop) instead of one bare
  // middlebox. The engine publishes {worker=<i>}-labeled counters into the
  // same registry --metrics-out dumps.
  if (workers > 1 || burst > 0) {
    engine::EngineOptions engine_options;
    engine_options.workers = std::max(1, workers);
    engine_options.burst = burst > 0 ? burst : 32;
    engine_options.runtime = options;
    auto eng = engine::Engine::Create(spec, engine_options);
    if (!eng.ok()) {
      std::fprintf(stderr, "galliumc: engine creation failed: %s\n",
                   eng.status().ToString().c_str());
      return 1;
    }
    std::vector<net::Packet> traffic;
    traffic.reserve(static_cast<size_t>(num_packets));
    for (int i = 0; i < num_packets; ++i) {
      traffic.push_back(trace.packets[i % trace.packets.size()]);
    }

    // --metrics-every N: run in N-packet chunks, quiescing and rewriting
    // --metrics-out after each, so a live gallium-top (or anything tailing
    // the file) sees the counters advance while traffic is still flowing.
    const size_t chunk = metrics_every > 0
                             ? static_cast<size_t>(metrics_every)
                             : traffic.size();
    engine::RunReport report;
    report.worker_packets.assign(static_cast<size_t>((*eng)->workers()), 0);
    report.worker_busy_us.assign(static_cast<size_t>((*eng)->workers()), 0.0);
    std::vector<net::Packet> slice;
    for (size_t base = 0; base < traffic.size(); base += chunk) {
      const size_t n = std::min(chunk, traffic.size() - base);
      slice.assign(traffic.begin() + static_cast<long>(base),
                   traffic.begin() + static_cast<long>(base + n));
      const engine::RunReport part =
          (*eng)->Run(slice, /*start_now_ms=*/1 + base);
      report.packets += part.packets;
      report.sends += part.sends;
      report.drops += part.drops;
      report.errors += part.errors;
      report.shed += part.shed;
      report.fast_path += part.fast_path;
      for (int w = 0; w < (*eng)->workers(); ++w) {
        report.worker_packets[w] += part.worker_packets[w];
        report.worker_busy_us[w] += part.worker_busy_us[w];
      }
      (*eng)->Quiesce();
      if (metrics_every > 0 && !metrics_out.empty()) {
        (void)WriteMetricsFile(registry, metrics_out);
      }
      MaybeDumpFlightRecorder(*flight, flight_dump);
    }

    const double fast = report.packets == 0
                            ? 0.0
                            : 100.0 * static_cast<double>(report.fast_path) /
                                  static_cast<double>(report.packets);
    std::printf(
        "  engine: %d workers  burst %d  %llu packets  fast-path %.1f%%  "
        "sends %llu  drops %llu  shed %llu  errors %llu\n",
        (*eng)->workers(), engine_options.burst,
        static_cast<unsigned long long>(report.packets), fast,
        static_cast<unsigned long long>(report.sends),
        static_cast<unsigned long long>(report.drops),
        static_cast<unsigned long long>(report.shed),
        static_cast<unsigned long long>(report.errors));
    std::printf("  aggregate: %.2f Mpps (dedicated-cores model)  "
                "pinned-flows=%zu\n",
                report.AggregateMpps(), (*eng)->steering().pinned_flows());
    for (int w = 0; w < (*eng)->workers(); ++w) {
      std::printf("  worker %d: packets=%llu busy=%.0fus\n", w,
                  static_cast<unsigned long long>(report.worker_packets[w]),
                  report.worker_busy_us[w]);
    }
    return report.errors == 0 ? 0 : 1;
  }

  auto mbx = runtime::OffloadedMiddlebox::Create(spec, options);
  if (!mbx.ok()) {
    std::fprintf(stderr, "galliumc: runtime creation failed: %s\n",
                 mbx.status().ToString().c_str());
    return 1;
  }

  uint64_t now_ms = 0;
  int processed = 0, degraded = 0, synced = 0, errors = 0;
  double sync_latency_total = 0;
  while (processed < num_packets) {
    MaybeDumpFlightRecorder(*flight, flight_dump);
    const net::Packet& pkt =
        trace.packets[processed % trace.packets.size()];
    now_ms += 1;
    auto out = (*mbx)->Process(pkt, now_ms);
    ++processed;
    if (!out.status.ok()) {
      ++errors;
      continue;
    }
    if (out.degraded) ++degraded;
    if (out.state_synced) {
      ++synced;
      sync_latency_total += out.sync_latency_us;
    }
  }
  // Deliver whatever the backlog still holds before scraping counters, so
  // the printed state reflects a quiesced runtime.
  (*mbx)->FlushSyncBacklog();
  (*mbx)->PublishSwitchStageMetrics();

  std::printf("  run: %d packets  fast-path %.1f%%  degraded %d  errors %d\n",
              processed, 100.0 * (*mbx)->FastPathFraction(), degraded, errors);
  const auto& c = (*mbx)->counters();
  const auto n = [](const telemetry::Counter* counter) {
    return static_cast<unsigned long long>(counter->Value());
  };
  std::printf(
      "  sync: batches=%llu retries=%llu batch-drops=%llu ack-drops=%llu "
      "failures=%llu mean-commit=%.1fus\n",
      n(c.sync_batches_sent), n(c.sync_retries), n(c.batches_dropped),
      n(c.acks_dropped), n(c.sync_failures),
      synced == 0 ? 0.0 : sync_latency_total / synced);
  std::printf(
      "  recovery: data-retries=%llu switch-restarts=%llu resyncs=%llu "
      "degraded-packets=%llu cache-misses=%llu\n",
      n(c.data_retries), n(c.switch_restarts), n(c.resyncs),
      n(c.degraded_packets), n(c.cache_misses));
  if (sync_queue.enabled()) {
    const auto& backlog = (*mbx)->sync_backlog();
    std::printf(
        "  backlog: peak-depth=%llu enqueued=%llu coalesced=%llu pumps=%llu "
        "shed=%llu backpressure=%llu\n",
        static_cast<unsigned long long>(backlog.peak_depth()),
        static_cast<unsigned long long>(backlog.enqueued_mutations()),
        static_cast<unsigned long long>(backlog.coalesced_mutations()),
        n(c.backlog_pumps), n(c.packets_shed), n(c.backpressure_events));
  }
  if (const auto* dog = (*mbx)->watchdog(); dog != nullptr) {
    std::printf(
        "  watchdog: mode=%s transitions=%llu probes=%llu missed=%llu "
        "latency-ewma=%.1fus\n",
        runtime::HealthWatchdog::ModeName(dog->mode()),
        static_cast<unsigned long long>(dog->transitions()),
        static_cast<unsigned long long>(dog->probes_sent()),
        static_cast<unsigned long long>(dog->probes_missed()),
        dog->latency_ewma_us());
  }
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    PrintUsage(stdout);
    return 0;
  }
  const std::string name = argv[1];
  std::string out_dir = ".";
  bool print = false;
  bool resources = false;
  int run_packets = 0;
  int workers = 0;
  int burst = 0;
  uint64_t flow_capacity = 0;
  uint64_t chaos_seed = 0;
  bool chaos = false;
  std::string fault_spec;
  runtime::SyncQueueOptions sync_queue;
  bool watchdog = false;
  bool campaign = false;
  std::string mutate_class;
  std::string metrics_out;
  std::string trace_out;
  std::string flight_dump;
  int metrics_every = 0;
  core::CompileOptions options;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      out_dir = v;
    } else if (arg == "--pipeline-depth") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.constraints.pipeline_depth = std::atoi(v);
    } else if (arg == "--metadata-bytes") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.constraints.metadata_bytes = std::atoi(v);
    } else if (arg == "--transfer-bytes") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.constraints.transfer_bytes = std::atoi(v);
    } else if (arg == "--memory-mb") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.constraints.memory_bytes = 1024ull * 1024 * std::atoi(v);
    } else if (arg == "--objective") {
      const char* v = next();
      if (v == nullptr) return Usage();
      if (std::strcmp(v, "weighted") == 0) {
        options.constraints.objective =
            partition::OffloadObjective::kWeightedCycles;
      } else if (std::strcmp(v, "count") != 0) {
        return Usage();
      }
    } else if (arg == "--optimize") {
      options.optimize = true;
    } else if (arg == "--print") {
      print = true;
    } else if (arg == "--resources") {
      resources = true;
    } else if (arg == "--run") {
      const char* v = next();
      if (v == nullptr) return Usage();
      run_packets = std::atoi(v);
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) return Usage();
      workers = std::atoi(v);
      if (workers < 1) return Usage();
    } else if (arg == "--burst") {
      const char* v = next();
      if (v == nullptr) return Usage();
      burst = std::atoi(v);
      if (burst < 1) return Usage();
    } else if (arg == "--flow-capacity") {
      const char* v = next();
      if (v == nullptr) return Usage();
      flow_capacity = std::strtoull(v, nullptr, 10);
      if (flow_capacity == 0) return Usage();
    } else if (arg == "--chaos-seed") {
      const char* v = next();
      if (v == nullptr) return Usage();
      chaos_seed = std::strtoull(v, nullptr, 10);
      chaos = true;
    } else if (arg == "--fault-plan") {
      const char* v = next();
      if (v == nullptr) return Usage();
      fault_spec = v;
    } else if (arg == "--sync-queue") {
      const char* v = next();
      if (v == nullptr) return Usage();
      sync_queue.max_backlog_batches = std::strtoull(v, nullptr, 10);
    } else if (arg == "--pump-interval") {
      const char* v = next();
      if (v == nullptr) return Usage();
      sync_queue.pump_interval_packets = std::strtoull(v, nullptr, 10);
      if (sync_queue.pump_interval_packets == 0) return Usage();
    } else if (arg == "--shed") {
      sync_queue.overflow =
          runtime::SyncQueueOptions::OverflowPolicy::kShedIngress;
    } else if (arg == "--watchdog") {
      watchdog = true;
    } else if (arg == "--verify") {
      options.verify = true;
    } else if (arg == "--campaign") {
      options.verify = true;  // the campaign implies the baseline gate
      campaign = true;
    } else if (arg == "--mutate") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.verify = true;
      mutate_class = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      metrics_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      trace_out = v;
    } else if (arg == "--flight-dump") {
      const char* v = next();
      if (v == nullptr) return Usage();
      flight_dump = v;
    } else if (arg == "--metrics-every") {
      const char* v = next();
      if (v == nullptr) return Usage();
      metrics_every = std::atoi(v);
      if (metrics_every < 1) return Usage();
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else {
      return Usage();
    }
  }
  if (!mutate_class.empty()) {
    bool known = false;
    for (int c = 0; c < verify::kNumMutationClasses; ++c) {
      if (mutate_class ==
          verify::MutationClassName(static_cast<verify::MutationClass>(c))) {
        known = true;
      }
    }
    if (!known) {
      std::fprintf(stderr, "galliumc: unknown mutation class '%s'\n",
                   mutate_class.c_str());
      return Usage();
    }
  }

  auto spec = BuildByName(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "galliumc: %s\n", spec.status().ToString().c_str());
    return 1;
  }

  core::Compiler compiler(options);
  core::CompileDiagnostic diag;
  auto result = compiler.Compile(*spec->fn, &diag);
  if (!result.ok()) {
    std::fprintf(stderr, "galliumc: compilation failed: %s\n",
                 result.status().ToString().c_str());
    // Resource infeasibility and verification failures get dedicated exit
    // codes (3 resp. 4) plus a machine-readable diagnostic naming the
    // table/stage/resource or the individual findings, so CI and tooling
    // can react without scraping prose.
    if (diag.phase == "partition" || diag.phase == "placement" ||
        diag.phase == "verification") {
      std::fprintf(stderr, "%s\n", diag.ToJson().c_str());
    }
    return diag.exit_code;
  }

  // One registry per invocation: the compile-phase timings land next to
  // whatever counters the --run runtime publishes, so --metrics-out is a
  // single scrape of everything this run did.
  telemetry::MetricsRegistry registry;
  // The run's flight recorder: lane 0 for the control plane plus one lane
  // per worker. --trace-out sizes the lanes to hold every hop of the run,
  // up to a fixed cap (a longer run keeps each lane's most recent hops).
  constexpr uint32_t kTraceEventsPerPacket = 8;  // begin + 6 hops + faults
  constexpr uint32_t kMaxTraceEventsPerLane = 1u << 16;
  const uint64_t run_events =
      static_cast<uint64_t>(std::max(run_packets, 0)) * kTraceEventsPerPacket;
  const uint32_t lane_capacity =
      trace_out.empty()
          ? telemetry::FlightRecorder::kDefaultCapacityPerLane
          : static_cast<uint32_t>(std::clamp<uint64_t>(
                run_events, telemetry::FlightRecorder::kDefaultCapacityPerLane,
                kMaxTraceEventsPerLane));
  telemetry::FlightRecorder flight(
      static_cast<uint16_t>(std::max(workers, 1) + 1), lane_capacity);
  for (const auto& [phase, us] : result->phase_times_us) {
    registry
        .GetGauge("galliumc_compile_phase_us",
                  {{"mbox", spec->name}, {"phase", phase}},
                  "wall-clock compile time per phase")
        ->Set(us);
  }
  registry
      .GetGauge("galliumc_compile_total_us", {{"mbox", spec->name}},
                "wall-clock compile time, all phases")
      ->Set(result->total_compile_us);

  const std::string base = out_dir + "/" + spec->name;
  // The server artifact is materialized with its support headers so the
  // output directory compiles standalone (g++ -I <out> <name>_server.cc).
  auto artifact = cppgen::MaterializeServerArtifact(out_dir, spec->name,
                                                    result->server_source);
  if (!artifact.ok()) {
    std::fprintf(stderr, "galliumc: %s\n",
                 artifact.status().ToString().c_str());
    return 1;
  }
  if (!WriteFile(base + ".p4", result->p4_source) ||
      !WriteFile(base + "_input.cc", result->click_source) ||
      !WriteFile(base + "_plan.txt",
                 result->plan.Summary(*spec->fn) + "\n" +
                     ir::PrintFunction(*spec->fn))) {
    return 1;
  }

  std::printf("galliumc: %s\n", spec->description.c_str());
  std::printf("  input: %4d LoC  ->  P4: %4d LoC, server C++: %4d LoC\n",
              result->input_loc, result->p4_loc, result->server_loc);
  std::printf("  statements: pre=%d  non-offloaded=%d  post=%d\n",
              result->plan.num_pre, result->plan.num_non_offloaded,
              result->plan.num_post);
  std::printf("  transfer: ->server %dB, ->switch %dB; metadata peak %dB\n",
              result->plan.to_server.Bytes(*spec->fn),
              result->plan.to_switch.Bytes(*spec->fn),
              result->plan.metadata_peak_bytes);
  std::printf("  wrote %s.p4 %s_server.cc %s_input.cc %s_plan.txt\n",
              base.c_str(), base.c_str(), base.c_str(), base.c_str());
  if (!result->spilled_state.empty()) {
    std::printf("  spilled to server after %d partition rounds:",
                result->partition_rounds);
    for (const auto& ref : result->spilled_state) {
      std::printf(" %s", spec->fn->StateName(ref).c_str());
    }
    std::printf("\n");
  }
  if (resources) {
    const auto& placement = result->placement;
    std::printf("\n-- RMT placement --\n%s", placement.Summary().c_str());
    std::printf("stage map: %s\n", placement.StageMapString().c_str());
    const perf::CostModel cost;
    const int stages = placement.StagesOccupied();
    std::printf(
        "cost model: traversal %.2fus (vs %.2fus flat), fast-path latency "
        "%.1fus, switch %.0f Mpps @64B, sharing headroom %dx\n",
        cost.SwitchTraversalUs(stages), cost.switch_pipeline_us,
        perf::OffloadedFastPathLatencyUs(cost, 64, stages),
        cost.PredictedSwitchMpps(placement, 64),
        cost.SharingHeadroom(placement));
  }
  if (options.verify && result->verified) {
    std::printf("  verification: %s\n",
                result->validation.Summary().c_str());
    for (const auto& f : result->lints) {
      std::printf("  lint: %s\n", f.ToString().c_str());
    }
  }
  if (campaign || !mutate_class.empty()) {
    const auto cr = verify::RunMutationCampaign(*spec->fn, result->plan,
                                                options.verify_limits);
    bool missed = false;
    std::printf("\n-- mutation campaign --\n");
    for (const auto& c : cr.classes) {
      if (!mutate_class.empty() &&
          mutate_class != verify::MutationClassName(c.cls)) {
        continue;
      }
      std::printf("  %s: %d/%d caught, %d with concrete counterexample\n",
                  verify::MutationClassName(c.cls), c.caught, c.generated,
                  c.with_counterexample);
      if (!c.example.empty()) std::printf("    e.g. %s\n", c.example.c_str());
      if (c.caught < c.generated) missed = true;
    }
    if (missed) {
      std::fprintf(stderr,
                   "galliumc: mutation campaign missed at least one seeded "
                   "bug; the validator is not trustworthy for this plan\n");
      return 4;
    }
  }
  if (print) {
    std::printf("\n%s\n", result->p4_source.c_str());
  }
  int rc = 0;
  if (run_packets > 0) {
    std::signal(SIGUSR2, OnFlightDumpSignal);
    rc = RunTraffic(*spec, run_packets, chaos_seed, chaos, fault_spec,
                    sync_queue, watchdog, workers, burst, flow_capacity,
                    metrics_every, metrics_out, flight_dump, &registry,
                    &flight, /*trace_hops=*/!trace_out.empty());
  }
  if (!metrics_out.empty()) {
    const bool json = metrics_out.size() >= 5 &&
                      metrics_out.rfind(".json") == metrics_out.size() - 5;
    if (!WriteMetricsFile(&registry, metrics_out)) {
      return 1;
    }
    std::printf("  wrote metrics (%s, %zu series) to %s\n",
                json ? "json" : "prometheus", registry.size(),
                metrics_out.c_str());
  }
  if (!flight_dump.empty() && !DumpFlightRecorder(flight, flight_dump)) {
    return 1;
  }
  if (!trace_out.empty()) {
    if (!WriteFile(trace_out, flight.ToChromeJson())) return 1;
    std::printf("  wrote hop trace to %s (%llu events, %llu overwritten)\n",
                trace_out.c_str(),
                static_cast<unsigned long long>(flight.events_recorded()),
                static_cast<unsigned long long>(flight.events_dropped()));
  }
  return rc;
}
