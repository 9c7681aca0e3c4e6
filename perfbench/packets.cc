// Packet workloads: closed-loop Engine::Run timing, the software-baseline
// oracle, and the untraced half of the traced run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "perfbench.h"
#include "runtime/software_middlebox.h"

namespace perfbench {

using gallium::engine::Engine;
using gallium::engine::EngineOptions;
using gallium::engine::RunReport;
using gallium::net::Packet;
using gallium::runtime::Verdict;

namespace {

// Packets per Run call: a burst in the deterministic engine; a chunk large
// enough to amortize the worker start-up in threaded mode.
constexpr size_t kThreadedChunk = 512;
// Set-ups per run; setup_s is their median.
constexpr int kSetupRepetitions = 5;

struct Counts {
  uint64_t sends = 0, drops = 0, fast_path = 0, errors = 0, shed = 0;

  void Add(const RunReport& r) {
    sends += r.sends;
    drops += r.drops;
    fast_path += r.fast_path;
    errors += r.errors;
    shed += r.shed;
  }
  // Packets whose outcome differs between two passes, as far as the counts
  // can tell.
  uint64_t Distance(const Counts& o) const {
    auto d = [](uint64_t a, uint64_t b) { return a > b ? a - b : b - a; };
    return std::max({d(sends, o.sends), d(drops, o.drops),
                     d(fast_path, o.fast_path), d(errors, o.errors),
                     d(shed, o.shed)});
  }
};

struct Deployment {
  const Program* program = nullptr;
  std::unique_ptr<Engine> engine;
  std::vector<std::vector<Packet>> chunks;  // the trace, one Run call each
  uint64_t now_ms = 0;
  uint64_t passes = 0;
  Counts reference;  // the oracle's counts for one trace pass
};

struct Setup {
  std::vector<Program> programs;
  std::vector<Deployment> deployments;  // after programs: points into them
};

std::unique_ptr<Engine> Deploy(const Program& program,
                               const EngineOptions& options, uint64_t* now_ms,
                               Report* report) {
  auto engine = Engine::Create(*program.spec, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "perfbench: deploying %s failed: %s\n",
                 program.name.c_str(), engine.status().ToString().c_str());
    std::exit(3);
  }
  if (!program.warmup.empty()) {
    const RunReport r = (*engine)->Run(program.warmup, *now_ms);
    *now_ms += program.warmup.size();
    if (r.errors + r.shed > 0) {
      report->Fail(program.name + ": warmup errors/shed",
                   r.errors + r.shed);
    }
  }
  return std::move(engine).value();
}

Setup MakeSetup(Shape shape, uint64_t seed, Report* report) {
  const EngineOptions options = EngineOptionsFor(shape);
  const size_t chunk = options.threaded ? kThreadedChunk
                                        : static_cast<size_t>(options.burst);
  Setup setup;
  setup.programs = MakePrograms(shape, seed);
  for (const Program& program : setup.programs) {
    Deployment d;
    d.program = &program;
    for (size_t base = 0; base < program.trace.size(); base += chunk) {
      const size_t end = std::min(program.trace.size(), base + chunk);
      d.chunks.emplace_back(program.trace.begin() + base,
                            program.trace.begin() + end);
    }
    d.engine = Deploy(program, options, &d.now_ms, report);
    setup.deployments.push_back(std::move(d));
  }
  return setup;
}

struct TimedResult {
  // Threaded runs get one CPU per worker plus one for the dispatcher.
  explicit TimedResult(Shape shape)
      : ops(1 << 21, 1000,
            EngineOptionsFor(shape).threaded
                ? EngineOptionsFor(shape).workers + 1
                : 1) {}
  TimedOps ops;
  uint64_t allocs = 0;  // operator-new calls inside the timed Run calls
  std::vector<uint64_t> worker_packets;
};

// Round-robin passes over every program's trace until `seconds` of wall
// time have elapsed; only the Run calls are timed. Each pass's counts must
// reproduce the oracle's.
void TimedPasses(Setup* setup, Shape shape, double seconds,
                 TimedResult* result_out, Report* report) {
  const EngineOptions options = EngineOptionsFor(shape);
  TimedResult& result = *result_out;
  result.worker_packets.assign(static_cast<size_t>(options.workers), 0);
  const Clock::time_point start = Clock::now();
  do {
    for (Deployment& d : setup->deployments) {
      // Churn passes start from fresh engines: the trace is mostly new
      // flows, and replaying it into warm tables would turn them into hits.
      if (shape == Shape::kChurn && d.passes > 0) {
        d.engine.reset();
        d.engine = Deploy(*d.program, options, &d.now_ms, report);
      }
      Counts pass;
      for (const std::vector<Packet>& chunk : d.chunks) {
        const uint64_t allocs0 = AllocCount();
        const Clock::time_point t0 = Clock::now();
        const RunReport r = d.engine->Run(chunk, d.now_ms);
        const Clock::time_point t1 = Clock::now();
        result.allocs += AllocCount() - allocs0;
        d.now_ms += chunk.size();
        result.ops.Add(NsBetween(t0, t1), r.packets);
        pass.Add(r);
        for (size_t w = 0; w < r.worker_packets.size(); ++w) {
          result.worker_packets[w] += r.worker_packets[w];
        }
      }
      ++d.passes;
      report->Attempt(d.program->trace.size());
      if (const uint64_t diff = pass.Distance(d.reference); diff > 0) {
        report->Fail(d.program->name + ": timed pass " +
                         std::to_string(d.passes) +
                         " counts differ from the oracle",
                     diff);
      }
    }
    result.ops.EndRound();
  } while (SecondsSince(start) < seconds);
  result.ops.StopRotating();
}

// Checks every packet of warmup + one trace pass against the software
// baseline (verdict and output bytes) on a fresh deterministic engine, and
// returns the counts over the trace pass: the reference every timed pass
// must reproduce (threaded passes included).
Counts CheckAgainstSoftware(const Program& program,
                            EngineOptions engine_options, Report* report) {
  engine_options.threaded = false;
  auto engine = Engine::Create(*program.spec, engine_options);
  if (!engine.ok()) {
    report->Fail(program.name + ": oracle engine: " +
                 engine.status().ToString());
    return {};
  }
  gallium::runtime::SoftwareMiddlebox software(*program.spec);
  Counts counts;
  uint64_t now_ms = 0;
  auto check = [&](const Packet& pkt, size_t index, bool counted) {
    Packet sw_pkt = pkt;
    const auto out = (*engine)->Process(pkt, now_ms);
    const auto ref = software.Process(sw_pkt, now_ms);
    ++now_ms;
    bool same = out.status.ok() && !out.shed && ref.status.ok() &&
                out.verdict == ref.verdict;
    if (same && out.verdict.kind == Verdict::Kind::kSend) {
      same = out.out_packet.Serialize() == sw_pkt.Serialize();
    }
    if (!same) {
      report->Fail(program.name + ": packet " + std::to_string(index) +
                   " differs from the software baseline");
    }
    if (!counted) return;
    if (!out.status.ok()) {
      ++counts.errors;
    } else if (out.shed) {
      ++counts.shed;
    } else {
      if (out.fast_path) ++counts.fast_path;
      if (out.verdict.kind == Verdict::Kind::kSend) ++counts.sends;
      if (out.verdict.kind == Verdict::Kind::kDrop) ++counts.drops;
    }
  };
  for (size_t i = 0; i < program.warmup.size(); ++i) {
    check(program.warmup[i], i, false);
  }
  for (size_t i = 0; i < program.trace.size(); ++i) {
    check(program.trace[i], program.warmup.size() + i, true);
  }
  report->Attempt(program.warmup.size() + program.trace.size());
  return counts;
}

void CheckAll(Setup* setup, Shape shape, Report* report) {
  for (Deployment& d : setup->deployments) {
    d.reference =
        CheckAgainstSoftware(*d.program, EngineOptionsFor(shape), report);
  }
}

// Engine-layer metrics read from the engines after the untraced passes.
void ReportEngineLayer(const Setup& setup, const TimedResult& timed,
                       Report* report) {
  uint64_t pinned = 0, enqueued = 0, coalesced = 0;
  for (const Deployment& d : setup.deployments) {
    pinned += d.engine->steering().pinned_flows();
    for (int w = 0; w < d.engine->workers(); ++w) {
      const auto& backlog = d.engine->shard(w).sync_backlog();
      enqueued += backlog.enqueued_mutations();
      coalesced += backlog.coalesced_mutations();
    }
  }
  uint64_t max_w = 0, sum_w = 0;
  for (uint64_t n : timed.worker_packets) {
    max_w = std::max(max_w, n);
    sum_w += n;
  }
  const double mean_w =
      static_cast<double>(sum_w) / static_cast<double>(timed.worker_packets.size());
  report->Metric("engine.pinned_flows", static_cast<double>(pinned), "count");
  report->Metric("engine.worker_imbalance",
                 mean_w > 0 ? static_cast<double>(max_w) / mean_w : 1.0,
                 "ratio");
  report->Metric("engine.allocs_per_pkt",
                 static_cast<double>(timed.allocs) /
                     static_cast<double>(
                         std::max<uint64_t>(timed.ops.total_work(), 1)),
                 "count");
  report->Metric("runtime.sync_coalesce_ratio",
                 enqueued > coalesced
                     ? static_cast<double>(enqueued) /
                           static_cast<double>(enqueued - coalesced)
                     : 1.0,
                 "ratio");
}

}  // namespace

void TracedPacketRun(Shape shape, uint64_t seed, double seconds, bool primary,
                     const std::string& spans_path, Report* report) {
  Setup setup = MakeSetup(shape, seed, report);
  CheckAll(&setup, shape, report);
  TimedResult timed(shape);
  TimedPasses(&setup, shape, 0.4 * seconds, &timed, report);
  ReportEngineLayer(setup, timed, report);

  std::vector<ReplayInput> inputs;
  for (const Deployment& d : setup.deployments) {
    inputs.push_back(ReplayInput{d.program, &d.engine->steering()});
  }
  const double untraced_pps =
      static_cast<double>(timed.ops.total_work()) /
      std::max(timed.ops.total_busy_s(), 1e-9);
  TracedReplay(inputs, EngineOptionsFor(shape).runtime,
               shape == Shape::kChurn, 0.5 * seconds, untraced_pps, primary,
               spans_path, report);
  if (primary) {
    std::vector<const gallium::ir::Function*> fns;
    for (const Program& p : setup.programs) fns.push_back(p.spec->fn.get());
    TracedCompile(fns, 0.1 * seconds, false, 0, report);
  }
}

void RunPacketWorkload(const Options& options, Shape shape, Report* report) {
  if (options.trace) {
    TracedPacketRun(shape, options.seed, options.seconds, true,
                    options.spans_path, report);
    return;
  }
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    // Engines before the programs they point into.
    setup.deployments.clear();
    setup.programs.clear();
    const Clock::time_point t0 = Clock::now();
    setup = MakeSetup(shape, options.seed, report);
    setup_s.push_back(SecondsSince(t0));
  }
  CheckAll(&setup, shape, report);
  TimedResult timed(shape);
  TimedPasses(&setup, shape, options.seconds, &timed, report);
  timed.ops.ReportMetrics(options.workload, report);
  ReportSetup(setup_s, report);
}

}  // namespace perfbench
