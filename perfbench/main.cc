// Wall-clock benchmark of the Gallium runtime and compiler.
//
//   perfbench --workload <steady|churn|threaded|compile> --seed N
//             --seconds S --trace <0|1> [--spans FILE]
//
// Every number is the steady-clock time of the real code path, timed from
// outside through public calls; nothing reads the cost model, the engine's
// dedicated-cores busy counters, or the modeled sync latency (that one is
// reported only as the per-layer runtime.sync_model_us, unit model_us).
//
// Workloads (the seed picks flows, routes and generated programs):
//   steady    established TCP flows, smallest data segments, both directions,
//             through NAT, LB, Firewall, Proxy, Trojan Detector and a ~1k-route
//             LPM router; 4-shard deterministic engine, 32-packet bursts.
//   churn     MakeChurnTrace (0.7 new flows + SYN-flood bursts) through NAT,
//             LB and Trojan; coalescing sync queue in backpressure mode; each
//             pass starts from fresh engines so the tables stay bounded.
//   threaded  steady's forward direction through the threaded engine with 2
//             workers (the only real parallel path).
//   compile   core::Compiler::Compile on the paper middleboxes, the router,
//             statement chains of 64-384 statements and seeded generated
//             programs.
// All packet workloads are a closed loop with one client: the next burst is
// fed once the previous Engine::Run returned.
//
// End-to-end metrics (--trace 0), one "operation" per workload: a Run call
// of 32 packets (steady, churn), a Run call of one 512-packet chunk
// (threaded), or one pass compiling the whole program set (compile). The
// timed loop is cut into segments that rotate over the CPUs (see TimedOps in
// perfbench.h); each metric is read from the fast end of the segments:
//   throughput   packets (or compiled programs) per second of timed wall time
//   op_us_p50    median wall time of one operation
//   op_us_p99    99th percentile of it (segments hold >= 1000 operations on
//                packet workloads; on compile, two passes)
//   setup_s      median over repeated set-ups of the time to build programs,
//                traffic and engines and warm them, up to the first timed op
//   peak_rss_mb  peak resident memory of the process
// Failures are the "failed" count of the result, against "attempted".
// --trace 1 runs a shorter untraced phase, then the traced layer-by-layer
// replay, and prints the per-layer metrics instead.
//
// Outputs are checked against the software baseline (runtime::
// SoftwareMiddlebox) or, for the compiler, the translation validator, the P4
// round trip and the deployed plan on seeded packets; every mismatch counts
// into "failed" and makes the exit code 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>

#include "perfbench.h"

namespace {
uint64_t g_allocs = 0;
}  // namespace

// Counting global allocator: engine.allocs_per_pkt reads the delta around
// one untraced pass.
void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t AllocCount() { return g_allocs; }

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Fail(const std::string& what, uint64_t n) {
  if (failed_ < 10) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  failed_ += n;
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (i > 0 ? ", " : "") << "\"" << metrics_[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics_[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void ReportSetup(const std::vector<double>& setup_seconds, Report* report) {
  report->Metric("setup_s", Median(setup_seconds), "s");
}

TimedOps::TimedOps(size_t expected_ops, size_t min_segment_ops,
                   int cpus_per_segment)
    : min_segment_ops_(min_segment_ops), cpus_per_segment_(cpus_per_segment) {
  op_us_.reserve(expected_ops);
  if (cpus_per_segment > 0 &&
      sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
}

void TimedOps::EndRound() {
  if (SecondsSince(segment_start_) < kSegmentSeconds ||
      op_us_.size() - current_.first_op < min_segment_ops_) {
    return;
  }
  segments_.emplace_back(current_, op_us_.size());
  current_ = Segment{};
  current_.first_op = op_us_.size();
  if (!cpus_.empty()) {
    // The next window of cpus_per_segment_ CPUs, wrapping around.
    cpu_set_t next;
    CPU_ZERO(&next);
    const size_t width =
        std::min(cpus_.size(), static_cast<size_t>(cpus_per_segment_));
    for (size_t i = 0; i < width; ++i) {
      CPU_SET(cpus_[(segments_.size() + i) % cpus_.size()], &next);
    }
    sched_setaffinity(0, sizeof(next), &next);
  }
  segment_start_ = Clock::now();
}

void TimedOps::StopRotating() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
}

void TimedOps::ReportMetrics(const std::string& label, Report* report) {
  // The unfinished last segment counts only when nothing else does.
  if (segments_.empty()) segments_.emplace_back(current_, op_us_.size());
  std::vector<double> rates, p50s, p99s;
  for (const auto& [segment, end] : segments_) {
    std::vector<double> ops(op_us_.begin() + static_cast<long>(segment.first_op),
                            op_us_.begin() + static_cast<long>(end));
    rates.push_back(segment.busy_s > 0 ? static_cast<double>(segment.work) /
                                             segment.busy_s
                                       : 0);
    p50s.push_back(Quantile(ops, 0.5));
    p99s.push_back(Quantile(std::move(ops), 0.99));
  }
  report->Metric("throughput", Quantile(rates, kFastSegments), "1/s");
  report->Metric("op_us_p50", Quantile(p50s, 1 - kFastSegments), "us");
  report->Metric("op_us_p99", Quantile(p99s, 1 - kFastSegments), "us");
  std::fprintf(stderr,
               "%s: %zu segments, %zu timed ops, %llu units of work\n",
               label.c_str(), segments_.size(), op_us_.size(),
               static_cast<unsigned long long>(total_work_));
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <steady|churn|threaded|compile> "
               "--seed N --seconds S --trace <0|1> [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the heap instead of handing it back to the kernel:
  // churn passes and compiles free and reallocate large tables, and the
  // resulting page faults made run-to-run spread several times wider than
  // the code's own. A long-running middlebox process sees a warm heap too.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(options.seconds > 0)) return Usage();

  perfbench::Report report;
  if (options.workload == "steady") {
    RunPacketWorkload(options, perfbench::Shape::kSteady, &report);
  } else if (options.workload == "churn") {
    RunPacketWorkload(options, perfbench::Shape::kChurn, &report);
  } else if (options.workload == "threaded") {
    RunPacketWorkload(options, perfbench::Shape::kForward, &report);
  } else if (options.workload == "compile") {
    RunCompileWorkload(options, &report);
  } else {
    return Usage();
  }
  if (!options.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    report.Metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                  "MB");
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.failed() == 0 ? 0 : 1;
}
