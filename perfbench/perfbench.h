// Shared declarations of the wall-clock benchmark (see main.cc for the
// command line and the metric definitions).
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "mbox/middleboxes.h"
#include "net/packet.h"
#include "runtime/offloaded_middlebox.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Traced runs write their spans here (empty: keep them in memory only).
  std::string spans_path;
};

// The result object printed as the last line of standard output.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Attempt(uint64_t n) { attempted_ += n; }
  // One failed operation or output mismatch; the first few are described on
  // standard error.
  void Fail(const std::string& what, uint64_t n = 1);
  uint64_t failed() const { return failed_; }
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Global operator-new calls so far (main.cc replaces operator new).
uint64_t AllocCount();

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Reports the median of the setup repetitions as setup_s.
void ReportSetup(const std::vector<double>& setup_seconds, Report* report);

// Timed operations, cut at round boundaries into segments of at least
// kSegmentSeconds of wall time and `min_segment_ops` operations (enough for
// a p99 with ten samples beyond it). With `cpus_per_segment` > 0, each
// segment runs pinned to the next window of that many of the CPUs the
// process may use (threads the timed code starts inherit the window).
//
// Why: on a shared VM host, neighbours slow single vCPUs by up to 2x for
// stretches of tens of seconds, so a run that stays on one vCPU measures
// its neighbours. Rotating visits every vCPU, and each metric is read at the
// fast end of the segments (kFastSegments): the speed the code reaches when
// its core is not contended. Over ten runs this kept the interquartile
// spread at 4-8%, against 18-33% for the median segment.
constexpr double kSegmentSeconds = 0.2;
constexpr double kFastSegments = 0.9;
class TimedOps {
 public:
  TimedOps(size_t expected_ops, size_t min_segment_ops, int cpus_per_segment);
  // One timed operation that completed `work` units (packets, programs).
  void Add(double ns, uint64_t work) {
    op_us_.push_back(ns / 1000.0);
    current_.busy_s += ns * 1e-9;
    current_.work += work;
    total_busy_s_ += ns * 1e-9;
    total_work_ += work;
  }
  // Call between rounds: closes the segment once it is long enough.
  void EndRound();
  // Gives the process its full CPU mask back; call after the last round.
  void StopRotating();
  // Reports throughput (the kFastSegments
  // quantile of the segments' throughputs), op_us_p50 and op_us_p99 (the
  // 1 - kFastSegments quantile of the segments' own percentiles).
  void ReportMetrics(const std::string& label, Report* report);

  uint64_t total_work() const { return total_work_; }
  double total_busy_s() const { return total_busy_s_; }

 private:
  struct Segment {
    size_t first_op = 0;
    double busy_s = 0;
    uint64_t work = 0;
  };
  size_t min_segment_ops_;
  int cpus_per_segment_;
  cpu_set_t allowed_{};
  std::vector<int> cpus_;  // empty: no rotation
  std::vector<double> op_us_;
  std::vector<std::pair<Segment, size_t>> segments_;  // with end op index
  Segment current_;
  Clock::time_point segment_start_ = Clock::now();
  double total_busy_s_ = 0;
  uint64_t total_work_ = 0;
};

// --- Programs and traffic (traffic.cc) ---------------------------------------

// One deployed middlebox program with its seeded traffic.
struct Program {
  std::string name;  // short name used in metric names (nat, lb, ...)
  // Heap-held: engines and middleboxes keep pointers into the spec.
  std::unique_ptr<gallium::mbox::MiddleboxSpec> spec;
  // Untimed traffic that establishes flow state (handshakes, first pass).
  std::vector<gallium::net::Packet> warmup;
  // The packets one timed pass replays, in arrival order.
  std::vector<gallium::net::Packet> trace;
};

enum class Shape {
  kSteady,   // established flows, both directions, smallest segments
  kChurn,    // MakeChurnTrace: fresh flows plus SYN-flood bursts
  kForward,  // steady's forward direction only (threaded engine)
};

std::vector<Program> MakePrograms(Shape shape, uint64_t seed);

// Engine configuration each packet workload runs with.
gallium::engine::EngineOptions EngineOptionsFor(Shape shape);

// The ~1k-route LPM router both the packet workloads and the compile set use.
gallium::Result<gallium::mbox::MiddleboxSpec> BuildSeededRouter(uint64_t seed);

// --- Packet workloads (packets.cc) --------------------------------------------

void RunPacketWorkload(const Options& options, Shape shape, Report* report);

// The traced run of a packet workload: oracle check, an untraced phase for
// the engine-layer metrics, then TracedReplay. `primary` marks the
// workload's own traced run: it also reports trace.closure/overhead and
// traces the compile phases of its programs.
void TracedPacketRun(Shape shape, uint64_t seed, double seconds, bool primary,
                     const std::string& spans_path, Report* report);

// --- Traced per-layer replay (replay.cc) --------------------------------------

struct ReplayInput {
  const Program* program;
  // Steering table of the engine that ran the program untraced (warm flow
  // director); the replay times OwnerOf on it.
  const gallium::engine::FlowSteering* steering;
};

// Replays the programs layer by layer through a twin OffloadedMiddlebox for
// about `seconds`, checks each replayed packet against Process on an
// untouched original instance, and reports the per-layer metrics.
// `untraced_pps` is the untraced engine throughput, for trace.overhead.
void TracedReplay(const std::vector<ReplayInput>& inputs,
                  const gallium::runtime::OffloadedOptions& runtime_options,
                  bool fresh_per_pass, double seconds, double untraced_pps,
                  bool report_closure, const std::string& spans_path,
                  Report* report);

// --- Compiler (compile.cc) ----------------------------------------------------

void RunCompileWorkload(const Options& options, Report* report);

// Times each compiler phase on `fns` layer by layer (the calls Compile makes)
// and reports the compile.* metrics, summed over the set. With
// `report_closure`, also trace.closure / trace.overhead against whole
// Compile calls (`untraced_set_s`: median untraced seconds per set pass).
void TracedCompile(const std::vector<const gallium::ir::Function*>& fns,
                   double seconds, bool report_closure, double untraced_set_s,
                   Report* report);

}  // namespace perfbench
