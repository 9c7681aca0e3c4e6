// The compile workload: core::Compiler::Compile on a seeded program set,
// checked by the translation validator and the P4 round trip; and the
// phase-by-phase traced compile every workload's traced run reports.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/compiler.h"
#include "frontend/middlebox_builder.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "p4/parser.h"
#include "p4/roundtrip.h"
#include "perfbench.h"
#include "program_generator.h"
#include "rmt/feedback.h"
#include "rmt/placement.h"
#include "runtime/software_middlebox.h"
#include "util/rng.h"
#include "util/strings.h"
#include "verify/validator.h"
#include "workload/packet_gen.h"

namespace perfbench {

using gallium::Rng;
using gallium::mbox::MiddleboxSpec;
using gallium::net::Packet;

namespace {

constexpr int kSetupRepetitions = 5;
// Statement chains in the style of BM_PartitionScaling: the partitioner's
// dependency closure grows about cubically with program length.
constexpr int kChainLengths[] = {64, 128, 256, 384};
constexpr int kGeneratedPrograms = 16;
// Passes over the whole set per measurement segment.
constexpr size_t kPassesPerSegment = 2;
// Largest program (in IR instructions) the translation validator checks.
constexpr int kMaxValidatedSize = 100;
// Seeded packets each deployed plan forwards against the software baseline.
constexpr int kExecutedPackets = 64;

struct CompileSet {
  std::vector<std::string> names;
  std::vector<std::unique_ptr<MiddleboxSpec>> specs;

  std::vector<const gallium::ir::Function*> Functions() const {
    std::vector<const gallium::ir::Function*> fns;
    for (const auto& spec : specs) fns.push_back(spec->fn.get());
    return fns;
  }
  void Add(std::string name, gallium::Result<MiddleboxSpec> spec) {
    if (!spec.ok()) {
      std::fprintf(stderr, "perfbench: building %s failed: %s\n", name.c_str(),
                   spec.status().ToString().c_str());
      std::exit(3);
    }
    names.push_back(std::move(name));
    specs.push_back(std::make_unique<MiddleboxSpec>(std::move(spec).value()));
  }
};

// A straight-line chain of `length` seeded ALU statements over one header
// field, with a map lookup every 16 statements.
gallium::Result<MiddleboxSpec> Chain(int length, Rng& rng) {
  using gallium::ir::AluOp;
  using gallium::ir::Width;
  gallium::frontend::MiddleboxBuilder mb("chain" + std::to_string(length));
  auto map = mb.DeclareMap("m", {Width::kU32}, {Width::kU32}, 4096);
  auto& b = mb.b();
  static constexpr AluOp kOps[] = {AluOp::kAdd, AluOp::kXor, AluOp::kAnd,
                                   AluOp::kOr, AluOp::kMod};
  gallium::ir::Reg v =
      b.HeaderRead(gallium::ir::HeaderField::kIpSrc, "v");
  for (int i = 0; i < length; ++i) {
    const AluOp op = kOps[rng.NextBounded(sizeof(kOps) / sizeof(kOps[0]))];
    v = b.Alu(op, gallium::ir::R(v),
              gallium::ir::Imm(1 + rng.NextBounded(1000)), Width::kU32,
              "v" + std::to_string(i));
    if (i % 16 == 15) {
      v = map.Find({gallium::ir::R(v)}).values[0];
    }
  }
  b.HeaderWrite(gallium::ir::HeaderField::kIpDst, gallium::ir::R(v));
  b.Send(gallium::ir::Imm(1));
  MiddleboxSpec spec;
  spec.name = "chain" + std::to_string(length);
  GALLIUM_ASSIGN_OR_RETURN(spec.fn, std::move(mb).Finish());
  return spec;
}

CompileSet MakeCompileSet(uint64_t seed) {
  Rng rng(seed);
  CompileSet set;
  set.Add("nat", gallium::mbox::BuildMazuNat());
  set.Add("lb", gallium::mbox::BuildLoadBalancer());
  set.Add("firewall", gallium::mbox::BuildFirewall());
  set.Add("proxy", gallium::mbox::BuildProxy());
  set.Add("trojan", gallium::mbox::BuildTrojanDetector());
  set.Add("router", BuildSeededRouter(rng.NextU64()));
  for (int length : kChainLengths) {
    set.Add("chain" + std::to_string(length), Chain(length, rng));
  }
  // Generated programs: the next seeds whose program builds, compiles and
  // passes translation validation. Some do not (the validator rejects e.g.
  // generator seeds 7567672623637554804 and 3887694398031615970); a
  // benchmark input must not fail, so those are skipped and named here.
  const gallium::core::Compiler compiler;
  uint64_t gen_seed = rng.NextU64();
  for (int found = 0; found < kGeneratedPrograms; ++gen_seed) {
    auto spec = gallium::testing::ProgramGenerator(gen_seed).Generate();
    if (!spec.ok()) continue;
    auto compiled = compiler.Compile(*spec->fn);
    if (!compiled.ok()) continue;
    if (spec->fn->num_insts() <= kMaxValidatedSize &&
        !gallium::verify::ValidateTranslation(*spec->fn, compiled->plan)
             .equivalent) {
      std::fprintf(stderr, "perfbench: skipping generator seed %llu: "
                   "translation validation rejects its plan\n",
                   static_cast<unsigned long long>(gen_seed));
      continue;
    }
    set.Add("gen" + std::to_string(gen_seed), std::move(spec));
    ++found;
  }
  return set;
}

// The compiler's independent checks of one program: the plan is
// translation-equivalent to the input, the emitted P4 parses and re-prints
// to a fixpoint, and the deployed plan forwards seeded packets exactly like
// the software baseline. Programs over kMaxValidatedSize instructions (the
// longer chains) skip the translation validator: its symbolic expressions
// grow to gigabytes on a 256-statement chain.
void CheckCompiled(const std::string& name, const MiddleboxSpec& spec,
                   const gallium::core::CompileResult& result, Rng& rng,
                   Report* report) {
  report->Attempt(1);
  const int fn_size = spec.fn->num_insts();
  if (fn_size <= kMaxValidatedSize) {
    const auto validation =
        gallium::verify::ValidateTranslation(*spec.fn, result.plan);
    if (!validation.equivalent) {
      report->Fail(name + ": translation validation: " +
                   validation.Summary());
    }
  }
  auto parsed = gallium::p4::exec::ParseP4(result.p4_source);
  if (!parsed.ok()) {
    report->Fail(name + ": emitted P4 does not parse: " +
                 parsed.status().ToString());
  } else {
    const std::string print1 = gallium::p4::exec::PrintParsed(**parsed);
    auto reparsed = gallium::p4::exec::ParseP4(print1);
    if (!reparsed.ok() ||
        gallium::p4::exec::PrintParsed(**reparsed) != print1) {
      report->Fail(name + ": P4 round trip is not a fixpoint");
    }
  }

  auto offloaded = gallium::runtime::OffloadedMiddlebox::Create(spec);
  if (!offloaded.ok()) {
    report->Fail(name + ": deploying the plan failed: " +
                 offloaded.status().ToString());
    return;
  }
  gallium::runtime::SoftwareMiddlebox software(spec);
  for (int i = 0; i < kExecutedPackets; ++i) {
    Packet pkt = gallium::net::MakeTcpPacket(
        gallium::workload::RandomFlow(rng), gallium::net::kTcpAck, 64);
    pkt.set_ingress_port(static_cast<uint32_t>(rng.NextBounded(2)));
    Packet sw_pkt = pkt;
    const auto out = (*offloaded)->Process(std::move(pkt), i);
    const auto ref = software.Process(sw_pkt, i);
    bool same = out.status.ok() && ref.status.ok() && out.verdict == ref.verdict;
    if (same &&
        out.verdict.kind == gallium::runtime::Verdict::Kind::kSend) {
      same = out.out_packet.Serialize() == sw_pkt.Serialize();
    }
    if (!same) {
      report->Fail(name + ": deployed plan differs from the software baseline");
      return;
    }
  }
}

}  // namespace

void TracedCompile(const std::vector<const gallium::ir::Function*>& fns,
                   double seconds, bool report_closure, double untraced_set_s,
                   Report* report) {
  enum Phase { kVerify, kPartition, kPlace, kP4, kCpp, kPhases };
  const gallium::core::CompileOptions options;
  const gallium::rmt::RmtTargetModel target =
      gallium::rmt::DefaultTofinoProfile(options.constraints);
  std::vector<double> phase_ms[kPhases];
  std::vector<double> set_ms;
  uint64_t rounds = 0, p4_loc = 0, server_loc = 0;
  const Clock::time_point start = Clock::now();
  bool first = true;
  do {
    double pass[kPhases] = {};
    const Clock::time_point pass_start = Clock::now();
    for (const gallium::ir::Function* fn : fns) {
      report->Attempt(1);
      Clock::time_point t0 = Clock::now();
      if (!gallium::ir::VerifyFunction(*fn).ok()) {
        report->Fail("traced compile: verify failed");
        continue;
      }
      Clock::time_point t1 = Clock::now();
      pass[kVerify] += NsBetween(t0, t1);

      // The spill loop of rmt::PartitionAndPlace, one span per call.
      gallium::partition::SwitchConstraints c = options.constraints;
      gallium::partition::PartitionPlan plan;
      int round = 0;
      bool placed = false;
      while (!placed) {
        ++round;
        t0 = Clock::now();
        auto partitioned = gallium::partition::Partitioner(*fn, c).Run();
        t1 = Clock::now();
        pass[kPartition] += NsBetween(t0, t1);
        if (!partitioned.ok()) break;
        plan = std::move(partitioned).value();
        t0 = Clock::now();
        const auto placement = gallium::rmt::PlaceTables(*fn, plan, target);
        placed = placement.ok();
        gallium::ir::StateRef victim;
        const bool spill =
            !placed && gallium::rmt::ChooseSpillVictim(*fn, plan, c.weights,
                                                       &victim);
        if (spill) c.spilled_state.push_back(victim);
        pass[kPlace] += NsBetween(t0, Clock::now());
        if (!placed && !spill) break;
      }
      if (!placed) {
        report->Fail("traced compile: partition/placement failed");
        continue;
      }

      t0 = Clock::now();
      auto p4 = gallium::p4::GenerateP4(*fn, plan, options.p4);
      const std::string p4_source =
          p4.ok() ? gallium::p4::EmitP4(*p4) : std::string();
      pass[kP4] += NsBetween(t0, Clock::now());
      t0 = Clock::now();
      auto server = gallium::cppgen::GenerateServerCpp(*fn, plan, options.cpp);
      const std::string click = gallium::ir::RenderClickSource(*fn);
      const int loc_p4 = gallium::CountCodeLines(p4_source);
      const int loc_server =
          server.ok() ? gallium::CountCodeLines(*server) : 0;
      (void)gallium::CountCodeLines(click);
      pass[kCpp] += NsBetween(t0, Clock::now());
      if (!p4.ok() || !server.ok()) {
        report->Fail("traced compile: code generation failed");
        continue;
      }
      if (first) {
        rounds += static_cast<uint64_t>(round);
        p4_loc += static_cast<uint64_t>(loc_p4);
        server_loc += static_cast<uint64_t>(loc_server);
      }
    }
    set_ms.push_back(NsBetween(pass_start, Clock::now()) * 1e-6);
    for (int p = 0; p < kPhases; ++p) phase_ms[p].push_back(pass[p] * 1e-6);
    first = false;
  } while (SecondsSince(start) < seconds);

  static constexpr const char* kNames[kPhases] = {
      "compile.verify_ms", "compile.partition_ms", "compile.place_ms",
      "compile.p4_ms", "compile.cpp_ms"};
  double phase_sum = 0;
  for (int p = 0; p < kPhases; ++p) {
    const double median = Median(phase_ms[p]);
    phase_sum += median;
    report->Metric(kNames[p], median, "ms");
  }
  report->Metric("compile.partition_rounds", static_cast<double>(rounds),
                 "count");
  report->Metric("compile.p4_loc", static_cast<double>(p4_loc), "count");
  report->Metric("compile.server_loc", static_cast<double>(server_loc),
                 "count");
  if (report_closure) {
    const double untraced_ms = untraced_set_s * 1e3;
    report->Metric("trace.closure",
                   untraced_ms > 0 ? phase_sum / untraced_ms : 0, "ratio");
    const double traced_ms = Median(set_ms);
    report->Metric("trace.overhead",
                   traced_ms > 0 ? untraced_ms / traced_ms : 0, "ratio");
  }
}

void RunCompileWorkload(const Options& options, Report* report) {
  std::vector<double> setup_s;
  CompileSet set;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    set = CompileSet{};
    const Clock::time_point t0 = Clock::now();
    set = MakeCompileSet(options.seed);
    setup_s.push_back(SecondsSince(t0));
  }

  // Reference artifacts, checked once: every timed compile must reproduce
  // them byte for byte.
  const gallium::core::Compiler compiler;
  Rng check_rng(options.seed);
  std::vector<std::string> reference;
  for (size_t i = 0; i < set.specs.size(); ++i) {
    auto result = compiler.Compile(*set.specs[i]->fn);
    if (!result.ok()) {
      report->Fail(set.names[i] + ": compile failed: " +
                   result.status().ToString());
      reference.emplace_back();
      continue;
    }
    CheckCompiled(set.names[i], *set.specs[i], *result, check_rng, report);
    reference.push_back(result->p4_source + result->server_source);
  }

  const double timed_seconds =
      options.trace ? 0.3 * options.seconds : options.seconds;
  // One operation is a pass compiling the whole set (one sample per pass);
  // a segment holds kPassesPerSegment of them, so op_us_p99 on this
  // workload is the slowest pass of a segment.
  TimedOps ops(1 << 12, kPassesPerSegment, 1);
  std::vector<double> set_s;
  const Clock::time_point start = Clock::now();
  do {
    double pass_ns = 0;
    for (size_t i = 0; i < set.specs.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      auto result = compiler.Compile(*set.specs[i]->fn);
      pass_ns += NsBetween(t0, Clock::now());
      report->Attempt(1);
      if (!result.ok() ||
          result->p4_source + result->server_source != reference[i]) {
        report->Fail(set.names[i] + ": compile output differs");
      }
    }
    ops.Add(pass_ns, set.specs.size());
    set_s.push_back(pass_ns * 1e-9);
    ops.EndRound();
  } while (SecondsSince(start) < timed_seconds);
  ops.StopRotating();

  if (options.trace) {
    TracedCompile(set.Functions(), 0.4 * options.seconds, true, Median(set_s),
                  report);
    // The packet layers on this workload: a short steady-traffic run over
    // the paper programs, so every per-layer metric is measured here too.
    TracedPacketRun(Shape::kSteady, options.seed, 0.25 * options.seconds,
                    false, "", report);
    return;
  }
  ops.ReportMetrics("compile", report);
  ReportSetup(setup_s, report);
}

}  // namespace perfbench
