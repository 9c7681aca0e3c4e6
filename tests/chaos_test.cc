// Chaos harness: differential testing of the offloaded runtime over an
// imperfect substrate, in the spirit of Gauntlet's stress testing of packet-
// processing compilers.
//
// Every middlebox workload is replayed under ≥ 20 seeded FaultPlans — lossy,
// duplicating, reordering, corrupting data links; a lossy/delaying control
// plane; scheduled mid-run switch restarts; and sustained switch outages —
// and each run asserts:
//   1. per-packet equivalence with the SoftwareMiddlebox baseline (verdicts,
//      rewritten headers, payloads),
//   2. exactly-once application of every SyncBatch on the switch (via the
//      switch's applied-sequence log),
//   3. zero lost replicated-state mutations: after recovery, every
//      replicated switch table equals the server's authoritative map.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "engine/engine.h"
#include "mbox/middleboxes.h"
#include "runtime/fault.h"
#include "runtime/offloaded_middlebox.h"
#include "runtime/software_middlebox.h"
#include "telemetry/flight_recorder.h"
#include "workload/churn.h"
#include "workload/packet_gen.h"

namespace gallium {
namespace {

using net::Packet;
using runtime::FaultPlan;
using runtime::OffloadedMiddlebox;
using runtime::OffloadedOptions;
using runtime::SoftwareMiddlebox;
using runtime::Verdict;

constexpr uint64_t kNumPlans = 20;

struct ChaosCase {
  std::string name;
  std::function<Result<mbox::MiddleboxSpec>()> build;
  workload::TraceOptions trace;
};

// gtest would otherwise print the parameter's raw bytes (heap pointers
// included) into the test listing, and ctest names would change per build.
void PrintTo(const ChaosCase& c, std::ostream* os) { *os << c.name; }

std::vector<ChaosCase> MakeCases() {
  std::vector<ChaosCase> cases;
  {
    ChaosCase c;
    c.name = "mini_lb";
    c.build = [] { return mbox::BuildMiniLb(); };
    c.trace.num_flows = 25;
    cases.push_back(std::move(c));
  }
  {
    ChaosCase c;
    c.name = "mazu_nat";
    c.build = [] { return mbox::BuildMazuNat(); };
    c.trace.num_flows = 25;
    c.trace.ingress_port = mbox::kPortInternal;
    cases.push_back(std::move(c));
  }
  {
    ChaosCase c;
    c.name = "l4_lb";
    c.build = [] { return mbox::BuildLoadBalancer(); };
    c.trace.num_flows = 30;
    c.trace.udp_fraction = 0.3;
    cases.push_back(std::move(c));
  }
  {
    ChaosCase c;
    c.name = "proxy";
    c.build = [] { return mbox::BuildProxy({80, 8080, 443}); };
    c.trace.num_flows = 20;
    c.trace.udp_fraction = 0.2;
    cases.push_back(std::move(c));
  }
  {
    ChaosCase c;
    c.name = "trojan_detector";
    c.build = [] { return mbox::BuildTrojanDetector(); };
    c.trace.num_flows = 20;
    c.trace.marked_fraction = 0.3;
    c.trace.marker = mbox::kPatternHttpGet;
    cases.push_back(std::move(c));
  }
  return cases;
}

std::string HeadersOf(const Packet& pkt) {
  return pkt.ToString() + " ttl=" + std::to_string(pkt.ip().ttl) +
         " src=" + net::Ipv4ToString(pkt.ip().saddr) +
         " dst=" + net::Ipv4ToString(pkt.ip().daddr);
}

// Zero lost replicated-state mutations: once the switch is coherent, every
// replicated table must equal the server's authoritative map.
void ExpectReplicatedStateMatchesHost(OffloadedMiddlebox* mbx) {
  auto& device = mbx->device();
  for (const auto& [ref, placement] : mbx->plan().state_placement) {
    if (placement != partition::StatePlacement::kReplicated ||
        ref.kind != ir::StateRef::Kind::kMap) {
      continue;
    }
    auto* table = device.table(ref.index);
    ASSERT_NE(table, nullptr);
    const auto& server_map = mbx->server_state().map_contents(ref.index);
    EXPECT_EQ(table->size(), server_map.size())
        << "replicated map " << mbx->fn().StateName(ref) << " diverged";
    for (const auto& [key, value] : server_map) {
      runtime::StateValue switch_value;
      EXPECT_TRUE(table->Lookup(key, &switch_value))
          << "switch lost a committed mutation in " << mbx->fn().StateName(ref);
      EXPECT_EQ(switch_value, value);
    }
  }
}

// Replays one workload under one FaultPlan; returns the offloaded runtime's
// counters through the out-params so the caller can assert plan coverage.
void RunOnePlan(const ChaosCase& param, uint64_t plan_seed,
                uint64_t* restarts_seen, uint64_t* degraded_seen) {
  auto spec_a = param.build();
  auto spec_b = param.build();
  ASSERT_TRUE(spec_a.ok() && spec_b.ok());

  SoftwareMiddlebox software(*spec_a);

  Rng trace_rng(2024 ^ plan_seed);
  const workload::Trace trace = workload::MakeTrace(trace_rng, param.trace);
  ASSERT_FALSE(trace.packets.empty());

  const FaultPlan plan =
      runtime::MakeRandomFaultPlan(plan_seed, trace.packets.size());
  // On any assertion failure below, the repro recipe is in the trace:
  // the seed (rerun with --chaos-seed=<seed>) and the full fault schedule.
  SCOPED_TRACE(param.name + " seed=" + std::to_string(plan_seed) + " under " +
               plan.ToString());

  OffloadedOptions options;
  options.fault_plan = &plan;
  options.rng_seed = plan_seed * 31 + 7;
  auto offloaded = OffloadedMiddlebox::Create(*spec_b, options);
  ASSERT_TRUE(offloaded.ok()) << offloaded.status().ToString();

  uint64_t now_ms = 0;
  for (const Packet& original : trace.packets) {
    now_ms += 1;
    Packet sw_pkt = original;
    auto sw_out = software.Process(sw_pkt, now_ms);
    ASSERT_TRUE(sw_out.status.ok()) << sw_out.status.ToString();

    auto off_out = (*offloaded)->Process(original, now_ms);
    ASSERT_TRUE(off_out.status.ok())
        << off_out.status.ToString() << " pkt=" << original.ToString();

    ASSERT_EQ(sw_out.verdict.kind, off_out.verdict.kind)
        << "verdict mismatch on " << original.ToString();
    if (sw_out.verdict.kind == Verdict::Kind::kSend) {
      EXPECT_EQ(sw_out.verdict.egress_port, off_out.verdict.egress_port);
      EXPECT_EQ(HeadersOf(sw_pkt), HeadersOf(off_out.out_packet))
          << "rewritten headers differ on " << original.ToString();
      EXPECT_EQ(sw_pkt.payload(), off_out.out_packet.payload());
    }
  }

  // Exactly-once batch application: the switch's applied log must contain
  // no repeated sequence number — not even across epochs. (A batch whose
  // ack was lost is retried and must be acked as a duplicate; a batch
  // overtaken by a restart is folded into the resync snapshot, never
  // re-applied.)
  auto& device = (*offloaded)->device();
  std::set<uint64_t> applied_seqs;
  for (const auto& [epoch, seq] : device.applied_log()) {
    EXPECT_TRUE(applied_seqs.insert(seq).second)
        << "seq " << seq << " applied twice (second time in epoch " << epoch
        << ")";
    EXPECT_GE(seq, 1u);
    EXPECT_LE(seq, (*offloaded)->counters().sync_batches_sent->Value());
  }

  // Zero lost replicated-state mutations: once the switch is brought back
  // to coherence, nothing the server committed may be missing.
  (*offloaded)->EnsureSwitchCoherent();
  ExpectReplicatedStateMatchesHost(offloaded->get());

  *restarts_seen += (*offloaded)->counters().switch_restarts->Value();
  *degraded_seen += (*offloaded)->counters().degraded_packets->Value();
}

class ChaosTest : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosTest, SurvivesSeededFaultPlans) {
  uint64_t restarts = 0, degraded = 0;
  for (uint64_t seed = 1; seed <= kNumPlans; ++seed) {
    RunOnePlan(GetParam(), seed, &restarts, &degraded);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The plan generator guarantees coverage over any 20 consecutive seeds:
  // mid-run restarts (two of every three seeds) and sustained outages with
  // software-only degradation (every fourth seed).
  EXPECT_GT(restarts, 0u) << "no plan exercised a switch restart";
  EXPECT_GT(degraded, 0u) << "no plan exercised a sustained outage";
}

INSTANTIATE_TEST_SUITE_P(
    AllMiddleboxes, ChaosTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      return info.param.name;
    });

// --- Long-run soak: overload + grey failure against the queued runtime -------
//
// The soak crosses every middlebox with the overload and grey-failure plan
// generators and drives the adversarial churn workload (SYN floods + high
// flow arrival rate) through the *queued* runtime: bounded coalescing
// backlog plus health watchdog. Each run asserts
//   1. differential equivalence with the software baseline, modulo the
//      explicitly-shed packets (a shed happens at ingress, before any state
//      is touched, so skipping the packet on the baseline too keeps the
//      two sides' state histories identical),
//   2. exactly-once SyncBatch application,
//   3. the backlog never exceeded its configured bound,
//   4. the watchdog's mode-transition count stays under the dwell-derived
//      ceiling — grey failures must not flap the mode,
//   5. after the final flush, every replicated table equals the host store.

struct SoakTotals {
  uint64_t shed = 0;
  uint64_t backpressure = 0;
  uint64_t enqueued = 0;
  uint64_t transitions = 0;
  // True when the middlebox has a replicated global: its mutating batches
  // keep strict output commit (no miss path hides a stale register), so the
  // backlog machinery is legitimately idle for it.
  bool strict_commit_only = false;
  // False for stateless middleboxes (e.g. the proxy's read-only redirect
  // table): nothing is ever written, so nothing can queue.
  bool has_replicated_map = false;
};

// `engine_mode` routes every packet through a single-worker engine::Engine
// wrapping the same OffloadedOptions instead of a bare OffloadedMiddlebox:
// the engine's steering, global-hub delegation, and slot plumbing must be
// invisible to the whole fault/overload matrix.
void RunOneSoak(const ChaosCase& param, uint64_t plan_seed, bool overload,
                SoakTotals* totals, bool engine_mode = false) {
  auto spec_a = param.build();
  auto spec_b = param.build();
  ASSERT_TRUE(spec_a.ok() && spec_b.ok());
  SoftwareMiddlebox software(*spec_a);

  workload::ChurnOptions churn;
  churn.num_packets = 900;
  churn.new_flow_fraction = 0.7;
  churn.established_flows = 24;
  churn.burst_period = 150;
  churn.burst_len = 40;
  churn.udp_fraction = param.trace.udp_fraction;
  churn.ingress_port = param.trace.ingress_port;
  Rng trace_rng(4242 ^ plan_seed);
  const workload::Trace trace = workload::MakeChurnTrace(trace_rng, churn);

  const FaultPlan plan =
      overload
          ? runtime::MakeOverloadFaultPlan(plan_seed, trace.packets.size())
          : runtime::MakeGreyFailureFaultPlan(plan_seed, trace.packets.size());
  SCOPED_TRACE(param.name + (overload ? " overload" : " grey") +
               " seed=" + std::to_string(plan_seed) + " under " +
               plan.ToString());

  OffloadedOptions options;
  options.fault_plan = &plan;
  options.rng_seed = plan_seed * 131 + 9;
  options.health.enabled = true;
  if (overload) {
    // A pump interval far above the bound guarantees the bound is hit and
    // the overflow policy — ingress shedding here — has to act.
    options.sync_queue.max_backlog_batches = 8;
    options.sync_queue.pump_interval_packets = 32;
    options.sync_queue.overflow =
        runtime::SyncQueueOptions::OverflowPolicy::kShedIngress;
  } else {
    options.sync_queue.max_backlog_batches = 4;
    options.sync_queue.pump_interval_packets = 16;
    options.sync_queue.overflow =
        runtime::SyncQueueOptions::OverflowPolicy::kBackpressure;
  }
  std::unique_ptr<OffloadedMiddlebox> bare;
  std::unique_ptr<engine::Engine> eng;
  OffloadedMiddlebox* box = nullptr;
  if (engine_mode) {
    engine::EngineOptions engine_options;
    engine_options.workers = 1;
    engine_options.runtime = options;
    auto created = engine::Engine::Create(*spec_b, engine_options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    eng = std::move(*created);
    box = &eng->shard(0);
  } else {
    auto created = OffloadedMiddlebox::Create(*spec_b, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    bare = std::move(*created);
    box = bare.get();
  }

  uint64_t now_ms = 0;
  for (const Packet& original : trace.packets) {
    now_ms += 1;
    auto off_out = engine_mode ? eng->Process(original, now_ms)
                               : box->Process(original, now_ms);
    ASSERT_TRUE(off_out.status.ok())
        << off_out.status.ToString() << " pkt=" << original.ToString();
    if (off_out.shed) continue;  // refused before any state was touched

    Packet sw_pkt = original;
    auto sw_out = software.Process(sw_pkt, now_ms);
    ASSERT_TRUE(sw_out.status.ok()) << sw_out.status.ToString();
    ASSERT_EQ(sw_out.verdict.kind, off_out.verdict.kind)
        << "verdict mismatch on " << original.ToString();
    if (sw_out.verdict.kind == Verdict::Kind::kSend) {
      EXPECT_EQ(sw_out.verdict.egress_port, off_out.verdict.egress_port);
      EXPECT_EQ(HeadersOf(sw_pkt), HeadersOf(off_out.out_packet))
          << "rewritten headers differ on " << original.ToString();
      EXPECT_EQ(sw_pkt.payload(), off_out.out_packet.payload());
    }
  }

  // Exactly-once batch application, as in the random-plan sweep.
  auto& device = box->device();
  std::set<uint64_t> applied_seqs;
  for (const auto& [epoch, seq] : device.applied_log()) {
    EXPECT_TRUE(applied_seqs.insert(seq).second)
        << "seq " << seq << " applied twice (second time in epoch " << epoch
        << ")";
  }

  // The backlog respected its bound throughout.
  EXPECT_LE(box->sync_backlog().peak_depth(),
            options.sync_queue.max_backlog_batches)
      << "backlog exceeded its bound";

  // Bounded flapping: the dwell makes transitions/packets a hard ceiling.
  const runtime::HealthWatchdog* dog = box->watchdog();
  ASSERT_NE(dog, nullptr);
  const uint64_t ceiling =
      box->packets_total() / options.health.min_dwell_packets + 1;
  EXPECT_LE(dog->transitions(), ceiling)
      << "watchdog flapped past the dwell-derived ceiling";

  // Once the backlog lands, replicated state converges exactly.
  if (engine_mode) {
    eng->Quiesce();  // drains the same backlog via the engine's sync core
  } else {
    box->FlushSyncBacklog();
  }
  ExpectReplicatedStateMatchesHost(box);

  totals->shed += box->counters().packets_shed->Value();
  totals->backpressure += box->counters().backpressure_events->Value();
  totals->enqueued += box->sync_backlog().enqueued_mutations();
  totals->transitions += dog->transitions();
  for (const auto& [ref, placement] : box->plan().state_placement) {
    if (placement != partition::StatePlacement::kReplicated) continue;
    if (ref.kind == ir::StateRef::Kind::kGlobal) {
      totals->strict_commit_only = true;
    } else if (ref.kind == ir::StateRef::Kind::kMap) {
      totals->has_replicated_map = true;
    }
  }
}

class SoakTest : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(SoakTest, OverloadShedsBoundedAndStaysEquivalent) {
  SoakTotals totals;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RunOneSoak(GetParam(), seed, /*overload=*/true, &totals);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The overload plans must actually exercise the machinery under test —
  // except for middleboxes whose batches all carry a replicated global
  // (strict commit; the backlog is legitimately idle). Per-key coalescing
  // itself is covered by the sync_queue property test: these middleboxes
  // install per-flow state exactly once, so churn never rewrites a key.
  if (totals.has_replicated_map && !totals.strict_commit_only) {
    EXPECT_GT(totals.shed, 0u)
        << "overload never drove the backlog to its bound";
    EXPECT_GT(totals.enqueued, 0u) << "no mutation ever entered the backlog";
  }
}

TEST_P(SoakTest, GreyFailureBackpressuresWithoutFlapping) {
  SoakTotals totals;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RunOneSoak(GetParam(), seed, /*overload=*/false, &totals);
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (totals.has_replicated_map && !totals.strict_commit_only) {
    EXPECT_GT(totals.backpressure, 0u)
        << "grey runs never blocked a packet at the bound";
    EXPECT_GT(totals.enqueued, 0u) << "no mutation ever entered the backlog";
  }
}

// The engine wrapping a single worker must pass the same soak matrix with
// the same invariants: steering, hub-delegated globals, and packet-slot
// recycling are pure plumbing, not semantics.
TEST_P(SoakTest, EngineModeOverloadSoaksUnchanged) {
  SoakTotals totals;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RunOneSoak(GetParam(), seed, /*overload=*/true, &totals,
               /*engine_mode=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (totals.has_replicated_map && !totals.strict_commit_only) {
    EXPECT_GT(totals.shed, 0u)
        << "overload never drove the backlog to its bound";
    EXPECT_GT(totals.enqueued, 0u) << "no mutation ever entered the backlog";
  }
}

TEST_P(SoakTest, EngineModeGreyFailureSoaksUnchanged) {
  SoakTotals totals;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RunOneSoak(GetParam(), seed, /*overload=*/false, &totals,
               /*engine_mode=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (totals.has_replicated_map && !totals.strict_commit_only) {
    EXPECT_GT(totals.backpressure, 0u)
        << "grey runs never blocked a packet at the bound";
    EXPECT_GT(totals.enqueued, 0u) << "no mutation ever entered the backlog";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMiddleboxes, SoakTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      return info.param.name;
    });

// --- Component-level tests ----------------------------------------------------

TEST(FaultyChannel, DeterministicPerSeedAndCountsFaults) {
  runtime::ChannelFaults faults;
  faults.drop = 0.3;
  faults.duplicate = 0.2;
  faults.reorder = 0.2;
  faults.corrupt = 0.1;
  auto run = [&](uint64_t seed) {
    Rng rng(seed);
    runtime::FaultyChannel chan(faults, &rng);
    std::vector<size_t> delivered;
    for (uint64_t i = 0; i < 200; ++i) {
      chan.Send(std::vector<uint8_t>(8, static_cast<uint8_t>(i)));
      while (auto f = chan.Receive()) delivered.push_back(f->size());
    }
    return std::make_tuple(delivered.size(), chan.frames_dropped(),
                           chan.frames_duplicated(), chan.frames_corrupted(),
                           chan.has_held());
  };
  EXPECT_EQ(run(5), run(5)) << "same seed must give the same fault schedule";
  const auto [count, dropped, duplicated, corrupted, held] = run(5);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(corrupted, 0u);
  // Every frame is accounted for: delivered, dropped, or (at most one)
  // still held back for reordering.
  EXPECT_EQ(count + (held ? 1 : 0), 200 - dropped + duplicated);
}

TEST(FaultyChannel, DrainReleasesHeldReorderFrame) {
  runtime::ChannelFaults faults;
  faults.reorder = 1.0;
  Rng rng(7);
  runtime::FaultyChannel chan(faults, &rng);
  chan.Send({1});
  EXPECT_FALSE(chan.Receive().has_value()) << "reordered frame not held back";
  ASSERT_TRUE(chan.has_held());
  // End of run: without an explicit drain the held frame is lost silently —
  // a drop the fault accounting never recorded.
  chan.Drain();
  EXPECT_FALSE(chan.has_held());
  auto released = chan.Receive();
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(*released, std::vector<uint8_t>{1});
  EXPECT_FALSE(chan.Receive().has_value());
  chan.Drain();  // idle drain is a no-op
  EXPECT_FALSE(chan.Receive().has_value());
}

TEST(FaultPlanGenerator, OverloadAndGreyPlansAreDeterministicAndWindowed) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FaultPlan a = runtime::MakeOverloadFaultPlan(seed, 200);
    EXPECT_EQ(a.ToString(),
              runtime::MakeOverloadFaultPlan(seed, 200).ToString());
    EXPECT_FALSE(a.grey_windows.empty());
    EXPECT_GT(a.sync.batch_drop, 0.1);

    const FaultPlan g = runtime::MakeGreyFailureFaultPlan(seed, 200);
    EXPECT_EQ(g.ToString(),
              runtime::MakeGreyFailureFaultPlan(seed, 200).ToString());
    EXPECT_FALSE(g.grey_windows.empty());
    for (const auto& w : g.grey_windows) {
      EXPECT_LT(w.start, w.end);
      EXPECT_LE(w.end, 200u);
    }
  }
}

TEST(FaultPlanSpec, ParsesKindAndSeed) {
  auto overload = runtime::FaultPlanFromSpec("overload:7", 100);
  ASSERT_TRUE(overload.ok());
  EXPECT_EQ(overload->ToString(),
            runtime::MakeOverloadFaultPlan(7, 100).ToString());
  auto grey = runtime::FaultPlanFromSpec("grey:3", 100);
  ASSERT_TRUE(grey.ok());
  EXPECT_FALSE(grey->grey_windows.empty());
  auto random = runtime::FaultPlanFromSpec("random:3", 100);
  ASSERT_TRUE(random.ok());
  EXPECT_EQ(random->ToString(), runtime::MakeRandomFaultPlan(3, 100).ToString());

  EXPECT_FALSE(runtime::FaultPlanFromSpec("bogus:1", 100).ok());
  EXPECT_FALSE(runtime::FaultPlanFromSpec("overload", 100).ok());
  EXPECT_FALSE(runtime::FaultPlanFromSpec("overload:", 100).ok());
  EXPECT_FALSE(runtime::FaultPlanFromSpec("overload:x", 100).ok());
}

TEST(GreyWindow, FoldsIntoInjectorEffectsPerPacket) {
  FaultPlan plan;
  plan.seed = 1;
  runtime::GreyWindow spike;
  spike.kind = runtime::GreyWindow::Kind::kLatencySpike;
  spike.start = 10;
  spike.end = 20;
  spike.latency_factor = 6.0;
  spike.extra_delay_us = 700.0;
  plan.grey_windows.push_back(spike);
  runtime::GreyWindow loss;
  loss.kind = runtime::GreyWindow::Kind::kBurstLoss;
  loss.start = 15;
  loss.end = 25;
  loss.drop_to_server = 0.9;
  loss.sync_drop = 0.5;
  plan.grey_windows.push_back(loss);

  runtime::FaultInjector injector(plan);
  injector.BeginPacket(5);
  EXPECT_FALSE(injector.InGreyWindow());
  EXPECT_EQ(injector.LatencyFactor(), 1.0);
  EXPECT_EQ(injector.to_server().drop_boost(), 0.0);

  injector.BeginPacket(12);  // spike only
  EXPECT_TRUE(injector.InGreyWindow());
  EXPECT_EQ(injector.LatencyFactor(), 6.0);
  EXPECT_EQ(injector.ExtraDelayUs(), 700.0);
  EXPECT_EQ(injector.to_server().drop_boost(), 0.0);

  injector.BeginPacket(17);  // spike + burst loss overlap
  EXPECT_TRUE(injector.InGreyWindow());
  EXPECT_EQ(injector.LatencyFactor(), 6.0);
  EXPECT_EQ(injector.to_server().drop_boost(), 0.9);

  injector.BeginPacket(30);  // effects reset once the windows pass
  EXPECT_FALSE(injector.InGreyWindow());
  EXPECT_EQ(injector.LatencyFactor(), 1.0);
  EXPECT_EQ(injector.ExtraDelayUs(), 0.0);
  EXPECT_EQ(injector.to_server().drop_boost(), 0.0);
}

TEST(DataFrame, ChecksumCatchesCorruption) {
  const std::vector<uint8_t> wire = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<uint8_t> frame = runtime::EncodeDataFrame(77, wire);
  uint64_t seq = 0;
  std::vector<uint8_t> out;
  ASSERT_TRUE(runtime::DecodeDataFrame(frame, &seq, &out));
  EXPECT_EQ(seq, 77u);
  EXPECT_EQ(out, wire);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> tampered = frame;
    tampered[i] ^= 0x40;
    EXPECT_FALSE(runtime::DecodeDataFrame(tampered, &seq, &out))
        << "flip at byte " << i << " undetected";
  }
  EXPECT_FALSE(runtime::DecodeDataFrame({1, 2, 3}, &seq, &out));
}

TEST(SyncBatchApply, IdempotentUnderRetriesAndStaleEpochs) {
  auto spec = mbox::BuildMazuNat();
  ASSERT_TRUE(spec.ok());
  partition::Partitioner partitioner(*spec->fn, {});
  auto plan = partitioner.Run();
  ASSERT_TRUE(plan.ok());
  auto sw = switchsim::Switch::Create(*spec->fn, *plan, {});
  ASSERT_TRUE(sw.ok());

  runtime::SyncBatch batch;
  batch.seq = 1;
  batch.epoch = (*sw)->epoch();
  batch.maps.push_back({0, {10, 20}, {1024}, false});

  Rng rng(3);
  auto first = (*sw)->ApplySyncBatch(batch, &rng);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->applied);
  EXPECT_FALSE(first->duplicate);

  // Retransmission (lost ack): acked as duplicate, not re-applied.
  auto second = (*sw)->ApplySyncBatch(batch, &rng);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->applied);
  EXPECT_TRUE(second->duplicate);
  EXPECT_EQ((*sw)->applied_log().size(), 1u);

  // A restart invalidates the epoch: stale batches are rejected unapplied.
  (*sw)->Restart();
  runtime::SyncBatch stale;
  stale.seq = 2;
  stale.epoch = batch.epoch;
  stale.maps.push_back({0, {11, 21}, {2048}, false});
  auto third = (*sw)->ApplySyncBatch(stale, &rng);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->epoch_ok);
  EXPECT_FALSE(third->applied);
  runtime::StateValue value;
  EXPECT_FALSE((*sw)->data_plane().MapLookup(0, {11, 21}, &value))
      << "stale-epoch batch must not mutate the tables";
}

TEST(SwitchRestart, WipesStateAndResyncRestoresFromHost) {
  auto spec = mbox::BuildMiniLb();
  ASSERT_TRUE(spec.ok());
  auto mbx = OffloadedMiddlebox::Create(*spec);
  ASSERT_TRUE(mbx.ok());

  // Drive a little traffic so replicated tables hold flow state.
  Rng rng(11);
  const workload::Trace trace = workload::MakeTrace(rng, {.num_flows = 10});
  uint64_t now_ms = 0;
  for (const Packet& pkt : trace.packets) {
    ASSERT_TRUE((*mbx)->Process(pkt, ++now_ms).status.ok());
  }

  auto& device = (*mbx)->device();
  const uint64_t epoch_before = device.epoch();
  device.Restart();
  EXPECT_EQ(device.epoch(), epoch_before + 1);
  EXPECT_EQ(device.last_applied_seq(), 0u);

  // The heartbeat notices the epoch bump and rebuilds every resident table
  // from the authoritative host store.
  (*mbx)->EnsureSwitchCoherent();
  EXPECT_EQ((*mbx)->counters().switch_restarts->Value(), 1u);
  EXPECT_EQ((*mbx)->counters().resyncs->Value(), 1u);
  const auto& plan_state = (*mbx)->plan();
  for (const auto& [ref, placement] : plan_state.state_placement) {
    if (placement != partition::StatePlacement::kReplicated ||
        ref.kind != ir::StateRef::Kind::kMap) {
      continue;
    }
    auto* table = device.table(ref.index);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->size(),
              (*mbx)->server_state().map_contents(ref.index).size());
  }

  // Traffic keeps flowing after recovery.
  for (const Packet& pkt : trace.packets) {
    ASSERT_TRUE((*mbx)->Process(pkt, ++now_ms).status.ok());
  }
}

TEST(FaultPlanGenerator, IsDeterministicAndCoversRecoveryPaths) {
  uint64_t restarts = 0, outages = 0;
  for (uint64_t seed = 1; seed <= kNumPlans; ++seed) {
    const FaultPlan a = runtime::MakeRandomFaultPlan(seed, 100);
    const FaultPlan b = runtime::MakeRandomFaultPlan(seed, 100);
    EXPECT_EQ(a.ToString(), b.ToString());
    restarts += a.restart_at_packets.size();
    outages += a.outages.size();
    for (uint64_t at : a.restart_at_packets) EXPECT_LT(at, 100u);
    for (const auto& [start, end] : a.outages) {
      EXPECT_LT(start, end);
      EXPECT_LE(end, 100u);
    }
  }
  EXPECT_GT(restarts, 0u);
  EXPECT_GT(outages, 0u);
}

}  // namespace
}  // namespace gallium

namespace {

// Postmortem hook: a failing chaos test dumps the process-wide flight
// recorder, so the exact watchdog/sync/fault event stream that led to the
// failure survives next to the seeded FaultPlan reproduction handle. CI
// sets GALLIUM_FLIGHT_DUMP_DIR and uploads whatever lands there.
class FlightDumpOnFailure : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    if (info.result() == nullptr || !info.result()->Failed()) return;
    const char* dir = std::getenv("GALLIUM_FLIGHT_DUMP_DIR");
    std::string path = (dir != nullptr && dir[0] != '\0') ? dir : ".";
    path += "/flight_";
    std::string test = std::string(info.test_suite_name()) + "_" + info.name();
    for (char& c : test) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    path += test + ".json";
    if (gallium::telemetry::FlightRecorder::Default().DumpToFile(path)) {
      std::fprintf(stderr, "chaos_test: wrote flight dump %s\n", path.c_str());
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new FlightDumpOnFailure);
  return RUN_ALL_TESTS();
}
