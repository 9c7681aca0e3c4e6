// Telemetry tests: histogram bucket/quantile correctness against an exact
// reference, counter atomicity under a multithreaded hammer, exposition
// formats, the flight recorder, and per-packet hop tracing — a golden test
// that a NAT packet's hop events reconstruct the pre -> server -> sync ->
// post pipeline with op totals matching the interpreter's, plus the
// acceptance cross-check that the registry's op totals equal the summed
// Outcome stats for all five paper middleboxes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "hop_trace.h"
#include "mbox/middleboxes.h"
#include "runtime/offloaded_middlebox.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "workload/packet_gen.h"

namespace gallium {
namespace {

// --- Metrics registry ----------------------------------------------------------

TEST(Counter, IncrementsAndReads) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter* c = registry.GetCounter("test_total", {});
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
  // Same (name, labels) resolves to the same instrument.
  EXPECT_EQ(registry.GetCounter("test_total", {}), c);
  // Different labels is a different series.
  EXPECT_NE(registry.GetCounter("test_total", {{"k", "v"}}), c);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  telemetry::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Resolve through the registry from every thread: exercises the
      // lookup lock alongside the relaxed increment.
      telemetry::Counter* c = registry.GetCounter("hammer_total", {});
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("hammer_total", {})->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Histogram, ConcurrentObservesKeepCountAndSum) {
  telemetry::MetricsRegistry registry;
  telemetry::Histogram* h =
      registry.GetHistogram("hammer_us", {}, {1.0, 10.0, 100.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < kPerThread; ++i) h->Observe(2.5);
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t expected = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h->Count(), expected);
  EXPECT_DOUBLE_EQ(h->Sum(), 2.5 * static_cast<double>(expected));
}

TEST(Histogram, BucketCountsMatchReference) {
  telemetry::MetricsRegistry registry;
  telemetry::Histogram* h =
      registry.GetHistogram("lat_us", {}, {1.0, 2.0, 5.0, 10.0});
  const std::vector<double> samples = {0.5, 1.0, 1.5, 2.0,  3.0,
                                       7.0, 9.9, 10.0, 11.0, 1000.0};
  for (double s : samples) h->Observe(s);
  // Inclusive upper bounds (Prometheus `le` semantics).
  EXPECT_EQ(h->BucketCount(0), 2u);  // <= 1:   0.5, 1.0
  EXPECT_EQ(h->BucketCount(1), 2u);  // <= 2:   1.5, 2.0
  EXPECT_EQ(h->BucketCount(2), 1u);  // <= 5:   3.0
  EXPECT_EQ(h->BucketCount(3), 3u);  // <= 10:  7.0, 9.9, 10.0
  EXPECT_EQ(h->BucketCount(4), 2u);  // +Inf:   11.0, 1000.0
  EXPECT_EQ(h->Count(), samples.size());
  double sum = 0;
  for (double s : samples) sum += s;
  EXPECT_DOUBLE_EQ(h->Sum(), sum);
}

// Quantile estimates vs. the exact nearest-rank reference: the estimate
// must land in the same bucket as the exact value, i.e. within one bucket
// width of it, across a spread of sample shapes and q values.
TEST(Histogram, QuantilesMatchExactReference) {
  const std::vector<double> bounds = telemetry::DefaultLatencyBucketsUs();
  // Deterministic pseudo-random samples (LCG; no global seeding).
  uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((state >> 33) % 1000000) / 100.0;  // 0..10^4
  };
  telemetry::MetricsRegistry registry;
  telemetry::Histogram* h = registry.GetHistogram("q_us", {}, bounds);
  std::vector<double> exact;
  for (int i = 0; i < 5000; ++i) {
    const double v = next();
    h->Observe(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());

  for (double q : {0.5, 0.9, 0.99}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(q * exact.size())));
    const double exact_q = exact[rank - 1];
    const double est = h->Quantile(q);
    // Find the bucket holding the exact value; the estimate interpolates
    // inside that same bucket.
    double lo = 0, hi = bounds.back();
    for (double b : bounds) {
      if (exact_q <= b) {
        hi = b;
        break;
      }
      lo = b;
    }
    EXPECT_GE(est, lo) << "q=" << q;
    EXPECT_LE(est, hi) << "q=" << q;
    EXPECT_NEAR(est, exact_q, hi - lo) << "q=" << q;
  }
}

TEST(Histogram, OverflowSaturatesAtLastBound) {
  telemetry::MetricsRegistry registry;
  telemetry::Histogram* h = registry.GetHistogram("sat_us", {}, {1.0, 2.0});
  h->Observe(1e9);
  h->Observe(2e9);
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.99), 2.0);
}

TEST(Registry, PrometheusAndJsonExposition) {
  telemetry::MetricsRegistry registry;
  registry.GetCounter("pkts_total", {{"mbox", "nat"}}, "packets")
      ->Increment(7);
  registry.GetGauge("util", {}, "utilization")->Set(0.5);
  registry.GetHistogram("lat_us", {}, {1.0, 10.0})->Observe(3.0);

  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE pkts_total counter"), std::string::npos);
  EXPECT_NE(text.find("pkts_total{mbox=\"nat\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE util gauge"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 1"), std::string::npos);

  const std::string json = registry.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"pkts_total\""), std::string::npos);
  EXPECT_NE(json.find("\"mbox\":\"nat\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(OpCounts, RecorderRoundTripsThroughRegistry) {
  telemetry::MetricsRegistry registry;
  telemetry::OpCountsRecorder recorder(&registry, "ops_total", {});
  telemetry::OpCounts counts;
  counts.insts = 10;
  counts.alu_ops = 3;
  counts.map_lookups = 2;
  recorder.Add(counts);
  recorder.Add(counts);
  telemetry::OpCounts expected = counts;
  expected += counts;
  EXPECT_EQ(recorder.Totals(), expected);
  EXPECT_EQ(expected.Total(), 30);
}

// The exposition escaping contract: inside a Prometheus label value only
// backslash, double-quote, and newline are escaped — and nothing else.
TEST(Registry, PrometheusLabelValueEscaping) {
  telemetry::MetricsRegistry registry;
  registry
      .GetCounter("esc_total",
                  {{"path", "a\\b"}, {"quote", "say \"hi\""}, {"nl", "x\ny"}})
      ->Increment();
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("path=\"a\\\\b\""), std::string::npos) << text;
  EXPECT_NE(text.find("quote=\"say \\\"hi\\\"\""), std::string::npos) << text;
  EXPECT_NE(text.find("nl=\"x\\ny\""), std::string::npos) << text;
  // The raw newline must not survive into the sample line (it would split
  // the exposition mid-sample).
  EXPECT_EQ(text.find("x\ny"), std::string::npos);
  // Values that need no escaping pass through verbatim.
  registry.GetCounter("plain_total", {{"mbox", "nat"}})->Increment();
  EXPECT_NE(registry.ToPrometheusText().find("plain_total{mbox=\"nat\"} 1"),
            std::string::npos);
}

// An empty label set renders as a bare sample name — no `{}`.
TEST(Registry, EmptyLabelSetRendersBareName) {
  telemetry::MetricsRegistry registry;
  registry.GetCounter("bare_total", {})->Increment(3);
  registry.GetGauge("bare_gauge", {})->Set(1.5);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("bare_total 3"), std::string::npos) << text;
  EXPECT_NE(text.find("bare_gauge 1.5"), std::string::npos) << text;
  EXPECT_EQ(text.find("bare_total{"), std::string::npos) << text;
}

// Histogram text exposition: cumulative buckets ending at +Inf, the +Inf
// bucket equal to _count, and _sum carrying the observed total.
TEST(Registry, PrometheusHistogramExpansion) {
  telemetry::MetricsRegistry registry;
  telemetry::Histogram* h =
      registry.GetHistogram("exp_us", {{"mbox", "nat"}}, {1.0, 5.0, 10.0});
  for (double v : {0.5, 0.7, 3.0, 7.0, 100.0}) h->Observe(v);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("exp_us_bucket{mbox=\"nat\",le=\"1\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("exp_us_bucket{mbox=\"nat\",le=\"5\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("exp_us_bucket{mbox=\"nat\",le=\"10\"} 4"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("exp_us_bucket{mbox=\"nat\",le=\"+Inf\"} 5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("exp_us_count{mbox=\"nat\"} 5"), std::string::npos)
      << text;
  EXPECT_NE(text.find("exp_us_sum{mbox=\"nat\"} 111.2"), std::string::npos)
      << text;
}

// --- Flight recorder ------------------------------------------------------------

TEST(FlightRecorder, RecordsAndSnapshotsInSeqOrder) {
  telemetry::FlightRecorder recorder(/*lanes=*/3, /*capacity_per_lane=*/16);
  recorder.Record(1, telemetry::EventId::kWatchdogModeChange, 0, 1, 1);
  recorder.Record(2, telemetry::EventId::kSyncBackpressure, 4);
  recorder.Record(0, telemetry::EventId::kEngineRingHighWater, 1, 32, 256);
  EXPECT_EQ(recorder.events_recorded(), 3u);
  EXPECT_EQ(recorder.events_dropped(), 0u);
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Merged across lanes, ordered by the global sequence number.
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].lane, 1u);
  EXPECT_EQ(events[1].lane, 2u);
  EXPECT_EQ(events[1].args[0], 4u);
  EXPECT_EQ(events[2].lane, 0u);
  EXPECT_EQ(events[2].args[2], 256u);
  EXPECT_LE(events[0].ts_ns, events[2].ts_ns);
}

TEST(FlightRecorder, WrapsOverwritingOldestAndCountsDrops) {
  telemetry::FlightRecorder recorder(/*lanes=*/1, /*capacity_per_lane=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    recorder.Record(0, telemetry::EventId::kSyncRetry, i);
  }
  EXPECT_EQ(recorder.events_recorded(), 20u);
  EXPECT_EQ(recorder.events_dropped(), 12u);
  EXPECT_EQ(recorder.LaneOccupancy(0), 8u);
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The ring keeps the newest events: 12..19.
  EXPECT_EQ(events.front().args[0], 12u);
  EXPECT_EQ(events.back().args[0], 19u);
}

TEST(FlightRecorder, OutOfRangeLaneClampsToControlLane) {
  telemetry::FlightRecorder recorder(/*lanes=*/2, /*capacity_per_lane=*/8);
  recorder.Record(99, telemetry::EventId::kSwitchRestart, 7);
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].lane, 0u);
}

TEST(FlightRecorder, JsonDumpCarriesVersionNamesAndArgs) {
  telemetry::FlightRecorder recorder(/*lanes=*/2, /*capacity_per_lane=*/8);
  recorder.Record(1, telemetry::EventId::kWatchdogModeChange, 0, 1, 1);
  recorder.Record(0, telemetry::EventId::kFlowTableResizeBegin, 64, 128, 200);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"version\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"events_recorded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"watchdog.mode_change\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flow_table.resize_begin\""),
            std::string::npos);
  // Named args only: the mode-change event maps from/to/transitions.
  EXPECT_NE(json.find("\"from\":0"), std::string::npos);
  EXPECT_NE(json.find("\"to\":1"), std::string::npos);
  EXPECT_NE(json.find("\"old_buckets\":64"), std::string::npos);
  EXPECT_NE(json.find("\"new_buckets\":128"), std::string::npos);
}

TEST(FlightRecorder, ChromeTimelineNamesOccupiedLanes) {
  telemetry::FlightRecorder recorder(/*lanes=*/4, /*capacity_per_lane=*/8);
  recorder.Record(0, telemetry::EventId::kSwitchRestart, 1);
  recorder.Record(2, telemetry::EventId::kDegradedEnter, 100);
  const std::string json = recorder.ToChromeJson();
  EXPECT_NE(json.find("\"lane 0 (control)\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"worker 1\""), std::string::npos) << json;
  // Lane 1 and 3 are empty: no thread_name metadata for them.
  EXPECT_EQ(json.find("\"worker 0\""), std::string::npos);
  EXPECT_EQ(json.find("\"worker 2\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flight\""), std::string::npos);
}

TEST(FlightRecorder, PublishMetricsExportsGauges) {
  telemetry::FlightRecorder recorder(/*lanes=*/2, /*capacity_per_lane=*/8);
  recorder.Record(1, telemetry::EventId::kResyncBegin, 3);
  telemetry::MetricsRegistry registry;
  recorder.PublishMetrics(&registry);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("gallium_flight_events_recorded 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gallium_flight_ring_occupancy{lane=\"1\"} 1"),
            std::string::npos)
      << text;
}

TEST(FlightRecorder, DefaultIsProcessWideSingleton) {
  telemetry::FlightRecorder& a = telemetry::FlightRecorder::Default();
  telemetry::FlightRecorder& b = telemetry::FlightRecorder::Default();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.lanes(), 1u);
}

TEST(FlightRecorder, EventNamesCoverEveryId) {
  for (int id = 0;
       id < static_cast<int>(telemetry::EventId::kNumEventIds); ++id) {
    const char* name =
        telemetry::EventName(static_cast<telemetry::EventId>(id));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "unknown") << "EventId " << id;
    // Every event names at least its first argument.
    EXPECT_NE(
        telemetry::EventArgName(static_cast<telemetry::EventId>(id), 0),
        nullptr)
        << "EventId " << id;
  }
}

// --- Per-packet hops through the offloaded runtime ------------------------------

// Exporter: hops become "X" slices that start at the packet's previous
// event on the lane, and a packet whose packet.begin was overwritten by
// ring wrap is not drawn.
TEST(FlightRecorder, ChromeJsonDrawsHopsAsSlicesFromThePreviousEvent) {
  using telemetry::EventId;
  telemetry::FlightRecorder recorder(/*lanes=*/2, /*capacity_per_lane=*/4);
  recorder.Record(1, EventId::kPacketBegin, 0);  // overwritten below
  recorder.Record(1, EventId::kHopSwitchPre, 0, 10, 3);
  recorder.Record(1, EventId::kPacketBegin, 1);
  recorder.Record(1, EventId::kHopSwitchPre, 1, 10, 3);
  recorder.Record(1, EventId::kHopWireToServer, 1, 0, 24);
  const std::string json = recorder.ToChromeJson();
  size_t slices = 0;
  for (size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++slices;
  }
  EXPECT_EQ(slices, 2u) << json;
  EXPECT_EQ(json.find("\"packet_id\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"wire.to_server\""), std::string::npos);
  EXPECT_NE(json.find("\"transfer_bytes\":24"), std::string::npos);
  EXPECT_NE(json.find("\"rmt_stages\":3"), std::string::npos);
  // packet.begin is the first slice's start, not an event of its own.
  EXPECT_EQ(json.find("\"name\":\"packet.begin\""), std::string::npos);
}

// Golden test: one NAT SYN (slow path, state sync) reconstructs the full
// pipeline from its hop events, with op totals exactly matching the
// Outcome's op counts; the causally-dependent reply rides the fast path and
// records a pre-pass-only path.
TEST(HopTrace, GoldenNatSlowPathReconstruction) {
  auto spec = mbox::BuildMazuNat();
  ASSERT_TRUE(spec.ok());
  telemetry::FlightRecorder recorder(/*lanes=*/2, /*capacity_per_lane=*/64);
  runtime::OffloadedOptions options;
  options.trace_hops = true;
  options.flight = &recorder;
  options.flight_lane = 1;
  auto mbx = runtime::OffloadedMiddlebox::Create(*spec, options);
  ASSERT_TRUE(mbx.ok()) << mbx.status().ToString();

  Rng rng(91);
  const net::FiveTuple flow = workload::RandomFlow(rng);
  net::Packet syn = net::MakeTcpPacket(flow, net::kTcpSyn, 0);
  syn.set_ingress_port(mbox::kPortInternal);
  auto out = (*mbx)->Process(syn);
  ASSERT_TRUE(out.status.ok());
  ASSERT_FALSE(out.fast_path);
  ASSERT_TRUE(out.state_synced);

  auto packets = testing::HopPackets(recorder);
  ASSERT_EQ(packets.size(), 1u);
  const testing::HopPacket& pkt = packets[0];
  EXPECT_EQ(pkt.lane, 1u);
  EXPECT_EQ(pkt.id, 0u);
  EXPECT_EQ(pkt.Path(),
            "switch.pre -> wire.to_server -> server -> sync.commit -> "
            "wire.to_switch -> switch.post");

  // Op totals per hop match the interpreter's counts exactly; each hop
  // carries its own figure in a2.
  ASSERT_EQ(pkt.hops.size(), 6u);
  EXPECT_EQ(static_cast<int64_t>(pkt.hops[0].args[1] + pkt.hops[5].args[1]),
            out.switch_stats.Total());
  EXPECT_EQ(static_cast<int64_t>(pkt.hops[2].args[1]),
            out.server_stats.Total());
  EXPECT_EQ(pkt.hops[1].args[2],
            static_cast<uint64_t>(out.transfer_bytes_to_server));
  EXPECT_EQ(pkt.hops[4].args[2],
            static_cast<uint64_t>(out.transfer_bytes_to_switch));
  EXPECT_EQ(pkt.hops[3].args[2], static_cast<uint64_t>(out.sync_latency_us));
  EXPECT_GT(pkt.hops[0].args[2], 0u);  // RMT stages the pre pass crossed
  // Hops are stamped as their layer finishes, so their clock never runs
  // backwards.
  for (size_t i = 1; i < pkt.hops.size(); ++i) {
    EXPECT_LE(pkt.hops[i - 1].ts_ns, pkt.hops[i].ts_ns);
  }

  // The reply is causally dependent -> fast path -> pre-pass-only path.
  net::FiveTuple reply{flow.daddr, mbox::kNatExternalIp, flow.dport,
                       out.out_packet.sport(), net::kIpProtoTcp};
  net::Packet synack =
      net::MakeTcpPacket(reply, net::kTcpSyn | net::kTcpAck, 0);
  synack.set_ingress_port(mbox::kPortExternal);
  auto out2 = (*mbx)->Process(synack);
  ASSERT_TRUE(out2.status.ok());
  ASSERT_TRUE(out2.fast_path);
  packets = testing::HopPackets(recorder);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(packets[1].id, 1u);
  EXPECT_EQ(packets[1].Path(), "switch.pre");
  EXPECT_EQ(static_cast<int64_t>(packets[1].hops[0].args[1]),
            out2.switch_stats.Total());
}

// Acceptance cross-check: for all five paper middleboxes, the registry's
// per-op-kind totals equal the summed Outcome op counts, every packet's
// hops reconstruct a complete pre-first path, and the hops' ops_total
// re-aggregate to the registry's totals.
TEST(HopTrace, RegistryOpTotalsMatchOutcomeOpsAcrossPaperMiddleboxes) {
  struct Entry {
    const char* name;
    std::function<Result<mbox::MiddleboxSpec>()> build;
  };
  const std::vector<Entry> entries = {
      {"nat", [] { return mbox::BuildMazuNat(); }},
      {"lb", [] { return mbox::BuildLoadBalancer(); }},
      {"firewall", [] { return mbox::BuildFirewall(); }},
      {"proxy", [] { return mbox::BuildProxy(); }},
      {"trojan", [] { return mbox::BuildTrojanDetector(); }},
  };
  for (const auto& entry : entries) {
    SCOPED_TRACE(entry.name);
    auto spec = entry.build();
    ASSERT_TRUE(spec.ok());
    telemetry::FlightRecorder recorder(/*lanes=*/2,
                                       /*capacity_per_lane=*/2048);
    runtime::OffloadedOptions options;
    options.trace_hops = true;
    options.flight = &recorder;
    options.flight_lane = 1;
    auto mbx = runtime::OffloadedMiddlebox::Create(*spec, options);
    ASSERT_TRUE(mbx.ok()) << mbx.status().ToString();

    Rng rng(7);
    workload::TraceOptions trace_options;
    trace_options.num_flows = 12;
    trace_options.ingress_port = mbox::kPortInternal;
    const workload::Trace workload_trace =
        workload::MakeTrace(rng, trace_options);
    ASSERT_FALSE(workload_trace.packets.empty());

    telemetry::OpCounts switch_total, server_total;
    std::vector<bool> fast_path;
    uint64_t now_ms = 0;
    for (const net::Packet& pkt : workload_trace.packets) {
      if (fast_path.size() >= 200) break;
      auto out = (*mbx)->Process(pkt, ++now_ms);
      ASSERT_TRUE(out.status.ok());
      switch_total += out.switch_stats;
      server_total += out.server_stats;
      fast_path.push_back(out.fast_path);
    }

    // Registry totals (the OpCountsRecorder counters) == summed Outcomes.
    EXPECT_EQ((*mbx)->switch_op_totals(), switch_total);
    EXPECT_EQ((*mbx)->server_op_totals(), server_total);
    EXPECT_EQ((*mbx)->packets_total(), fast_path.size());
    ASSERT_EQ(recorder.events_dropped(), 0u);

    // Every packet reconstructs a complete path, and the per-hop op totals
    // re-aggregate to the registry's.
    const auto packets = testing::HopPackets(recorder);
    ASSERT_EQ(packets.size(), fast_path.size());
    int64_t hop_switch_ops = 0, hop_server_ops = 0;
    for (const auto& pkt : packets) {
      ASSERT_FALSE(pkt.hops.empty());
      EXPECT_EQ(pkt.hops.front().id,
                static_cast<uint16_t>(telemetry::EventId::kHopSwitchPre));
      EXPECT_EQ(pkt.hops.size() == 1, static_cast<bool>(fast_path[pkt.id]))
          << pkt.Path();
      for (const auto& hop : pkt.hops) {
        if (testing::IsSwitchHop(hop)) hop_switch_ops += hop.args[1];
        if (testing::IsServerHop(hop)) hop_server_ops += hop.args[1];
      }
    }
    EXPECT_EQ(hop_switch_ops, switch_total.Total());
    EXPECT_EQ(hop_server_ops, server_total.Total());
  }
}

// Every data-link retransmit leaves a link.retransmit event (recorded with
// hop tracing off, like sync.retry), one per gallium_data_retries_total.
TEST(FlightRecorder, LinkRetransmitEventsMatchDataRetryCounter) {
  auto spec = mbox::BuildMazuNat();
  ASSERT_TRUE(spec.ok());
  runtime::FaultPlan plan;
  plan.seed = 17;
  plan.to_server.drop = 0.3;
  plan.to_switch.drop = 0.3;
  telemetry::FlightRecorder recorder(/*lanes=*/1, /*capacity_per_lane=*/4096);
  telemetry::MetricsRegistry registry;
  runtime::OffloadedOptions options;
  options.fault_plan = &plan;
  options.flight = &recorder;
  options.registry = &registry;
  auto mbx = runtime::OffloadedMiddlebox::Create(*spec, options);
  ASSERT_TRUE(mbx.ok()) << mbx.status().ToString();

  Rng rng(5);
  workload::TraceOptions trace_options;
  trace_options.num_flows = 40;
  trace_options.ingress_port = mbox::kPortInternal;
  uint64_t now_ms = 0;
  for (const net::Packet& pkt :
       workload::MakeTrace(rng, trace_options).packets) {
    (void)(*mbx)->Process(pkt, ++now_ms);
  }

  uint64_t retransmits = 0;
  for (const auto& e : recorder.Snapshot()) {
    if (e.id != static_cast<uint16_t>(telemetry::EventId::kLinkRetransmit)) {
      continue;
    }
    ++retransmits;
    EXPECT_LE(e.args[0], 1u);  // direction
    EXPECT_GT(e.args[1], 0u);  // frame seq
  }
  ASSERT_EQ(recorder.events_dropped(), 0u);
  const uint64_t counter =
      registry.GetCounter("gallium_data_retries_total", {{"mbox", spec->name}})
          ->Value();
  EXPECT_GT(counter, 0u);
  EXPECT_EQ(retransmits, counter);
}

// Counter-accessor migration: the legacy accessors are thin reads of the
// registry, and an injected registry receives the runtime's series.
TEST(Metrics, InjectedRegistryReceivesRuntimeCounters) {
  auto spec = mbox::BuildMazuNat();
  ASSERT_TRUE(spec.ok());
  telemetry::MetricsRegistry registry;
  runtime::OffloadedOptions options;
  options.registry = &registry;
  auto mbx = runtime::OffloadedMiddlebox::Create(*spec, options);
  ASSERT_TRUE(mbx.ok());

  Rng rng(93);
  net::Packet syn =
      net::MakeTcpPacket(workload::RandomFlow(rng), net::kTcpSyn, 0);
  syn.set_ingress_port(mbox::kPortInternal);
  ASSERT_TRUE((*mbx)->Process(syn).status.ok());

  EXPECT_EQ((*mbx)->packets_total(), 1u);
  EXPECT_EQ((*mbx)->counters().sync_batches_sent->Value(), 1u);
  EXPECT_EQ(&(*mbx)->metrics(), &registry);
  // Per-packet counts are batched locally; the scrape point below pushes
  // them onto the registry (galliumc does the same before exporting).
  (*mbx)->PublishSwitchStageMetrics();
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("gallium_packets_total{mbox=\"mazu_nat\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("gallium_sync_latency_us_count"), std::string::npos);
}

// Per-stage switch counters land on the registry keyed by RMT stage.
TEST(Metrics, SwitchStageCountersPublish) {
  auto spec = mbox::BuildMazuNat();
  ASSERT_TRUE(spec.ok());
  auto mbx = runtime::OffloadedMiddlebox::Create(*spec);
  ASSERT_TRUE(mbx.ok());

  Rng rng(94);
  uint64_t now_ms = 0;
  for (int i = 0; i < 20; ++i) {
    net::Packet syn =
        net::MakeTcpPacket(workload::RandomFlow(rng), net::kTcpSyn, 0);
    syn.set_ingress_port(mbox::kPortInternal);
    ASSERT_TRUE((*mbx)->Process(syn, ++now_ms).status.ok());
  }
  const auto& stage_counters = (*mbx)->device().stage_counters();
  ASSERT_FALSE(stage_counters.empty());
  uint64_t accesses = 0, recirculations = 0;
  for (const auto& counters : stage_counters) {
    accesses += counters.accesses;
    recirculations += counters.recirculations;
  }
  EXPECT_GT(accesses, 0u);
  // A correct placement never needs recirculation.
  EXPECT_EQ(recirculations, 0u);

  (*mbx)->PublishSwitchStageMetrics();
  const std::string text = (*mbx)->metrics().ToPrometheusText();
  EXPECT_NE(text.find("gallium_switch_stage_accesses"), std::string::npos);
  EXPECT_NE(text.find("stage=\"0\""), std::string::npos);
}

}  // namespace
}  // namespace gallium
