// The offloaded middlebox: the composition Gallium deploys (Fig. 1) —
// a programmable switch running the pre/post partitions and a middlebox
// server running the non-offloaded partition, glued by the synthesized
// transfer header, atomic state synchronization, and output commit
// (§4.3.2–4.3.3).
//
// Per-packet flow:
//   1. The switch executes the pre-processing pass. If the packet's path
//      owes no server work, the packet is emitted — the fast path.
//   2. Otherwise the switch packs live temporaries and branch-condition bits
//      into the Gallium header and forwards the packet to the server (in
//      wire format; the transfer header is parsed back on the other side).
//   3. The server executes the non-offloaded pass. Mutations to replicated
//      state are recorded; if any happened, a control-plane batch applies
//      them to the switch atomically (write-back tables + bit flip) and the
//      packet is buffered until the update completes (output commit).
//   4. The packet returns to the switch, which executes the post-processing
//      pass and emits per the recorded verdict.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "mbox/middleboxes.h"
#include "partition/partitioner.h"
#include "rmt/feedback.h"
#include "runtime/fault.h"
#include "runtime/health.h"
#include "runtime/interpreter.h"
#include "runtime/software_middlebox.h"
#include "runtime/state.h"
#include "runtime/sync.h"
#include "runtime/sync_queue.h"
#include "switchsim/switch.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

namespace gallium::runtime {

struct OffloadedOptions {
  partition::SwitchConstraints constraints;
  // Cross the switch<->server links in wire format (serialize + reparse).
  // Disable only in throughput loops where the copy cost matters.
  bool serialize_wire = true;
  uint64_t rng_seed = 42;

  // §7 "Reducing memory usage of programmable switches": when > 0, each
  // replicated map's switch table holds at most this many entries (FIFO
  // eviction) — a cache of the server's authoritative map. A lookup miss in
  // a partial table is not authoritative, so the pre pass aborts and the
  // server reprocesses the packet from scratch, then refreshes the cache.
  uint64_t cache_entries_per_table = 0;

  // Pre-sizes every exact-match host map's flow table for this many
  // entries (galliumc --flow-capacity). 0 = start small and grow
  // incrementally under churn. Sizing up front avoids mid-run resize
  // migrations when the flow population is known (e.g. 10M-flow runs).
  uint64_t flow_capacity = 0;

  // Fault injection: when set, the switch<->server data links run framed
  // (seq + checksum, retransmit + dedup) through the plan's FaultyChannels,
  // the control-plane sync path is subject to the plan's loss/delay rates,
  // and the scheduled restarts/outages fire. Null = perfect substrate.
  // The plan must outlive the middlebox.
  const FaultPlan* fault_plan = nullptr;
  // Retry/backoff policy for the reliable sync client and the data link.
  SyncPolicy sync_policy;

  // Control-plane backlog. Every replicated-state mutation enters the
  // coalescing backlog, and every batch the switch receives is the drained
  // backlog. With a bound (max_backlog_batches > 0), a batch of *map*
  // mutations waits there (relaxed output commit; the host store stays
  // authoritative and a stale switch miss falls through to the server) and
  // is delivered with the next pump, every pump_interval_packets. A batch
  // carrying a replicated-global mutation is delivered at once, older
  // backlog included, with the packet held — register reads have no miss
  // path, so their staleness would be undetectable. At the bound, the
  // overflow policy either drains inline (backpressure) or refuses the
  // packet at ingress (explicit shedding, Outcome::shed). Bound 0 = strict
  // output commit: every batch is delivered at once with its packet held.
  SyncQueueOptions sync_queue;
  // Health watchdog: when health.enabled, degraded-mode entry/exit is
  // governed by the hysteretic failure detector in runtime/health.h
  // (heartbeat probes + sync outcomes) instead of per-packet fault-injector
  // ground truth, so grey failures cannot flap the mode.
  HealthOptions health;

  // RMT pipeline the plan's tables are placed on (stage-aware execution);
  // nullopt derives the default Tofino-like profile from `constraints`. If
  // the plan does not place, the spill feedback loop re-partitions until it
  // does — the runtime never deploys a plan the target cannot hold.
  std::optional<rmt::RmtTargetModel> rmt_target;

  // Metrics registry all runtime counters live on (packets, fault/recovery
  // events, per-kind op counts, latency histograms), labeled
  // {mbox=<spec.name>}. Null = the middlebox owns a private registry, so
  // independent instances never share counters.
  telemetry::MetricsRegistry* registry = nullptr;
  // Extra labels appended after {mbox=...} on every instrument this
  // instance registers. The engine scopes each worker shard's counters
  // with {worker=<i>} so shards sharing one registry never collide.
  telemetry::LabelSet extra_labels;
  // Per-packet INT-style tracing: when on, every Process() call records a
  // packet.begin and one hop event per layer it crosses (switch.pre ->
  // wire.to_server -> server -> sync.commit -> wire.to_switch ->
  // switch.post) on `flight_lane`, each as its layer finishes, so the
  // gaps between them are measured wall time. Off = one predictable
  // branch per hop site.
  bool trace_hops = false;

  // Always-on black-box: transition events (watchdog mode changes, shed
  // episodes, resizes, fault windows) land on this recorder's `flight_lane`.
  // Null falls back to FlightRecorder::Default() — recording is never off,
  // it only changes which ring the events land in. The engine assigns each
  // worker shard its own lane (worker w -> lane w+1).
  telemetry::FlightRecorder* flight = nullptr;
  uint16_t flight_lane = 0;
};

class OffloadedMiddlebox {
 public:
  static Result<std::unique_ptr<OffloadedMiddlebox>> Create(
      const mbox::MiddleboxSpec& spec, OffloadedOptions options = {});

  struct Outcome {
    Status status = Status::Ok();
    Verdict verdict;
    bool fast_path = false;      // never left the switch
    bool state_synced = false;   // a control-plane batch was applied
    bool sync_queued = false;    // mutations deferred into the backlog
    bool degraded = false;       // software-only fallback (switch down)
    bool shed = false;           // refused at ingress (backlog at bound)
    double sync_latency_us = 0;  // control-plane latency (output commit wait)
    telemetry::OpCounts switch_stats;  // pre + post pass op counts
    telemetry::OpCounts server_stats;  // non-offloaded pass op counts
    int transfer_bytes_to_server = 0;
    int transfer_bytes_to_switch = 0;
    // Meaningful when verdict is kSend; on every decided verdict it carries
    // the packet back out so batching callers (the engine) can recycle the
    // buffer instead of re-allocating payload storage per dropped packet.
    net::Packet out_packet;
  };

  Outcome Process(net::Packet pkt, uint64_t now_ms = 0);

  const partition::PartitionPlan& plan() const { return plan_; }
  const ir::Function& fn() const { return *fn_; }
  switchsim::Switch& device() { return *switch_; }
  HostStateStore& server_state() { return server_state_; }

  // RMT placement backing the deployed plan, and the state the feedback
  // loop had to spill back to the server to make it place.
  const rmt::PlacementReport& placement() const { return placement_; }
  const std::vector<ir::StateRef>& spilled_state() const { return spilled_; }
  int partition_rounds() const { return partition_rounds_; }

  // Server-side maintenance used by the L4 load balancer: erases flows whose
  // creation time in `created_map` is older than `timeout_ms`, from both
  // `flows_map` and `created_map`, and synchronizes the switch. Returns the
  // number of collected flows.
  //
  // Aging is a batched sweep over the created_map flow table (erase in
  // place, no snapshot). `max_scan_slots` bounds the slots examined per
  // call: 0 sweeps the whole table (legacy stop-the-world semantics);
  // a positive budget resumes from a persistent cursor, amortizing expiry
  // across maintenance ticks at 10M-flow scale.
  Result<int> CollectIdleFlows(ir::StateIndex flows_map,
                               ir::StateIndex created_map, uint64_t now_ms,
                               uint64_t timeout_ms,
                               uint64_t max_scan_slots = 0);

  // If the switch restarted behind our back or its replicated state is
  // suspect (failed sync, degraded interval), rebuild it from the
  // authoritative host store now instead of lazily at the next packet.
  // Idempotent; used by recovery paths and by tests that inspect tables.
  void EnsureSwitchCoherent();

  // Delivers the entire coalesced sync backlog now (one control-plane
  // batch) and, if the delivery failed, rebuilds the switch from the host
  // store. After this returns the switch replica matches the host for every
  // queued key. Strict mode leaves nothing queued, so there it only
  // re-checks coherence. Quiescence points (end of a run, table inspection)
  // call this; the packet path never does.
  void FlushSyncBacklog();

  // This instance's registry instruments (labeled {mbox=<spec.name>} plus
  // OffloadedOptions::extra_labels), e.g. counters().resyncs->Value(). The
  // fault and recovery counters are all zero on a perfect substrate; the
  // shed and backpressure counters stay zero in strict mode.
  struct Counters {
    telemetry::Counter* packets_total;
    telemetry::Counter* packets_fast;
    telemetry::Counter* cache_misses;
    telemetry::Counter* sync_batches_sent;
    telemetry::Counter* sync_retries;
    telemetry::Counter* batches_dropped;
    telemetry::Counter* acks_dropped;
    telemetry::Counter* sync_failures;
    telemetry::Counter* switch_restarts;
    telemetry::Counter* degraded_packets;
    telemetry::Counter* data_retries;
    telemetry::Counter* resyncs;
    telemetry::Counter* packets_shed;
    telemetry::Counter* backpressure_events;
    telemetry::Counter* backlog_pumps;
    telemetry::Counter* probe_misses;
    telemetry::Counter* unwatched_fallbacks;
    telemetry::Histogram* sync_latency_us;
    telemetry::Histogram* resync_latency_us;
  };
  const Counters& counters() const { return c_; }

  // The two per-packet counts are batched like the op recorders: a plain
  // member is the live value (Process is serialized per instance) and
  // PublishSwitchStageMetrics pushes the delta onto the registry, keeping
  // the packet hot path free of atomics. Read them here, not off counters().
  uint64_t packets_total() const { return packets_total_; }
  uint64_t packets_fast_path() const { return packets_fast_; }
  double FastPathFraction() const {
    const uint64_t total = packets_total();
    return total == 0 ? 0.0
                      : static_cast<double>(packets_fast_path()) / total;
  }

  // The coalescing backlog itself — depth/peak/coalesced accounting.
  const CoalescingSyncQueue& sync_backlog() const { return sync_queue_; }
  // Null unless OffloadedOptions::health.enabled.
  const HealthWatchdog* watchdog() const { return watchdog_.get(); }

  // The registry this instance's instruments live on (the private one
  // unless OffloadedOptions::registry injected a shared scrape target).
  telemetry::MetricsRegistry& metrics() { return *registry_; }
  // Registry-backed aggregate op counts per execution location: the sums of
  // every Outcome's switch_stats / server_stats, read back from the counters.
  telemetry::OpCounts switch_op_totals() const { return switch_ops_.Totals(); }
  telemetry::OpCounts server_op_totals() const { return server_ops_.Totals(); }
  // Publishes the switch's per-stage access/match/miss/recirculation
  // counters (keyed by the RMT placement) onto the registry as gauges.
  void PublishSwitchStageMetrics();

  FaultInjector* injector() { return injector_.get(); }

 private:
  OffloadedMiddlebox(const mbox::MiddleboxSpec& spec,
                     partition::PartitionPlan plan, OffloadedOptions options);

  Status InitializeState(const mbox::MiddleboxSpec& spec);

  const ir::Function* fn_;
  partition::PartitionPlan plan_;
  rmt::PlacementReport placement_;
  std::vector<ir::StateRef> spilled_;
  int partition_rounds_ = 1;
  OffloadedOptions options_;
  Interpreter interp_;
  // Per-instance interpreter buffers: Process is serialized per instance,
  // so one scratch serves every pass and the packet loop never allocates.
  ExecScratch scratch_;
  HostStateStore server_state_;
  std::unique_ptr<switchsim::Switch> switch_;
  std::vector<bool> replicated_maps_;
  std::vector<bool> replicated_globals_;
  std::vector<bool> cached_maps_;  // §7 cache mode, per map index
  // Globals whose authoritative writer is the switch data plane; mirrored
  // into the host store after every completed packet (see
  // ReconcileSwitchGlobals).
  std::vector<ir::StateIndex> switch_only_globals_;
  // Reusable mutation recorder for the server pass (cleared per trip);
  // constructed after the replicated sets are known.
  std::optional<RecordingStateBackend> recording_;
  Rng rng_;

  std::unique_ptr<FaultInjector> injector_;
  // The switch incarnation the server believes it is synchronized with; a
  // mismatch against switch_->epoch() means an (unannounced) restart.
  uint64_t known_epoch_ = 0;
  uint64_t next_sync_seq_ = 0;
  uint64_t next_frame_seq_ = 0;
  // Per-direction delivery high-water marks for data-frame deduplication.
  uint64_t delivered_to_server_ = 0;
  uint64_t delivered_to_switch_ = 0;
  // Set when switch state may be stale (degraded packets were processed or
  // a sync batch could not be delivered); cleared by ResyncSwitch.
  bool needs_resync_ = false;

  // Batched-aging cursor for CollectIdleFlows' budgeted sweeps. Keyed to
  // the created_map it last swept: callers alternate maps rarely enough
  // that a reset on switch is harmless (aging is eventual).
  state::FlowTable::SweepCursor aging_cursor_;
  ir::StateIndex aging_cursor_map_ = 0;

  // Bounded coalescing control-plane backlog, and the one batch every
  // delivery drains it into (reused, so a delivery keeps its capacity).
  CoalescingSyncQueue sync_queue_;
  SyncBatch sync_batch_;
  uint64_t packets_since_pump_ = 0;
  // Hysteretic failure detector; null unless options_.health.enabled.
  std::unique_ptr<HealthWatchdog> watchdog_;

  // Registry the counters below are registered on; owned when the options
  // did not inject a shared one.
  std::unique_ptr<telemetry::MetricsRegistry> owned_registry_;
  telemetry::MetricsRegistry* registry_ = nullptr;
  // {mbox=<name>} plus OffloadedOptions::extra_labels — the label scope
  // every instrument of this instance registers under.
  telemetry::LabelSet scope_;
  Counters c_{};
  telemetry::OpCountsRecorder switch_ops_;
  telemetry::OpCountsRecorder server_ops_;
  // Live per-packet counts (single writer); pushed_* track what has been
  // forwarded to the registry counters so flushes are delta increments.
  uint64_t packets_total_ = 0;
  uint64_t packets_fast_ = 0;
  mutable uint64_t pushed_packets_total_ = 0;
  mutable uint64_t pushed_packets_fast_ = 0;

  // Flight recorder (never null — defaults to FlightRecorder::Default())
  // plus the edge-detection state the transition events derive from. All
  // single-writer, like the rest of the per-instance packet state.
  telemetry::FlightRecorder* flight_ = nullptr;
  uint16_t flight_lane_ = 0;
  bool in_grey_window_ = false;
  bool in_outage_ = false;
  uint64_t shed_streak_ = 0;      // consecutive packets shed at ingress
  uint64_t degraded_streak_ = 0;  // consecutive packets served degraded

  // Records `event` (packet.begin or a hop) for the packet inside Process()
  // on this instance's lane: a0 = packet index, a1 = ops_total, a2 = the
  // hop's own figure (see events.h). Call sites guard with
  // `if (options_.trace_hops) [[unlikely]]`, so with tracing off the packet
  // path pays one predictable branch per site and evaluates no argument.
  [[gnu::cold]] [[gnu::noinline]] void RecordHop(telemetry::EventId event,
                                                 int64_t ops_total = 0,
                                                 uint64_t figure = 0);

  // Per-pass accounting, shared by every interpreter pass: adds the pass's
  // op counts to the Outcome and to the registry recorder of its location,
  // and records the pass's hop.
  void AccountPass(telemetry::EventId hop, bool on_switch,
                   const telemetry::OpCounts& ops, Outcome* outcome);

  // Cache-miss recovery: a full server pass plus cache-refresh mutations,
  // then the same sync commit and return leg as every slow-path packet.
  // `outcome` already carries the aborted pre attempt's accounting.
  void ProcessCacheMiss(net::Packet pkt, uint64_t now_ms, Outcome* outcome);

  // Return leg: packs the server pass's transfer values, crosses the
  // server -> switch link, runs the post pass, resolves the verdict (exactly
  // one of the server and post passes decides) and reconciles switch-written
  // globals. Failures land in outcome->status.
  void ReturnToSwitch(net::Packet pkt, const ExecResult& srv, uint64_t now_ms,
                      Outcome* outcome);

  // Switch-down fallback: the whole program interpreted on the server
  // against the authoritative host store (SoftwareMiddlebox semantics).
  Outcome ProcessDegraded(net::Packet pkt, uint64_t now_ms);

  // Crosses one switch<->server link. On a perfect substrate this is the
  // plain serialize/reparse of the seed runtime; under a fault plan the
  // packet travels as a checksummed, sequence-numbered frame with
  // retransmit + receiver-side dedup (exactly-once, in-order delivery over
  // a lossy pipe).
  Result<net::Packet> CrossLink(bool to_server, net::Packet pkt);

  // Reliable control-plane client: sends sync_batch_ and retries with
  // bounded exponential backoff until acked. `committed` is false only when
  // every attempt failed (the switch is then marked for resync). Returns the
  // accumulated control-plane latency.
  Result<double> SyncReplicated(bool* committed);

  // Full switch-state rebuild from the host store; returns modeled latency.
  // Drops the queued backlog first — the snapshot subsumes every pending
  // mutation (the host store already holds them).
  double ResyncSwitch();

  // Sync commit (§4.3.3), the one way a batch reaches the switch: drains the
  // whole backlog into sync_batch_ and delivers it. `held` is the outcome of
  // the packet that waits on this delivery (output commit): it records
  // state_synced, sync_latency_us and the sync hop. Null = a pump, which
  // records its flight event and feeds its outcome to the watchdog as health
  // evidence. A failed delivery marks the switch for resync. Returns the
  // control-plane latency (0 when nothing was queued).
  Result<double> DeliverSyncBacklog(Outcome* held);

  // Queues one batch of replicated-state mutations, then delivers the
  // backlog at once unless the batch may wait: in queued mode, a batch
  // without globals waits for the next pump (and `held`, if any, is marked
  // sync_queued).
  Status SubmitSync(
      const std::vector<RecordingStateBackend::MapMutation>& maps,
      const std::vector<RecordingStateBackend::GlobalMutation>& globals,
      Outcome* held);

  // Heartbeat: one minimal control-plane round-trip, shaped (or eaten) by
  // the injector's active grey window, recorded into the watchdog.
  void ProbeSwitchHealth(bool switch_down);

  // Copies switch-written (kSwitchOnly) globals into the host store after a
  // completed packet, so the host can take over mid-stream (degraded mode)
  // and restore the registers on resync.
  void ReconcileSwitchGlobals();
};

}  // namespace gallium::runtime
