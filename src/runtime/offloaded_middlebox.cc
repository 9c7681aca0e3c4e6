#include "runtime/offloaded_middlebox.h"

#include <algorithm>
#include <cassert>

namespace gallium::runtime {

using partition::Part;
using partition::StatePlacement;

OffloadedMiddlebox::OffloadedMiddlebox(const mbox::MiddleboxSpec& spec,
                                       partition::PartitionPlan plan,
                                       OffloadedOptions options)
    : fn_(spec.fn.get()),
      plan_(std::move(plan)),
      options_(options),
      interp_(*spec.fn),
      server_state_(*spec.fn, options.flow_capacity),
      replicated_maps_(spec.fn->maps().size(), false),
      replicated_globals_(spec.fn->globals().size(), false),
      rng_(options.rng_seed) {
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    owned_registry_ = std::make_unique<telemetry::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  scope_ = telemetry::LabelSet{{"mbox", spec.name}};
  for (const auto& label : options_.extra_labels) scope_.push_back(label);
  const telemetry::LabelSet& scope = scope_;
  auto counter = [&](const char* name, const char* help) {
    return registry_->GetCounter(name, scope, help);
  };
  c_.packets_total =
      counter("gallium_packets_total", "packets entering the pipeline");
  c_.packets_fast = counter("gallium_packets_fast_path_total",
                            "packets completed by the switch alone");
  c_.cache_misses = counter("gallium_cache_miss_aborts_total",
                            "pre passes aborted on a cache miss (S7 mode)");
  c_.sync_batches_sent =
      counter("gallium_sync_batches_total", "state-sync batches sent");
  c_.sync_retries =
      counter("gallium_sync_retries_total", "sync deliveries retransmitted");
  c_.batches_dropped =
      counter("gallium_sync_batch_drops_total", "sync batches lost in flight");
  c_.acks_dropped =
      counter("gallium_sync_ack_drops_total", "sync acks lost in flight");
  c_.sync_failures = counter("gallium_sync_failures_total",
                             "sync batches abandoned after all retries");
  c_.switch_restarts = counter("gallium_switch_restarts_total",
                               "switch restarts observed by the server");
  c_.degraded_packets = counter("gallium_degraded_packets_total",
                                "packets served software-only (switch down)");
  c_.data_retries = counter("gallium_data_retries_total",
                            "data-link frames retransmitted");
  c_.resyncs =
      counter("gallium_resyncs_total", "full switch-state rebuilds from host");
  c_.packets_shed =
      counter("gallium_packets_shed_total",
              "packets refused at ingress with the backlog at its bound");
  c_.backpressure_events =
      counter("gallium_sync_backpressure_total",
              "packets that blocked on an inline backlog drain at the bound");
  c_.backlog_pumps = counter("gallium_sync_backlog_pumps_total",
                             "coalesced backlog batches delivered");
  c_.probe_misses = counter("gallium_probe_misses_total",
                            "heartbeat probes lost or unanswered");
  c_.unwatched_fallbacks =
      counter("gallium_unwatched_fallbacks_total",
              "per-packet degraded fallbacks before the watchdog caught up");
  c_.sync_latency_us = registry_->GetHistogram(
      "gallium_sync_latency_us", scope, telemetry::DefaultLatencyBucketsUs(),
      "output-commit wait per committed sync batch");
  c_.resync_latency_us = registry_->GetHistogram(
      "gallium_resync_latency_us", scope, telemetry::DefaultLatencyBucketsUs(),
      "control-plane latency per full resync");
  telemetry::LabelSet switch_scope = scope, server_scope = scope;
  switch_scope.push_back({"where", "switch"});
  server_scope.push_back({"where", "server"});
  switch_ops_ = telemetry::OpCountsRecorder(registry_, "gallium_ops_total",
                                            std::move(switch_scope));
  server_ops_ = telemetry::OpCountsRecorder(registry_, "gallium_ops_total",
                                            std::move(server_scope));
  for (const auto& [ref, placement] : plan_.state_placement) {
    if (ref.kind == ir::StateRef::Kind::kGlobal &&
        placement == StatePlacement::kSwitchOnly) {
      switch_only_globals_.push_back(ref.index);
    }
    if (placement != StatePlacement::kReplicated) continue;
    if (ref.kind == ir::StateRef::Kind::kMap) {
      replicated_maps_[ref.index] = true;
    } else if (ref.kind == ir::StateRef::Kind::kGlobal) {
      replicated_globals_[ref.index] = true;
    }
  }
  recording_.emplace(&server_state_, replicated_maps_, replicated_globals_);
  if (options_.fault_plan != nullptr) {
    injector_ = std::make_unique<FaultInjector>(*options_.fault_plan);
  }
  flight_ = options_.flight != nullptr ? options_.flight
                                       : &telemetry::FlightRecorder::Default();
  flight_lane_ = options_.flight_lane;
  if (options_.health.enabled) {
    // The watchdog records its own mode-change / probe-miss events on this
    // instance's lane.
    options_.health.recorder = flight_;
    options_.health.flight_lane = flight_lane_;
    watchdog_ = std::make_unique<HealthWatchdog>(options_.health);
  }
  // Host maps get per-map instruments scoped {mbox,...,map} and record
  // resize/stash/sweep transitions on this instance's lane.
  for (ir::StateIndex m = 0; m < fn_->maps().size(); ++m) {
    telemetry::LabelSet labels = scope_;
    labels.push_back({"map", fn_->maps()[m].name});
    server_state_.flow_table(m)->AttachTelemetry(registry_, labels, flight_,
                                                 flight_lane_);
  }
}

Result<std::unique_ptr<OffloadedMiddlebox>> OffloadedMiddlebox::Create(
    const mbox::MiddleboxSpec& spec, OffloadedOptions options) {
  // Partition against the concrete RMT target, not just the aggregate
  // proxies: if the tables do not place into stages, the feedback loop
  // spills state back to the server until they do.
  const rmt::RmtTargetModel target =
      options.rmt_target.has_value()
          ? *options.rmt_target
          : rmt::DefaultTofinoProfile(options.constraints);
  GALLIUM_ASSIGN_OR_RETURN(
      rmt::OffloadPlanResult planned,
      rmt::PartitionAndPlace(*spec.fn, options.constraints, target));
  partition::PartitionPlan plan = std::move(planned.plan);
  if (plan.to_server.cond_regs.size() > 32 ||
      plan.to_switch.cond_regs.size() > 32) {
    return Unsupported("more than 32 transferred branch conditions");
  }

  if (options.cache_entries_per_table > 0) {
    // Cache-miss recovery replays the whole pre partition on the server, so
    // no pre statement may write state the server cannot see (switch-only
    // writes would double-apply / diverge). Maps are never written from the
    // data plane; the only hazard is a switch-resident global write.
    for (const auto& [ref, placement] : plan.state_placement) {
      if (ref.kind != ir::StateRef::Kind::kGlobal) continue;
      if (placement != partition::StatePlacement::kSwitchOnly) continue;
      return Unsupported(
          "cache mode requires all written globals to be server-visible; '" +
          spec.fn->global(ref.index).name + "' is switch-only");
    }
  }

  auto mbx = std::unique_ptr<OffloadedMiddlebox>(
      new OffloadedMiddlebox(spec, std::move(plan), options));
  mbx->placement_ = std::move(planned.placement);
  mbx->spilled_ = std::move(planned.spilled);
  mbx->partition_rounds_ = planned.rounds;
  GALLIUM_ASSIGN_OR_RETURN(
      mbx->switch_, switchsim::Switch::Create(*spec.fn, mbx->plan_,
                                              options.constraints,
                                              options.cache_entries_per_table));
  mbx->switch_->SetPlacement(mbx->placement_);
  mbx->known_epoch_ = mbx->switch_->epoch();
  mbx->cached_maps_.assign(spec.fn->maps().size(), false);
  for (ir::StateIndex m = 0; m < spec.fn->maps().size(); ++m) {
    mbx->cached_maps_[m] = mbx->switch_->IsCachedMap(m);
  }
  GALLIUM_RETURN_IF_ERROR(mbx->InitializeState(spec));
  return mbx;
}

Status OffloadedMiddlebox::InitializeState(const mbox::MiddleboxSpec& spec) {
  // Server holds the authoritative copy of everything; switch-resident
  // state is additionally installed into tables/registers.
  ApplyStateInit(spec, &server_state_);
  for (const auto& [map_index, entries] : spec.init.maps) {
    for (const auto& entry : entries) {
      GALLIUM_RETURN_IF_ERROR(
          switch_->PopulateMap(map_index, entry.key, entry.value));
    }
  }
  for (const auto& [vec_index, values] : spec.init.vectors) {
    GALLIUM_RETURN_IF_ERROR(switch_->PopulateVector(vec_index, values));
  }
  return Status::Ok();
}

Result<net::Packet> OffloadedMiddlebox::CrossLink(bool to_server,
                                                  net::Packet pkt) {
  const bool faulty =
      injector_ != nullptr &&
      (to_server ? injector_->plan().to_server.any()
                 : injector_->plan().to_switch.any());
  if (!faulty) {
    if (!options_.serialize_wire) return pkt;
    const std::vector<uint8_t> wire = pkt.Serialize();
    const uint32_t ingress = pkt.ingress_port();
    GALLIUM_ASSIGN_OR_RETURN(net::Packet parsed, net::Packet::Parse(wire));
    parsed.set_ingress_port(ingress);
    return parsed;
  }

  // Lossy link: frame the wire bytes with a sequence number and checksum,
  // retransmit until the receiver holds a verifiably intact copy, and
  // deduplicate by sequence so duplicates/reorders of this or earlier
  // frames collapse into exactly-once delivery.
  const std::vector<uint8_t> wire = pkt.Serialize();
  const uint32_t ingress = pkt.ingress_port();
  FaultyChannel& chan =
      to_server ? injector_->to_server() : injector_->to_switch();
  uint64_t& delivered = to_server ? delivered_to_server_ : delivered_to_switch_;
  const uint64_t seq = ++next_frame_seq_;
  const std::vector<uint8_t> frame = EncodeDataFrame(seq, wire);

  for (int attempt = 0; attempt < options_.sync_policy.max_data_attempts;
       ++attempt) {
    if (attempt > 0) {
      c_.data_retries->Increment();
      flight_->Record(flight_lane_, telemetry::EventId::kLinkRetransmit,
                      to_server ? 0 : 1, seq);
    }
    chan.Send(frame);
    std::optional<std::vector<uint8_t>> got;
    while (auto f = chan.Receive()) {
      uint64_t fseq = 0;
      std::vector<uint8_t> fwire;
      if (!DecodeDataFrame(*f, &fseq, &fwire)) continue;  // corrupted: lost
      if (fseq <= delivered) continue;  // stale duplicate
      if (fseq == seq) got = std::move(fwire);
    }
    if (got.has_value()) {
      delivered = seq;
      GALLIUM_ASSIGN_OR_RETURN(net::Packet parsed, net::Packet::Parse(*got));
      parsed.set_ingress_port(ingress);
      return parsed;
    }
  }
  return Unavailable(
      std::string(to_server ? "switch->server" : "server->switch") +
      " data link failed after " +
      std::to_string(options_.sync_policy.max_data_attempts) + " attempts");
}

Result<double> OffloadedMiddlebox::SyncReplicated(bool* committed) {
  *committed = false;
  SyncBatch& batch = sync_batch_;
  batch.seq = ++next_sync_seq_;
  batch.epoch = known_epoch_;
  c_.sync_batches_sent->Increment();

  double total_us = 0;
  double timeout_us = options_.sync_policy.timeout_us;
  for (int attempt = 0; attempt < options_.sync_policy.max_sync_attempts;
       ++attempt) {
    if (attempt > 0) {
      // The previous delivery (or its ack) vanished; we waited the
      // retransmit timeout, then back off.
      c_.sync_retries->Increment();
      flight_->Record(flight_lane_, telemetry::EventId::kSyncRetry,
                      static_cast<uint64_t>(attempt), batch.seq);
      total_us += timeout_us;
      timeout_us = std::min(timeout_us * options_.sync_policy.backoff_factor,
                            options_.sync_policy.max_backoff_us);
    }
    if (injector_ != nullptr && injector_->DropBatch()) {
      c_.batches_dropped->Increment();
      flight_->Record(flight_lane_, telemetry::EventId::kSyncBatchDrop,
                      batch.seq);
      continue;
    }
    if (injector_ != nullptr) total_us += injector_->SyncDelayUs();
    GALLIUM_ASSIGN_OR_RETURN(SyncAck ack,
                             switch_->ApplySyncBatch(batch, &rng_));
    if (!ack.epoch_ok) {
      // The switch restarted under us and lost everything, including the
      // state this batch assumes. The batch's mutations already live in the
      // authoritative host store, so a full resync both recovers the switch
      // and commits the batch (the snapshot re-arms the seq high-water
      // mark past it — it can never be double-applied).
      c_.switch_restarts->Increment();
      flight_->Record(flight_lane_, telemetry::EventId::kSwitchRestart,
                      switch_->epoch());
      needs_resync_ = true;
      total_us += ResyncSwitch();
      *committed = true;
      return total_us;
    }
    // A grey slow-switch window stretches the control-plane service time.
    total_us += injector_ != nullptr ? ack.latency_us * injector_->LatencyFactor()
                                     : ack.latency_us;
    if (injector_ != nullptr && injector_->DropAck()) {
      // Applied on the switch but the server never learns: the retry is
      // delivered as a duplicate and acked idempotently.
      c_.acks_dropped->Increment();
      flight_->Record(flight_lane_, telemetry::EventId::kSyncAckDrop,
                      batch.seq);
      continue;
    }
    *committed = true;
    c_.sync_latency_us->Observe(total_us);
    return total_us;
  }

  // Control plane unreachable. Availability over output commit: release the
  // packet, keep the host authoritative, and rebuild the switch before its
  // next use.
  c_.sync_failures->Increment();
  flight_->Record(flight_lane_, telemetry::EventId::kSyncFailure, batch.seq,
                  static_cast<uint64_t>(options_.sync_policy.max_sync_attempts));
  needs_resync_ = true;
  return total_us;
}

double OffloadedMiddlebox::ResyncSwitch() {
  // The snapshot below carries the full host store, so every queued-but-
  // undelivered mutation is subsumed; delivering them afterwards would
  // reorder behind the snapshot.
  const uint64_t backlog_cleared = sync_queue_.depth();
  sync_queue_.ClearForResync();
  flight_->Record(flight_lane_, telemetry::EventId::kResyncBegin,
                  backlog_cleared);
  const double latency_us =
      switch_->ResyncFromHost(server_state_, next_sync_seq_, &rng_);
  known_epoch_ = switch_->epoch();
  needs_resync_ = false;
  c_.resyncs->Increment();
  c_.resync_latency_us->Observe(latency_us);
  uint64_t replayed = 0;
  for (ir::StateIndex m = 0; m < replicated_maps_.size(); ++m) {
    if (replicated_maps_[m]) replayed += server_state_.MapSize(m);
  }
  flight_->Record(flight_lane_, telemetry::EventId::kResyncEnd,
                  static_cast<uint64_t>(latency_us), replayed);
  return latency_us;
}

void OffloadedMiddlebox::ReconcileSwitchGlobals() {
  for (ir::StateIndex g : switch_only_globals_) {
    if (!switch_->IsResident({ir::StateRef::Kind::kGlobal, g})) continue;
    server_state_.GlobalWrite(g, switch_->data_plane().GlobalRead(g));
  }
}

void OffloadedMiddlebox::EnsureSwitchCoherent() {
  if (switch_->epoch() != known_epoch_) {
    c_.switch_restarts->Increment();
    flight_->Record(flight_lane_, telemetry::EventId::kSwitchRestart,
                    switch_->epoch());
    needs_resync_ = true;
  }
  if (needs_resync_) ResyncSwitch();
}

Result<double> OffloadedMiddlebox::DeliverSyncBacklog(Outcome* held) {
  if (sync_queue_.empty()) return 0.0;
  const uint64_t depth_before = sync_queue_.depth();
  sync_queue_.DrainInto(&sync_batch_.maps, &sync_batch_.globals);
  if (held == nullptr) c_.backlog_pumps->Increment();
  bool committed = false;
  GALLIUM_ASSIGN_OR_RETURN(double latency, SyncReplicated(&committed));
  if (held != nullptr) {
    held->state_synced = committed;
    held->sync_latency_us = latency;
    if (options_.trace_hops) [[unlikely]] {
      RecordHop(telemetry::EventId::kHopSyncCommit, 0,
                static_cast<uint64_t>(latency));
    }
    return latency;
  }
  flight_->Record(flight_lane_, telemetry::EventId::kSyncBacklogPump,
                  sync_batch_.maps.size() + sync_batch_.globals.size(),
                  static_cast<uint64_t>(latency), depth_before);
  // A pump is control-plane evidence just like a heartbeat: its outcome and
  // latency feed the failure detector.
  if (watchdog_ != nullptr) watchdog_->RecordObservation(committed, latency);
  return latency;
}

Status OffloadedMiddlebox::SubmitSync(
    const std::vector<RecordingStateBackend::MapMutation>& maps,
    const std::vector<RecordingStateBackend::GlobalMutation>& globals,
    Outcome* held) {
  sync_queue_.Enqueue(maps, globals);
  if (options_.sync_queue.enabled() && globals.empty()) {
    if (held != nullptr) held->sync_queued = true;
    return Status::Ok();
  }
  return DeliverSyncBacklog(held).status();
}

void OffloadedMiddlebox::FlushSyncBacklog() {
  (void)DeliverSyncBacklog(nullptr);
  // A failed delivery left needs_resync_ set; make the replica match now.
  EnsureSwitchCoherent();
}

void OffloadedMiddlebox::ProbeSwitchHealth(bool switch_down) {
  bool ok = !switch_down;
  double latency_us = 0.0;
  if (ok && injector_ != nullptr && injector_->ProbeMiss()) ok = false;
  if (ok) {
    latency_us = switch_->ProbeHealth(&rng_);
    if (injector_ != nullptr) {
      latency_us =
          latency_us * injector_->LatencyFactor() + injector_->ExtraDelayUs();
    }
  } else {
    c_.probe_misses->Increment();
  }
  watchdog_->RecordObservation(ok, latency_us);
}

void OffloadedMiddlebox::RecordHop(telemetry::EventId event,
                                   int64_t ops_total, uint64_t figure) {
  flight_->Record(flight_lane_, event, packets_total_ - 1,
                  static_cast<uint64_t>(ops_total), figure);
}

inline void OffloadedMiddlebox::AccountPass(telemetry::EventId hop,
                                            bool on_switch,
                                            const telemetry::OpCounts& ops,
                                            Outcome* outcome) {
  (on_switch ? outcome->switch_stats : outcome->server_stats) += ops;
  (on_switch ? switch_ops_ : server_ops_).Add(ops);
  if (options_.trace_hops) [[unlikely]] {
    RecordHop(hop, ops.Total(),
              on_switch ? static_cast<uint64_t>(switch_->stages_occupied()) : 0);
  }
}

void OffloadedMiddlebox::PublishSwitchStageMetrics() {
  // Scrape point: push the locally batched per-packet counts and op counts
  // onto the registry so an export that follows sees the full series.
  c_.packets_total->Increment(packets_total_ - pushed_packets_total_);
  pushed_packets_total_ = packets_total_;
  c_.packets_fast->Increment(packets_fast_ - pushed_packets_fast_);
  pushed_packets_fast_ = packets_fast_;
  switch_ops_.Flush();
  server_ops_.Flush();
  switch_->PublishStageMetrics(registry_, scope_);
  registry_
      ->GetGauge("gallium_sync_backlog_depth", scope_,
                 "queued sync batches awaiting the next pump")
      ->Set(static_cast<double>(sync_queue_.depth()));
  registry_
      ->GetGauge("gallium_sync_backlog_peak_depth", scope_,
                 "high-water mark of the sync backlog")
      ->Set(static_cast<double>(sync_queue_.peak_depth()));
  registry_
      ->GetGauge("gallium_sync_coalesced_mutations", scope_,
                 "queued mutations superseded by a later same-key write")
      ->Set(static_cast<double>(sync_queue_.coalesced_mutations()));
  registry_
      ->GetGauge("gallium_sync_enqueued_mutations", scope_,
                 "replicated-state mutations that entered the backlog")
      ->Set(static_cast<double>(sync_queue_.enqueued_mutations()));
  if (watchdog_ != nullptr) {
    const telemetry::LabelSet& scope = scope_;
    registry_
        ->GetGauge("gallium_watchdog_mode", scope,
                   "0=offloaded 1=degraded 2=resync_pending")
        ->Set(static_cast<double>(watchdog_->mode()));
    registry_
        ->GetGauge("gallium_watchdog_transitions", scope,
                   "mode changes — the bounded-flapping quantity")
        ->Set(static_cast<double>(watchdog_->transitions()));
    registry_
        ->GetGauge("gallium_watchdog_probes_sent", scope, "heartbeats sent")
        ->Set(static_cast<double>(watchdog_->probes_sent()));
    registry_
        ->GetGauge("gallium_watchdog_probes_missed", scope,
                   "heartbeats lost or unanswered")
        ->Set(static_cast<double>(watchdog_->probes_missed()));
    registry_
        ->GetGauge("gallium_watchdog_latency_ewma_us", scope,
                   "smoothed control-plane latency the detector sees")
        ->Set(watchdog_->latency_ewma_us());
  }
  // Flow-table occupancy gauges + bounded probe-length sample per map, and
  // the recorder's own ring self-metrics.
  for (ir::StateIndex m = 0; m < fn_->maps().size(); ++m) {
    server_state_.flow_table(m)->PublishMetrics();
  }
  flight_->PublishMetrics(registry_);
}

OffloadedMiddlebox::Outcome OffloadedMiddlebox::Process(net::Packet pkt,
                                                        uint64_t now_ms) {
  Outcome outcome;
  const uint64_t pkt_index = packets_total_;
  ++packets_total_;
  if (options_.trace_hops) [[unlikely]] {
    RecordHop(telemetry::EventId::kPacketBegin);
  }

  bool switch_down = false;
  if (injector_ != nullptr) {
    injector_->BeginPacket(pkt_index);
    if (injector_->TakeRestart(pkt_index)) {
      switch_->Restart();
      flight_->Record(flight_lane_, telemetry::EventId::kSwitchRestart,
                      switch_->epoch());
    }
    switch_down = injector_->SwitchDown(pkt_index);
    // Fault-window edges: the injector folds its windows per packet; the
    // recorder keeps the transitions so a postmortem can line counter
    // movement up against when the substrate actually went grey.
    if (injector_->InGreyWindow() != in_grey_window_) {
      in_grey_window_ = !in_grey_window_;
      flight_->Record(flight_lane_,
                      in_grey_window_ ? telemetry::EventId::kGreyWindowBegin
                                      : telemetry::EventId::kGreyWindowEnd,
                      pkt_index);
    }
    if (switch_down != in_outage_) {
      in_outage_ = switch_down;
      flight_->Record(flight_lane_,
                      in_outage_ ? telemetry::EventId::kOutageBegin
                                 : telemetry::EventId::kOutageEnd,
                      pkt_index);
    }
  }

  if (watchdog_ != nullptr) {
    // Evidence-based mode control: the injector's per-packet ground truth is
    // invisible here; only probes and sync outcomes move the mode machine.
    if (watchdog_->OnPacket()) ProbeSwitchHealth(switch_down);
    if (watchdog_->mode() == HealthWatchdog::Mode::kResyncPending &&
        !switch_down) {
      // Two-phase recovery: rebuild the replica from the authoritative host
      // store, then report offloaded again.
      needs_resync_ = true;
      EnsureSwitchCoherent();
      watchdog_->NotifyResynced();
    }
    if (watchdog_->mode() != HealthWatchdog::Mode::kOffloaded) {
      return ProcessDegraded(std::move(pkt), now_ms);
    }
    if (switch_down) {
      // An outage the detector has not noticed yet. Fall back per packet for
      // safety, but count it separately: the watchdog's transition count
      // stays the honest measure of mode flapping.
      c_.unwatched_fallbacks->Increment();
      return ProcessDegraded(std::move(pkt), now_ms);
    }
  } else if (switch_down) {
    return ProcessDegraded(std::move(pkt), now_ms);
  }

  // This packet takes the offloaded path: close any open degraded episode.
  if (degraded_streak_ != 0) {
    flight_->Record(flight_lane_, telemetry::EventId::kDegradedExit,
                    degraded_streak_);
    degraded_streak_ = 0;
  }

  if (options_.sync_queue.enabled()) {
    // Bounded-backlog admission control. The shed happens before this packet
    // touches any state or crosses any link, so a shed packet is invisible
    // to both the host store and the switch — "equivalence modulo
    // explicitly-shed packets" stays checkable.
    if (sync_queue_.depth() >= options_.sync_queue.max_backlog_batches) {
      if (options_.sync_queue.overflow ==
          SyncQueueOptions::OverflowPolicy::kShedIngress) {
        c_.packets_shed->Increment();
        // Episode edges, not per-shed events: a sustained overload sheds
        // thousands of packets and would wrap the lane with noise.
        if (shed_streak_++ == 0) {
          flight_->Record(flight_lane_, telemetry::EventId::kShedEpisodeBegin,
                          sync_queue_.depth());
        }
        outcome.shed = true;
        outcome.verdict.kind = Verdict::Kind::kDrop;
        return outcome;
      }
      // Backpressure: this packet blocks on an inline drain, paying a
      // strict-mode control-plane wait to get the backlog under the bound.
      c_.backpressure_events->Increment();
      flight_->Record(flight_lane_, telemetry::EventId::kSyncBackpressure,
                      sync_queue_.depth());
      auto waited = DeliverSyncBacklog(nullptr);
      if (!waited.ok()) {
        outcome.status = waited.status();
        return outcome;
      }
      outcome.sync_latency_us += *waited;
    }
    // This packet was admitted: close any open shed episode.
    if (shed_streak_ != 0) {
      flight_->Record(flight_lane_, telemetry::EventId::kShedEpisodeEnd,
                      shed_streak_);
      shed_streak_ = 0;
    }
    // Scheduled pump: deliver the coalesced backlog every pump interval so
    // switch staleness is bounded by pump_interval_packets.
    if (++packets_since_pump_ >= options_.sync_queue.pump_interval_packets) {
      packets_since_pump_ = 0;
      auto pumped = DeliverSyncBacklog(nullptr);
      if (!pumped.ok()) {
        outcome.status = pumped.status();
        return outcome;
      }
    }
  }

  // Heartbeat: an epoch bump means the switch restarted (scheduled or not)
  // and lost its state; needs_resync_ means the state went stale while the
  // switch was unreachable. Either way, rebuild from the host store before
  // this packet touches a table.
  EnsureSwitchCoherent();

  const bool cache_mode = options_.cache_entries_per_table > 0;
  // In cache mode the pre pass may turn out to be non-authoritative; keep a
  // pristine copy so the server can reprocess from scratch.
  net::Packet pristine;
  if (cache_mode) pristine = pkt;

  // --- 1. Switch: pre-processing pass ---------------------------------------
  switch_->BeginPipelinePass();
  ExecResult pre = interp_.RunPartition(pkt, switch_->data_plane(), now_ms,
                                        plan_, Part::kPre,
                                        /*in_spec=*/nullptr,
                                        /*in_values=*/nullptr,
                                        &plan_.to_server,
                                        cache_mode ? &cached_maps_ : nullptr,
                                        &scratch_);
  AccountPass(telemetry::EventId::kHopSwitchPre, /*on_switch=*/true,
              pre.stats, &outcome);
  if (!pre.status.ok()) {
    outcome.status = pre.status;
    return outcome;
  }
  if (pre.cache_miss_abort) {
    c_.cache_misses->Increment();
    ProcessCacheMiss(std::move(pristine), now_ms, &outcome);
    return outcome;
  }

  if (!pre.needs_server) {
    // Fast path: the switch completed the packet by itself.
    if (!pre.verdict.decided()) {
      outcome.status = Internal("pre pass finished without a verdict");
      return outcome;
    }
    ++packets_fast_;
    outcome.fast_path = true;
    outcome.verdict = pre.verdict;
    outcome.out_packet = std::move(pkt);
    ReconcileSwitchGlobals();
    return outcome;
  }
  if (pre.verdict.decided()) {
    outcome.status = Internal(
        "pre pass produced a verdict on a path that still owes server work");
    return outcome;
  }

  // --- 2. Wire: switch -> server with the synthesized header ------------------
  net::GalliumHeader header1 = PackTransfer(*fn_, plan_.to_server,
                                            pre.transfer_out);
  outcome.transfer_bytes_to_server = static_cast<int>(header1.WireSize());
  net::Packet server_pkt = std::move(pkt);
  server_pkt.set_gallium(std::move(header1));
  {
    auto crossed = CrossLink(/*to_server=*/true, std::move(server_pkt));
    if (options_.trace_hops) [[unlikely]] {
      RecordHop(telemetry::EventId::kHopWireToServer, 0,
                static_cast<uint64_t>(outcome.transfer_bytes_to_server));
    }
    if (!crossed.ok()) {
      outcome.status = crossed.status();
      needs_resync_ = true;  // the pre pass may have left partial registers
      return outcome;
    }
    server_pkt = std::move(crossed).value();
  }
  auto in_values1 =
      UnpackTransfer(*fn_, plan_.to_server, server_pkt.gallium());
  if (!in_values1.ok()) {
    outcome.status = in_values1.status();
    return outcome;
  }
  server_pkt.clear_gallium();

  // --- 3. Server: non-offloaded pass with replicated-state recording ----------
  RecordingStateBackend& recording = *recording_;
  recording.Clear();
  ExecResult srv = interp_.RunPartition(server_pkt, recording, now_ms, plan_,
                                        Part::kNonOffloaded, &plan_.to_server,
                                        &in_values1.value(), &plan_.to_switch,
                                        /*cached_maps=*/nullptr, &scratch_);
  AccountPass(telemetry::EventId::kHopServer, /*on_switch=*/false, srv.stats,
              &outcome);
  if (!srv.status.ok()) {
    outcome.status = srv.status;
    return outcome;
  }

  // Atomic update + output commit: the packet is held until every
  // replicated-state mutation is visible on the switch (§4.3.3) — or, under
  // a control-plane outage, until the retry budget is exhausted and the
  // switch is marked for full resync. In queued mode the commit is relaxed
  // for map mutations: they wait in the coalescing backlog and the packet is
  // released now. That deferral is sound only because map staleness is
  // *detectable* — a queued insert the switch has not seen surfaces as a
  // table miss, which routes the packet to the server for an authoritative
  // recompute against the host store. A replicated global has no miss path
  // (the switch reads whatever the register holds, e.g. mazu_nat's
  // port_counter feeding allocations), so a batch carrying a global
  // mutation is delivered at once, the older backlog in the same atomic
  // batch ahead of it, and the packet waits.
  if (recording.HasMutations()) {
    Status synced = SubmitSync(recording.map_mutations(),
                               recording.global_mutations(), &outcome);
    if (!synced.ok()) {
      outcome.status = synced;
      return outcome;
    }
  }

  // --- 4. Wire: server -> switch, then the post-processing pass ----------------
  ReturnToSwitch(std::move(server_pkt), srv, now_ms, &outcome);
  return outcome;
}

void OffloadedMiddlebox::ReturnToSwitch(net::Packet pkt, const ExecResult& srv,
                                        uint64_t now_ms, Outcome* outcome) {
  net::GalliumHeader header = PackTransfer(*fn_, plan_.to_switch,
                                           srv.transfer_out);
  outcome->transfer_bytes_to_switch = static_cast<int>(header.WireSize());
  pkt.set_gallium(std::move(header));
  auto crossed = CrossLink(/*to_server=*/false, std::move(pkt));
  if (options_.trace_hops) [[unlikely]] {
    RecordHop(telemetry::EventId::kHopWireToSwitch, 0,
              static_cast<uint64_t>(outcome->transfer_bytes_to_switch));
  }
  if (!crossed.ok()) {
    outcome->status = crossed.status();
    needs_resync_ = true;
    return;
  }
  net::Packet back_pkt = std::move(crossed).value();
  auto in_values = UnpackTransfer(*fn_, plan_.to_switch, back_pkt.gallium());
  if (!in_values.ok()) {
    outcome->status = in_values.status();
    return;
  }
  back_pkt.clear_gallium();

  switch_->BeginPipelinePass();
  ExecResult post = interp_.RunPartition(back_pkt, switch_->data_plane(),
                                         now_ms, plan_, Part::kPost,
                                         &plan_.to_switch, &in_values.value(),
                                         /*out_spec=*/nullptr,
                                         /*cached_maps=*/nullptr, &scratch_);
  AccountPass(telemetry::EventId::kHopSwitchPost, /*on_switch=*/true,
              post.stats, outcome);
  if (!post.status.ok()) {
    outcome->status = post.status;
    return;
  }

  if (srv.verdict.decided() == post.verdict.decided()) {
    outcome->status = Internal(
        srv.verdict.decided() ? "both server and post pass produced a verdict"
                              : "no pass produced a verdict");
    return;
  }
  outcome->verdict = srv.verdict.decided() ? srv.verdict : post.verdict;
  outcome->out_packet = std::move(back_pkt);
  ReconcileSwitchGlobals();
}

OffloadedMiddlebox::Outcome OffloadedMiddlebox::ProcessDegraded(
    net::Packet pkt, uint64_t now_ms) {
  Outcome outcome;
  outcome.degraded = true;
  c_.degraded_packets->Increment();
  if (degraded_streak_++ == 0) {
    flight_->Record(flight_lane_, telemetry::EventId::kDegradedEnter,
                    packets_total_);
  }
  // The switch is unreachable; the server carries the whole program against
  // the authoritative host store — exactly the SoftwareMiddlebox semantics,
  // so per-flow behavior is indistinguishable from the baseline.
  ExecResult r = interp_.Run(pkt, server_state_, now_ms, &scratch_);
  AccountPass(telemetry::EventId::kHopDegraded, /*on_switch=*/false, r.stats,
              &outcome);
  if (!r.status.ok()) {
    outcome.status = r.status;
    return outcome;
  }
  if (!r.verdict.decided()) {
    outcome.status = Internal("degraded pass finished without a verdict");
    return outcome;
  }
  outcome.verdict = r.verdict;
  outcome.out_packet = std::move(pkt);
  // Whatever state this packet touched, the switch replica no longer
  // matches it; repopulate the tables before the switch serves again.
  needs_resync_ = true;
  return outcome;
}

void OffloadedMiddlebox::ProcessCacheMiss(net::Packet pkt, uint64_t now_ms,
                                          Outcome* outcome) {
  // The switch forwards the pristine packet to the server (§7: "for any
  // packet that the programmable switch does not know how to handle, the
  // middlebox server handles it instead"). The server runs everything but
  // the post partition against its authoritative state.
  RecordingStateBackend& recording = *recording_;
  recording.Clear();
  ExecResult srv = interp_.RunServerFull(pkt, recording, now_ms, plan_,
                                         &plan_.to_switch, cached_maps_,
                                         &scratch_);
  AccountPass(telemetry::EventId::kHopServerFull, /*on_switch=*/false,
              srv.stats, outcome);
  if (!srv.status.ok()) {
    outcome->status = srv.status;
    return;
  }

  // Build one atomic batch: the packet's replicated-state mutations plus a
  // cache refresh for every (still-present) key the packet looked up; the
  // backlog's last-writer-wins folds repeated keys into one write. Cache
  // refreshes must install synchronously (the next pre pass relies on
  // them), so this batch never waits in the backlog, even in queued mode.
  // The delivery is this packet's output commit only if the packet itself
  // mutated state; a refresh-only delivery counts as a pump.
  std::vector<RecordingStateBackend::MapMutation> mutations =
      recording.map_mutations();
  for (const auto& [map, key] : srv.cached_lookups) {
    StateValue value;
    if (server_state_.MapLookup(map, key, &value)) {
      mutations.push_back(
          RecordingStateBackend::MapMutation{map, key, value, false});
    }
  }
  if (!mutations.empty() || !recording.global_mutations().empty()) {
    sync_queue_.Enqueue(mutations, recording.global_mutations());
    auto delivered =
        DeliverSyncBacklog(recording.HasMutations() ? outcome : nullptr);
    if (!delivered.ok()) {
      outcome->status = delivered.status();
      return;
    }
  }

  ReturnToSwitch(std::move(pkt), srv, now_ms, outcome);
}

Result<int> OffloadedMiddlebox::CollectIdleFlows(ir::StateIndex flows_map,
                                                 ir::StateIndex created_map,
                                                 uint64_t now_ms,
                                                 uint64_t timeout_ms,
                                                 uint64_t max_scan_slots) {
  // Sweep the flat table directly: expired entries are erased from
  // created_map in place (no snapshot, no per-entry rehash), and the keys
  // collected for the flows_map erase + switch sync below.
  std::vector<StateKey> expired;
  state::FlowTable* created = server_state_.flow_table(created_map);
  const bool has_stamp = created->value_words() > 0;
  const size_t kw = created->key_words();
  const auto pred = [&](const uint64_t*, const uint64_t* value) {
    return has_stamp && now_ms - value[0] >= timeout_ms;
  };
  const auto on_expire = [&](const uint64_t* key, const uint64_t*) {
    expired.emplace_back(key, key + kw);
  };
  if (max_scan_slots == 0) {
    created->SweepAllExpired(pred, on_expire);
  } else {
    if (aging_cursor_map_ != created_map) {
      aging_cursor_ = state::FlowTable::SweepCursor{};
      aging_cursor_map_ = created_map;
    }
    created->SweepExpired(&aging_cursor_, max_scan_slots, pred, on_expire);
  }
  if (expired.empty()) return 0;

  std::vector<RecordingStateBackend::MapMutation> mutations;
  mutations.reserve(expired.size() * 2);
  for (const StateKey& key : expired) {
    server_state_.MapErase(flows_map, key);
    mutations.push_back(
        RecordingStateBackend::MapMutation{flows_map, key, {}, true});
    mutations.push_back(
        RecordingStateBackend::MapMutation{created_map, key, {}, true});
  }
  // The erases queue behind any pending writes to the same keys: per-key
  // last-writer-wins then guarantees the erase is what the switch ends up
  // seeing, exactly as the host store does. A failed delivery marks the
  // switch for resync.
  GALLIUM_RETURN_IF_ERROR(SubmitSync(mutations, {}, nullptr));
  return static_cast<int>(expired.size());
}

}  // namespace gallium::runtime
