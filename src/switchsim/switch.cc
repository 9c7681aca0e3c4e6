#include "switchsim/switch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

namespace gallium::switchsim {

using ir::StateRef;

double ControlPlaneLatencyModel::UpdateLatencyUs(int num_tables,
                                                 Rng* rng) const {
  if (num_tables <= 0) return 0.0;
  double base;
  if (num_tables <= 2) {
    base = per_table_us * num_tables;
  } else {
    base = per_table_us * 2 + batched_extra_us * (num_tables - 2);
  }
  if (rng != nullptr) {
    // Box-Muller jitter, clamped to stay positive.
    const double u1 = std::max(1e-12, rng->NextDouble());
    const double u2 = rng->NextDouble();
    const double gauss =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    base += gauss * jitter_stddev_us;
  }
  return std::max(base, per_table_us * 0.5);
}

bool SwitchStateBackend::MapLookup(ir::StateIndex map,
                                   const runtime::StateKey& key,
                                   runtime::StateValue* values) {
  ExactMatchTable* table = sw_->map_tables_[map].get();
  assert(table != nullptr && "lookup of a non-resident map on the switch");
  const bool hit = table->Lookup(key, values);
  sw_->TouchState({ir::StateRef::Kind::kMap, map}, hit ? 1 : 0);
  return hit;
}

void SwitchStateBackend::MapInsert(ir::StateIndex, const runtime::StateKey&,
                                   const runtime::StateValue&) {
  assert(false && "data plane cannot insert into match-action tables (§2.1)");
}

void SwitchStateBackend::MapErase(ir::StateIndex, const runtime::StateKey&) {
  assert(false && "data plane cannot erase from match-action tables (§2.1)");
}

uint64_t SwitchStateBackend::VectorGet(ir::StateIndex vec, uint64_t index) {
  const auto* contents = sw_->vector_tables_[vec].get();
  assert(contents != nullptr && "non-resident vector on the switch");
  sw_->TouchState({ir::StateRef::Kind::kVector, vec});
  // Index table miss semantics: out-of-range reads return zero.
  if (index >= contents->size()) return 0;
  return (*contents)[index];
}

uint64_t SwitchStateBackend::VectorSize(ir::StateIndex vec) {
  const auto* contents = sw_->vector_tables_[vec].get();
  assert(contents != nullptr);
  sw_->TouchState({ir::StateRef::Kind::kVector, vec});
  return contents->size();
}

uint64_t SwitchStateBackend::GlobalRead(ir::StateIndex global) {
  const auto* reg = sw_->registers_[global].get();
  assert(reg != nullptr && "non-resident global on the switch");
  sw_->TouchState({ir::StateRef::Kind::kGlobal, global});
  return *reg;
}

void SwitchStateBackend::GlobalWrite(ir::StateIndex global, uint64_t value) {
  auto* reg = sw_->registers_[global].get();
  assert(reg != nullptr);
  sw_->TouchState({ir::StateRef::Kind::kGlobal, global});
  *reg = value & ir::WidthMask(sw_->fn_->global(global).width);
}

void Switch::SetPlacement(const rmt::PlacementReport& report) {
  stage_of_state_.clear();
  for (size_t i = 0; i < report.tables.size(); ++i) {
    const rmt::TableRequirement& req = report.tables[i];
    // The primary access stage of a state object: its main match table, or
    // the register itself for globals. Write-back shadows execute in their
    // own (earlier) stage but share the main table's lookup site.
    if (req.kind == rmt::TableRequirement::Kind::kWriteBack) continue;
    if (req.kind == rmt::TableRequirement::Kind::kRegister &&
        req.state.kind != ir::StateRef::Kind::kGlobal) {
      continue;  // wb-active / size registers ride with the match table
    }
    if (report.stage_of[i] >= 0) {
      stage_of_state_[req.state] = report.stage_of[i];
    }
  }
  int max_stage = -1;
  for (const auto& [state, stage] : stage_of_state_) {
    max_stage = std::max(max_stage, stage);
  }
  stage_counters_.assign(static_cast<size_t>(max_stage + 1), StageCounters{});
  stages_occupied_ = report.StagesOccupied();
  stage_aware_ = true;
  pass_cursor_ = -1;
}

void Switch::BeginPipelinePass() {
  ++pipeline_passes_;
  pass_cursor_ = -1;
}

void Switch::TouchState(const ir::StateRef& ref, int lookup_hit) {
  if (!stage_aware_) return;
  const auto it = stage_of_state_.find(ref);
  if (it == stage_of_state_.end()) return;
  StageCounters& counters = stage_counters_[static_cast<size_t>(it->second)];
  ++counters.accesses;
  if (lookup_hit == 1) ++counters.matches;
  if (lookup_hit == 0) ++counters.misses;
  if (it->second < pass_cursor_) {
    // The packet already passed this stage in the current traversal; a real
    // RMT pipeline cannot flow backwards — reaching the state would take a
    // recirculation through the whole pipe.
    ++stage_order_violations_;
    ++counters.recirculations;
    return;
  }
  pass_cursor_ = it->second;
}

void Switch::PublishStageMetrics(telemetry::MetricsRegistry* registry,
                                 const telemetry::LabelSet& base) const {
  auto publish = [&](const char* name, int stage, uint64_t value,
                     const char* help) {
    telemetry::LabelSet labels = base;
    labels.push_back({"stage", std::to_string(stage)});
    registry->GetGauge(name, std::move(labels), help)
        ->Set(static_cast<double>(value));
  };
  for (size_t stage = 0; stage < stage_counters_.size(); ++stage) {
    const StageCounters& counters = stage_counters_[stage];
    const int s = static_cast<int>(stage);
    publish("gallium_switch_stage_accesses", s, counters.accesses,
            "data-plane state accesses per RMT stage");
    publish("gallium_switch_stage_matches", s, counters.matches,
            "match-table lookup hits per RMT stage");
    publish("gallium_switch_stage_misses", s, counters.misses,
            "match-table lookup misses per RMT stage");
    publish("gallium_switch_stage_recirculations", s, counters.recirculations,
            "accesses needing a recirculation (stage-order violations)");
  }
  registry
      ->GetGauge("gallium_switch_pipeline_passes", base,
                 "pipeline traversals begun")
      ->Set(static_cast<double>(pipeline_passes_));
  registry
      ->GetGauge("gallium_switch_recirculations", base,
                 "total stage-order violations across the run")
      ->Set(static_cast<double>(stage_order_violations_));
}

Switch::Switch(const ir::Function& fn, const partition::PartitionPlan& plan,
               const partition::SwitchConstraints& limits)
    : fn_(&fn),
      plan_(&plan),
      limits_(limits),
      data_plane_(this),
      map_tables_(fn.maps().size()),
      vector_tables_(fn.vectors().size()),
      registers_(fn.globals().size()) {}

Result<std::unique_ptr<Switch>> Switch::Create(
    const ir::Function& fn, const partition::PartitionPlan& plan,
    const partition::SwitchConstraints& limits,
    uint64_t cache_entries_per_table) {
  auto sw = std::unique_ptr<Switch>(new Switch(fn, plan, limits));
  for (const auto& [ref, placement] : plan.state_placement) {
    if (placement == partition::StatePlacement::kServerOnly) continue;
    switch (ref.kind) {
      case StateRef::Kind::kMap: {
        const ir::MapDecl& decl = fn.map(ref.index);
        uint64_t entries = decl.max_entries;
        bool cached = false;
        if (cache_entries_per_table > 0 &&
            placement == partition::StatePlacement::kReplicated &&
            cache_entries_per_table < entries) {
          entries = cache_entries_per_table;
          cached = true;
        }
        sw->map_tables_[ref.index] = std::make_unique<ExactMatchTable>(
            decl.name, decl.key_widths.size(), decl.value_widths.size(),
            entries,
            decl.is_lpm() ? ExactMatchTable::MatchKind::kLpm
                          : ExactMatchTable::MatchKind::kExact);
        if (cached) sw->map_tables_[ref.index]->EnableFifoEviction();
        break;
      }
      case StateRef::Kind::kVector:
        sw->vector_tables_[ref.index] = std::make_unique<std::vector<uint64_t>>();
        break;
      case StateRef::Kind::kGlobal:
        sw->registers_[ref.index] =
            std::make_unique<uint64_t>(fn.global(ref.index).init);
        break;
    }
  }
  const ResourceReport report = sw->Resources();
  if (!report.within_limits) {
    return ResourceExhausted("switch state exceeds memory budget: " +
                             std::to_string(report.memory_bytes_used) + " > " +
                             std::to_string(report.memory_bytes_limit));
  }
  return sw;
}

bool Switch::IsCachedMap(ir::StateIndex map) const {
  return map_tables_[map] != nullptr && map_tables_[map]->fifo_eviction();
}

bool Switch::IsResident(const StateRef& ref) const {
  switch (ref.kind) {
    case StateRef::Kind::kMap: return map_tables_[ref.index] != nullptr;
    case StateRef::Kind::kVector: return vector_tables_[ref.index] != nullptr;
    case StateRef::Kind::kGlobal: return registers_[ref.index] != nullptr;
  }
  return false;
}

ExactMatchTable* Switch::table(ir::StateIndex map) {
  return map_tables_[map].get();
}

Status Switch::PopulateMap(ir::StateIndex map, const runtime::StateKey& key,
                           const runtime::StateValue& value) {
  if (map_tables_[map] == nullptr) return Status::Ok();  // server-only map
  return map_tables_[map]->InsertMain(key, value);
}

Status Switch::PopulateVector(ir::StateIndex vec,
                              std::vector<uint64_t> values) {
  if (vector_tables_[vec] == nullptr) return Status::Ok();
  *vector_tables_[vec] = std::move(values);
  return Status::Ok();
}

Result<int> Switch::CommitMutations(
    const std::vector<runtime::RecordingStateBackend::MapMutation>& maps,
    const std::vector<runtime::RecordingStateBackend::GlobalMutation>&
        globals) {
  // Step 1: stage every mutation into the write-back tables and check that
  // each touched table can absorb its share. Any failure discards the
  // batch's staged entries everywhere: a batch applies entirely or not at
  // all, and no table is left reading a stuck shadow.
  std::set<ir::StateIndex> touched_tables;
  auto discard = [&](Status failure) {
    for (ir::StateIndex t : touched_tables) map_tables_[t]->DiscardStaged();
    return failure;
  };
  for (const auto& m : maps) {
    ExactMatchTable* table = map_tables_[m.map].get();
    if (table == nullptr) continue;  // state not replicated to the switch
    touched_tables.insert(m.map);
    Status staged = table->Stage(
        m.key, m.is_erase ? std::nullopt : std::make_optional(m.values));
    if (!staged.ok()) return discard(std::move(staged));
  }
  for (ir::StateIndex t : touched_tables) {
    Status fits = map_tables_[t]->CheckStagedFits();
    if (!fits.ok()) return discard(std::move(fits));
  }

  // Step 2: flip the use-write-back bit — this is the atomic commit point;
  // subsequent lookups see all staged entries.
  for (ir::StateIndex t : touched_tables) {
    map_tables_[t]->SetUseWriteBack(true);
  }

  // Register updates are single-word writes and are atomic on their own.
  int touched_registers = 0;
  for (const auto& g : globals) {
    if (registers_[g.global] == nullptr) continue;
    *registers_[g.global] = g.value & ir::WidthMask(fn_->global(g.global).width);
    ++touched_registers;
  }

  // Step 3: write the updates into the main tables and flip the bit back.
  // Applying cannot fail: every table passed CheckStagedFits above.
  for (ir::StateIndex t : touched_tables) {
    (void)map_tables_[t]->ApplyStagedToMain();
    map_tables_[t]->SetUseWriteBack(false);
  }

  ++sync_batches_;
  return static_cast<int>(touched_tables.size()) +
         (touched_registers > 0 ? 1 : 0);
}

Result<double> Switch::ApplyAtomicUpdate(
    const std::vector<runtime::RecordingStateBackend::MapMutation>& maps,
    const std::vector<runtime::RecordingStateBackend::GlobalMutation>& globals,
    Rng* rng) {
  GALLIUM_ASSIGN_OR_RETURN(int ops, CommitMutations(maps, globals));
  return latency_model_.UpdateLatencyUs(ops, rng);
}

double Switch::ProbeHealth(Rng* rng) const {
  // An epoch read costs roughly a tenth of a one-table driver update; keep
  // the same jitter source so probe latencies and sync latencies move
  // together under a shared substrate.
  double base = latency_model_.per_table_us * 0.1;
  if (rng != nullptr) {
    base += rng->NextDouble() * latency_model_.jitter_stddev_us * 0.2;
  }
  return base;
}

Result<runtime::SyncAck> Switch::ApplySyncBatch(
    const runtime::SyncBatch& batch, Rng* rng) {
  runtime::SyncAck ack;
  ack.switch_epoch = epoch_;
  if (batch.epoch != epoch_) {
    // Built against a dead incarnation: the base state the batch assumes is
    // gone. Nothing is applied; the server must resync first.
    return ack;
  }
  ack.epoch_ok = true;
  if (batch.seq <= last_applied_seq_) {
    // Retransmission of a batch whose ack was lost — ack idempotently.
    ack.duplicate = true;
    ack.latency_us = latency_model_.UpdateLatencyUs(1, rng);
    return ack;
  }
  GALLIUM_ASSIGN_OR_RETURN(int ops, CommitMutations(batch.maps, batch.globals));
  last_applied_seq_ = batch.seq;
  applied_log_.push_back({epoch_, batch.seq});
  ack.applied = true;
  ack.latency_us = latency_model_.UpdateLatencyUs(ops, rng);
  return ack;
}

void Switch::Restart() {
  for (auto& table : map_tables_) {
    if (table != nullptr) table->Clear();
  }
  for (auto& vec : vector_tables_) {
    if (vec != nullptr) vec->clear();
  }
  for (size_t g = 0; g < registers_.size(); ++g) {
    if (registers_[g] != nullptr) {
      *registers_[g] = fn_->global(static_cast<ir::StateIndex>(g)).init;
    }
  }
  ++epoch_;
  ++restarts_;
  last_applied_seq_ = 0;
}

double Switch::ResyncFromHost(const runtime::HostStateStore& host,
                              uint64_t server_seq, Rng* rng) {
  int touched = 0;
  for (size_t i = 0; i < map_tables_.size(); ++i) {
    ExactMatchTable* table = map_tables_[i].get();
    if (table == nullptr) continue;
    table->Clear();
    ++touched;
    // §7 cached tables restart cold: a miss is non-authoritative and routes
    // through the server anyway, which repopulates the cache as a side
    // effect. Full tables get the complete authoritative contents.
    if (table->fifo_eviction()) continue;
    // Unordered visit — no sorted snapshot; the map is bounded by the table
    // capacity by construction (the server map and the full-size table
    // share max_entries), and full tables don't care about insert order.
    host.ForEachMapEntry(
        static_cast<ir::StateIndex>(i),
        [&](const runtime::StateKey& key, const runtime::StateValue& value) {
          (void)table->InsertMain(key, value);
        });
  }
  for (size_t i = 0; i < vector_tables_.size(); ++i) {
    if (vector_tables_[i] == nullptr) continue;
    *vector_tables_[i] = host.vector_contents(static_cast<ir::StateIndex>(i));
    ++touched;
  }
  for (size_t g = 0; g < registers_.size(); ++g) {
    if (registers_[g] == nullptr) continue;
    *registers_[g] = host.global_value(static_cast<ir::StateIndex>(g)) &
                     ir::WidthMask(fn_->global(static_cast<ir::StateIndex>(g)).width);
  }
  last_applied_seq_ = server_seq;
  ++resyncs_;
  return latency_model_.UpdateLatencyUs(touched, rng);
}

void Switch::SetGlobalRegister(ir::StateIndex g, uint64_t value) {
  if (registers_[g] == nullptr) return;
  *registers_[g] = value & ir::WidthMask(fn_->global(g).width);
}

Switch::ResourceReport Switch::Resources() const {
  ResourceReport report;
  report.memory_bytes_limit = limits_.memory_bytes;
  report.metadata_bytes_limit = limits_.metadata_bytes;
  report.metadata_bytes_used = plan_->metadata_peak_bytes;
  report.pipeline_stages_used = plan_->pipeline_stages_used;
  report.pipeline_stages_limit = limits_.pipeline_depth;
  report.rmt_stages_occupied = stages_occupied_;
  for (size_t i = 0; i < map_tables_.size(); ++i) {
    if (map_tables_[i] == nullptr) continue;
    ++report.num_tables;
    // Account the table at its *instantiated* capacity — smaller than the
    // annotation when the §7 cache mode is on — plus the write-back shadow
    // (§4.3.3) at a quarter of it.
    const ir::MapDecl& decl = fn_->map(static_cast<ir::StateIndex>(i));
    const uint64_t entry_bytes =
        static_cast<uint64_t>(decl.KeyBytes() + decl.ValueBytes()) + 4;
    uint64_t bytes = map_tables_[i]->max_entries() * entry_bytes;
    bytes += bytes / 4;
    report.memory_bytes_used += bytes;
  }
  for (size_t i = 0; i < vector_tables_.size(); ++i) {
    if (vector_tables_[i] == nullptr) continue;
    ++report.num_tables;
    report.memory_bytes_used +=
        fn_->vector(static_cast<ir::StateIndex>(i)).SwitchBytes();
  }
  for (const auto& reg : registers_) {
    if (reg != nullptr) ++report.num_registers;
  }
  report.memory_bytes_used += 8ull * report.num_registers;
  report.within_limits =
      report.memory_bytes_used <= report.memory_bytes_limit &&
      report.metadata_bytes_used <= report.metadata_bytes_limit &&
      report.pipeline_stages_used <= report.pipeline_stages_limit;
  return report;
}

}  // namespace gallium::switchsim
