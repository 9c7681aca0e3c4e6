// The traced run: a twin OffloadedMiddlebox replays every packet layer by
// layer through the same public calls OffloadedMiddlebox::ProcessInner makes
// on a perfect substrate (pre pass on the switch data plane, wire encode and
// decode, server pass over a RecordingStateBackend, sync commit through
// Switch::ApplySyncBatch or the coalescing queue, post pass). A span around
// each call gives the layer times; an untouched original instance runs
// Process on the same packets, and both outputs must be equal.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "perfbench.h"
#include "runtime/interpreter.h"
#include "runtime/sync_queue.h"
#include "util/rng.h"

namespace perfbench {

using gallium::net::Packet;
using gallium::partition::Part;
using gallium::runtime::ExecResult;
using gallium::runtime::OffloadedMiddlebox;
using gallium::runtime::Verdict;

namespace {

enum Layer { kSteer, kPre, kWire, kServer, kSync, kPost, kLayers };
constexpr const char* kLayerNames[kLayers] = {"steer",  "pre",  "wire",
                                              "server", "sync", "post"};
// Bounded memory: per-packet samples for the medians and the spans written
// out at the end.
constexpr size_t kMaxSamples = 1 << 18;
constexpr size_t kMaxSpans = 1 << 16;

// Wall time per layer of one packet (a layer may run twice, e.g. a pump at
// ingress and the commit after the server pass).
struct LayerClock {
  double ns[kLayers] = {};
  Clock::time_point first[kLayers];
  bool ran[kLayers] = {};

  void Add(Layer layer, Clock::time_point a, Clock::time_point b) {
    if (!ran[layer]) first[layer] = a;
    ran[layer] = true;
    ns[layer] += NsBetween(a, b);
  }
};

struct ReplayOutcome {
  bool ok = true;
  bool fast_path = false;
  Verdict verdict;
  Packet out;
  int pre_insts = 0;
  int server_insts = 0;
  int transfer_bytes = 0;
};

std::unique_ptr<OffloadedMiddlebox> Instantiate(
    const Program& program,
    const gallium::runtime::OffloadedOptions& options) {
  auto instance = OffloadedMiddlebox::Create(*program.spec, options);
  if (!instance.ok()) {
    std::fprintf(stderr, "perfbench: instantiating %s failed: %s\n",
                 program.name.c_str(), instance.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(instance).value();
}

class Twin {
 public:
  Twin(const Program& program,
       const gallium::runtime::OffloadedOptions& options)
      : instance_(Instantiate(program, options)),
        interp_(instance_->fn()),
        recording_(&instance_->server_state(), Replicated(kMap),
                   Replicated(kGlobal)),
        queue_options_(options.sync_queue),
        serialize_wire_(options.serialize_wire),
        seq_(instance_->device().last_applied_seq()),
        rng_(options.rng_seed) {
    for (const auto& [ref, placement] : instance_->plan().state_placement) {
      if (ref.kind == gallium::ir::StateRef::Kind::kGlobal &&
          placement == gallium::partition::StatePlacement::kSwitchOnly) {
        switch_only_globals_.push_back(ref.index);
      }
    }
  }

  ReplayOutcome Replay(Packet pkt, uint64_t now_ms, LayerClock* clock) {
    gallium::switchsim::Switch& sw = instance_->device();
    const auto& plan = instance_->plan();
    ReplayOutcome out;

    if (queue_options_.enabled()) {
      const Clock::time_point t0 = Clock::now();
      if (queue_.depth() >= queue_options_.max_backlog_batches) Pump();
      if (++since_pump_ >= queue_options_.pump_interval_packets) {
        since_pump_ = 0;
        if (!queue_.empty()) Pump();
      }
      clock->Add(kSync, t0, Clock::now());
    }

    Clock::time_point t0 = Clock::now();
    sw.BeginPipelinePass();
    ExecResult pre = interp_.RunPartition(pkt, sw.data_plane(), now_ms, plan,
                                          Part::kPre, nullptr, nullptr,
                                          &plan.to_server, nullptr, &scratch_);
    Clock::time_point t1 = Clock::now();
    clock->Add(kPre, t0, t1);
    out.pre_insts = pre.stats.insts;
    if (!pre.status.ok()) return Failed();
    if (!pre.needs_server) {
      out.fast_path = true;
      out.verdict = pre.verdict;
      out.out = std::move(pkt);
      ReconcileGlobals();
      return out;
    }

    t0 = Clock::now();
    auto to_server = Cross(std::move(pkt), plan.to_server, pre.transfer_out,
                           &out.transfer_bytes);
    clock->Add(kWire, t0, Clock::now());
    if (!to_server.ok) return Failed();

    t0 = Clock::now();
    recording_.Clear();
    ExecResult srv = interp_.RunPartition(
        to_server.pkt, recording_, now_ms, plan, Part::kNonOffloaded,
        &plan.to_server, &to_server.values, &plan.to_switch, nullptr,
        &scratch_);
    clock->Add(kServer, t0, Clock::now());
    out.server_insts = srv.stats.insts;
    if (!srv.status.ok()) return Failed();

    if (recording_.HasMutations()) {
      t0 = Clock::now();
      if (queue_options_.enabled() && recording_.global_mutations().empty()) {
        queue_.Enqueue(recording_.map_mutations(),
                       recording_.global_mutations());
      } else {
        if (queue_options_.enabled() && !queue_.empty()) Pump();
        Apply(recording_.map_mutations(), recording_.global_mutations());
      }
      clock->Add(kSync, t0, Clock::now());
    }

    t0 = Clock::now();
    auto to_switch = Cross(std::move(to_server.pkt), plan.to_switch,
                           srv.transfer_out, &out.transfer_bytes);
    clock->Add(kWire, t0, Clock::now());
    if (!to_switch.ok) return Failed();

    t0 = Clock::now();
    sw.BeginPipelinePass();
    ExecResult post = interp_.RunPartition(
        to_switch.pkt, sw.data_plane(), now_ms, plan, Part::kPost,
        &plan.to_switch, &to_switch.values, nullptr, nullptr, &scratch_);
    clock->Add(kPost, t0, Clock::now());
    if (!post.status.ok() ||
        srv.verdict.decided() == post.verdict.decided()) {
      return Failed();
    }
    out.verdict = srv.verdict.decided() ? srv.verdict : post.verdict;
    out.out = std::move(to_switch.pkt);
    ReconcileGlobals();
    return out;
  }

  // Entries across every host map (the server's authoritative state).
  uint64_t HostMapEntries() const {
    uint64_t n = 0;
    for (gallium::ir::StateIndex m = 0; m < instance_->fn().maps().size();
         ++m) {
      n += instance_->server_state().MapSize(m);
    }
    return n;
  }

  uint64_t sync_batches() const { return sync_batches_; }
  double sync_model_us() const { return sync_model_us_; }

 private:
  enum Kind { kMap, kGlobal };

  struct Crossed {
    bool ok = false;
    Packet pkt;
    gallium::runtime::TransferValues values;
  };

  std::vector<bool> Replicated(Kind kind) const {
    const auto& fn = instance_->fn();
    std::vector<bool> watched(
        kind == kMap ? fn.maps().size() : fn.globals().size(), false);
    for (const auto& [ref, placement] : instance_->plan().state_placement) {
      if (placement != gallium::partition::StatePlacement::kReplicated) {
        continue;
      }
      if ((kind == kMap && ref.kind == gallium::ir::StateRef::Kind::kMap) ||
          (kind == kGlobal &&
           ref.kind == gallium::ir::StateRef::Kind::kGlobal)) {
        watched[ref.index] = true;
      }
    }
    return watched;
  }

  static ReplayOutcome Failed() {
    ReplayOutcome out;
    out.ok = false;
    return out;
  }

  // One switch<->server link: pack the transfer header, cross in wire
  // format, unpack on the far side.
  Crossed Cross(Packet pkt, const gallium::partition::TransferSpec& spec,
                const gallium::runtime::TransferValues& values, int* bytes) {
    const auto& fn = instance_->fn();
    Crossed crossed;
    gallium::net::GalliumHeader header =
        gallium::runtime::PackTransfer(fn, spec, values);
    *bytes += static_cast<int>(header.WireSize());
    pkt.set_gallium(std::move(header));
    if (serialize_wire_) {
      const uint32_t ingress = pkt.ingress_port();
      auto parsed = Packet::Parse(pkt.Serialize());
      if (!parsed.ok()) return crossed;
      pkt = std::move(parsed).value();
      pkt.set_ingress_port(ingress);
    }
    auto unpacked = gallium::runtime::UnpackTransfer(fn, spec, pkt.gallium());
    if (!unpacked.ok()) return crossed;
    pkt.clear_gallium();
    crossed.ok = true;
    crossed.pkt = std::move(pkt);
    crossed.values = std::move(unpacked).value();
    return crossed;
  }

  void Apply(const std::vector<gallium::runtime::RecordingStateBackend::
                                   MapMutation>& maps,
             const std::vector<gallium::runtime::RecordingStateBackend::
                                   GlobalMutation>& globals) {
    gallium::runtime::SyncBatch batch;
    batch.seq = ++seq_;
    batch.epoch = instance_->device().epoch();
    batch.maps = maps;
    batch.globals = globals;
    auto ack = instance_->device().ApplySyncBatch(batch, &rng_);
    ++sync_batches_;
    if (ack.ok()) sync_model_us_ += ack->latency_us;
  }

  void Pump() {
    pump_maps_.clear();
    pump_globals_.clear();
    queue_.DrainInto(&pump_maps_, &pump_globals_);
    if (!pump_maps_.empty() || !pump_globals_.empty()) {
      Apply(pump_maps_, pump_globals_);
    }
  }

  // Switch-written globals mirrored into the host store after each packet.
  void ReconcileGlobals() {
    gallium::switchsim::Switch& sw = instance_->device();
    for (gallium::ir::StateIndex g : switch_only_globals_) {
      if (!sw.IsResident({gallium::ir::StateRef::Kind::kGlobal, g})) continue;
      instance_->server_state().GlobalWrite(g, sw.data_plane().GlobalRead(g));
    }
  }

  std::unique_ptr<OffloadedMiddlebox> instance_;
  gallium::runtime::Interpreter interp_;
  gallium::runtime::ExecScratch scratch_;
  gallium::runtime::RecordingStateBackend recording_;
  gallium::runtime::SyncQueueOptions queue_options_;
  gallium::runtime::CoalescingSyncQueue queue_;
  std::vector<gallium::runtime::RecordingStateBackend::MapMutation> pump_maps_;
  std::vector<gallium::runtime::RecordingStateBackend::GlobalMutation>
      pump_globals_;
  bool serialize_wire_;
  uint64_t since_pump_ = 0;
  uint64_t seq_;
  gallium::Rng rng_;
  std::vector<gallium::ir::StateIndex> switch_only_globals_;
  uint64_t sync_batches_ = 0;
  double sync_model_us_ = 0;
};

struct Span {
  uint64_t packet;
  uint8_t program;
  int8_t layer;  // -1: the packet's root span (parent of its layer spans)
  double start_ns;
  double dur_ns;
};

// One program's original + twin pair and its per-program tallies.
struct Lane {
  const ReplayInput* input = nullptr;
  std::unique_ptr<OffloadedMiddlebox> original;
  std::unique_ptr<Twin> twin;
  uint64_t now_ms = 0;
  uint64_t packets = 0;
  double pre_ns = 0;
  // Sync batches applied by this lane's twins (retired ones included) and
  // their modeled latency.
  double sync_batches = 0;
  double sync_model_us = 0;
};

bool SameOutput(const OffloadedMiddlebox::Outcome& a, const ReplayOutcome& b) {
  if (!a.status.ok() || !b.ok || a.shed || a.verdict != b.verdict ||
      a.fast_path != b.fast_path) {
    return false;
  }
  return a.verdict.kind != Verdict::Kind::kSend ||
         a.out_packet.Serialize() == b.out.Serialize();
}

}  // namespace

void TracedReplay(const std::vector<ReplayInput>& inputs,
                  const gallium::runtime::OffloadedOptions& runtime_options,
                  bool fresh_per_pass, double seconds, double untraced_pps,
                  bool report_closure, const std::string& spans_path,
                  Report* report) {
  std::vector<Lane> lanes(inputs.size());
  auto reset = [&](Lane& lane) {
    if (lane.twin != nullptr) {
      lane.sync_batches += static_cast<double>(lane.twin->sync_batches());
      lane.sync_model_us += lane.twin->sync_model_us();
    }
    lane.twin.reset();
    lane.original.reset();
    lane.original = Instantiate(*lane.input->program, runtime_options);
    lane.twin = std::make_unique<Twin>(*lane.input->program, runtime_options);
  };
  // Replays one packet through both instances.
  struct Step {
    bool same = false;  // replay output equals Process output
    double process_ns = 0;
    double root_ns = 0;  // steering + replay
    Clock::time_point root_start;
    LayerClock clock;
    ReplayOutcome replayed;
  };
  auto step = [&](Lane& lane, const Packet& pkt) {
    Step st;
    const Clock::time_point p0 = Clock::now();
    const OffloadedMiddlebox::Outcome original =
        lane.original->Process(pkt, lane.now_ms);
    st.process_ns = NsBetween(p0, Clock::now());
    st.root_start = Clock::now();
    // Out of line in steering.cc, so the call cannot be elided.
    (void)lane.input->steering->OwnerOf(pkt.five_tuple());
    st.clock.Add(kSteer, st.root_start, Clock::now());
    st.replayed = lane.twin->Replay(pkt, lane.now_ms, &st.clock);
    st.root_ns = NsBetween(st.root_start, Clock::now());
    ++lane.now_ms;
    st.same = SameOutput(original, st.replayed);
    return st;
  };

  for (size_t i = 0; i < inputs.size(); ++i) {
    lanes[i].input = &inputs[i];
    reset(lanes[i]);
    for (const Packet& pkt : inputs[i].program->warmup) {
      report->Attempt(1);
      if (!step(lanes[i], pkt).same) {
        report->Fail(inputs[i].program->name +
                     ": warmup replay differs from Process");
      }
    }
  }

  // Sync work of the warmup above is not part of the traced passes.
  for (Lane& lane : lanes) {
    lane.sync_batches = -static_cast<double>(lane.twin->sync_batches());
    lane.sync_model_us = -lane.twin->sync_model_us();
  }
  std::vector<float> samples[kLayers];
  std::vector<float> process_samples;
  std::vector<Span> spans;
  spans.reserve(kMaxSpans);
  double layer_total[kLayers] = {};
  double root_total = 0;
  uint64_t packets = 0, fast = 0, pre_insts = 0, server_insts = 0,
           transfer_bytes = 0, packet_id = 0;
  const Clock::time_point epoch = Clock::now();
  bool first_pass = true;
  do {
    for (Lane& lane : lanes) {
      if (fresh_per_pass && !first_pass) reset(lane);
      for (const Packet& pkt : lane.input->program->trace) {
        const Step st = step(lane, pkt);
        const LayerClock& clock = st.clock;
        report->Attempt(1);
        if (!st.same) {
          report->Fail(lane.input->program->name +
                       ": replayed packet differs from Process");
        }
        ++packets;
        ++lane.packets;
        root_total += st.root_ns;
        lane.pre_ns += clock.ns[kPre];
        fast += st.replayed.fast_path ? 1 : 0;
        pre_insts += static_cast<uint64_t>(st.replayed.pre_insts);
        server_insts += static_cast<uint64_t>(st.replayed.server_insts);
        transfer_bytes += static_cast<uint64_t>(st.replayed.transfer_bytes);
        for (int l = 0; l < kLayers; ++l) layer_total[l] += clock.ns[l];
        if (process_samples.size() < kMaxSamples) {
          process_samples.push_back(static_cast<float>(st.process_ns));
          for (int l = 0; l < kLayers; ++l) {
            samples[l].push_back(static_cast<float>(clock.ns[l]));
          }
        }
        if (spans.size() + kLayers + 1 <= kMaxSpans) {
          const uint8_t program = static_cast<uint8_t>(&lane - lanes.data());
          spans.push_back(Span{packet_id, program, -1,
                               NsBetween(epoch, st.root_start), st.root_ns});
          for (int l = 0; l < kLayers; ++l) {
            if (!clock.ran[l]) continue;
            spans.push_back(Span{packet_id, program, static_cast<int8_t>(l),
                                 NsBetween(epoch, clock.first[l]),
                                 clock.ns[l]});
          }
        }
        ++packet_id;
      }
    }
    first_pass = false;
  } while (SecondsSince(epoch) < seconds);

  const double n = static_cast<double>(std::max<uint64_t>(packets, 1));
  uint64_t host_entries = 0;
  double sync_batches = 0, sync_model_us = 0;
  for (const Lane& lane : lanes) {
    host_entries += lane.twin->HostMapEntries();
    sync_batches += lane.sync_batches +
                    static_cast<double>(lane.twin->sync_batches());
    sync_model_us += lane.sync_model_us + lane.twin->sync_model_us();
  }
  report->Metric("engine.steer_ns", layer_total[kSteer] / n, "ns");
  report->Metric("switchsim.pre_ns", layer_total[kPre] / n, "ns");
  for (const Lane& lane : lanes) {
    const std::string& name = lane.input->program->name;
    if (name == "nat" || name == "lb" || name == "trojan") {
      report->Metric("switchsim.pre_ns." + name,
                     lane.pre_ns / static_cast<double>(
                                       std::max<uint64_t>(lane.packets, 1)),
                     "ns");
    }
  }
  report->Metric("switchsim.pre_insts_per_pkt",
                 static_cast<double>(pre_insts) / n, "count");
  report->Metric("switchsim.post_ns", layer_total[kPost] / n, "ns");
  report->Metric("switchsim.fast_path_frac", static_cast<double>(fast) / n,
                 "ratio");
  report->Metric("net.wire_ns", layer_total[kWire] / n, "ns");
  report->Metric("net.transfer_bytes_per_pkt",
                 static_cast<double>(transfer_bytes) / n, "bytes");
  report->Metric("runtime.server_ns", layer_total[kServer] / n, "ns");
  report->Metric("runtime.server_insts_per_pkt",
                 static_cast<double>(server_insts) / n, "count");
  report->Metric("runtime.sync_ns", layer_total[kSync] / n, "ns");
  report->Metric("runtime.sync_batches_per_kpkt",
                 1000.0 * sync_batches / n, "count");
  // The switchsim latency model's figure, never a measurement.
  report->Metric("runtime.sync_model_us",
                 sync_batches > 0 ? sync_model_us / sync_batches : 0.0,
                 "model_us");
  report->Metric("state.host_map_entries", static_cast<double>(host_entries),
                 "count");
  if (report_closure) {
    double layer_medians = 0;
    for (int l = kPre; l < kLayers; ++l) {
      layer_medians +=
          Median(std::vector<double>(samples[l].begin(), samples[l].end()));
    }
    const double process_median = Median(
        std::vector<double>(process_samples.begin(), process_samples.end()));
    report->Metric("trace.closure",
                   process_median > 0 ? layer_medians / process_median : 0,
                   "ratio");
    const double traced_pps = n / (root_total * 1e-9);
    report->Metric("trace.overhead",
                   untraced_pps > 0 ? traced_pps / untraced_pps : 0, "ratio");
  }

  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    out << "packet,program,layer,parent,start_ns,dur_ns\n";
    for (const Span& s : spans) {
      out << s.packet << ','
          << lanes[s.program].input->program->name << ','
          << (s.layer < 0 ? "packet" : kLayerNames[s.layer]) << ','
          << (s.layer < 0 ? "" : "packet") << ',' << s.start_ns << ','
          << s.dur_ns << '\n';
    }
  }
}

}  // namespace perfbench
