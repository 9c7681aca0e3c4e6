// The IR interpreter: executes a middlebox program (whole, or one partition
// of it) against a packet and a state backend.
//
// Running the whole function against host state is the FastClick-equivalent
// software baseline. Running one partition reproduces the generated code's
// behavior: the pre pass on the switch (stopping where server work begins
// and packing the transfer header), the server pass (consuming the transfer
// header), and the post pass on the switch (consuming the return header).
// Which statements a pass runs, and where it stops and owes the server, is
// partition::PartitionPlan's pass rule (partition/plan.h), the same rule
// the translation validator replays; the walk here only follows the CFG.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/function.h"
#include "net/packet.h"
#include "partition/plan.h"
#include "runtime/state.h"
#include "telemetry/metrics.h"
#include "util/inline_vec.h"
#include "util/status.h"

namespace gallium::runtime {

struct Verdict {
  enum class Kind : uint8_t { kNone, kSend, kDrop };
  Kind kind = Kind::kNone;
  uint32_t egress_port = 0;

  bool decided() const { return kind != Kind::kNone; }
  bool operator==(const Verdict&) const = default;
};

// Runtime form of the synthesized transfer header: values parallel to a
// TransferSpec's cond_regs / var_regs lists. Inline storage: the pre pass
// fills one of these per packet even on the fast path, so it must not
// heap-allocate (conditions are capped at 32; var lists are bounded by the
// transfer-byte constraint).
struct TransferValues {
  InlineVec<uint64_t, 32> cond_values;
  InlineVec<uint64_t, 32> var_values;
};

// Reusable per-walk buffers. The interpreter's register file and block-visit
// set are sized by the function, not the packet; a caller that processes
// packets in a loop passes one of these so the hot path allocates nothing.
// Null scratch falls back to walk-local buffers (one-shot callers).
struct ExecScratch {
  std::vector<uint64_t> regs;
  std::vector<bool> defined;
  std::vector<bool> visited;
  StateKey key;
  StateValue value;
};

struct ExecResult {
  Status status = Status::Ok();
  Verdict verdict;
  // Pre pass only: the path owes non-offloaded (or post) work, so the
  // packet must be forwarded to the server.
  bool needs_server = false;
  // Pre pass with cached tables (§7): a lookup missed in a partial cache,
  // so the result is not authoritative — the pre pass aborted and the
  // server must process the packet from scratch.
  bool cache_miss_abort = false;
  // Execution counters; the performance model converts these to cycles.
  telemetry::OpCounts stats;
  // Filled when an out-spec is provided.
  TransferValues transfer_out;
  // Keys this walk looked up in cached maps (server-full pass only): the
  // runtime re-installs the hot entries into the switch cache.
  std::vector<std::pair<ir::StateIndex, StateKey>> cached_lookups;
};

class Interpreter {
 public:
  explicit Interpreter(const ir::Function& fn);

  const ir::Function& function() const { return *fn_; }

  // Executes the complete program (software baseline semantics).
  ExecResult Run(net::Packet& pkt, StateBackend& state, uint64_t now_ms,
                 ExecScratch* scratch = nullptr) const;

  // Executes one partition. `in_spec`/`in_values` describe the incoming
  // transfer header (null for the pre pass); `out_spec` the outgoing one.
  // `cached_maps` (pre pass only) marks maps whose switch tables are
  // partial caches: a miss aborts the pass (§7 memory-reduction mode).
  ExecResult RunPartition(net::Packet& pkt, StateBackend& state,
                          uint64_t now_ms,
                          const partition::PartitionPlan& plan,
                          partition::Part part,
                          const partition::TransferSpec* in_spec,
                          const TransferValues* in_values,
                          const partition::TransferSpec* out_spec,
                          const std::vector<bool>* cached_maps = nullptr,
                          ExecScratch* scratch = nullptr) const;

  // Cache-miss recovery pass (§7): runs everything except the post
  // partition against authoritative server state, recording which keys were
  // looked up in cached maps so the runtime can refresh the switch cache.
  ExecResult RunServerFull(net::Packet& pkt, StateBackend& state,
                           uint64_t now_ms,
                           const partition::PartitionPlan& plan,
                           const partition::TransferSpec* out_spec,
                           const std::vector<bool>& cached_maps,
                           ExecScratch* scratch = nullptr) const;

  // Header-field accessors shared with the switch simulator.
  static uint64_t ReadHeaderField(const net::Packet& pkt, ir::HeaderField f);
  static void WriteHeaderField(net::Packet& pkt, ir::HeaderField f,
                               uint64_t value);

 private:
  struct WalkConfig {
    const partition::PartitionPlan* plan = nullptr;  // null = run everything
    partition::Pass pass = partition::Pass::kPre;
    // Cache mode: pre pass aborts on misses in these maps; the recovery
    // pass records lookups into them.
    const std::vector<bool>* cached_maps = nullptr;
  };

  ExecResult Walk(net::Packet& pkt, StateBackend& state, uint64_t now_ms,
                  const WalkConfig& config,
                  const partition::TransferSpec* in_spec,
                  const TransferValues* in_values,
                  const partition::TransferSpec* out_spec,
                  ExecScratch* scratch) const;

  const ir::Function* fn_;
};

// Packs runtime transfer values into the wire-format Gallium header and
// back, following the spec's slot layout.
net::GalliumHeader PackTransfer(const ir::Function& fn,
                                const partition::TransferSpec& spec,
                                const TransferValues& values);
Result<TransferValues> UnpackTransfer(const ir::Function& fn,
                                      const partition::TransferSpec& spec,
                                      const net::GalliumHeader& header);

}  // namespace gallium::runtime
