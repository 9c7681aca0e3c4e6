// Partitioning result types: execution labels, partition assignment,
// transfer-header specifications, and state placement (§4.2, §4.3).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/function.h"

namespace gallium::partition {

// Which of the three packet-processing steps executes a statement.
enum class Part : uint8_t { kPre, kNonOffloaded, kPost };
const char* PartName(Part p);

// The walks the runtime makes over a partitioned program: one per Part (same
// order), plus the §7 cache-miss recovery pass, in which the server re-runs
// everything except the post partition.
enum class Pass : uint8_t { kPre, kServer, kPost, kRecovery };
constexpr Pass PassOf(Part p) { return static_cast<Pass>(p); }

// What a pass does with a statement. kSkipOwed (pre pass only) is work left
// to the server, so the packet must go there.
enum class Step : uint8_t { kRun, kSkip, kSkipOwed };

// What a pass does at a branch whose condition it has no value for.
enum class UndefinedBranch : uint8_t { kOweServer, kFalseArm, kError };

// The label set {pre, non_off, post} of §4.2.1. non_off is always a member
// (executing on the server is always possible), so only pre/post are stored.
struct LabelSet {
  bool pre = true;
  bool post = true;

  bool OnSwitch() const { return pre || post; }
  bool operator==(const LabelSet&) const = default;
};

// How the partitioner scores candidate placements (§7 "Cost model of
// offloading"). The paper's default maximizes the *number* of offloaded
// statements; the weighted objective scores operations by the performance
// benefit of executing them on the switch (a table lookup saves far more
// server cycles than an integer addition), addressing the sub-optimality
// §7 points out.
enum class OffloadObjective : uint8_t {
  kStatementCount,  // the paper's default
  kWeightedCycles,  // §7's proposed refinement
};

// Per-operation offload benefit used by kWeightedCycles (roughly the server
// cycles the operation would otherwise cost; see perf::CostModel).
struct OffloadWeights {
  int map_lookup = 120;
  int vector_op = 8;
  int global_op = 4;
  int header_op = 6;
  int alu_op = 2;
  int other = 1;

  int WeightOf(const ir::Instruction& inst) const;
};

// Hardware resource limits of the target switch (§2.2, §4.2.2). Defaults
// model a Tofino-class device with the paper's conservative choices.
struct SwitchConstraints {
  // Constraint 1: total switch table/register memory ("a few tens of MBs").
  uint64_t memory_bytes = 16ull * 1024 * 1024;
  // Constraint 2: maximum dependency-chain length of offloaded code
  // ("generally around 10 to 20" stages; conservative value, footnote 3).
  int pipeline_depth = 12;
  // Constraint 4: per-packet scratchpad metadata ("less than 100 bytes").
  int metadata_bytes = 96;
  // Constraint 5: extra per-packet header space for switch<->server transfer
  // ("We set this constraint to be 20 bytes."). Applied per direction.
  int transfer_bytes = 20;

  // Placement-scoring objective (§7): statement count by default.
  OffloadObjective objective = OffloadObjective::kStatementCount;
  OffloadWeights weights;

  // State objects the RMT placement backend spilled back to the server
  // (rmt::PartitionAndPlace's feedback loop). Every statement touching a
  // listed object keeps only its non_off label, so the next partition
  // round cannot re-offload it.
  std::vector<ir::StateRef> spilled_state;
};

// Registers carried across a partition boundary inside the synthesized
// packet header (Fig. 5): u1 registers are packed as condition bits; wider
// registers occupy 32-bit variable slots.
struct TransferSpec {
  std::vector<ir::Reg> cond_regs;  // 1-bit values, packed into cond_bits
  std::vector<ir::Reg> var_regs;   // wider values, 32-bit slots (u64 uses 2)

  // On-the-wire bytes this spec adds to the packet.
  int Bytes(const ir::Function& fn) const;
  // Index of `r` within var slots (-1 if absent); u64 regs take two slots.
  int VarSlot(const ir::Function& fn, ir::Reg r) const;
  int CondBit(ir::Reg r) const;
  int NumVarSlots(const ir::Function& fn) const;
};

// Where a piece of global state lives after partitioning (§4.3.1).
enum class StatePlacement : uint8_t {
  kSwitchOnly,  // accessed exclusively by offloaded statements
  kServerOnly,  // accessed exclusively by the server (or not offloadable)
  kReplicated,  // read on the switch, updated by the server (synchronized)
};
const char* StatePlacementName(StatePlacement p);

struct PartitionPlan {
  // Final execution label of each statement, indexed by InstId.
  std::vector<LabelSet> labels;
  // Partition assignment derived from the labels (§4.2.2 last paragraph).
  std::vector<Part> assignment;

  // Statements replicated into every partition that traverses them, like
  // branches: header reads whose field is never modified afterwards. The
  // packet is physically present on both devices, so re-reading such a field
  // is free and costs no transfer-header space (the server "re-parses" the
  // packet instead of receiving parsed values).
  std::vector<bool> replicable;

  TransferSpec to_server;  // pre-processing -> non-offloaded header
  TransferSpec to_switch;  // non-offloaded -> post-processing header

  std::map<ir::StateRef, StatePlacement> state_placement;

  // Peak bytes of switch scratchpad metadata used by offloaded temporaries
  // (after liveness-based slot reuse).
  int metadata_peak_bytes = 0;

  // Longest dependency chain among offloaded statements — the number of
  // match-action stages the offloaded code needs (Constraint 2's metric).
  int pipeline_stages_used = 0;

  // Statement counts per partition (Table 1's offloading effectiveness).
  int num_pre = 0;
  int num_non_offloaded = 0;
  int num_post = 0;

  // Warn-level diagnostics from ir::VerifyFunctionWithWarnings (unreachable
  // blocks, never-read registers) plus partition-level notes (e.g. an empty
  // switch partition). Informational only; never fails the compile.
  std::vector<std::string> warnings;

  Part PartOf(ir::InstId id) const { return assignment[id]; }
  bool OnSwitch(ir::InstId id) const {
    return assignment[id] != Part::kNonOffloaded;
  }

  // --- The pass rule: what each pass executes. The interpreter, the
  // validator, both code generators and the mutation engine read it.
  // Computed from `assignment` and `replicable` on every call, so edits to
  // either take effect at once.
  bool IsReplicable(ir::InstId id) const {
    return static_cast<size_t>(id) < replicable.size() && replicable[id];
  }
  // Replicable statements run in every pass that walks past them; any other
  // runs in its own partition's pass (recovery: any partition but post).
  Step StepOf(Pass pass, ir::InstId id) const {
    if (IsReplicable(id)) return Step::kRun;
    const Part part = assignment[id];
    if (pass == Pass::kRecovery) {
      return part != Part::kPost ? Step::kRun : Step::kSkip;
    }
    if (PassOf(part) == pass) return Step::kRun;
    return pass == Pass::kPre ? Step::kSkipOwed : Step::kSkip;
  }
  bool Runs(Pass pass, ir::InstId id) const {
    return StepOf(pass, id) == Step::kRun;
  }
  bool RunsOnSwitch(ir::InstId id) const {
    return Runs(Pass::kPre, id) || Runs(Pass::kPost, id);
  }

  // Exit policy. The pre pass cannot loop (rule 5 puts loop bodies on the
  // server), so re-entering a block owes the rest of the path to the server.
  static bool RevisitOwesServer(Pass pass) { return pass == Pass::kPre; }
  // A condition the pre pass lacks is produced later: owe the server. One
  // the server or recovery pass lacks is computed only by the post partition,
  // which no server statement depends on (a server dependent would have
  // stripped the definition's post label), so both arms are empty for the
  // pass: take the false arm. The post pass receives every condition it
  // needs, so a missing one is a plan error.
  static UndefinedBranch OnUndefinedBranch(Pass pass) {
    if (pass == Pass::kPre) return UndefinedBranch::kOweServer;
    return pass == Pass::kPost ? UndefinedBranch::kError
                               : UndefinedBranch::kFalseArm;
  }

  std::string Summary(const ir::Function& fn) const;
};

}  // namespace gallium::partition
