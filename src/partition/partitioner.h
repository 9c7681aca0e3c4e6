// The Gallium partitioning algorithm (§4.2).
//
// Phase 1 — label removal: every statement starts with the labels
// {pre, non_off, post} (or {non_off} if P4 cannot express it) and labels are
// removed to a fixpoint under the five rules of §4.2.1.
//
// Phase 2 — resource refinement (§4.2.2): the pipeline-depth constraint is
// applied via the dependency-distance metric, the switch-memory constraint
// by trimming labels in (reverse) source order, the single-access-per-state
// constraint by exhaustive placement search, and the per-packet metadata and
// transfer-byte caps by greedily moving offloaded statements to the server in
// a fixed topological order of the data dependencies, re-running the label
// fixpoint and a liveness test after every move.
//
// Two safety refinements follow §4.3.3's execution model: writes to
// replicated state are forced to the server ("any updates will only be made
// by the server"), and a send/drop cannot stay in the pre partition if the
// same path still owes non-offloaded work (output-commit would be violated).
#pragma once

#include <memory>

#include "analysis/cfg.h"
#include "analysis/depgraph.h"
#include "analysis/liveness.h"
#include "ir/function.h"
#include "partition/plan.h"
#include "util/status.h"

namespace gallium::partition {

// True if a single statement is expressible in P4 (§4.2.1's three
// conditions: supported ALU ops, header-only packet access, and annotated
// data-structure calls with a P4 implementation).
bool StatementSupportedByP4(const ir::Function& fn,
                            const ir::Instruction& inst);

class Partitioner {
 public:
  Partitioner(const ir::Function& fn, SwitchConstraints constraints);
  // Borrows `fn`'s CFG facts and dependency graph instead of building them.
  // Neither depends on the constraints, so one pair can serve every
  // partition round of a spill loop; both must outlive the partitioner.
  Partitioner(const ir::Function& fn, SwitchConstraints constraints,
              const analysis::CfgInfo& cfg,
              const analysis::DependencyGraph& deps);

  Result<PartitionPlan> Run();

  const analysis::CfgInfo& cfg() const { return cfg_; }
  const analysis::DependencyGraph& deps() const { return deps_; }

 private:
  void InitLabels();
  // Applies rules 1-5 until no label can be removed. Returns the number of
  // labels removed.
  int FixpointLabelRemoval();
  void ApplyPipelineDepthConstraint();  // Constraint 2
  void ApplyMemoryConstraint();         // Constraint 1
  void ApplySingleAccessConstraint();   // Constraint 3 (exhaustive search)
  void DemoteReplicatedStateWrites();
  void DemoteUnsafeSends();
  void ApplyTransferAndMetadataConstraints();  // Constraints 4 & 5 (greedy)

  std::vector<Part> ComputeAssignment() const;
  // Header reads that every partition may re-execute locally: no header
  // write to the same field can happen after them.
  std::vector<bool> ComputeReplicable() const;
  static std::vector<Part> AssignmentFromLabels(
      const std::vector<LabelSet>& labels);
  void ComputeTransfers(const std::vector<Part>& assignment,
                        TransferSpec* to_server, TransferSpec* to_switch) const;
  int ComputeMetadataPeak(const std::vector<Part>& assignment) const;
  std::map<ir::StateRef, StatePlacement> ComputeStatePlacement(
      const std::vector<Part>& assignment) const;
  uint64_t SwitchMemoryFootprint() const;
  // On-switch statement count under a hypothetical label set (used by the
  // exhaustive single-access search).
  int CountOnSwitch(const std::vector<LabelSet>& labels) const;
  int RunFixpointOn(std::vector<LabelSet>& labels) const;

  Status VerifyPlan(const PartitionPlan& plan) const;

  const ir::Function& fn_;
  SwitchConstraints c_;
  // Set only when the partitioner built its own analyses.
  std::unique_ptr<const analysis::CfgInfo> owned_cfg_;
  std::unique_ptr<const analysis::DependencyGraph> owned_deps_;
  const analysis::CfgInfo& cfg_;
  const analysis::DependencyGraph& deps_;
  analysis::Liveness liveness_;
  std::vector<const ir::Instruction*> insts_;  // indexed by InstId
  std::vector<bool> replicable_;
  std::vector<LabelSet> labels_;
};

}  // namespace gallium::partition
