// The Gallium partitioning algorithm (§4.2).
//
// Phase 1 — label removal: every statement starts with the labels
// {pre, non_off, post} (or {non_off} if P4 cannot express it) and labels are
// removed to a fixpoint under the rules of §4.2.1 (see LabelFixpoint).
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

// The label-removal fixpoint of §4.2.1. For s1 ⇝* s2: (1) s2 without post
// takes post from s1; (2) s1 without pre takes pre from s2; (3, 4) on one
// state, s2 loses pre and s1 loses post; (5) loops lose both; (6) the pre
// pass stops at a branch on a register with no def or a def neither pre nor
// replicable, so nothing past it keeps pre. All rules are monotone: a
// worklist along the direct edges gives the sweep's result (DESIGN.md §4.3).
class LabelFixpoint {
 public:
  // `replicable` marks the header reads every partition may re-execute.
  LabelFixpoint(const ir::Function& fn, const analysis::CfgInfo& cfg,
                const analysis::DependencyGraph& deps,
                const std::vector<bool>& replicable);

  // Removes labels until the rules hold.
  void Run(std::vector<LabelSet>& labels) const;

 private:
  const ir::Function& fn_;
  const analysis::CfgInfo& cfg_;
  const analysis::DependencyGraph& deps_;
  std::vector<LabelSet> fixed_;  // rule 5 and the same-state pairs
  std::vector<int> undefined_;   // blocks branching on a register with no def
  std::vector<std::vector<int>> horizon_;  // def -> blocks of branches it feeds
};

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

 private:
  void InitLabels();
  // Removes labels from labels_ until the rules of §4.2.1 hold.
  void FixpointLabelRemoval() { fixpoint_.Run(labels_); }
  void ApplyPipelineDepthConstraint();  // Constraint 2
  void ApplyMemoryConstraint();         // Constraint 1
  void ApplySingleAccessConstraint();   // Constraint 3 (exhaustive search)
  void DemoteReplicatedStateWrites();
  void DemoteUnsafeSends();
  void ApplyTransferAndMetadataConstraints();  // Constraints 4 & 5 (greedy)

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
  LabelFixpoint fixpoint_;
  std::vector<LabelSet> labels_;
};

}  // namespace gallium::partition
