// Control-flow-graph facts: successors, block and instruction
// reachability ("can happen after", §4.1), post-dominators, and control
// dependence.
#pragma once

#include <vector>

#include "analysis/bit_matrix.h"
#include "ir/function.h"

namespace gallium::analysis {

class CfgInfo {
 public:
  explicit CfgInfo(const ir::Function& fn);

  const ir::Function& function() const { return *fn_; }

  const std::vector<int>& successors(int block) const { return succs_[block]; }

  bool BlockReachable(int block) const { return reachable_[block]; }

  // True if there is a CFG path of length >= 1 from `from` to `to`
  // (block-level strict reachability; a block reaches itself only through a
  // cycle).
  bool BlockCanReach(int from, int to) const {
    return block_reach_.Test(from, to);
  }

  // The paper's "can happen after" relation at instruction granularity:
  // true iff some execution trace performs `later` after `earlier`.
  bool CanHappenAfter(ir::InstId later, ir::InstId earlier) const;

  // Whether the instruction sits inside a CFG cycle (so it "can happen
  // after" itself — the loop condition of label rule 5).
  bool InLoop(ir::InstId inst) const;

  // Instruction ids of branch terminators that `block` is control-dependent
  // on (computed via post-dominance frontiers).
  const std::vector<ir::InstId>& ControllingBranches(int block) const {
    return control_deps_[block];
  }

  // Position of an instruction.
  ir::InstRef Ref(ir::InstId inst) const { return index_[inst]; }

  // Immediate post-dominator of each block (-1 for the virtual exit's
  // children that exit directly / unreachable blocks).
  int ImmediatePostDominator(int block) const { return ipostdom_[block]; }

 private:
  void ComputeReachability();
  void ComputePostDominators();

  const ir::Function* fn_;
  std::vector<ir::InstRef> index_;
  std::vector<std::vector<int>> succs_;
  std::vector<bool> reachable_;
  BitMatrix block_reach_;  // strict (path length >= 1)
  std::vector<int> ipostdom_;
  std::vector<std::vector<ir::InstId>> control_deps_;
};

}  // namespace gallium::analysis
