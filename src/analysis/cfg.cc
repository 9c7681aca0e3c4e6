#include "analysis/cfg.h"

#include <algorithm>
#include <bit>

namespace gallium::analysis {

using ir::Opcode;

CfgInfo::CfgInfo(const ir::Function& fn) : fn_(&fn), index_(fn.BuildIndex()) {
  const int n = fn.num_blocks();
  succs_.resize(n);
  for (const ir::BasicBlock& bb : fn.blocks()) {
    const ir::Instruction& term = bb.terminator();
    if (term.op == Opcode::kBranch) {
      succs_[bb.id] = {term.target_true, term.target_false};
    } else if (term.op == Opcode::kJump) {
      succs_[bb.id] = {term.target_true};
    }
  }
  ComputeReachability();
  ComputePostDominators();
}

void CfgInfo::ComputeReachability() {
  const int n = fn_->num_blocks();
  reachable_.assign(n, false);
  std::vector<int> stack{fn_->entry_block()};
  reachable_[fn_->entry_block()] = true;
  while (!stack.empty()) {
    const int b = stack.back();
    stack.pop_back();
    for (int s : succs_[b]) {
      if (!reachable_[s]) {
        reachable_[s] = true;
        stack.push_back(s);
      }
    }
  }

  // Strict reachability (path length >= 1): the closure of the edge relation.
  block_reach_ = BitMatrix::Closure(succs_);
}

void CfgInfo::ComputePostDominators() {
  const int n = fn_->num_blocks();
  const int exit = n;  // virtual exit node
  // Post-dominator sets over n+1 nodes: (b, i) set => i post-dominates b.
  // Every set starts full except the exit's, which is {exit}.
  BitMatrix pdom(n + 1);
  for (int b = 0; b < n; ++b) {
    for (int i = 0; i <= n; ++i) pdom.Set(b, i);
  }
  pdom.Set(exit, exit);
  const int words = pdom.words_per_row();

  bool changed = true;
  std::vector<uint64_t> next(words);
  while (changed) {
    changed = false;
    for (int b = 0; b < n; ++b) {
      if (!reachable_[b]) continue;
      // Blocks whose terminator is kReturn flow to the virtual exit.
      const std::vector<int>& succs = succs_[b];
      const uint64_t* first = pdom.Row(succs.empty() ? exit : succs[0]);
      next.assign(first, first + words);
      for (size_t k = 1; k < succs.size(); ++k) {
        const uint64_t* ps = pdom.Row(succs[k]);
        for (int w = 0; w < words; ++w) next[w] &= ps[w];
      }
      next[b / 64] |= uint64_t{1} << (b % 64);
      uint64_t* row = pdom.Row(b);
      if (!std::equal(next.begin(), next.end(), row)) {
        std::copy(next.begin(), next.end(), row);
        changed = true;
      }
    }
  }

  // Immediate post-dominator: the strict post-dominator with the smallest
  // strict-postdominator set.
  ipostdom_.assign(n, -1);
  auto count = [&](int b) {
    int c = 0;
    for (int w = 0; w < words; ++w) c += std::popcount(pdom.Row(b)[w]);
    return c;
  };
  for (int b = 0; b < n; ++b) {
    if (!reachable_[b]) continue;
    const int want = count(b) - 1;
    for (int p = 0; p <= n; ++p) {
      if (p == b || !pdom.Test(b, p)) continue;
      const int pc = p == exit ? 1 : count(p);
      if (pc == want) {
        ipostdom_[b] = p == exit ? -1 : p;
        break;
      }
    }
  }

  // Control dependence: walk the post-dominator tree up from each branch
  // successor (it needs the pdom sets, so it is computed here).
  control_deps_.assign(n, {});
  for (int a = 0; a < n; ++a) {
    if (!reachable_[a]) continue;
    const ir::Instruction& term = fn_->block(a).terminator();
    if (term.op != Opcode::kBranch) continue;
    for (int b : succs_[a]) {
      // Walk up from b through the post-dominator tree until reaching
      // ipostdom(a); every node on the way is control-dependent on term.
      int cur = b;
      while (cur != -1 && cur != ipostdom_[a]) {
        if (!pdom.Test(b, cur) && cur != b) break;  // safety: stay on the chain
        auto& deps = control_deps_[cur];
        if (std::find(deps.begin(), deps.end(), term.id) == deps.end()) {
          deps.push_back(term.id);
        }
        cur = ipostdom_[cur];
      }
    }
  }
}

bool CfgInfo::CanHappenAfter(ir::InstId later, ir::InstId earlier) const {
  const ir::InstRef ra = index_[earlier];
  const ir::InstRef rb = index_[later];
  if (!ra.valid() || !rb.valid()) return false;
  if (ra.block == rb.block && rb.index > ra.index) return true;
  return block_reach_.Test(ra.block, rb.block);  // same block: via a cycle
}

bool CfgInfo::InLoop(ir::InstId inst) const {
  const ir::InstRef r = index_[inst];
  if (!r.valid()) return false;
  return block_reach_.Test(r.block, r.block);
}

}  // namespace gallium::analysis
