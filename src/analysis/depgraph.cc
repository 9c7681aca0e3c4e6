#include "analysis/depgraph.h"

#include <algorithm>

namespace gallium::analysis {

const char* DepKindName(DepKind kind) {
  switch (kind) {
    case DepKind::kData: return "data";
    case DepKind::kReverseData: return "reverse-data";
    case DepKind::kControl: return "control";
  }
  return "?";
}

DependencyGraph::DependencyGraph(const ir::Function& fn, const CfgInfo& cfg)
    : n_(fn.num_insts()),
      deps_of_(n_),
      users_of_(n_),
      sets_(n_) {
  // Collect instructions in a flat list and compute read/write sets.
  std::vector<const ir::Instruction*> insts(n_, nullptr);
  for (const ir::BasicBlock& bb : fn.blocks()) {
    if (!cfg.BlockReachable(bb.id)) continue;
    for (const ir::Instruction& inst : bb.insts) {
      insts[inst.id] = &inst;
      sets_[inst.id] = ComputeReadWriteSets(fn, inst);
    }
  }

  // Data and reverse-data dependencies over all "can happen after" pairs.
  for (int s1 = 0; s1 < n_; ++s1) {
    if (insts[s1] == nullptr) continue;
    for (int s2 = 0; s2 < n_; ++s2) {
      if (insts[s2] == nullptr || s1 == s2) continue;
      if (!cfg.CanHappenAfter(s2, s1)) continue;
      const ReadWriteSets& a = sets_[s1];
      const ReadWriteSets& b = sets_[s2];
      // Data: S1 writes what S2 reads or writes.
      if (Intersects(a.writes, b.reads) || Intersects(a.writes, b.writes)) {
        AddEdge(s1, s2, DepKind::kData);
      } else if (Intersects(a.reads, b.writes)) {
        // Reverse data: S1 reads what S2 modifies (WAR).
        AddEdge(s1, s2, DepKind::kReverseData);
      }
    }
  }

  // Control dependencies: every instruction in a control-dependent block
  // depends on the controlling branch instruction.
  for (const ir::BasicBlock& bb : fn.blocks()) {
    if (!cfg.BlockReachable(bb.id)) continue;
    for (ir::InstId branch : cfg.ControllingBranches(bb.id)) {
      for (const ir::Instruction& inst : bb.insts) {
        if (inst.id != branch) AddEdge(branch, inst.id, DepKind::kControl);
      }
    }
  }

  // Self edges for loop statements: a statement inside a cycle can happen
  // after itself; if it conflicts with itself (any write) it depends on
  // itself (the paper's rule-5 precondition).
  for (int s = 0; s < n_; ++s) {
    if (insts[s] == nullptr) continue;
    if (!cfg.CanHappenAfter(s, s)) continue;
    const ReadWriteSets& rw = sets_[s];
    if (!rw.writes.empty() || insts[s]->op == ir::Opcode::kBranch) {
      AddEdge(s, s, DepKind::kData);
    }
  }

  closure_ = BitMatrix(n_);
  for (const DepEdge& e : edges_) closure_.Set(e.from, e.to);
  closure_.TransitiveClosure();
  ComputeDistances();
}

void DependencyGraph::AddEdge(ir::InstId from, ir::InstId to, DepKind kind) {
  // Dedup: only the first kind for a pair is recorded (kind is diagnostic).
  auto& deps = deps_of_[to];
  if (std::find(deps.begin(), deps.end(), from) != deps.end()) return;
  deps.push_back(from);
  users_of_[from].push_back(to);
  edges_.push_back(DepEdge{from, to, kind});
}

bool DependencyGraph::DependsOn(ir::InstId s2, ir::InstId s1) const {
  const auto& deps = deps_of_[s2];
  return std::find(deps.begin(), deps.end(), s1) != deps.end();
}

void DependencyGraph::ComputeDistances() {
  // Statements in dependency cycles (self-reachable) are pinned at
  // kUnbounded. The rest form a DAG: one Kahn pass orders it, and longest
  // chains follow forward (from entry) and backward (to exit) along it.
  dist_entry_.assign(n_, 0);
  dist_exit_.assign(n_, 0);
  for (int s = 0; s < n_; ++s) {
    if (closure_.Test(s, s)) dist_entry_[s] = dist_exit_[s] = kUnbounded;
  }
  auto bounded = [&](ir::InstId s) { return dist_entry_[s] != kUnbounded; };
  std::vector<int> in_degree(n_, 0);
  for (const DepEdge& e : edges_) {
    if (bounded(e.from) && bounded(e.to)) ++in_degree[e.to];
  }
  std::vector<ir::InstId> order;
  for (int s = 0; s < n_; ++s) {
    if (bounded(s) && in_degree[s] == 0) order.push_back(s);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    const ir::InstId s = order[i];
    for (ir::InstId t : users_of_[s]) {
      if (!bounded(t)) continue;
      dist_entry_[t] = std::max(dist_entry_[t], dist_entry_[s] + 1);
      if (--in_degree[t] == 0) order.push_back(t);
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    int& d = dist_exit_[*it];
    for (ir::InstId t : users_of_[*it]) {
      if (bounded(t)) d = std::max(d, dist_exit_[t] + 1);
    }
  }
}

}  // namespace gallium::analysis
