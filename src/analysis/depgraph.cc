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
    : n_(fn.num_insts()), deps_of_(n_), users_of_(n_) {
  // Each location gets a dense id: registers, header fields, the payload,
  // maps, vectors, globals, time and packet I/O (Location::Kind order), at
  // fixed offsets.
  const int payload = fn.num_regs() + ir::kNumHeaderFields;
  const int maps = payload + 1;
  const int vectors = maps + static_cast<int>(fn.maps().size());
  const int globals = vectors + static_cast<int>(fn.vectors().size());
  const int time = globals + static_cast<int>(fn.globals().size());
  const int offset[] = {0,       fn.num_regs(), payload, maps, vectors,
                        globals, time,          time + 1};
  auto id = [&](const Location& loc) {
    return offset[static_cast<int>(loc.kind)] + static_cast<int>(loc.index);
  };

  // Read/write sets of the reachable instructions, and each location's
  // readers and writers.
  std::vector<const ir::Instruction*> insts(n_, nullptr);
  std::vector<ReadWriteSets> sets(n_);
  for (const ir::BasicBlock& bb : fn.blocks()) {
    if (!cfg.BlockReachable(bb.id)) continue;
    for (const ir::Instruction& inst : bb.insts) {
      insts[inst.id] = &inst;
      sets[inst.id] = ComputeReadWriteSets(fn, inst);
    }
  }
  std::vector<std::vector<ir::InstId>> readers(time + 2);
  std::vector<std::vector<ir::InstId>> writers(readers.size());
  for (ir::InstId s = 0; s < n_; ++s) {
    for (const Location& loc : sets[s].reads) readers[id(loc)].push_back(s);
    for (const Location& loc : sets[s].writes) writers[id(loc)].push_back(s);
  }

  // Data and reverse-data dependencies: only pairs that share a location
  // one of them writes can conflict. Sorted by (s1, s2), the pairs are added
  // in the order an all-pairs scan would add them.
  std::vector<uint64_t> pairs;
  auto pair = [&](ir::InstId s1, ir::InstId s2) {
    if (s1 != s2) pairs.push_back(uint64_t(s1) << 32 | uint32_t(s2));
  };
  for (size_t loc = 0; loc < writers.size(); ++loc) {
    for (ir::InstId w : writers[loc]) {
      for (ir::InstId r : readers[loc]) {
        pair(w, r);
        pair(r, w);
      }
      for (ir::InstId other : writers[loc]) pair(w, other);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (const uint64_t p : pairs) {
    const auto s1 = static_cast<ir::InstId>(p >> 32);
    const auto s2 = static_cast<ir::InstId>(p & 0xffffffffu);
    if (!cfg.CanHappenAfter(s2, s1)) continue;
    const ReadWriteSets& a = sets[s1];
    const ReadWriteSets& b = sets[s2];
    // Data: S1 writes what S2 reads or writes.
    if (Intersects(a.writes, b.reads) || Intersects(a.writes, b.writes)) {
      AddEdge(s1, s2, DepKind::kData);
    } else if (Intersects(a.reads, b.writes)) {
      // Reverse data: S1 reads what S2 modifies (WAR).
      AddEdge(s1, s2, DepKind::kReverseData);
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
    if (insts[s] == nullptr || !cfg.CanHappenAfter(s, s)) continue;
    if (!sets[s].writes.empty() || insts[s]->op == ir::Opcode::kBranch) {
      AddEdge(s, s, DepKind::kData);
    }
  }

  closure_ = BitMatrix::Closure(users_of_);
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
