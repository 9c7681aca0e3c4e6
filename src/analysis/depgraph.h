// The statement dependency graph (§4.1, Fig. 3).
//
// Vertices are instructions; a directed edge S1 -> S2 records "S2 depends on
// S1" (the paper's S1 ⇝ S2). Edges are created, for every ordered pair where
// S2 can happen after S1, when one of the three conditions holds:
//  - data dependency: S1 writes state S2 reads or writes (RAW / WAW),
//  - reverse data dependency: S1 reads state S2 modifies (WAR),
//  - control dependency: S1 decides whether S2 executes.
// Only statements that touch a common location, one of them writing it,
// are tested, so the cost follows the dependencies, not the n^2 pairs.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/bit_matrix.h"
#include "analysis/cfg.h"
#include "analysis/locations.h"
#include "ir/function.h"

namespace gallium::analysis {

enum class DepKind : uint8_t { kData, kReverseData, kControl };

const char* DepKindName(DepKind kind);

struct DepEdge {
  ir::InstId from = ir::kInvalidInst;  // S1
  ir::InstId to = ir::kInvalidInst;    // S2 (depends on S1)
  DepKind kind = DepKind::kData;
};

class DependencyGraph {
 public:
  // Distance assigned to statements inside CFG cycles (they transitively
  // depend on themselves, so no finite chain length exists).
  static constexpr int kUnbounded = std::numeric_limits<int>::max() / 2;

  DependencyGraph(const ir::Function& fn, const CfgInfo& cfg);
  // Builds the CFG facts it needs internally.
  explicit DependencyGraph(const ir::Function& fn)
      : DependencyGraph(fn, CfgInfo(fn)) {}

  int num_insts() const { return n_; }
  const std::vector<DepEdge>& edges() const { return edges_; }

  // Direct dependency: S1 ⇝ s (s depends on S1).
  const std::vector<ir::InstId>& DepsOf(ir::InstId s) const {
    return deps_of_[s];
  }
  // Direct dependents: every s2 with s ⇝ s2.
  const std::vector<ir::InstId>& UsersOf(ir::InstId s) const {
    return users_of_[s];
  }

  bool DependsOn(ir::InstId s2, ir::InstId s1) const;  // direct edge
  // s1 ⇝* s2 through at least one edge.
  bool TransitivelyDependsOn(ir::InstId s2, ir::InstId s1) const {
    return closure_.Test(s1, s2);
  }
  // Loop membership (rule 5): s ⇝* s.
  bool SelfDependent(ir::InstId s) const { return closure_.Test(s, s); }
  // The whole ⇝* relation: (s1, s2) is set iff s1 ⇝* s2.
  const BitMatrix& Closure() const { return closure_; }

  // Length (edge count) of the longest dependency chain from any chain-start
  // to each instruction / from each instruction to any chain-end. Statements
  // in cycles get kUnbounded. These are the "dependency distance" metrics of
  // §4.2.2 used for the pipeline-depth constraint.
  const std::vector<int>& DistanceFromEntry() const { return dist_entry_; }
  const std::vector<int>& DistanceToExit() const { return dist_exit_; }

 private:
  void AddEdge(ir::InstId from, ir::InstId to, DepKind kind);
  void ComputeDistances();

  int n_ = 0;
  std::vector<DepEdge> edges_;
  std::vector<std::vector<ir::InstId>> deps_of_;
  std::vector<std::vector<ir::InstId>> users_of_;
  BitMatrix closure_;
  std::vector<int> dist_entry_;
  std::vector<int> dist_exit_;
};

}  // namespace gallium::analysis
