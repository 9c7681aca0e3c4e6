// The word-bitset transitive closure (analysis::BitMatrix) and the analyses
// built on it, each checked against a straightforward reference: depth-first
// search for reachability and repeated edge relaxation for the longest
// dependency chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "analysis/bit_matrix.h"
#include "analysis/cfg.h"
#include "analysis/depgraph.h"
#include "frontend/middlebox_builder.h"
#include "mbox/middleboxes.h"
#include "program_generator.h"
#include "util/rng.h"

namespace gallium::analysis {
namespace {

using Adjacency = std::vector<std::vector<int>>;

// reach[i][j]: a path of length >= 1 leads from i to j.
std::vector<std::vector<bool>> ReferenceReach(const Adjacency& succs) {
  const int n = static_cast<int>(succs.size());
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (int i = 0; i < n; ++i) {
    std::vector<int> stack(succs[i].begin(), succs[i].end());
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      if (reach[i][v]) continue;
      reach[i][v] = true;
      stack.insert(stack.end(), succs[v].begin(), succs[v].end());
    }
  }
  return reach;
}

TEST(BitMatrix, ClosureMatchesDfsOnRandomGraphs) {
  Rng rng(20201110);
  for (const int n : {1, 63, 64, 65, 200}) {
    // Sparse graphs leave most pairs unreachable; denser ones close cycles.
    for (const double density : {0.0, 1.0 / n, 2.0 / n, 0.05}) {
      Adjacency succs(n);
      BitMatrix m(n);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          if (!rng.NextBool(density)) continue;
          succs[i].push_back(j);
          m.Set(i, j);
        }
      }
      // A few explicit self loops.
      for (int k = 0; k < 3; ++k) {
        const int v = static_cast<int>(rng.NextBounded(n));
        succs[v].push_back(v);
        m.Set(v, v);
      }
      m.TransitiveClosure();
      const auto reach = ReferenceReach(succs);
      for (int i = 0; i < n; ++i) {
        std::vector<int> row;
        m.ForEachInRow(i, [&](int j) { row.push_back(j); });
        std::vector<int> expected;
        for (int j = 0; j < n; ++j) {
          ASSERT_EQ(m.Test(i, j), reach[i][j])
              << "n=" << n << " density=" << density << " (" << i << ", "
              << j << ")";
          if (reach[i][j]) expected.push_back(j);
        }
        ASSERT_EQ(row, expected) << "n=" << n << " row " << i;
      }
    }
  }
}

// A seeded program with nested while loops and branches over globals, so the
// CFG has cycles and the dependency graph has self-dependent statements.
Result<mbox::MiddleboxSpec> LoopyProgram(uint64_t seed) {
  Rng rng(seed);
  frontend::MiddleboxBuilder mb("loopy");
  auto g0 = mb.DeclareGlobal("g0", ir::Width::kU32, 0);
  auto g1 = mb.DeclareGlobal("g1", ir::Width::kU32, 0);
  auto& b = mb.b();
  const ir::Reg x = b.HeaderRead(ir::HeaderField::kIpTtl, "x");
  std::function<void(int)> body = [&](int depth) {
    const int statements = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < statements; ++i) {
      auto& g = rng.NextBool(0.5) ? g0 : g1;
      const ir::Reg v = g.Read();
      const int pick = static_cast<int>(rng.NextBounded(depth < 3 ? 4 : 2));
      if (pick == 0) {
        g.Write(ir::R(b.Alu(ir::AluOp::kAdd, ir::R(v), ir::R(x))));
      } else if (pick == 1) {
        b.HeaderWrite(ir::HeaderField::kIpDst, ir::R(v));
      } else if (pick == 2) {
        mb.While(
            [&] {
              return ir::R(b.Alu(ir::AluOp::kLt, ir::R(g.Read()),
                                 ir::Imm(10), "cont"));
            },
            [&] { body(depth + 1); });
      } else {
        mb.If(ir::R(b.Alu(ir::AluOp::kLt, ir::R(v), ir::R(x), "c")),
              [&] { body(depth + 1); });
      }
    }
  };
  body(0);
  b.Send(ir::Imm(1));
  mbox::MiddleboxSpec spec;
  spec.name = "loopy";
  GALLIUM_ASSIGN_OR_RETURN(spec.fn, std::move(mb).Finish());
  return spec;
}

std::vector<mbox::MiddleboxSpec> Programs() {
  std::vector<mbox::MiddleboxSpec> programs = mbox::BuildAllPaperMiddleboxes();
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    auto spec = testing::ProgramGenerator(seed).Generate();
    if (spec.ok()) programs.push_back(std::move(spec).value());
  }
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    auto spec = LoopyProgram(seed);
    if (spec.ok()) programs.push_back(std::move(spec).value());
  }
  return programs;
}

// The dependency distances as longest paths by repeated relaxation over the
// edges between statements outside dependency cycles.
void ReferenceDistances(const DependencyGraph& deps,
                        const std::vector<std::vector<bool>>& reach,
                        std::vector<int>* from_entry,
                        std::vector<int>* to_exit) {
  const int n = deps.num_insts();
  const int inf = DependencyGraph::kUnbounded;
  from_entry->assign(n, 0);
  to_exit->assign(n, 0);
  for (int s = 0; s < n; ++s) {
    if (reach[s][s]) (*from_entry)[s] = (*to_exit)[s] = inf;
  }
  for (int round = 0; round < n; ++round) {
    for (const DepEdge& e : deps.edges()) {
      if ((*from_entry)[e.from] == inf || (*from_entry)[e.to] == inf) continue;
      (*from_entry)[e.to] =
          std::max((*from_entry)[e.to], (*from_entry)[e.from] + 1);
      (*to_exit)[e.from] = std::max((*to_exit)[e.from], (*to_exit)[e.to] + 1);
    }
  }
}

TEST(CfgClosure, MatchesReferenceOnPrograms) {
  int loop_programs = 0;
  for (const mbox::MiddleboxSpec& spec : Programs()) {
    const ir::Function& fn = *spec.fn;
    const CfgInfo cfg(fn);
    Adjacency succs(fn.num_blocks());
    for (int b = 0; b < fn.num_blocks(); ++b) succs[b] = cfg.successors(b);
    const auto reach = ReferenceReach(succs);
    bool has_loop = false;
    for (int a = 0; a < fn.num_blocks(); ++a) {
      for (int b = 0; b < fn.num_blocks(); ++b) {
        ASSERT_EQ(cfg.BlockCanReach(a, b), reach[a][b])
            << spec.name << ": blocks " << a << " -> " << b;
      }
      has_loop = has_loop || reach[a][a];
    }
    loop_programs += has_loop;
    for (const ir::BasicBlock& bb : fn.blocks()) {
      for (const ir::Instruction& inst : bb.insts) {
        EXPECT_EQ(cfg.InLoop(inst.id), reach[bb.id][bb.id])
            << spec.name << ": inst " << inst.id;
      }
    }
  }
  EXPECT_GT(loop_programs, 10);
}

// Whether `from` reaches a returning block (the virtual exit) without
// passing through `avoid`.
bool ReachesExitAvoiding(const CfgInfo& cfg, int num_blocks, int from,
                         int avoid) {
  std::vector<bool> seen(num_blocks, false);
  std::vector<int> stack{from};
  while (!stack.empty()) {
    const int b = stack.back();
    stack.pop_back();
    if (b == avoid || seen[b]) continue;
    seen[b] = true;
    if (cfg.successors(b).empty()) return true;
    for (int s : cfg.successors(b)) stack.push_back(s);
  }
  return false;
}

TEST(CfgClosure, PostDominatorsMatchReference) {
  for (const mbox::MiddleboxSpec& spec : Programs()) {
    const ir::Function& fn = *spec.fn;
    const int n = fn.num_blocks();
    const CfgInfo cfg(fn);
    // spdom[b]: the blocks other than b on every path from b to the exit.
    std::vector<std::vector<int>> spdom(n);
    for (int b = 0; b < n; ++b) {
      for (int p = 0; p < n; ++p) {
        if (p != b && !ReachesExitAvoiding(cfg, n, b, p)) spdom[b].push_back(p);
      }
    }
    for (int b = 0; b < n; ++b) {
      if (!cfg.BlockReachable(b)) continue;
      ASSERT_TRUE(ReachesExitAvoiding(cfg, n, b, -1)) << spec.name;
      // The immediate post-dominator is the strict one every other strict
      // post-dominator also post-dominates; -1 stands for the exit.
      int expected = -1;
      for (int p : spdom[b]) {
        const auto& above = spdom[p];
        bool closest = true;
        for (int q : spdom[b]) {
          closest = closest && (q == p || std::count(above.begin(),
                                                     above.end(), q) > 0);
        }
        if (closest) expected = p;
      }
      EXPECT_EQ(cfg.ImmediatePostDominator(b), expected)
          << spec.name << ": block " << b;
    }
  }
}

TEST(DepGraphClosure, MatchesReferenceOnPrograms) {
  int self_dependent = 0;
  for (const mbox::MiddleboxSpec& spec : Programs()) {
    const ir::Function& fn = *spec.fn;
    const DependencyGraph deps(fn);
    const int n = deps.num_insts();
    Adjacency users(n);
    for (int s = 0; s < n; ++s) users[s] = deps.UsersOf(s);
    const auto reach = ReferenceReach(users);
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        ASSERT_EQ(deps.TransitivelyDependsOn(b, a), reach[a][b])
            << spec.name << ": " << a << " ⇝* " << b;
      }
      ASSERT_EQ(deps.SelfDependent(a), reach[a][a]) << spec.name << ": " << a;
      self_dependent += reach[a][a];
    }
    std::vector<int> from_entry, to_exit;
    ReferenceDistances(deps, reach, &from_entry, &to_exit);
    EXPECT_EQ(deps.DistanceFromEntry(), from_entry) << spec.name;
    EXPECT_EQ(deps.DistanceToExit(), to_exit) << spec.name;
  }
  EXPECT_GT(self_dependent, 0);
}

}  // namespace
}  // namespace gallium::analysis
