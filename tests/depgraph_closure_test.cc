// The word-bitset transitive closure (analysis::BitMatrix) and the analyses
// built on it, each checked against a straightforward reference: depth-first
// search for reachability and repeated edge relaxation for the longest
// dependency chains. The sparse dependency builder and the worklist label
// fixpoint are checked against copies of the all-pairs builder and the
// sweep they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "analysis/bit_matrix.h"
#include "analysis/cfg.h"
#include "analysis/depgraph.h"
#include "frontend/middlebox_builder.h"
#include "ir/builder.h"
#include "mbox/middleboxes.h"
#include "partition/partitioner.h"
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

void ExpectClosureMatchesDfs(const Adjacency& succs, const std::string& what) {
  const int n = static_cast<int>(succs.size());
  const BitMatrix m = BitMatrix::Closure(succs);
  const auto reach = ReferenceReach(succs);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(m.Test(i, j), reach[i][j])
          << what << " (" << i << ", " << j << ")";
    }
  }
}

TEST(BitMatrix, ClosureMatchesDfsOnRandomGraphs) {
  Rng rng(20201110);
  for (const int n : {0, 1, 63, 64, 65, 200}) {
    // Sparse graphs leave most pairs unreachable; denser ones close cycles.
    for (const double density : {0.0, 1.0 / n, 2.0 / n, 0.05}) {
      Adjacency succs(n);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          if (rng.NextBool(density)) succs[i].push_back(j);
        }
      }
      // A few explicit self loops.
      for (int k = 0; k < 3 && n > 0; ++k) {
        const int v = static_cast<int>(rng.NextBounded(n));
        succs[v].push_back(v);
      }
      ExpectClosureMatchesDfs(succs, "n=" + std::to_string(n) +
                                         " density=" + std::to_string(density));
    }
  }
}

TEST(BitMatrix, ClosureMatchesDfsOnCyclesAndChains) {
  const int n = 150;
  Adjacency ring(n), backward(n), nested(n), selfish(n);
  for (int i = 0; i < n; ++i) {
    ring[i].push_back((i + 1) % n);            // one component of size n
    if (i > 0) backward[i].push_back(i - 1);   // a chain against id order
    if (i + 1 < n) nested[i].push_back(i + 1);
    selfish[i].push_back(i);                   // self loops only
    if (i % 2 == 1) selfish[i].push_back(i - 1);
  }
  // Loops nested inside each other: back edges from 10k + 9 to 10k and
  // from 50k + 49 to 50k.
  for (int i = 9; i < n; i += 10) nested[i].push_back(i - 9);
  for (int i = 49; i < n; i += 50) nested[i].push_back(i - 49);
  ExpectClosureMatchesDfs(ring, "ring");
  ExpectClosureMatchesDfs(backward, "backward chain");
  ExpectClosureMatchesDfs(nested, "nested loops");
  ExpectClosureMatchesDfs(selfish, "self loops");
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

// A straight-line chain of ALU statements with a map lookup every 16, in the
// style of BM_PartitionScaling and perfbench's compile set.
Result<mbox::MiddleboxSpec> Chain(int length) {
  frontend::MiddleboxBuilder mb("chain" + std::to_string(length));
  auto map = mb.DeclareMap("m", {ir::Width::kU32}, {ir::Width::kU32}, 4096);
  auto& b = mb.b();
  ir::Reg v = b.HeaderRead(ir::HeaderField::kIpSrc, "v");
  for (int i = 0; i < length; ++i) {
    v = b.Alu(i % 7 == 6 ? ir::AluOp::kMod : ir::AluOp::kAdd, ir::R(v),
              ir::Imm(i + 1), ir::Width::kU32, "v" + std::to_string(i));
    if (i % 16 == 15) v = map.Find({ir::R(v)}).values[0];
  }
  b.HeaderWrite(ir::HeaderField::kIpDst, ir::R(v));
  b.Send(ir::Imm(1));
  mbox::MiddleboxSpec spec;
  spec.name = "chain" + std::to_string(length);
  GALLIUM_ASSIGN_OR_RETURN(spec.fn, std::move(mb).Finish());
  return spec;
}

std::vector<mbox::MiddleboxSpec> Programs() {
  std::vector<mbox::MiddleboxSpec> programs = mbox::BuildAllPaperMiddleboxes();
  auto router = mbox::BuildIpRouter({{0, 0, 1, 0x020000000001ull},
                                     {10u << 24, 8, 2, 0x020000000002ull},
                                     {(10u << 24) | (1u << 16), 16, 3,
                                      0x020000000003ull}});
  if (router.ok()) programs.push_back(std::move(router).value());
  for (const int length : {64, 128, 256, 512, 1024}) {
    auto spec = Chain(length);
    if (spec.ok()) programs.push_back(std::move(spec).value());
  }
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
void ReferenceDistances(const std::vector<DepEdge>& edges,
                        const std::vector<std::vector<bool>>& reach,
                        std::vector<int>* from_entry,
                        std::vector<int>* to_exit) {
  const int n = static_cast<int>(reach.size());
  const int inf = DependencyGraph::kUnbounded;
  from_entry->assign(n, 0);
  to_exit->assign(n, 0);
  for (int s = 0; s < n; ++s) {
    if (reach[s][s]) (*from_entry)[s] = (*to_exit)[s] = inf;
  }
  for (int round = 0; round < n; ++round) {
    for (const DepEdge& e : edges) {
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
    ReferenceDistances(deps.edges(), reach, &from_entry, &to_exit);
    EXPECT_EQ(deps.DistanceFromEntry(), from_entry) << spec.name;
    EXPECT_EQ(deps.DistanceToExit(), to_exit) << spec.name;
  }
  EXPECT_GT(self_dependent, 0);
}

// The all-pairs dependency builder the sparse one replaced: every ordered
// pair of reachable statements is tested with CanHappenAfter and the
// read/write set intersections, and the closure is Warshall's algorithm.
struct AllPairsGraph {
  std::vector<DepEdge> edges;
  std::vector<std::vector<ir::InstId>> deps_of;
  std::vector<std::vector<ir::InstId>> users_of;
  BitMatrix closure;

  AllPairsGraph(const ir::Function& fn, const CfgInfo& cfg)
      : deps_of(fn.num_insts()), users_of(fn.num_insts()),
        closure(fn.num_insts()) {
    const int n = fn.num_insts();
    std::vector<const ir::Instruction*> insts(n, nullptr);
    std::vector<ReadWriteSets> sets(n);
    for (const ir::BasicBlock& bb : fn.blocks()) {
      if (!cfg.BlockReachable(bb.id)) continue;
      for (const ir::Instruction& inst : bb.insts) {
        insts[inst.id] = &inst;
        sets[inst.id] = ComputeReadWriteSets(fn, inst);
      }
    }
    for (int s1 = 0; s1 < n; ++s1) {
      for (int s2 = 0; s2 < n; ++s2) {
        if (!insts[s1] || !insts[s2] || s1 == s2) continue;
        if (!cfg.CanHappenAfter(s2, s1)) continue;
        const ReadWriteSets& a = sets[s1];
        const ReadWriteSets& b = sets[s2];
        if (Intersects(a.writes, b.reads) || Intersects(a.writes, b.writes)) {
          Add(s1, s2, DepKind::kData);
        } else if (Intersects(a.reads, b.writes)) {
          Add(s1, s2, DepKind::kReverseData);
        }
      }
    }
    for (const ir::BasicBlock& bb : fn.blocks()) {
      if (!cfg.BlockReachable(bb.id)) continue;
      for (ir::InstId branch : cfg.ControllingBranches(bb.id)) {
        for (const ir::Instruction& inst : bb.insts) {
          if (inst.id != branch) Add(branch, inst.id, DepKind::kControl);
        }
      }
    }
    for (int s = 0; s < n; ++s) {
      if (!insts[s] || !cfg.CanHappenAfter(s, s)) continue;
      if (!sets[s].writes.empty() || insts[s]->op == ir::Opcode::kBranch) {
        Add(s, s, DepKind::kData);
      }
    }
    for (const DepEdge& e : edges) closure.Set(e.from, e.to);
    for (int k = 0; k < n; ++k) {
      for (int i = 0; i < n; ++i) {
        if (!closure.Test(i, k)) continue;
        for (int w = 0; w < closure.words_per_row(); ++w) {
          closure.Row(i)[w] |= closure.Row(k)[w];
        }
      }
    }
  }

  void Add(ir::InstId from, ir::InstId to, DepKind kind) {
    auto& deps = deps_of[to];
    if (std::find(deps.begin(), deps.end(), from) != deps.end()) return;
    deps.push_back(from);
    users_of[from].push_back(to);
    edges.push_back(DepEdge{from, to, kind});
  }
};

TEST(DepGraphSparse, EdgesMatchAllPairsBuilder) {
  int edges = 0;
  for (const mbox::MiddleboxSpec& spec : Programs()) {
    const ir::Function& fn = *spec.fn;
    const CfgInfo cfg(fn);
    const DependencyGraph deps(fn, cfg);
    const AllPairsGraph ref(fn, cfg);
    const int n = deps.num_insts();
    ASSERT_EQ(deps.edges().size(), ref.edges.size()) << spec.name;
    for (size_t i = 0; i < ref.edges.size(); ++i) {
      const DepEdge& got = deps.edges()[i];
      const DepEdge& want = ref.edges[i];
      ASSERT_TRUE(got.from == want.from && got.to == want.to &&
                  got.kind == want.kind)
          << spec.name << ": edge " << i << " is " << got.from << " -> "
          << got.to << " (" << DepKindName(got.kind) << "), want "
          << want.from << " -> " << want.to << " (" << DepKindName(want.kind)
          << ")";
    }
    edges += static_cast<int>(ref.edges.size());
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n));
    for (int s = 0; s < n; ++s) {
      ASSERT_EQ(deps.DepsOf(s), ref.deps_of[s]) << spec.name << ": " << s;
      ASSERT_EQ(deps.UsersOf(s), ref.users_of[s]) << spec.name << ": " << s;
      const uint64_t* got = deps.Closure().Row(s);
      const uint64_t* want = ref.closure.Row(s);
      ASSERT_TRUE(std::equal(got, got + ref.closure.words_per_row(), want))
          << spec.name << ": closure row " << s;
      for (int t = 0; t < n; ++t) reach[s][t] = ref.closure.Test(s, t);
    }
    std::vector<int> from_entry, to_exit;
    ReferenceDistances(ref.edges, reach, &from_entry, &to_exit);
    EXPECT_EQ(deps.DistanceFromEntry(), from_entry) << spec.name;
    EXPECT_EQ(deps.DistanceToExit(), to_exit) << spec.name;
  }
  EXPECT_GT(edges, 0);
}

using partition::LabelSet;

std::vector<const ir::Instruction*> ReachableInsts(const ir::Function& fn,
                                                   const CfgInfo& cfg) {
  std::vector<const ir::Instruction*> insts(fn.num_insts(), nullptr);
  for (const ir::BasicBlock& bb : fn.blocks()) {
    if (!cfg.BlockReachable(bb.id)) continue;
    for (const ir::Instruction& inst : bb.insts) insts[inst.id] = &inst;
  }
  return insts;
}

// Header reads with no same-field header write that can happen after them.
std::vector<bool> Replicable(const ir::Function& fn, const CfgInfo& cfg) {
  const auto insts = ReachableInsts(fn, cfg);
  std::vector<bool> replicable(fn.num_insts(), false);
  for (int r = 0; r < fn.num_insts(); ++r) {
    if (!insts[r] || insts[r]->op != ir::Opcode::kHeaderRead) continue;
    if (insts[r]->field == ir::HeaderField::kIngressPort) continue;
    replicable[r] = true;
    for (int w = 0; w < fn.num_insts(); ++w) {
      if (insts[w] && insts[w]->op == ir::Opcode::kHeaderWrite &&
          insts[w]->field == insts[r]->field && cfg.CanHappenAfter(w, r)) {
        replicable[r] = false;
      }
    }
  }
  return replicable;
}

// The sweep the worklist replaced: rules 1-5 over every pair of the
// closure, then rule 6 by rescanning every def of every branch condition,
// repeated until a sweep removes nothing.
void SweepFixpoint(const ir::Function& fn, const CfgInfo& cfg,
                   const DependencyGraph& deps,
                   const std::vector<bool>& replicable,
                   std::vector<LabelSet>& labels) {
  const int n = fn.num_insts();
  const auto insts = ReachableInsts(fn, cfg);
  std::vector<ir::StateRef> state(n);
  std::vector<bool> has_state(n, false);
  for (int s = 0; s < n; ++s) {
    if (insts[s]) {
      has_state[s] = ir::Function::InstStateRef(*insts[s], &state[s]);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    auto clear_pre = [&](int s) {
      changed = changed || labels[s].pre;
      labels[s].pre = false;
    };
    auto clear_post = [&](int s) {
      changed = changed || labels[s].post;
      labels[s].post = false;
    };
    for (int s1 = 0; s1 < n; ++s1) {
      if (!insts[s1]) continue;
      if (deps.SelfDependent(s1)) {
        clear_pre(s1);
        clear_post(s1);
      }
      for (int s2 = 0; s2 < n; ++s2) {
        if (!deps.TransitivelyDependsOn(s2, s1) || !insts[s2] || s1 == s2) {
          continue;
        }
        if (!labels[s2].post) clear_post(s1);
        if (!labels[s1].pre) clear_pre(s2);
        if (has_state[s1] && has_state[s2] && state[s1] == state[s2]) {
          if (labels[s1].pre) clear_pre(s2);
          if (labels[s2].post) clear_post(s1);
        }
      }
    }
    for (const ir::BasicBlock& bb : fn.blocks()) {
      if (bb.insts.empty()) continue;
      const ir::Instruction& term = bb.insts.back();
      if (term.op != ir::Opcode::kBranch || !insts[term.id]) continue;
      const ir::Value& cond = term.args[0];
      bool pre_visible = cond.is_imm();
      if (!pre_visible) {
        bool has_def = false;
        pre_visible = true;
        for (int d = 0; d < n; ++d) {
          if (!insts[d]) continue;
          for (ir::Reg dst : insts[d]->dsts) {
            if (dst != cond.reg) continue;
            has_def = true;
            if (!labels[d].pre && !replicable[d]) pre_visible = false;
          }
        }
        pre_visible = pre_visible && has_def;
      }
      if (pre_visible) continue;
      std::vector<bool> seen(fn.num_blocks(), false);
      std::vector<int> stack = {term.target_true, term.target_false};
      while (!stack.empty()) {
        const int blk = stack.back();
        stack.pop_back();
        if (seen[blk]) continue;
        seen[blk] = true;
        for (const ir::Instruction& inst : fn.block(blk).insts) {
          if (insts[inst.id] && !inst.IsTerminator()) clear_pre(inst.id);
        }
        for (int next : cfg.successors(blk)) stack.push_back(next);
      }
    }
  }
}

// The partitioner's starting labels: P4-expressible statements keep both
// switch labels, unreachable ones keep none.
std::vector<LabelSet> InitialLabels(const ir::Function& fn,
                                    const CfgInfo& cfg) {
  const auto insts = ReachableInsts(fn, cfg);
  std::vector<LabelSet> labels(fn.num_insts(), LabelSet{false, false});
  for (int s = 0; s < fn.num_insts(); ++s) {
    if (!insts[s]) continue;
    const bool supported = partition::StatementSupportedByP4(fn, *insts[s]);
    labels[s] = LabelSet{supported, supported};
  }
  return labels;
}

std::string Describe(const std::vector<LabelSet>& labels) {
  std::string text;
  for (const LabelSet& l : labels) {
    text += l.pre ? (l.post ? 'B' : 'p') : (l.post ? 'o' : '-');
  }
  return text;
}

TEST(LabelFixpoint, MatchesSweepOnProgramsAndRandomStarts) {
  Rng rng(4021);
  int removed = 0;
  for (const mbox::MiddleboxSpec& spec : Programs()) {
    const ir::Function& fn = *spec.fn;
    const CfgInfo cfg(fn);
    const DependencyGraph deps(fn, cfg);
    const std::vector<bool> replicable = Replicable(fn, cfg);
    const partition::LabelFixpoint fixpoint(fn, cfg, deps, replicable);
    const std::vector<LabelSet> init = InitialLabels(fn, cfg);
    // The starting labels, then random subsets of them such as the memory
    // and single-access constraints hand to the fixpoint.
    for (int trial = 0; trial <= 24; ++trial) {
      std::vector<LabelSet> start = init;
      const double drop = trial == 0 ? 0.0 : 0.02 * (1 + trial % 8);
      for (LabelSet& l : start) {
        l.pre = l.pre && !rng.NextBool(drop);
        l.post = l.post && !rng.NextBool(drop);
      }
      std::vector<LabelSet> want = start;
      SweepFixpoint(fn, cfg, deps, replicable, want);
      std::vector<LabelSet> got = start;
      fixpoint.Run(got);
      ASSERT_EQ(Describe(got), Describe(want))
          << spec.name << " trial " << trial << " from " << Describe(start);
      for (size_t s = 0; s < got.size(); ++s) {
        removed += (start[s].pre && !got[s].pre) +
                   (start[s].post && !got[s].post);
      }
      // A second run changes nothing: the result is a fixpoint.
      fixpoint.Run(got);
      ASSERT_EQ(Describe(got), Describe(want)) << spec.name;
    }
  }
  EXPECT_GT(removed, 0);
}

// A same-state pair s1 ⇝* s2 where s1 loses pre only after the sweep has
// visited the pair: s1 sits past a branch on a payload length (never
// pre-visible), so rule 6 clears it after the pair loop. Rule 3 cleared
// pre(s2) at the visit anyway, so both orders end in the same labels.
TEST(LabelFixpoint, SameStatePairWhoseFirstAccessLosesPreLate) {
  frontend::MiddleboxBuilder mb("late_pre");
  auto g = mb.DeclareGlobal("g", ir::Width::kU32, 0);
  auto& b = mb.b();
  const ir::Reg len = b.PayloadLen("len");
  mb.If(ir::R(len),
        [&] { b.HeaderWrite(ir::HeaderField::kIpTtl, ir::Imm(1)); });
  const ir::Reg v = g.Read("v");  // s1
  g.Write(ir::R(b.Alu(ir::AluOp::kAdd, ir::R(v), ir::Imm(1), "v1")));  // s2
  b.Send(ir::Imm(1));
  auto fn = std::move(mb).Finish();
  ASSERT_TRUE(fn.ok());
  const CfgInfo cfg(**fn);
  const DependencyGraph deps(**fn, cfg);
  const auto insts = ReachableInsts(**fn, cfg);
  int s1 = -1, s2 = -1;
  for (int s = 0; s < (*fn)->num_insts(); ++s) {
    if (!insts[s]) continue;
    if (insts[s]->op == ir::Opcode::kGlobalRead) s1 = s;
    if (insts[s]->op == ir::Opcode::kGlobalWrite) s2 = s;
  }
  ASSERT_GE(s1, 0);
  ASSERT_GE(s2, 0);
  ASSERT_TRUE(deps.TransitivelyDependsOn(s2, s1));
  const std::vector<bool> replicable = Replicable(**fn, cfg);
  std::vector<LabelSet> want = InitialLabels(**fn, cfg);
  ASSERT_TRUE(want[s1].pre && want[s2].pre);
  std::vector<LabelSet> got = want;
  SweepFixpoint(**fn, cfg, deps, replicable, want);
  partition::LabelFixpoint(**fn, cfg, deps, replicable).Run(got);
  EXPECT_EQ(Describe(got), Describe(want));
  EXPECT_FALSE(got[s1].pre) << "rule 6: s1 is past the payload branch";
  EXPECT_FALSE(got[s1].post) << "rule 4: s2 follows s1 on the same state";
  EXPECT_FALSE(got[s2].pre) << "rule 3: s1 precedes s2 on the same state";
  EXPECT_TRUE(got[s2].post);
}

// A same-state pair whose dependency order runs against id order: the
// write to g is built first (low id) in a block the read's block jumps to.
TEST(LabelFixpoint, SameStatePairAgainstIdOrder) {
  frontend::MiddleboxBuilder mb("reversed");
  auto g = mb.DeclareGlobal("g", ir::Width::kU32, 0);
  auto& b = mb.b();
  const int first = b.CreateBlock("first");
  const int late = b.CreateBlock("late");
  b.Jump(first);
  b.SetInsertPoint(late);
  g.Write(ir::Imm(7));
  b.SetInsertPoint(first);
  const ir::Reg v = g.Read("v");
  b.HeaderWrite(ir::HeaderField::kIpTtl, ir::R(v));
  b.Jump(late);
  b.SetInsertPoint(late);
  b.Send(ir::Imm(1));
  auto fn = std::move(mb).Finish();
  ASSERT_TRUE(fn.ok());
  const CfgInfo cfg(**fn);
  const DependencyGraph deps(**fn, cfg);
  const auto insts = ReachableInsts(**fn, cfg);
  int read = -1, write = -1;
  for (int s = 0; s < (*fn)->num_insts(); ++s) {
    if (!insts[s]) continue;
    if (insts[s]->op == ir::Opcode::kGlobalRead) read = s;
    if (insts[s]->op == ir::Opcode::kGlobalWrite) write = s;
  }
  ASSERT_LT(write, read);
  ASSERT_TRUE(deps.TransitivelyDependsOn(write, read));
  const std::vector<bool> replicable = Replicable(**fn, cfg);
  std::vector<LabelSet> want = InitialLabels(**fn, cfg);
  std::vector<LabelSet> got = want;
  SweepFixpoint(**fn, cfg, deps, replicable, want);
  partition::LabelFixpoint(**fn, cfg, deps, replicable).Run(got);
  EXPECT_EQ(Describe(got), Describe(want));
  EXPECT_FALSE(got[write].pre) << "rule 3";
  EXPECT_FALSE(got[read].post) << "rule 4";
  EXPECT_TRUE(got[read].pre);
  EXPECT_TRUE(got[write].post);
}

// Rule 6 for a branch whose condition has no reachable def: its only def
// sits in an unreachable block, so the pre pass can never evaluate it. (The
// IR verifier rejects such a function; the partitioner verifies after
// labelling, so the label rules still meet it.)
TEST(LabelFixpoint, BranchOnConditionWithoutReachableDef) {
  ir::Function fn("undefined_cond");
  const int entry = fn.AddBlock("entry");
  const int dead = fn.AddBlock("dead");
  const int then_block = fn.AddBlock("then");
  fn.set_entry_block(entry);
  ir::IrBuilder b(&fn);
  b.SetInsertPoint(dead);
  const ir::Reg c = b.HeaderRead(ir::HeaderField::kIpTtl, "c");
  b.Jump(entry);
  b.SetInsertPoint(entry);
  b.Branch(ir::R(c), then_block, then_block);
  b.SetInsertPoint(then_block);
  b.HeaderWrite(ir::HeaderField::kIpDst, ir::Imm(1));
  b.Send(ir::Imm(1));
  b.Ret();
  const CfgInfo cfg(fn);
  ASSERT_FALSE(cfg.BlockReachable(dead));
  const DependencyGraph deps(fn, cfg);
  const std::vector<bool> replicable = Replicable(fn, cfg);
  std::vector<LabelSet> want = InitialLabels(fn, cfg);
  std::vector<LabelSet> got = want;
  SweepFixpoint(fn, cfg, deps, replicable, want);
  partition::LabelFixpoint(fn, cfg, deps, replicable).Run(got);
  EXPECT_EQ(Describe(got), Describe(want));
  for (const ir::Instruction& inst : fn.block(then_block).insts) {
    if (!inst.IsTerminator()) {
      EXPECT_FALSE(got[inst.id].pre) << inst.id;
    }
  }
}

}  // namespace
}  // namespace gallium::analysis
