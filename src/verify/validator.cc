#include "verify/validator.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "analysis/cfg.h"
#include "net/headers.h"
#include "runtime/interpreter.h"

namespace gallium::verify {

namespace {

using ir::HeaderField;
using ir::InstId;
using ir::Opcode;
using ir::Reg;
using partition::Part;

std::string HeaderInputName(HeaderField f) {
  return std::string("hdr.") + ir::HeaderFieldName(f);
}

TermRef HeaderInput(HeaderField f) {
  return MakeInput(HeaderInputName(f), ir::BitWidth(ir::HeaderFieldWidth(f)));
}

std::string KeysRepr(const std::vector<TermRef>& keys) {
  std::string out = "{";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ",";
    out += keys[i]->repr;
  }
  return out + "}";
}

// --- Symbolic state oracle ---------------------------------------------------
//
// One oracle instance models the coherent state store of one run (write-back
// sync is modeled as immediate, matching the runtime's per-packet ordering).
// Unknown map reads return canonical symbols keyed by (object, scan stop
// point, key terms); two runs with aligned write histories therefore read
// identical symbols, and any dropped/reordered write desynchronizes the
// histories and surfaces as differing terms downstream.
class StateOracle {
 public:
  struct MapReadResult {
    TermRef found;
    std::vector<TermRef> values;
  };

  MapReadResult MapGet(const ir::Function& fn, ir::StateIndex m,
                       const std::vector<TermRef>& keys) {
    const auto& hist = map_writes_[m];
    size_t stop = 0;  // oldest write the scan could not see past (0 = base)
    bool resolved = false;
    MapReadResult result;
    for (size_t i = hist.size(); i-- > 0;) {
      const MapWrite& w = hist[i];
      if (KeysEqual(w.keys, keys)) {
        if (w.is_del) {
          result.found = MakeConst(0);
          for (size_t v = 0; v < fn.map(m).value_widths.size(); ++v) {
            result.values.push_back(MakeConst(0));
          }
        } else {
          result.found = MakeConst(1);
          result.values = w.values;
        }
        resolved = true;
        break;
      }
      if (!KeysDefinitelyDiffer(w.keys, keys)) {
        stop = i + 1;  // may-alias: cannot see past this write
        break;
      }
    }
    if (resolved) return result;
    const std::string base = "st.map" + std::to_string(m) + ".w" +
                             std::to_string(stop) + "." + KeysRepr(keys);
    result.found = MakeInput(base + ".found", 1, /*is_bool=*/true);
    const auto& widths = fn.map(m).value_widths;
    for (size_t v = 0; v < widths.size(); ++v) {
      // value = found * raw so a concretized miss carries zero values,
      // matching the interpreter's miss semantics.
      result.values.push_back(MakeAlu(
          ir::AluOp::kMul, result.found,
          MakeInput(base + ".v" + std::to_string(v), ir::BitWidth(widths[v]))));
    }
    return result;
  }

  void MapPut(ir::StateIndex m, std::vector<TermRef> keys,
              std::vector<TermRef> values) {
    map_writes_[m].push_back({false, std::move(keys), std::move(values)});
  }
  void MapDel(ir::StateIndex m, std::vector<TermRef> keys) {
    map_writes_[m].push_back({true, std::move(keys), {}});
  }

  TermRef GlobalRead(const ir::Function& fn, ir::StateIndex g) {
    auto it = global_cur_.find(g);
    if (it != global_cur_.end()) return it->second;
    TermRef t = MakeInput("st.g" + std::to_string(g) + ".init",
                          ir::BitWidth(fn.global(g).width));
    global_cur_[g] = t;
    return t;
  }
  void GlobalWrite(ir::StateIndex g, TermRef v) {
    global_cur_[g] = std::move(v);
  }

 private:
  struct MapWrite {
    bool is_del = false;
    std::vector<TermRef> keys;
    std::vector<TermRef> values;
  };

  static bool KeysEqual(const std::vector<TermRef>& a,
                        const std::vector<TermRef>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!SameTerm(a[i], b[i])) return false;
    }
    return true;
  }
  static bool KeysDefinitelyDiffer(const std::vector<TermRef>& a,
                                   const std::vector<TermRef>& b) {
    if (a.size() != b.size()) return true;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i]->is_const() && b[i]->is_const() && a[i]->value != b[i]->value) {
        return true;
      }
    }
    return false;
  }

  std::map<ir::StateIndex, std::vector<MapWrite>> map_writes_;
  std::map<ir::StateIndex, TermRef> global_cur_;
};

// --- Run traces --------------------------------------------------------------

struct VerdictEvent {
  bool is_send = false;
  TermRef port;  // null for drop
};

struct RunTrace {
  // Per state object (StateRef::ToString): rendered write ops in order.
  std::map<std::string, std::vector<std::string>> writes;
  std::vector<VerdictEvent> verdicts;
  std::map<HeaderField, TermRef> header;  // fields touched so far
  std::map<InstId, int> exec_count;       // non-terminator, non-replicable
};

// --- Shared instruction execution -------------------------------------------

struct ExecCtx {
  const ir::Function* fn = nullptr;
  std::map<Reg, TermRef>* regs = nullptr;
  StateOracle* oracle = nullptr;
  RunTrace* trace = nullptr;
  // Non-null in composed passes: undefined register reads are reported
  // (a correct plan ships every cross-partition value in a transfer spec).
  std::vector<std::string>* undef_uses = nullptr;
  const char* pass_name = "orig";
};

TermRef ValueOf(ExecCtx& ctx, const ir::Value& v) {
  if (v.is_imm()) return MakeConst(v.imm);
  const auto it = ctx.regs->find(v.reg);
  if (it != ctx.regs->end()) return it->second;
  if (ctx.undef_uses != nullptr) {
    ctx.undef_uses->push_back("register %" + ctx.fn->reg_name(v.reg) +
                              " read while undefined in " + ctx.pass_name +
                              " pass");
  }
  return MakeInput(std::string("undef.") + ctx.pass_name + ".r" +
                       std::to_string(v.reg),
                   ir::BitWidth(ctx.fn->reg_width(v.reg)));
}

void SetReg(ExecCtx& ctx, Reg r, TermRef t) {
  (*ctx.regs)[r] = Masked(std::move(t), ctx.fn->reg_width(r));
}

TermRef ReadHeaderTerm(ExecCtx& ctx, HeaderField f) {
  auto it = ctx.trace->header.find(f);
  if (it != ctx.trace->header.end()) return it->second;
  TermRef t = HeaderInput(f);
  ctx.trace->header[f] = t;
  return t;
}

std::string StateKeyOf(const ir::Instruction& inst) {
  ir::StateRef ref;
  ir::Function::InstStateRef(inst, &ref);
  return ref.ToString();
}

// Executes one non-control-flow instruction symbolically, mirroring
// runtime::Interpreter::Walk's effect semantics term-for-term.
void ExecInst(ExecCtx& ctx, const ir::Instruction& inst) {
  const ir::Function& fn = *ctx.fn;
  switch (inst.op) {
    case Opcode::kAssign:
      SetReg(ctx, inst.dsts[0], ValueOf(ctx, inst.args[0]));
      break;
    case Opcode::kAlu: {
      TermRef a = ValueOf(ctx, inst.args[0]);
      TermRef b = inst.args.size() > 1 ? ValueOf(ctx, inst.args[1]) : nullptr;
      SetReg(ctx, inst.dsts[0], MakeAlu(inst.alu, std::move(a), std::move(b)));
      break;
    }
    case Opcode::kHeaderRead:
      SetReg(ctx, inst.dsts[0], ReadHeaderTerm(ctx, inst.field));
      break;
    case Opcode::kHeaderWrite:
      ctx.trace->header[inst.field] =
          Masked(ValueOf(ctx, inst.args[0]),
                 ir::HeaderFieldWidth(inst.field));
      break;
    case Opcode::kPayloadMatch:
      SetReg(ctx, inst.dsts[0],
             MakeInput("payload.match." + std::to_string(inst.pattern), 1,
                       /*is_bool=*/true));
      break;
    case Opcode::kPayloadLen:
      SetReg(ctx, inst.dsts[0], MakeInput("payload.len", 32));
      break;
    case Opcode::kMapGet: {
      std::vector<TermRef> keys;
      for (const ir::Value& v : inst.args) keys.push_back(ValueOf(ctx, v));
      auto result = ctx.oracle->MapGet(fn, inst.state, keys);
      SetReg(ctx, inst.dsts[0], result.found);
      for (size_t d = 1; d < inst.dsts.size(); ++d) {
        SetReg(ctx, inst.dsts[d],
               d - 1 < result.values.size() ? result.values[d - 1]
                                            : MakeConst(0));
      }
      break;
    }
    case Opcode::kMapPut: {
      const size_t nkeys = fn.map(inst.state).key_widths.size();
      std::vector<TermRef> keys, values;
      for (size_t a = 0; a < nkeys; ++a) {
        keys.push_back(ValueOf(ctx, inst.args[a]));
      }
      for (size_t a = nkeys; a < inst.args.size(); ++a) {
        values.push_back(ValueOf(ctx, inst.args[a]));
      }
      ctx.trace->writes[StateKeyOf(inst)].push_back(
          "put " + KeysRepr(keys) + " = " + KeysRepr(values));
      ctx.oracle->MapPut(inst.state, std::move(keys), std::move(values));
      break;
    }
    case Opcode::kMapDel: {
      std::vector<TermRef> keys;
      for (const ir::Value& v : inst.args) keys.push_back(ValueOf(ctx, v));
      ctx.trace->writes[StateKeyOf(inst)].push_back("del " + KeysRepr(keys));
      ctx.oracle->MapDel(inst.state, std::move(keys));
      break;
    }
    case Opcode::kGlobalRead:
      SetReg(ctx, inst.dsts[0], ctx.oracle->GlobalRead(fn, inst.state));
      break;
    case Opcode::kGlobalWrite: {
      TermRef v = ValueOf(ctx, inst.args[0]);
      ctx.trace->writes[StateKeyOf(inst)].push_back("set = " + v->repr);
      ctx.oracle->GlobalWrite(inst.state, std::move(v));
      break;
    }
    case Opcode::kVectorGet: {
      TermRef idx = ValueOf(ctx, inst.args[0]);
      SetReg(ctx, inst.dsts[0],
             MakeInput("vec" + std::to_string(inst.state) + "[" + idx->repr +
                           "]",
                       ir::BitWidth(fn.vector(inst.state).elem_width)));
      break;
    }
    case Opcode::kVectorLen:
      SetReg(ctx, inst.dsts[0],
             MakeInput("vlen" + std::to_string(inst.state), 32));
      break;
    case Opcode::kTimeRead:
      SetReg(ctx, inst.dsts[0], MakeInput("time.ms", 64));
      break;
    case Opcode::kSend:
      ctx.trace->verdicts.push_back({true, ValueOf(ctx, inst.args[0])});
      break;
    case Opcode::kDrop:
      ctx.trace->verdicts.push_back({false, nullptr});
      break;
    case Opcode::kBranch:
    case Opcode::kJump:
    case Opcode::kReturn:
      break;  // control flow handled by the walkers
  }
}

// --- Original-program path enumeration ---------------------------------------

struct Decision {
  InstId inst = ir::kInvalidInst;
  bool taken = false;
  TermRef cond;
};

struct PathInfo {
  std::vector<Decision> decisions;
  std::vector<Constraint> constraints;
  RunTrace trace;
};

struct PathState {
  int block = 0;
  std::map<Reg, TermRef> regs;
  StateOracle oracle;
  RunTrace trace;
  std::vector<Decision> decisions;
  std::vector<Constraint> constraints;
  std::map<std::string, bool> decided;  // cond repr -> forced outcome
  int steps = 0;
};

// DFS over branch outcomes of the original function. Returns complete paths
// and sets *exhaustive=false when a budget was hit.
std::vector<PathInfo> EnumeratePaths(const ir::Function& fn,
                                     const PathLimits& limits,
                                     bool* exhaustive) {
  std::vector<PathInfo> paths;
  std::vector<PathState> work;
  {
    PathState init;
    init.block = fn.entry_block();
    work.push_back(std::move(init));
  }

  while (!work.empty()) {
    if (static_cast<int>(paths.size()) >= limits.max_paths) {
      *exhaustive = false;
      break;
    }
    PathState st = std::move(work.back());
    work.pop_back();

    bool done = false;
    bool truncated = false;
    while (!done && !truncated) {
      const ir::BasicBlock& bb = fn.block(st.block);
      for (size_t i = 0; i < bb.insts.size(); ++i) {
        const ir::Instruction& inst = bb.insts[i];
        if (++st.steps > limits.max_steps_per_path) {
          truncated = true;
          break;
        }
        if (inst.op == Opcode::kReturn) {
          done = true;
          break;
        }
        if (inst.op == Opcode::kJump) {
          st.block = inst.target_true;
          break;
        }
        if (inst.op == Opcode::kBranch) {
          ExecCtx ctx{&fn, &st.regs, &st.oracle, &st.trace, nullptr, "orig"};
          TermRef cond = ValueOf(ctx, inst.args[0]);
          bool taken;
          if (cond->is_const()) {
            taken = cond->value != 0;
          } else {
            const std::string key = Truthy(cond)->repr;
            const auto it = st.decided.find(key);
            if (it != st.decided.end()) {
              taken = it->second;  // same condition decided earlier: no fork
            } else {
              PathState other = st;  // fork the false arm
              other.decided[key] = false;
              other.constraints.push_back({Truthy(cond), false});
              other.decisions.push_back({inst.id, false, cond});
              other.block = inst.target_false;
              work.push_back(std::move(other));
              st.decided[key] = true;
              st.constraints.push_back({Truthy(cond), true});
              taken = true;
            }
          }
          st.decisions.push_back({inst.id, taken, cond});
          st.block = taken ? inst.target_true : inst.target_false;
          break;
        }
        ExecCtx ctx{&fn, &st.regs, &st.oracle, &st.trace, nullptr, "orig"};
        ExecInst(ctx, inst);
        st.trace.exec_count[inst.id] += 1;
      }
    }
    if (truncated) {
      *exhaustive = false;  // loop or path too long for the budget; skip
      continue;
    }
    PathInfo info;
    info.decisions = std::move(st.decisions);
    info.constraints = std::move(st.constraints);
    info.trace = std::move(st.trace);
    paths.push_back(std::move(info));
  }
  return paths;
}

// --- Composed-pipeline replay ------------------------------------------------

struct Problem {
  std::string kind;
  std::string detail;
  TermRef da, db;  // optional diverging term pair for the concretizer
};

// Replays one pass (pre / non-offloaded / post) of the composed pipeline
// along the original path. Which statements run and where the pass stops
// come from the plan's pass rule (partition/plan.h), the one the runtime's
// Interpreter::Walk executes; only the walk itself is symbolic here.
//
// `needs_server` (pre pass only) is ExecResult::needs_server: set when the
// rule owes the rest of the path to the server. When it stays false the
// runtime takes the switch-only fast path and never runs the server or post
// passes (offloaded_middlebox.cc), so the caller must skip them too.
void RunComposedPass(const ir::Function& fn,
                     const partition::PartitionPlan& plan, Part part,
                     const analysis::CfgInfo& cfg, const PathInfo& path,
                     StateOracle& oracle, RunTrace& trace,
                     const partition::TransferSpec* in_spec,
                     const std::map<Reg, TermRef>* in_values,
                     const partition::TransferSpec* out_spec,
                     std::map<Reg, TermRef>* out_values,
                     std::vector<Problem>& problems, const PathLimits& limits,
                     bool* exhaustive, bool* needs_server = nullptr) {
  const char* pass_name = partition::PartName(part);
  const partition::Pass pass = partition::PassOf(part);
  std::map<Reg, TermRef> regs;
  if (in_spec != nullptr && in_values != nullptr) {
    for (Reg r : in_spec->cond_regs) {
      const auto it = in_values->find(r);
      regs[r] = it != in_values->end() ? it->second : MakeConst(0);
    }
    for (Reg r : in_spec->var_regs) {
      const auto it = in_values->find(r);
      regs[r] = it != in_values->end() ? it->second : MakeConst(0);
    }
  }

  // Per-branch FIFO of the original path's decisions.
  std::map<InstId, std::deque<const Decision*>> queues;
  for (const Decision& d : path.decisions) queues[d.inst].push_back(&d);

  std::vector<std::string> undef_uses;
  ExecCtx ctx{&fn, &regs, &oracle, &trace, &undef_uses, pass_name};

  std::vector<bool> visited(fn.num_blocks(), false);
  // Regions reached by diverging from the recorded path (a branch whose
  // condition this pass cannot evaluate): per the interpreter's contract no
  // statement of this pass may live there. Stack of join blocks.
  std::vector<int> diverged_until;
  bool reported_diverged_exec = false;

  int block = fn.entry_block();
  int steps = 0;
  bool done = false;
  while (!done) {
    if (partition::PartitionPlan::RevisitOwesServer(pass)) {
      if (visited[block]) {
        if (needs_server != nullptr) *needs_server = true;
        break;
      }
      visited[block] = true;
    }
    while (!diverged_until.empty() && diverged_until.back() == block) {
      diverged_until.pop_back();
    }
    const bool diverged = !diverged_until.empty();

    const ir::BasicBlock& bb = fn.block(block);
    for (size_t i = 0; i < bb.insts.size(); ++i) {
      const ir::Instruction& inst = bb.insts[i];
      if (++steps > limits.max_steps_per_path) {
        *exhaustive = false;
        done = true;
        break;
      }
      if (inst.op == Opcode::kReturn) {
        done = true;
        break;
      }
      if (inst.op == Opcode::kJump) {
        block = inst.target_true;
        break;
      }
      if (inst.op == Opcode::kBranch) {
        const ir::Value& cv = inst.args[0];
        const bool defined = cv.is_imm() || regs.count(cv.reg) > 0;
        auto& queue = queues[inst.id];

        if (!defined) {
          if (!queue.empty() && !diverged) queue.pop_front();
          const partition::UndefinedBranch exit =
              partition::PartitionPlan::OnUndefinedBranch(pass);
          if (exit == partition::UndefinedBranch::kOweServer) {
            if (needs_server != nullptr) *needs_server = true;
            done = true;
            break;
          }
          if (exit == partition::UndefinedBranch::kError) {
            problems.push_back(
                {"undefined-branch",
                 "branch condition %" + fn.reg_name(cv.reg) +
                     " undefined in the " + pass_name + " pass (inst " +
                     std::to_string(inst.id) + ")",
                 nullptr, nullptr});
          }
          // Take the false arm to the join (after an error too, so later
          // comparisons stay aligned).
          const int join = cfg.ImmediatePostDominator(block);
          if (join >= 0) diverged_until.push_back(join);
          block = inst.target_false;
          break;
        }

        TermRef cond = ValueOf(ctx, cv);
        if (diverged) {
          // Off the recorded path: navigate without consuming decisions.
          block = cond->is_const() && cond->value != 0 ? inst.target_true
                                                       : inst.target_false;
          break;
        }
        if (queue.empty()) {
          // No recorded decision (only reachable through an earlier
          // divergence); treat like a diverged region.
          const int join = cfg.ImmediatePostDominator(block);
          if (join >= 0) diverged_until.push_back(join);
          block = cond->is_const() && cond->value != 0 ? inst.target_true
                                                       : inst.target_false;
          break;
        }
        const Decision* d = queue.front();
        queue.pop_front();
        if (!SameTerm(Truthy(cond), Truthy(d->cond))) {
          problems.push_back(
              {"branch",
               "branch condition diverged at inst " + std::to_string(inst.id) +
                   " in " + pass_name + " pass: composed " + cond->repr +
                   " vs original " + d->cond->repr,
               Truthy(cond), Truthy(d->cond)});
        }
        // Follow the original decision so later comparisons stay aligned.
        block = d->taken ? inst.target_true : inst.target_false;
        break;
      }

      const partition::Step step = plan.StepOf(pass, inst.id);
      if (step == partition::Step::kSkipOwed && needs_server != nullptr) {
        *needs_server = true;
      }
      if (step != partition::Step::kRun) continue;
      if (diverged && !reported_diverged_exec) {
        problems.push_back(
            {"diverged-exec",
             std::string(pass_name) + "-pass statement " +
                 std::to_string(inst.id) +
                 " executes in a region the recorded path never entered",
             nullptr, nullptr});
        reported_diverged_exec = true;
      }
      ExecInst(ctx, inst);
      if (!plan.IsReplicable(inst.id)) trace.exec_count[inst.id] += 1;
    }
  }

  for (const std::string& use : undef_uses) {
    problems.push_back({"undefined-use", use, nullptr, nullptr});
  }

  if (out_spec != nullptr && out_values != nullptr) {
    // Mirrors PackTransfer: cond slots carry truthiness, var slots the
    // (width-masked) value; undefined registers travel as zero.
    for (Reg r : out_spec->cond_regs) {
      const auto it = regs.find(r);
      (*out_values)[r] =
          it != regs.end() ? Truthy(it->second) : MakeConst(0);
    }
    for (Reg r : out_spec->var_regs) {
      const auto it = regs.find(r);
      (*out_values)[r] = it != regs.end() ? it->second : MakeConst(0);
    }
  }
}

// --- Trace comparison --------------------------------------------------------

void CompareTraces(const RunTrace& orig, const RunTrace& comp,
                   const partition::PartitionPlan& plan,
                   std::vector<Problem>& problems) {
  // Execution counts: every non-replicable statement on the path must run
  // exactly once across the three passes (loops: once per traversal).
  // Replicable statements legitimately re-execute in every pass that walks
  // past them, so they are excluded from the comparison.
  {
    std::map<InstId, std::pair<int, int>> counts;
    for (const auto& [id, n] : orig.exec_count) counts[id].first = n;
    for (const auto& [id, n] : comp.exec_count) counts[id].second = n;
    for (const auto& [id, pair] : counts) {
      if (plan.IsReplicable(id)) continue;
      if (pair.first != pair.second) {
        problems.push_back(
            {"exec-count",
             "inst " + std::to_string(id) + " executed " +
                 std::to_string(pair.second) +
                 " time(s) in the composed pipeline vs " +
                 std::to_string(pair.first) + " in the original",
             nullptr, nullptr});
      }
    }
  }

  // Per-object write sequences.
  {
    std::map<std::string, std::pair<const std::vector<std::string>*,
                                    const std::vector<std::string>*>>
        objs;
    for (const auto& [obj, seq] : orig.writes) objs[obj].first = &seq;
    for (const auto& [obj, seq] : comp.writes) objs[obj].second = &seq;
    static const std::vector<std::string> kEmpty;
    for (const auto& [obj, pair] : objs) {
      const auto& a = pair.first != nullptr ? *pair.first : kEmpty;
      const auto& b = pair.second != nullptr ? *pair.second : kEmpty;
      if (a == b) continue;
      std::string detail = "state " + obj + ": ";
      size_t i = 0;
      while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
      if (i < a.size() && i < b.size()) {
        detail += "write #" + std::to_string(i) + " is '" + b[i] +
                  "' in the composed pipeline vs '" + a[i] + "'";
      } else if (a.size() > b.size()) {
        detail += "composed pipeline is missing write #" + std::to_string(i) +
                  " '" + a[i] + "'";
      } else {
        detail += "composed pipeline performs extra write #" +
                  std::to_string(i) + " '" + b[i] + "'";
      }
      problems.push_back({"state-trace", detail, nullptr, nullptr});
    }
  }

  // Verdict sequence.
  if (orig.verdicts.size() != comp.verdicts.size()) {
    problems.push_back(
        {"verdict",
         "composed pipeline produced " + std::to_string(comp.verdicts.size()) +
             " send/drop verdict(s) vs " +
             std::to_string(orig.verdicts.size()) + " in the original",
         nullptr, nullptr});
  } else {
    for (size_t i = 0; i < orig.verdicts.size(); ++i) {
      const VerdictEvent& a = orig.verdicts[i];
      const VerdictEvent& b = comp.verdicts[i];
      if (a.is_send != b.is_send) {
        problems.push_back({"verdict",
                            std::string("composed pipeline ") +
                                (b.is_send ? "sends" : "drops") +
                                " where the original " +
                                (a.is_send ? "sends" : "drops"),
                            nullptr, nullptr});
      } else if (a.is_send && !SameTerm(a.port, b.port)) {
        problems.push_back({"verdict",
                            "egress port diverged: composed " + b.port->repr +
                                " vs original " + a.port->repr,
                            a.port, b.port});
      }
    }
  }

  // Final header contents. Fields untouched by a run keep their input term.
  {
    std::map<HeaderField, std::pair<TermRef, TermRef>> fields;
    for (const auto& [f, t] : orig.header) fields[f].first = t;
    for (const auto& [f, t] : comp.header) fields[f].second = t;
    for (auto& [f, pair] : fields) {
      TermRef a = pair.first != nullptr ? pair.first : HeaderInput(f);
      TermRef b = pair.second != nullptr ? pair.second : HeaderInput(f);
      if (!SameTerm(a, b)) {
        problems.push_back({"header",
                            std::string("field ") + ir::HeaderFieldName(f) +
                                " diverged: composed " + b->repr +
                                " vs original " + a->repr,
                            a, b});
      }
    }
  }
}

}  // namespace

// --- Counterexample construction ---------------------------------------------

net::Packet PacketFromAssignment(const Assignment& inputs,
                                 const ir::Function& fn) {
  net::FiveTuple flow;
  flow.saddr = 0x0a000002;
  flow.daddr = 0x0a000003;
  flow.sport = 1234;
  flow.dport = 80;
  flow.protocol = net::kIpProtoTcp;
  net::Packet pkt = net::MakeTcpPacket(flow, net::kTcpSyn, 0);

  for (const auto& [name, value] : inputs) {
    if (name.rfind("hdr.", 0) == 0) {
      for (int f = 0; f < ir::kNumHeaderFields; ++f) {
        const HeaderField field = static_cast<HeaderField>(f);
        if (name == HeaderInputName(field)) {
          runtime::Interpreter::WriteHeaderField(pkt, field, value);
          break;
        }
      }
    } else if (name.rfind("payload.match.", 0) == 0 && value != 0) {
      const uint32_t pattern =
          static_cast<uint32_t>(std::strtoul(name.c_str() + 14, nullptr, 10));
      if (pattern < fn.patterns().size()) {
        const std::string& bytes = fn.patterns()[pattern];
        pkt.payload().insert(pkt.payload().end(), bytes.begin(), bytes.end());
      }
    } else if (name == "payload.len") {
      const size_t want = std::min<uint64_t>(value, 1400);
      if (pkt.payload().size() < want) pkt.payload().resize(want, 0x61);
    }
  }
  return pkt;
}

std::string Counterexample::ToString() const {
  std::ostringstream out;
  out << (concrete ? "counterexample packet: " + packet.ToString()
                   : "no concrete witness found (path condition shown)");
  out << "\n  path: " << path_condition;
  if (concrete) {
    out << "\n  inputs:";
    for (const auto& [name, value] : inputs) {
      out << " " << name << "=" << value;
    }
  }
  return out.str();
}

std::string Mismatch::ToString() const {
  return "[" + kind + "] path " + std::to_string(path) + ": " + detail +
         "\n  " + cex.ToString();
}

std::string ValidationResult::Summary() const {
  std::ostringstream out;
  out << (equivalent ? "translation validated" : "translation REJECTED")
      << ": " << paths_checked << " symbolic path(s)"
      << (exhaustive ? "" : " (budget hit; non-exhaustive)");
  for (const Mismatch& m : mismatches) out << "\n" << m.ToString();
  return out.str();
}

// --- Entry points ------------------------------------------------------------

ValidationResult ValidateTranslation(const ir::Function& fn,
                                     const partition::PartitionPlan& plan,
                                     const PathLimits& limits) {
  return ValidateTranslationAgainst(fn, fn, plan, limits);
}

ValidationResult ValidateTranslationAgainst(const ir::Function& original,
                                            const ir::Function& composed,
                                            const partition::PartitionPlan& plan,
                                            const PathLimits& limits) {
  ValidationResult result;
  if (plan.assignment.size() < static_cast<size_t>(original.num_insts())) {
    result.mismatches.push_back(
        {"plan", "partition assignment does not cover the function", -1, {}});
    return result;
  }

  const analysis::CfgInfo cfg(composed);
  bool exhaustive = true;
  const std::vector<PathInfo> paths =
      EnumeratePaths(original, limits, &exhaustive);
  result.exhaustive = exhaustive;

  uint64_t cex_seed = limits.solver_seed;
  for (size_t p = 0; p < paths.size(); ++p) {
    if (static_cast<int>(result.mismatches.size()) >= limits.max_mismatches) {
      break;
    }
    const PathInfo& path = paths[p];
    ++result.paths_checked;

    StateOracle oracle;
    RunTrace trace;
    std::vector<Problem> problems;
    std::map<Reg, TermRef> to_server_values, to_switch_values;
    bool needs_server = false;
    RunComposedPass(composed, plan, Part::kPre, cfg, path, oracle, trace,
                    nullptr, nullptr, &plan.to_server, &to_server_values,
                    problems, limits, &result.exhaustive, &needs_server);
    if (needs_server) {
      // Runtime contract (offloaded_middlebox.cc): a pass that forwards to
      // the server must not already have committed a send/drop verdict.
      if (!trace.verdicts.empty()) {
        problems.push_back(
            {"output-commit",
             "pre pass committed a send/drop verdict on a path that still "
             "needs the server",
             nullptr, nullptr});
      }
      RunComposedPass(composed, plan, Part::kNonOffloaded, cfg, path, oracle,
                      trace, &plan.to_server, &to_server_values,
                      &plan.to_switch, &to_switch_values, problems, limits,
                      &result.exhaustive);
      RunComposedPass(composed, plan, Part::kPost, cfg, path, oracle, trace,
                      &plan.to_switch, &to_switch_values, nullptr, nullptr,
                      problems, limits, &result.exhaustive);
    }
    // else: switch-only fast path — the runtime never invokes the server or
    // post passes for this packet, so the pre trace is the whole pipeline.

    CompareTraces(path.trace, trace, plan, problems);

    for (const Problem& problem : problems) {
      if (static_cast<int>(result.mismatches.size()) >=
          limits.max_mismatches) {
        break;
      }
      Mismatch m;
      m.kind = problem.kind;
      m.detail = problem.detail;
      m.path = static_cast<int>(p);
      m.cex.path_condition = PathConditionString(path.constraints);
      Assignment witness;
      bool solved = false;
      if (problem.da != nullptr && problem.db != nullptr) {
        solved = SolveConstraints(path.constraints, problem.da, problem.db,
                                  ++cex_seed, limits.solver_tries, &witness);
      }
      if (!solved) {
        solved = SolveConstraints(path.constraints, nullptr, nullptr,
                                  ++cex_seed, limits.solver_tries, &witness);
      }
      if (solved) {
        m.cex.concrete = true;
        m.cex.inputs = std::move(witness);
        m.cex.packet = PacketFromAssignment(m.cex.inputs, original);
      }
      result.mismatches.push_back(std::move(m));
    }
  }

  result.equivalent = result.mismatches.empty();
  return result;
}

}  // namespace gallium::verify
