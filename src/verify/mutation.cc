#include "verify/mutation.h"

#include <algorithm>
#include <sstream>

namespace gallium::verify {

namespace {

using ir::InstId;
using ir::Opcode;
using ir::Reg;
using partition::Part;

// Registers whose every definition is server-assigned (so hoisting a use
// into the pre partition is guaranteed to read an undefined register).
std::vector<bool> ServerOnlyDefs(const ir::Function& fn,
                                 const partition::PartitionPlan& plan) {
  std::vector<bool> has_def(fn.num_regs(), false);
  std::vector<bool> server_only(fn.num_regs(), true);
  for (const ir::BasicBlock& bb : fn.blocks()) {
    for (const ir::Instruction& inst : bb.insts) {
      for (Reg r : inst.dsts) {
        has_def[r] = true;
        if (plan.RunsOnSwitch(inst.id)) server_only[r] = false;
      }
    }
  }
  for (Reg r = 0; r < static_cast<Reg>(fn.num_regs()); ++r) {
    if (!has_def[r]) server_only[r] = false;
  }
  return server_only;
}

// Registers whose value can transitively reach an observable effect: a
// header write, a state write, a branch decision, or a verdict's port.
// A mutation whose only change is to a register outside this set produces
// an equivalent mutant (the validator would rightly prove it equivalent),
// so the seeders skip such candidates.
std::vector<bool> ObservableRegs(const ir::Function& fn) {
  std::vector<bool> relevant(fn.num_regs(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const ir::BasicBlock& bb : fn.blocks()) {
      for (const ir::Instruction& inst : bb.insts) {
        bool sink = inst.op == Opcode::kHeaderWrite || inst.WritesState() ||
                    inst.op == Opcode::kBranch || inst.op == Opcode::kSend;
        for (Reg r : inst.dsts) {
          if (relevant[r]) sink = true;
        }
        if (!sink) continue;
        for (const ir::Value& v : inst.args) {
          if (v.is_reg() && !relevant[v.reg]) {
            relevant[v.reg] = true;
            changed = true;
          }
        }
      }
    }
  }
  return relevant;
}

ir::Instruction* FindMutable(ir::Function& fn, InstId id) {
  for (ir::BasicBlock& bb : fn.blocks()) {
    for (ir::Instruction& inst : bb.insts) {
      if (inst.id == id) return &inst;
    }
  }
  return nullptr;
}

void MutateLabelMisRemoval(const ir::Function& fn,
                           const partition::PartitionPlan& plan,
                           int max_candidates, std::vector<Mutation>* out) {
  const std::vector<bool> server_only = ServerOnlyDefs(fn, plan);
  for (const ir::BasicBlock& bb : fn.blocks()) {
    for (const ir::Instruction& inst : bb.insts) {
      if (static_cast<int>(out->size()) >= max_candidates) return;
      if (inst.IsTerminator()) continue;
      if (plan.RunsOnSwitch(inst.id)) continue;
      const bool uses_server_reg =
          std::any_of(inst.args.begin(), inst.args.end(), [&](const auto& v) {
            return v.is_reg() && server_only[v.reg];
          });
      if (!uses_server_reg) continue;
      Mutation m{MutationClass::kLabelMisRemoval,
                 "hoist server inst " + std::to_string(inst.id) + " (" +
                     ir::OpcodeName(inst.op) + ") into the pre partition",
                 fn, plan};
      m.plan.assignment[inst.id] = Part::kPre;
      out->push_back(std::move(m));
    }
  }
}

void MutateDroppedWriteBack(const ir::Function& fn,
                            const partition::PartitionPlan& plan,
                            int max_candidates, std::vector<Mutation>* out) {
  for (const ir::BasicBlock& bb : fn.blocks()) {
    for (const ir::Instruction& inst : bb.insts) {
      if (static_cast<int>(out->size()) >= max_candidates) return;
      if (!inst.WritesState()) continue;
      if (plan.assignment[inst.id] != Part::kNonOffloaded) continue;
      Mutation m{MutationClass::kDroppedWriteBack,
                 "drop server state write inst " + std::to_string(inst.id) +
                     " (" + ir::OpcodeName(inst.op) + " on " +
                     fn.StateName([&] {
                       ir::StateRef ref;
                       ir::Function::InstStateRef(inst, &ref);
                       return ref;
                     }()) +
                     ")",
                 fn, plan};
      // Neutralize the write in the composed program: it becomes a no-op
      // assignment to a scratch register (same instruction id, so execution
      // counts still line up and only the state trace diverges).
      ir::Instruction* target = FindMutable(m.fn, inst.id);
      const Reg scratch = m.fn.AddReg(ir::Width::kU32, "mut_scratch");
      target->op = Opcode::kAssign;
      target->dsts = {scratch};
      target->args = {ir::Value::MakeImm(0)};
      out->push_back(std::move(m));
    }
  }
}

void MutateReorderedSync(const ir::Function& fn,
                         const partition::PartitionPlan& plan,
                         int max_candidates, std::vector<Mutation>* out) {
  // Any same-block pair of accesses to the same state object (map or
  // global) where at least one writes: swapping them models a write-back
  // sync applied in the wrong order relative to a read or another write.
  // A read/write pair is only worth seeding when the read's result can
  // reach an observable effect; otherwise the reorder is invisible.
  const std::vector<bool> relevant = ObservableRegs(fn);
  for (const ir::BasicBlock& bb : fn.blocks()) {
    for (size_t i = 0; i < bb.insts.size(); ++i) {
      const ir::Instruction& a = bb.insts[i];
      if (a.IsTerminator()) continue;
      ir::StateRef ra;
      if (!ir::Function::InstStateRef(a, &ra)) continue;
      for (size_t j = i + 1; j < bb.insts.size(); ++j) {
        if (static_cast<int>(out->size()) >= max_candidates) return;
        const ir::Instruction& b = bb.insts[j];
        if (b.IsTerminator()) continue;
        ir::StateRef rb;
        if (!ir::Function::InstStateRef(b, &rb)) continue;
        if (!(ra == rb)) continue;
        if (!a.WritesState() && !b.WritesState()) continue;
        if (!a.WritesState() || !b.WritesState()) {
          const ir::Instruction& reader = a.WritesState() ? b : a;
          const bool observable = std::any_of(
              reader.dsts.begin(), reader.dsts.end(),
              [&](Reg r) { return relevant[r]; });
          if (!observable) continue;
        }
        Mutation m{MutationClass::kReorderedSync,
                   "swap " + std::string(ir::OpcodeName(a.op)) + " (inst " +
                       std::to_string(a.id) + ") with " +
                       ir::OpcodeName(b.op) + " (inst " +
                       std::to_string(b.id) + ") on " + fn.StateName(ra),
                   fn, plan};
        ir::BasicBlock& mb = m.fn.block(bb.id);
        std::swap(mb.insts[i], mb.insts[j]);
        out->push_back(std::move(m));
      }
    }
  }
}

void MutateWrongTableAction(const ir::Function& fn,
                            const partition::PartitionPlan& plan,
                            int max_candidates, std::vector<Mutation>* out) {
  const std::vector<bool> relevant = ObservableRegs(fn);
  for (const ir::BasicBlock& bb : fn.blocks()) {
    for (const ir::Instruction& inst : bb.insts) {
      if (static_cast<int>(out->size()) >= max_candidates) return;
      if (inst.op != Opcode::kMapGet || inst.dsts.size() < 2) continue;
      if (plan.assignment[inst.id] == Part::kNonOffloaded) continue;
      const size_t w0 = inst.dsts.size() >= 3 ? 1 : 0;
      const size_t w1 = inst.dsts.size() >= 3 ? 2 : 1;
      if (!relevant[inst.dsts[w0]] && !relevant[inst.dsts[w1]]) continue;
      Mutation m{MutationClass::kWrongTableAction,
                 "table lookup inst " + std::to_string(inst.id) + " on " +
                     fn.map(inst.state).name +
                     " wires its results to the wrong action destinations",
                 fn, plan};
      ir::Instruction* target = FindMutable(m.fn, inst.id);
      // Two value words when present, else hit flag <-> value.
      std::swap(target->dsts[w0], target->dsts[w1]);
      out->push_back(std::move(m));
    }
  }
}

void MutateSwappedBoundary(const ir::Function& fn,
                           const partition::PartitionPlan& plan,
                           int max_candidates, std::vector<Mutation>* out) {
  // Defer a pre statement that feeds the to-server transfer header: the
  // server then unpacks a value the switch never produced.
  for (const ir::BasicBlock& bb : fn.blocks()) {
    for (const ir::Instruction& inst : bb.insts) {
      if (static_cast<int>(out->size()) >= max_candidates) return;
      if (inst.IsTerminator() || inst.dsts.empty()) continue;
      if (!plan.Runs(partition::Pass::kPre, inst.id) ||
          plan.IsReplicable(inst.id)) {
        continue;
      }
      const Reg dst = inst.dsts[0];
      const bool feeds_transfer =
          plan.to_server.CondBit(dst) >= 0 ||
          plan.to_server.VarSlot(fn, dst) >= 0;
      if (!feeds_transfer) continue;
      Mutation m{MutationClass::kSwappedBoundary,
                 "defer pre inst " + std::to_string(inst.id) + " (" +
                     ir::OpcodeName(inst.op) +
                     ", feeds the to-server transfer) to the post partition",
                 fn, plan};
      m.plan.assignment[inst.id] = Part::kPost;
      out->push_back(std::move(m));
    }
  }
  // Hoist a post statement that reads server-written state before the
  // server runs. Only worth seeding when the read's result is observable
  // and some server-assigned write actually targets the same object —
  // otherwise the hoisted read sees identical state.
  const std::vector<bool> relevant = ObservableRegs(fn);
  for (const ir::BasicBlock& bb : fn.blocks()) {
    for (const ir::Instruction& inst : bb.insts) {
      if (static_cast<int>(out->size()) >= max_candidates) return;
      if (inst.op != Opcode::kMapGet && inst.op != Opcode::kGlobalRead) {
        continue;
      }
      if (plan.assignment[inst.id] != Part::kPost) continue;
      if (std::none_of(inst.dsts.begin(), inst.dsts.end(),
                       [&](Reg r) { return relevant[r]; })) {
        continue;
      }
      ir::StateRef read_ref;
      if (!ir::Function::InstStateRef(inst, &read_ref)) continue;
      bool crosses_server_write = false;
      for (const ir::BasicBlock& wb : fn.blocks()) {
        for (const ir::Instruction& w : wb.insts) {
          ir::StateRef wr;
          if (w.WritesState() && ir::Function::InstStateRef(w, &wr) &&
              wr == read_ref &&
              plan.assignment[w.id] == Part::kNonOffloaded) {
            crosses_server_write = true;
          }
        }
      }
      if (!crosses_server_write) continue;
      Mutation m{MutationClass::kSwappedBoundary,
                 "hoist post inst " + std::to_string(inst.id) + " (" +
                     ir::OpcodeName(inst.op) +
                     ") into the pre partition, ahead of server writes",
                 fn, plan};
      m.plan.assignment[inst.id] = Part::kPre;
      out->push_back(std::move(m));
    }
  }
}

}  // namespace

const char* MutationClassName(MutationClass c) {
  switch (c) {
    case MutationClass::kLabelMisRemoval: return "label-mis-removal";
    case MutationClass::kDroppedWriteBack: return "dropped-write-back";
    case MutationClass::kReorderedSync: return "reordered-sync";
    case MutationClass::kWrongTableAction: return "wrong-table-action";
    case MutationClass::kSwappedBoundary: return "swapped-boundary";
  }
  return "?";
}

std::vector<Mutation> EnumerateMutations(const ir::Function& fn,
                                         const partition::PartitionPlan& plan,
                                         MutationClass cls,
                                         int max_candidates) {
  std::vector<Mutation> out;
  switch (cls) {
    case MutationClass::kLabelMisRemoval:
      MutateLabelMisRemoval(fn, plan, max_candidates, &out);
      break;
    case MutationClass::kDroppedWriteBack:
      MutateDroppedWriteBack(fn, plan, max_candidates, &out);
      break;
    case MutationClass::kReorderedSync:
      MutateReorderedSync(fn, plan, max_candidates, &out);
      break;
    case MutationClass::kWrongTableAction:
      MutateWrongTableAction(fn, plan, max_candidates, &out);
      break;
    case MutationClass::kSwappedBoundary:
      MutateSwappedBoundary(fn, plan, max_candidates, &out);
      break;
  }
  return out;
}

std::string CampaignResult::Summary() const {
  std::ostringstream out;
  out << "mutation campaign: " << caught << "/" << generated
      << " mutants caught\n";
  for (const CampaignClassResult& c : classes) {
    out << "  " << MutationClassName(c.cls) << ": " << c.caught << "/"
        << c.generated << " caught, " << c.with_counterexample
        << " with concrete counterexample";
    if (!c.example.empty()) out << "\n    e.g. " << c.example;
    out << "\n";
  }
  return out.str();
}

CampaignResult RunMutationCampaign(const ir::Function& fn,
                                   const partition::PartitionPlan& plan,
                                   const PathLimits& limits,
                                   int max_candidates_per_class) {
  CampaignResult result;
  for (int c = 0; c < kNumMutationClasses; ++c) {
    const MutationClass cls = static_cast<MutationClass>(c);
    CampaignClassResult cr;
    cr.cls = cls;
    for (const Mutation& m :
         EnumerateMutations(fn, plan, cls, max_candidates_per_class)) {
      ++cr.generated;
      const ValidationResult v =
          ValidateTranslationAgainst(fn, m.fn, m.plan, limits);
      if (!v.equivalent) {
        ++cr.caught;
        bool concrete = false;
        for (const Mismatch& mm : v.mismatches) {
          if (mm.cex.concrete) concrete = true;
        }
        if (concrete) ++cr.with_counterexample;
        if (cr.example.empty() && !v.mismatches.empty()) {
          cr.example = m.description + " -> [" + v.mismatches[0].kind + "] " +
                       v.mismatches[0].detail;
        }
      }
    }
    result.generated += cr.generated;
    result.caught += cr.caught;
    result.classes.push_back(std::move(cr));
  }
  return result;
}

}  // namespace gallium::verify
