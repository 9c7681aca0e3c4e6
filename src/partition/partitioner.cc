#include "partition/partitioner.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "ir/verifier.h"

namespace gallium::partition {

using ir::InstId;
using ir::Instruction;
using ir::Opcode;
using ir::Reg;
using ir::StateRef;

bool StatementSupportedByP4(const ir::Function& fn, const Instruction& inst) {
  switch (inst.op) {
    case Opcode::kAssign:
      return true;
    case Opcode::kAlu:
      return ir::AluOpSupportedByP4(inst.alu);
    case Opcode::kHeaderRead:
    case Opcode::kHeaderWrite:
      return true;  // header fields only (payload has its own opcodes)
    case Opcode::kPayloadMatch:
    case Opcode::kPayloadLen:
      return false;  // switches cannot inspect payloads (§2.2)
    case Opcode::kMapGet:
      // A map lookup maps to a P4 table lookup when the developer annotated
      // a maximum size (§4.3.1) and the structure has a P4 counterpart.
      return fn.map(inst.state).has_p4_impl &&
             fn.map(inst.state).max_entries > 0;
    case Opcode::kMapPut:
    case Opcode::kMapDel:
      // Table contents are read-only for the data plane; inserts and
      // deletes must go through the switch control plane, i.e. the server
      // (§2.1). Never offloadable as inline statements.
      return false;
    case Opcode::kGlobalRead:
    case Opcode::kGlobalWrite:
      return true;  // P4 registers are data-plane readable and writable
    case Opcode::kVectorGet:
    case Opcode::kVectorLen:
      return fn.vector(inst.state).has_p4_impl &&
             fn.vector(inst.state).max_size > 0;
    case Opcode::kTimeRead:
      return false;  // no wall-clock primitive in the baseline P4 model
    case Opcode::kSend:
    case Opcode::kDrop:
    case Opcode::kBranch:
    case Opcode::kJump:
    case Opcode::kReturn:
      return true;
  }
  return false;
}

namespace {

// Instructions indexed by InstId; null for those in unreachable blocks.
std::vector<const Instruction*> ReachableInsts(const ir::Function& fn,
                                               const analysis::CfgInfo& cfg) {
  std::vector<const Instruction*> insts(fn.num_insts(), nullptr);
  for (const ir::BasicBlock& bb : fn.blocks()) {
    if (!cfg.BlockReachable(bb.id)) continue;
    for (const Instruction& inst : bb.insts) insts[inst.id] = &inst;
  }
  return insts;
}

}  // namespace

Partitioner::Partitioner(const ir::Function& fn, SwitchConstraints constraints)
    : fn_(fn),
      c_(constraints),
      owned_cfg_(std::make_unique<analysis::CfgInfo>(fn)),
      owned_deps_(std::make_unique<analysis::DependencyGraph>(fn, *owned_cfg_)),
      cfg_(*owned_cfg_),
      deps_(*owned_deps_),
      liveness_(fn, cfg_),
      insts_(ReachableInsts(fn, cfg_)),
      replicable_(ComputeReplicable()),
      fixpoint_(fn, cfg_, deps_, replicable_) {}

Partitioner::Partitioner(const ir::Function& fn, SwitchConstraints constraints,
                         const analysis::CfgInfo& cfg,
                         const analysis::DependencyGraph& deps)
    : fn_(fn),
      c_(constraints),
      cfg_(cfg),
      deps_(deps),
      liveness_(fn, cfg_),
      insts_(ReachableInsts(fn, cfg_)),
      replicable_(ComputeReplicable()),
      fixpoint_(fn, cfg_, deps_, replicable_) {}

std::vector<bool> Partitioner::ComputeReplicable() const {
  // A header read may be re-executed by a later partition when no header
  // write to the same field can happen after it — re-reading then observes
  // exactly the value the original read produced. (The ingress-port
  // pseudo-field is excluded: the returning packet arrives on the server
  // port, so the original ingress is not re-derivable.)
  std::vector<InstId> writes[ir::kNumHeaderFields];
  for (InstId w = 0; w < fn_.num_insts(); ++w) {
    if (insts_[w] != nullptr && insts_[w]->op == Opcode::kHeaderWrite) {
      writes[static_cast<int>(insts_[w]->field)].push_back(w);
    }
  }
  std::vector<bool> replicable(fn_.num_insts(), false);
  for (InstId r = 0; r < fn_.num_insts(); ++r) {
    if (insts_[r] == nullptr || insts_[r]->op != Opcode::kHeaderRead) continue;
    if (insts_[r]->field == ir::HeaderField::kIngressPort) continue;
    const auto& hazards = writes[static_cast<int>(insts_[r]->field)];
    replicable[r] = std::none_of(hazards.begin(), hazards.end(), [&](InstId w) {
      return cfg_.CanHappenAfter(w, r);
    });
  }
  return replicable;
}

void Partitioner::InitLabels() {
  labels_.assign(fn_.num_insts(), LabelSet{});
  for (InstId s = 0; s < fn_.num_insts(); ++s) {
    if (insts_[s] == nullptr) {
      labels_[s] = LabelSet{false, false};
      continue;
    }
    bool supported = StatementSupportedByP4(fn_, *insts_[s]);
    // Spilled state (RMT placement feedback): accesses stay on the server.
    if (supported && !c_.spilled_state.empty()) {
      ir::StateRef ref;
      if (ir::Function::InstStateRef(*insts_[s], &ref) &&
          std::find(c_.spilled_state.begin(), c_.spilled_state.end(), ref) !=
              c_.spilled_state.end()) {
        supported = false;
      }
    }
    labels_[s] = LabelSet{supported, supported};
  }
}

LabelFixpoint::LabelFixpoint(const ir::Function& fn,
                             const analysis::CfgInfo& cfg,
                             const analysis::DependencyGraph& deps,
                             const std::vector<bool>& replicable)
    : fn_(fn),
      cfg_(cfg),
      deps_(deps),
      fixed_(fn.num_insts()),
      horizon_(fn.num_insts()) {
  const std::vector<const Instruction*> insts = ReachableInsts(fn, cfg);
  std::map<StateRef, std::vector<InstId>> accesses;
  std::vector<std::vector<InstId>> defs(fn.num_regs());
  for (InstId s = 0; s < fn.num_insts(); ++s) {
    if (insts[s] == nullptr) continue;
    if (deps.SelfDependent(s)) fixed_[s] = LabelSet{false, false};  // rule 5
    StateRef ref;
    if (ir::Function::InstStateRef(*insts[s], &ref)) accesses[ref].push_back(s);
    for (Reg r : insts[s]->dsts) defs[r].push_back(s);
  }
  // Rules 3 & 4, which always clear pre(s2) and post(s1) together with
  // rules 2 and 1.
  for (const auto& [ref, group] : accesses) {
    for (InstId a : group) {
      for (InstId b : group) {
        if (a == b || !deps.TransitivelyDependsOn(b, a)) continue;
        fixed_[b].pre = false;
        fixed_[a].post = false;
      }
    }
  }
  // Rule 6: a branch on an immediate is always pre-visible, one on an
  // undefined register never is, and otherwise it turns on its defs.
  for (const ir::BasicBlock& bb : fn.blocks()) {
    if (bb.insts.empty()) continue;
    const Instruction& term = bb.insts.back();
    if (term.op != Opcode::kBranch || insts[term.id] == nullptr) continue;
    const ir::Value& cond = term.args[0];
    if (cond.is_imm()) continue;
    if (defs[cond.reg].empty()) undefined_.push_back(bb.id);
    for (InstId d : defs[cond.reg]) {
      if (!replicable[d]) horizon_[d].push_back(bb.id);
    }
  }
}

void LabelFixpoint::Run(std::vector<LabelSet>& labels) const {
  // Statements whose pre (true) or post (false) label is lost and not yet
  // propagated. Unreachable statements have no edges, so they change nothing.
  std::vector<std::pair<InstId, bool>> lost;
  for (InstId s = 0; s < fn_.num_insts(); ++s) {
    labels[s].pre = labels[s].pre && fixed_[s].pre;
    labels[s].post = labels[s].post && fixed_[s].post;
    if (!labels[s].pre) lost.emplace_back(s, true);
    if (!labels[s].post) lost.emplace_back(s, false);
  }
  auto clear = [&](InstId s, bool pre) {
    bool& label = pre ? labels[s].pre : labels[s].post;
    if (label) {
      label = false;
      lost.emplace_back(s, pre);
    }
  };
  // Rule 6: every statement past the branch ending `block` loses pre.
  std::vector<bool> fired(fn_.num_blocks(), false);
  auto fire = [&](int block) {
    if (fired[block]) return;
    fired[block] = true;
    for (int b = 0; b < fn_.num_blocks(); ++b) {
      if (!cfg_.BlockCanReach(block, b)) continue;
      for (const Instruction& inst : fn_.block(b).insts) {
        if (!inst.IsTerminator()) clear(inst.id, true);
      }
    }
  };
  for (int block : undefined_) fire(block);
  while (!lost.empty()) {
    const auto [s, pre] = lost.back();
    lost.pop_back();
    if (!pre) {
      for (InstId d : deps_.DepsOf(s)) clear(d, false);  // rule 1
      continue;
    }
    for (InstId u : deps_.UsersOf(s)) clear(u, true);  // rule 2
    for (int block : horizon_[s]) fire(block);
  }
}

void Partitioner::ApplyPipelineDepthConstraint() {
  const auto& from_entry = deps_.DistanceFromEntry();
  const auto& to_exit = deps_.DistanceToExit();
  for (InstId s = 0; s < fn_.num_insts(); ++s) {
    if (insts_[s] == nullptr) continue;
    if (from_entry[s] > c_.pipeline_depth) labels_[s].pre = false;
    if (to_exit[s] > c_.pipeline_depth) labels_[s].post = false;
  }
  FixpointLabelRemoval();
}

uint64_t Partitioner::SwitchMemoryFootprint() const {
  const auto assignment = AssignmentFromLabels(labels_);
  const auto placement = ComputeStatePlacement(assignment);
  uint64_t total = 0;
  for (const auto& [ref, where] : placement) {
    if (where == StatePlacement::kServerOnly) continue;
    uint64_t bytes = 0;
    switch (ref.kind) {
      case StateRef::Kind::kMap: bytes = fn_.map(ref.index).SwitchBytes(); break;
      case StateRef::Kind::kVector:
        bytes = fn_.vector(ref.index).SwitchBytes();
        break;
      case StateRef::Kind::kGlobal:
        bytes = fn_.global(ref.index).SwitchBytes();
        break;
    }
    if (where == StatePlacement::kReplicated &&
        ref.kind == StateRef::Kind::kMap) {
      // Replicated maps carry a write-back shadow table (§4.3.3); we size it
      // at a quarter of the main table.
      bytes += bytes / 4;
    }
    total += bytes;
  }
  return total;
}

void Partitioner::ApplyMemoryConstraint() {
  // Alternate removing a "pre" label in reverse source order and a "post"
  // label in source order until the footprint fits (§4.2.2).
  bool remove_pre_next = true;
  while (SwitchMemoryFootprint() > c_.memory_bytes) {
    bool removed_any = false;
    if (remove_pre_next) {
      for (InstId s = fn_.num_insts() - 1; s >= 0; --s) {
        if (insts_[s] != nullptr && labels_[s].pre && insts_[s]->AccessesMap()) {
          labels_[s].pre = false;
          removed_any = true;
          break;
        }
      }
      if (!removed_any) {
        for (InstId s = fn_.num_insts() - 1; s >= 0; --s) {
          if (insts_[s] != nullptr && labels_[s].pre) {
            labels_[s].pre = false;
            removed_any = true;
            break;
          }
        }
      }
    } else {
      for (InstId s = 0; s < fn_.num_insts(); ++s) {
        if (insts_[s] != nullptr && labels_[s].post) {
          labels_[s].post = false;
          removed_any = true;
          break;
        }
      }
    }
    remove_pre_next = !remove_pre_next;
    if (removed_any) {
      FixpointLabelRemoval();
    } else if (!remove_pre_next) {
      continue;  // try the post direction before giving up
    } else {
      break;  // no switch labels left; footprint is now zero
    }
  }
}

void Partitioner::ApplySingleAccessConstraint() {
  // Collect all state objects and their accesses.
  std::map<StateRef, std::vector<InstId>> accesses;
  for (InstId s = 0; s < fn_.num_insts(); ++s) {
    if (insts_[s] == nullptr) continue;
    StateRef ref;
    if (ir::Function::InstStateRef(*insts_[s], &ref)) {
      accesses[ref].push_back(s);
    }
  }

  for (const auto& [ref, insts] : accesses) {
    // Accesses that could currently run on the switch.
    std::vector<InstId> on_switch;
    for (InstId s : insts) {
      if (labels_[s].OnSwitch()) on_switch.push_back(s);
    }
    if (on_switch.size() <= 1) continue;

    // Exhaustive search: keep exactly one access on the switch; pick the
    // placement that maximizes the number of offloaded statements (§4.2.2).
    int best_count = -1;
    std::vector<LabelSet> best_labels;
    for (InstId keep : on_switch) {
      std::vector<LabelSet> trial = labels_;
      for (InstId other : on_switch) {
        if (other != keep) trial[other] = LabelSet{false, false};
      }
      fixpoint_.Run(trial);
      const int count = CountOnSwitch(trial);
      if (count > best_count) {
        best_count = count;
        best_labels = std::move(trial);
      }
    }
    labels_ = std::move(best_labels);
  }
}

int Partitioner::CountOnSwitch(const std::vector<LabelSet>& labels) const {
  int score = 0;
  for (InstId s = 0; s < fn_.num_insts(); ++s) {
    if (insts_[s] == nullptr) continue;
    if (insts_[s]->op == Opcode::kJump || insts_[s]->op == Opcode::kReturn) {
      continue;  // structural statements don't count as offloaded work
    }
    if (!labels[s].OnSwitch()) continue;
    // Default objective: each statement counts 1 (the paper's §4.2
    // "maximizes the number of statements"). The weighted objective scores
    // statements by the server cycles they would otherwise cost (§7).
    score += c_.objective == OffloadObjective::kWeightedCycles
                 ? c_.weights.WeightOf(*insts_[s])
                 : 1;
  }
  return score;
}

void Partitioner::DemoteReplicatedStateWrites() {
  bool changed = true;
  while (changed) {
    changed = false;
    const auto assignment = AssignmentFromLabels(labels_);
    const auto placement = ComputeStatePlacement(assignment);
    for (InstId s = 0; s < fn_.num_insts(); ++s) {
      if (insts_[s] == nullptr || !labels_[s].OnSwitch()) continue;
      StateRef ref;
      if (!ir::Function::InstStateRef(*insts_[s], &ref)) continue;
      if (!insts_[s]->WritesState()) continue;
      const auto it = placement.find(ref);
      if (it != placement.end() && it->second == StatePlacement::kReplicated) {
        // Replicated state is updated only by the server (§4.3.3).
        labels_[s] = LabelSet{false, false};
        changed = true;
      }
    }
    if (changed) FixpointLabelRemoval();
  }
}

void Partitioner::DemoteUnsafeSends() {
  // A pre-partition send/drop must not share a path with non-offloaded
  // work: the packet would escape before the server's state updates are
  // committed (output-commit, §4.3.3). Each send lists once the statements
  // that can happen before or after it.
  std::vector<std::pair<InstId, std::vector<InstId>>> sends;
  for (InstId s = 0; s < fn_.num_insts(); ++s) {
    if (insts_[s] == nullptr ||
        (insts_[s]->op != Opcode::kSend && insts_[s]->op != Opcode::kDrop))
      continue;
    auto& path = sends.emplace_back(s, std::vector<InstId>{}).second;
    for (InstId t = 0; t < fn_.num_insts(); ++t) {
      if (insts_[t] == nullptr || t == s) continue;
      if (insts_[t]->op == Opcode::kJump || insts_[t]->op == Opcode::kReturn)
        continue;
      if (cfg_.CanHappenAfter(t, s) || cfg_.CanHappenAfter(s, t)) {
        path.push_back(t);
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [s, path] : sends) {
      if (labels_[s].pre &&
          std::any_of(path.begin(), path.end(),
                      [&](InstId t) { return !labels_[t].pre; })) {
        labels_[s].pre = false;
        changed = true;
      }
    }
    if (changed) FixpointLabelRemoval();
  }
}

void Partitioner::ApplyTransferAndMetadataConstraints() {
  const int n = fn_.num_insts();
  for (int iter = 0; iter < n + 1; ++iter) {
    const auto assignment = AssignmentFromLabels(labels_);
    TransferSpec to_server, to_switch;
    ComputeTransfers(assignment, &to_server, &to_switch);
    const int metadata = ComputeMetadataPeak(assignment);

    // The wire format packs condition bits into one 32-bit field.
    constexpr size_t kMaxCondBits = 32;
    const bool server_ok = to_server.Bytes(fn_) <= c_.transfer_bytes &&
                           to_server.cond_regs.size() <= kMaxCondBits;
    const bool switch_ok = to_switch.Bytes(fn_) <= c_.transfer_bytes &&
                           to_switch.cond_regs.size() <= kMaxCondBits;
    const bool metadata_ok = metadata <= c_.metadata_bytes;
    if (server_ok && switch_ok && metadata_ok) return;

    // Greedy move in a fixed topological order of the data dependencies:
    // demote the deepest offloaded statement (the one closest to the
    // partition boundary) to the server, then re-run the label fixpoint and
    // re-measure (§4.2.2).
    InstId victim = ir::kInvalidInst;
    // Selection key: deepest statement first (the fixed topological order);
    // under the weighted objective (§7), ties prefer the cheapest statement
    // so that high-benefit operations (table lookups) stay offloaded.
    auto better = [&](int depth, InstId s, int best_depth,
                      InstId best) {
      if (best == ir::kInvalidInst) return true;
      if (depth != best_depth) return depth > best_depth;
      if (c_.objective == OffloadObjective::kWeightedCycles) {
        return c_.weights.WeightOf(*insts_[s]) <
               c_.weights.WeightOf(*insts_[best]);
      }
      return false;
    };
    int best_depth = -1;
    const auto& dist_entry = deps_.DistanceFromEntry();
    const auto& dist_exit = deps_.DistanceToExit();
    for (InstId s = 0; s < n; ++s) {
      if (insts_[s] == nullptr) continue;
      if (insts_[s]->IsTerminator()) continue;
      if ((!server_ok || !metadata_ok) && assignment[s] == Part::kPre) {
        if (better(dist_entry[s], s, best_depth, victim)) {
          best_depth = dist_entry[s];
          victim = s;
        }
      } else if ((!switch_ok || (!metadata_ok && server_ok)) &&
                 assignment[s] == Part::kPost) {
        if (better(dist_exit[s], s, best_depth, victim)) {
          best_depth = dist_exit[s];
          victim = s;
        }
      }
    }
    if (victim == ir::kInvalidInst) return;  // nothing left to move
    labels_[victim] = LabelSet{false, false};
    FixpointLabelRemoval();
  }
}

std::vector<Part> Partitioner::AssignmentFromLabels(
    const std::vector<LabelSet>& labels) {
  std::vector<Part> assignment(labels.size(), Part::kNonOffloaded);
  for (size_t s = 0; s < labels.size(); ++s) {
    if (labels[s].pre) {
      assignment[s] = Part::kPre;
    } else if (labels[s].post) {
      assignment[s] = Part::kPost;
    }
  }
  return assignment;
}

void Partitioner::ComputeTransfers(const std::vector<Part>& assignment,
                                   TransferSpec* to_server,
                                   TransferSpec* to_switch) const {
  const int n = fn_.num_insts();

  // Does any statement run on the server / in the post partition?
  bool any_server = false;
  bool any_post = false;
  for (InstId s = 0; s < n; ++s) {
    if (insts_[s] == nullptr || insts_[s]->IsTerminator()) continue;
    if (insts_[s]->op == Opcode::kJump || insts_[s]->op == Opcode::kReturn)
      continue;
    if (assignment[s] == Part::kNonOffloaded) any_server = true;
    if (assignment[s] == Part::kPost) any_post = true;
  }

  // Partition in which each register is defined. (Registers have a single
  // defining statement in well-formed middlebox programs; if multiple defs
  // exist we take the earliest partition, which is the conservative choice
  // for transfer sizing.)
  std::vector<int> def_part(fn_.num_regs(), -1);  // -1 = undefined
  std::vector<bool> def_replicable(fn_.num_regs(), true);
  auto part_rank = [](Part p) {
    return p == Part::kPre ? 0 : p == Part::kNonOffloaded ? 1 : 2;
  };
  for (InstId s = 0; s < n; ++s) {
    if (insts_[s] == nullptr) continue;
    for (Reg r : insts_[s]->dsts) {
      const int rank = part_rank(assignment[s]);
      if (def_part[r] == -1 || rank < def_part[r]) def_part[r] = rank;
      if (!replicable_[s]) def_replicable[r] = false;
    }
  }

  // Data uses per register per partition rank, plus branch-condition needs.
  // The server pass and the post pass both re-walk the CFG, so they need
  // every branch condition whenever a packet can visit the server at all
  // (the post pass runs even when it owns no statements - it is what
  // re-emits the packet).
  std::vector<std::array<bool, 3>> used_in(
      fn_.num_regs(), std::array<bool, 3>{false, false, false});
  std::vector<bool> cond_needed(fn_.num_regs(), false);
  for (InstId s = 0; s < n; ++s) {
    if (insts_[s] == nullptr) continue;
    const Instruction& inst = *insts_[s];
    if (inst.op == Opcode::kBranch) {
      if (inst.args[0].is_reg() && (any_server || any_post)) {
        cond_needed[inst.args[0].reg] = true;
      }
      continue;
    }
    for (const ir::Value& v : inst.args) {
      if (v.is_reg()) used_in[v.reg][part_rank(assignment[s])] = true;
    }
  }

  auto add_full = [&](TransferSpec* spec, Reg r) {
    auto& list = fn_.reg_width(r) == ir::Width::kU1 ? spec->cond_regs
                                                    : spec->var_regs;
    if (std::find(list.begin(), list.end(), r) == list.end())
      list.push_back(r);
  };
  // A register consumed only as a branch condition crosses as a single
  // truthiness bit regardless of its width - traversal needs no more.
  auto add_cond_bit = [&](TransferSpec* spec, Reg r) {
    if (std::find(spec->var_regs.begin(), spec->var_regs.end(), r) !=
        spec->var_regs.end()) {
      return;
    }
    if (std::find(spec->cond_regs.begin(), spec->cond_regs.end(), r) ==
        spec->cond_regs.end()) {
      spec->cond_regs.push_back(r);
    }
  };

  for (Reg r = 0; r < static_cast<Reg>(fn_.num_regs()); ++r) {
    if (def_part[r] == -1) continue;
    // Values produced by replicable statements (stable header reads) are
    // re-derived locally by each partition - never transferred.
    if (def_replicable[r]) continue;
    // pre -> server header: defined on the switch pre partition, consumed
    // by the server or by the post partition (the server relays those).
    if (def_part[r] == 0) {
      if (used_in[r][1] || used_in[r][2]) {
        add_full(to_server, r);
      } else if (cond_needed[r]) {
        add_cond_bit(to_server, r);
      }
    }
    // server -> switch header: defined in pre or on the server, consumed by
    // the post partition (as data or as a branch condition).
    if (def_part[r] <= 1) {
      if (used_in[r][2]) {
        add_full(to_switch, r);
      } else if (cond_needed[r]) {
        add_cond_bit(to_switch, r);
      }
    }
  }
}

int Partitioner::ComputeMetadataPeak(
    const std::vector<Part>& assignment) const {
  // Peak bytes of simultaneously-live switch-defined temporaries, measured
  // after each offloaded statement (liveness-based slot reuse, §4.3.1).
  std::vector<uint64_t> switch_def((fn_.num_regs() + 63) / 64);
  for (InstId s = 0; s < fn_.num_insts(); ++s) {
    if (insts_[s] == nullptr || assignment[s] == Part::kNonOffloaded) continue;
    for (Reg r : insts_[s]->dsts) switch_def[r / 64] |= uint64_t{1} << (r % 64);
  }
  int peak = 0;
  for (InstId s = 0; s < fn_.num_insts(); ++s) {
    if (insts_[s] == nullptr || assignment[s] == Part::kNonOffloaded) continue;
    const uint64_t* live = liveness_.LiveOut(s).words;
    int bytes = 0;
    for (size_t w = 0; w < switch_def.size(); ++w) {
      for (uint64_t bits = live[w] & switch_def[w]; bits; bits &= bits - 1) {
        const Reg r = static_cast<Reg>(w * 64 + std::countr_zero(bits));
        bytes += ir::ByteWidth(fn_.reg_width(r));
      }
    }
    peak = std::max(peak, bytes);
  }
  return peak;
}

std::map<StateRef, StatePlacement> Partitioner::ComputeStatePlacement(
    const std::vector<Part>& assignment) const {
  std::map<StateRef, StatePlacement> placement;
  std::map<StateRef, std::pair<bool, bool>> touched;  // (switch, server)
  for (InstId s = 0; s < fn_.num_insts(); ++s) {
    if (insts_[s] == nullptr) continue;
    StateRef ref;
    if (!ir::Function::InstStateRef(*insts_[s], &ref)) continue;
    auto& [on_switch, on_server] = touched[ref];
    if (assignment[s] == Part::kNonOffloaded) {
      on_server = true;
    } else {
      on_switch = true;
    }
  }
  for (const auto& [ref, flags] : touched) {
    const auto [on_switch, on_server] = flags;
    if (on_switch && on_server) {
      placement[ref] = StatePlacement::kReplicated;
    } else if (on_switch) {
      placement[ref] = StatePlacement::kSwitchOnly;
    } else {
      placement[ref] = StatePlacement::kServerOnly;
    }
  }
  return placement;
}

Status Partitioner::VerifyPlan(const PartitionPlan& plan) const {
  auto part_rank = [](Part p) {
    return p == Part::kPre ? 0 : p == Part::kNonOffloaded ? 1 : 2;
  };
  // Dependencies must never point from a later partition to an earlier one.
  for (const analysis::DepEdge& e : deps_.edges()) {
    if (e.from == e.to) continue;
    if (insts_[e.from] == nullptr || insts_[e.to] == nullptr) continue;
    // Branch (control) edges are exempt: branches are replicated into every
    // partition that traverses them, with the condition carried in-band.
    if (insts_[e.from]->op == Opcode::kBranch) continue;
    if (part_rank(plan.assignment[e.from]) > part_rank(plan.assignment[e.to])) {
      return Internal("dependency inversion: inst " + std::to_string(e.from) +
                      " (" + PartName(plan.assignment[e.from]) + ") -> inst " +
                      std::to_string(e.to) + " (" +
                      PartName(plan.assignment[e.to]) + ")");
    }
  }
  // At most one switch access per state object (Constraint 3).
  std::map<StateRef, int> switch_accesses;
  for (InstId s = 0; s < fn_.num_insts(); ++s) {
    if (insts_[s] == nullptr || !plan.OnSwitch(s)) continue;
    StateRef ref;
    if (ir::Function::InstStateRef(*insts_[s], &ref)) ++switch_accesses[ref];
  }
  for (const auto& [ref, count] : switch_accesses) {
    if (count > 1) {
      return Internal("state " + fn_.StateName(ref) + " accessed " +
                      std::to_string(count) + " times on the switch");
    }
  }
  // Byte caps (Constraints 4 & 5).
  if (plan.to_server.Bytes(fn_) > c_.transfer_bytes ||
      plan.to_switch.Bytes(fn_) > c_.transfer_bytes) {
    return ResourceExhausted("transfer header exceeds byte cap");
  }
  if (plan.metadata_peak_bytes > c_.metadata_bytes) {
    return ResourceExhausted("per-packet metadata exceeds cap");
  }
  if (SwitchMemoryFootprint() > c_.memory_bytes) {
    return ResourceExhausted("switch memory exceeded");
  }
  return Status::Ok();
}

Result<PartitionPlan> Partitioner::Run() {
  InitLabels();
  FixpointLabelRemoval();
  ApplyPipelineDepthConstraint();
  ApplyMemoryConstraint();
  ApplySingleAccessConstraint();
  DemoteReplicatedStateWrites();
  DemoteUnsafeSends();
  ApplyTransferAndMetadataConstraints();

  PartitionPlan plan;
  plan.labels = labels_;
  plan.assignment = AssignmentFromLabels(labels_);
  plan.replicable = replicable_;
  ComputeTransfers(plan.assignment, &plan.to_server, &plan.to_switch);
  plan.metadata_peak_bytes = ComputeMetadataPeak(plan.assignment);
  plan.state_placement = ComputeStatePlacement(plan.assignment);
  // Stage usage: the longest dependency chain among switch statements
  // (Constraint 2's metric — chain length in edges, bounded by the
  // pipeline depth), measured from the program entry for pre statements
  // and toward the exit for post statements.
  for (InstId s = 0; s < fn_.num_insts(); ++s) {
    if (insts_[s] == nullptr || insts_[s]->IsTerminator()) continue;
    if (plan.assignment[s] == Part::kPre) {
      plan.pipeline_stages_used =
          std::max(plan.pipeline_stages_used, deps_.DistanceFromEntry()[s]);
    } else if (plan.assignment[s] == Part::kPost) {
      plan.pipeline_stages_used =
          std::max(plan.pipeline_stages_used, deps_.DistanceToExit()[s]);
    }
  }
  for (InstId s = 0; s < fn_.num_insts(); ++s) {
    if (insts_[s] == nullptr) continue;
    const Opcode op = insts_[s]->op;
    if (op == Opcode::kJump || op == Opcode::kReturn) continue;
    switch (plan.assignment[s]) {
      case Part::kPre: ++plan.num_pre; break;
      case Part::kNonOffloaded: ++plan.num_non_offloaded; break;
      case Part::kPost: ++plan.num_post; break;
    }
  }

  // Surface warn-level verifier diagnostics in the plan report.
  {
    std::vector<ir::VerifyWarning> warns;
    GALLIUM_RETURN_IF_ERROR(ir::VerifyFunctionWithWarnings(fn_, &warns));
    for (const ir::VerifyWarning& w : warns) plan.warnings.push_back(w.message);
    if (plan.num_pre == 0 && plan.num_post == 0) {
      plan.warnings.push_back(
          "no statements were offloaded; both switch partitions are empty");
    }
  }

  GALLIUM_RETURN_IF_ERROR(VerifyPlan(plan));
  return plan;
}

}  // namespace gallium::partition
