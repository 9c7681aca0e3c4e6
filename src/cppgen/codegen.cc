#include "cppgen/codegen.h"

#include <set>
#include <sstream>

#include "analysis/cfg.h"
#include "util/strings.h"

namespace gallium::cppgen {

using ir::HeaderField;
using ir::Instruction;
using ir::Opcode;
using ir::Reg;
using partition::Pass;

namespace {

std::string HeaderExpr(HeaderField f) {
  switch (f) {
    case HeaderField::kEthSrc: return "pkt->eth()->src";
    case HeaderField::kEthDst: return "pkt->eth()->dst";
    case HeaderField::kEthType: return "pkt->eth()->ether_type";
    case HeaderField::kIpSrc: return "pkt->ip()->saddr";
    case HeaderField::kIpDst: return "pkt->ip()->daddr";
    case HeaderField::kIpProto: return "pkt->ip()->protocol";
    case HeaderField::kIpTtl: return "pkt->ip()->ttl";
    case HeaderField::kSrcPort: return "pkt->l4_sport()";
    case HeaderField::kDstPort: return "pkt->l4_dport()";
    case HeaderField::kTcpFlags: return "pkt->tcp()->flags";
    case HeaderField::kTcpSeq: return "pkt->tcp()->seq";
    case HeaderField::kTcpAck: return "pkt->tcp()->ack";
    case HeaderField::kIngressPort: return "gallium_hdr->orig_ingress";
  }
  return "/*?*/";
}

std::string HeaderLvalue(HeaderField f) {
  switch (f) {
    case HeaderField::kSrcPort: return "pkt->set_l4_sport";
    case HeaderField::kDstPort: return "pkt->set_l4_dport";
    default: return "";
  }
}

class CppEmitter {
 public:
  CppEmitter(const ir::Function& fn, const partition::PartitionPlan& plan,
             const CppGenOptions& options)
      : fn_(fn), plan_(plan), options_(options), cfg_(fn) {}

  Result<std::string> Generate();

 private:
  bool ServerTouches(const ir::StateRef& ref) const {
    const auto it = plan_.state_placement.find(ref);
    return it != plan_.state_placement.end() &&
           it->second != partition::StatePlacement::kSwitchOnly;
  }

  std::string RegName(Reg r) const {
    return SanitizeIdentifier(fn_.reg_name(r)) + "_r" + std::to_string(r);
  }
  std::string ValueExpr(const ir::Value& v) const {
    if (v.is_imm()) return std::to_string(v.imm) + "ull";
    return RegName(v.reg);
  }
  // Expression for a branch condition in the server pass.
  std::string CondExpr(const ir::Value& cond) const;

  void DeclareRegs(std::ostringstream& out) const;
  void EmitInstruction(const Instruction& inst, const std::string& indent,
                       std::ostringstream& out) const;
  void EmitRegion(int block, int stop, int depth, std::ostringstream& out,
                  std::set<int>* visited) const;

  const ir::Function& fn_;
  const partition::PartitionPlan& plan_;
  CppGenOptions options_;
  analysis::CfgInfo cfg_;
};

std::string CppEmitter::CondExpr(const ir::Value& cond) const {
  if (cond.is_imm()) return std::to_string(cond.imm) + "ull != 0";
  const Reg r = cond.reg;
  // Locally computed (non-offloaded or replicable def)?
  for (const ir::BasicBlock& bb : fn_.blocks()) {
    for (const Instruction& inst : bb.insts) {
      for (Reg d : inst.dsts) {
        if (d == r && plan_.Runs(Pass::kServer, inst.id)) {
          return RegName(r) + " != 0";
        }
      }
    }
  }
  const int bit = plan_.to_server.CondBit(r);
  if (bit >= 0) {
    return "((gallium_hdr->cond_bits >> " + std::to_string(bit) +
           ") & 1) != 0";
  }
  const int slot = plan_.to_server.VarSlot(fn_, r);
  if (slot >= 0) {
    return "gallium_hdr->var[" + std::to_string(slot) + "] != 0";
  }
  return RegName(r) + " != 0";
}

void CppEmitter::DeclareRegs(std::ostringstream& out) const {
  // Declare every register the server pass can touch, initialized from the
  // transfer header when the value was produced on the switch.
  std::set<Reg> declared;
  auto declare = [&](Reg r, const std::string& init) {
    if (declared.count(r)) return;
    declared.insert(r);
    out << "    " << ir::WidthCppName(fn_.reg_width(r)) << " " << RegName(r)
        << " = " << init << ";\n";
  };
  for (size_t i = 0; i < plan_.to_server.cond_regs.size(); ++i) {
    declare(plan_.to_server.cond_regs[i],
            "(gallium_hdr->cond_bits >> " + std::to_string(i) + ") & 1");
  }
  int slot = 0;
  for (Reg r : plan_.to_server.var_regs) {
    const bool wide = ir::BitWidth(fn_.reg_width(r)) > 32;
    if (wide) {
      declare(r, "((uint64_t)gallium_hdr->var[" + std::to_string(slot) +
                     "] << 32) | gallium_hdr->var[" + std::to_string(slot + 1) +
                     "]");
      slot += 2;
    } else {
      declare(r, "gallium_hdr->var[" + std::to_string(slot) + "]");
      slot += 1;
    }
  }
  for (const ir::BasicBlock& bb : fn_.blocks()) {
    for (const Instruction& inst : bb.insts) {
      if (!plan_.Runs(Pass::kServer, inst.id)) continue;
      for (Reg r : inst.dsts) declare(r, "0");
    }
  }
  // Branch conditions are referenced by the emitted control flow even when
  // their defining statements run on the switch and no transfer exists
  // (fully-offloaded programs compile to a dead but valid process()).
  for (const ir::BasicBlock& bb : fn_.blocks()) {
    const Instruction& term = bb.terminator();
    if (term.op == Opcode::kBranch && term.args[0].is_reg()) {
      declare(term.args[0].reg, "0");
    }
  }
}

void CppEmitter::EmitInstruction(const Instruction& inst,
                                 const std::string& indent,
                                 std::ostringstream& out) const {
  auto dst = [&] { return RegName(inst.dsts[0]); };
  auto args_list = [&](size_t begin, size_t end) {
    std::string s;
    for (size_t i = begin; i < end; ++i) {
      if (i > begin) s += ", ";
      s += ValueExpr(inst.args[i]);
    }
    return s;
  };
  switch (inst.op) {
    case Opcode::kAssign:
      out << indent << dst() << " = " << ValueExpr(inst.args[0]) << ";\n";
      break;
    case Opcode::kAlu: {
      const std::string a = ValueExpr(inst.args[0]);
      const std::string b = inst.args.size() > 1 ? ValueExpr(inst.args[1]) : "0";
      static const std::map<ir::AluOp, std::string> kInfix = {
          {ir::AluOp::kAdd, "+"}, {ir::AluOp::kSub, "-"},
          {ir::AluOp::kAnd, "&"}, {ir::AluOp::kOr, "|"},
          {ir::AluOp::kXor, "^"}, {ir::AluOp::kShl, "<<"},
          {ir::AluOp::kShr, ">>"}, {ir::AluOp::kEq, "=="},
          {ir::AluOp::kNe, "!="}, {ir::AluOp::kLt, "<"},
          {ir::AluOp::kLe, "<="}, {ir::AluOp::kGt, ">"},
          {ir::AluOp::kGe, ">="}, {ir::AluOp::kMul, "*"},
          {ir::AluOp::kDiv, "/"}, {ir::AluOp::kMod, "%"}};
      if (inst.alu == ir::AluOp::kNot) {
        out << indent << dst() << " = ~" << a << ";\n";
      } else if (inst.alu == ir::AluOp::kHash) {
        out << indent << dst() << " = gallium::hash_mix(" << a << ", " << b
            << ");\n";
      } else {
        out << indent << dst() << " = " << a << " " << kInfix.at(inst.alu)
            << " " << b << ";\n";
      }
      break;
    }
    case Opcode::kHeaderRead:
      out << indent << dst() << " = " << HeaderExpr(inst.field) << ";\n";
      break;
    case Opcode::kHeaderWrite: {
      const std::string setter = HeaderLvalue(inst.field);
      if (!setter.empty()) {
        out << indent << setter << "(" << ValueExpr(inst.args[0]) << ");\n";
      } else {
        out << indent << HeaderExpr(inst.field) << " = "
            << ValueExpr(inst.args[0]) << ";\n";
      }
      break;
    }
    case Opcode::kPayloadMatch:
      out << indent << dst() << " = pkt->payload_contains(\""
          << fn_.patterns()[inst.pattern] << "\");\n";
      break;
    case Opcode::kPayloadLen:
      out << indent << dst() << " = pkt->payload_length();\n";
      break;
    case Opcode::kMapGet: {
      const std::string map = SanitizeIdentifier(fn_.map(inst.state).name);
      out << indent << "{\n";
      out << indent << "    auto it = " << map << "_.find({"
          << args_list(0, inst.args.size()) << "});\n";
      out << indent << "    " << RegName(inst.dsts[0]) << " = it != " << map
          << "_.end();\n";
      for (size_t d = 1; d < inst.dsts.size(); ++d) {
        out << indent << "    " << RegName(inst.dsts[d]) << " = "
            << RegName(inst.dsts[0]) << " ? it->second[" << (d - 1)
            << "] : 0;\n";
      }
      out << indent << "}\n";
      break;
    }
    case Opcode::kMapPut: {
      const ir::MapDecl& decl = fn_.map(inst.state);
      const std::string map = SanitizeIdentifier(decl.name);
      const size_t nkeys = decl.key_widths.size();
      out << indent << map << "_[{" << args_list(0, nkeys) << "}] = {"
          << args_list(nkeys, inst.args.size()) << "};\n";
      const ir::StateRef ref{ir::StateRef::Kind::kMap, inst.state};
      const auto it = plan_.state_placement.find(ref);
      if (it != plan_.state_placement.end() &&
          it->second == partition::StatePlacement::kReplicated) {
        out << indent << "sync_.StageInsert(\"" << map << "\", {"
            << args_list(0, nkeys) << "}, {" << args_list(nkeys,
                                                          inst.args.size())
            << "});\n";
      }
      break;
    }
    case Opcode::kMapDel: {
      const std::string map = SanitizeIdentifier(fn_.map(inst.state).name);
      out << indent << map << "_.erase({" << args_list(0, inst.args.size())
          << "});\n";
      const ir::StateRef ref{ir::StateRef::Kind::kMap, inst.state};
      const auto it = plan_.state_placement.find(ref);
      if (it != plan_.state_placement.end() &&
          it->second == partition::StatePlacement::kReplicated) {
        out << indent << "sync_.StageDelete(\"" << map << "\", {"
            << args_list(0, inst.args.size()) << "});\n";
      }
      break;
    }
    case Opcode::kGlobalRead:
      out << indent << dst() << " = "
          << SanitizeIdentifier(fn_.global(inst.state).name) << "_;\n";
      break;
    case Opcode::kGlobalWrite: {
      const std::string g = SanitizeIdentifier(fn_.global(inst.state).name);
      out << indent << g << "_ = " << ValueExpr(inst.args[0]) << ";\n";
      const ir::StateRef ref{ir::StateRef::Kind::kGlobal, inst.state};
      const auto it = plan_.state_placement.find(ref);
      if (it != plan_.state_placement.end() &&
          it->second == partition::StatePlacement::kReplicated) {
        out << indent << "sync_.StageRegister(\"" << g << "\", " << g
            << "_);\n";
      }
      break;
    }
    case Opcode::kVectorGet: {
      // Index-table miss semantics: out-of-range reads yield zero, exactly
      // like the switch-side exact-match table.
      const std::string vec = SanitizeIdentifier(fn_.vector(inst.state).name);
      out << indent << dst() << " = " << ValueExpr(inst.args[0]) << " < "
          << vec << "_.size() ? " << vec << "_[" << ValueExpr(inst.args[0])
          << "] : 0;\n";
      break;
    }
    case Opcode::kVectorLen:
      out << indent << dst() << " = "
          << SanitizeIdentifier(fn_.vector(inst.state).name) << "_.size();\n";
      break;
    case Opcode::kTimeRead:
      out << indent << dst() << " = gallium::now_msec();\n";
      break;
    case Opcode::kSend:
      out << indent << "verdict->send_port = " << ValueExpr(inst.args[0])
          << ";\n";
      out << indent << "verdict->action = Verdict::kSend;\n";
      break;
    case Opcode::kDrop:
      out << indent << "verdict->action = Verdict::kDrop;\n";
      break;
    default:
      break;
  }
}

void CppEmitter::EmitRegion(int block, int stop, int depth,
                            std::ostringstream& out,
                            std::set<int>* visited) const {
  const std::string indent(static_cast<size_t>(depth) * 4 + 4, ' ');
  int guard = 0;
  while (block != stop && block >= 0 && ++guard < 10000) {
    const ir::BasicBlock& bb = fn_.block(block);
    const bool in_loop = visited->count(block) > 0;
    visited->insert(block);

    for (const Instruction& inst : bb.insts) {
      if (inst.IsTerminator()) break;
      if (plan_.Runs(Pass::kServer, inst.id)) {
        EmitInstruction(inst, indent, out);
      }
    }
    const Instruction& term = bb.terminator();
    if (term.op == Opcode::kJump) {
      block = term.target_true;
      if (in_loop) break;
      continue;
    }
    if (term.op == Opcode::kReturn) return;

    const int join = cfg_.ImmediatePostDominator(block);
    // Loop back-edges: emit as a while loop when the branch targets an
    // already-visited block (server code may loop, unlike P4).
    if (term.target_true == block || term.target_false == block) {
      const bool true_is_body = term.target_true == block;
      out << indent << "while (" << CondExpr(term.args[0])
          << (true_is_body ? "" : " == false") << ") {\n";
      out << indent << "    // single-block loop body re-emitted above\n";
      out << indent << "}\n";
      block = true_is_body ? term.target_false : term.target_true;
      continue;
    }
    out << indent << "if (" << CondExpr(term.args[0]) << ") {\n";
    EmitRegion(term.target_true, join, depth + 1, out, visited);
    out << indent << "} else {\n";
    EmitRegion(term.target_false, join, depth + 1, out, visited);
    out << indent << "}\n";
    block = join;
  }
}

Result<std::string> CppEmitter::Generate() {
  std::ostringstream out;
  out << "// Generated by Gallium — non-offloaded partition of "
      << fn_.name() << ".\n";
  out << "// Runs as a DPDK application on the middlebox server; packets\n";
  out << "// arrive from the switch carrying the Gallium transfer header.\n";
  out << "#include <cstdint>\n#include <map>\n#include <vector>\n\n";
  out << "#include \"gallium/runtime.h\"   // Packet, Verdict, SwitchSync\n";
  out << "#include \"gallium/dpdk_glue.h\" // rte_eth rx/tx wrappers\n\n";
  out << "using gallium::Verdict;\n\n";
  out << "namespace {\n\n";
  out << "// Wire layout of the synthesized transfer header (Fig. 5).\n";
  out << "struct GalliumHeader {\n";
  out << "    uint16_t var_count;\n    uint16_t reserved;\n";
  out << "    uint32_t cond_bits;\n";
  out << "    uint32_t var[" << std::max(1, plan_.to_server.NumVarSlots(fn_))
      << "];\n";
  out << "    uint32_t orig_ingress;\n";
  out << "};\n\n";
  out << "}  // namespace\n\n";
  out << "class " << SanitizeIdentifier(fn_.name()) << "Server {\n";
  out << " public:\n";

  // --- State members ------------------------------------------------------------
  for (ir::StateIndex m = 0; m < fn_.maps().size(); ++m) {
    const ir::StateRef ref{ir::StateRef::Kind::kMap, m};
    if (!ServerTouches(ref)) continue;
    const ir::MapDecl& decl = fn_.map(m);
    out << "    std::map<std::vector<uint64_t>, std::vector<uint64_t>> "
        << SanitizeIdentifier(decl.name) << "_;  // "
        << decl.key_widths.size() << "-word key, max " << decl.max_entries
        << " entries\n";
  }
  for (ir::StateIndex v = 0; v < fn_.vectors().size(); ++v) {
    const ir::StateRef ref{ir::StateRef::Kind::kVector, v};
    if (!ServerTouches(ref)) continue;
    out << "    std::vector<uint64_t> "
        << SanitizeIdentifier(fn_.vector(v).name) << "_;\n";
  }
  for (ir::StateIndex g = 0; g < fn_.globals().size(); ++g) {
    const ir::StateRef ref{ir::StateRef::Kind::kGlobal, g};
    if (!ServerTouches(ref)) continue;
    out << "    " << ir::WidthCppName(fn_.global(g).width) << " "
        << SanitizeIdentifier(fn_.global(g).name) << "_ = "
        << fn_.global(g).init << ";\n";
  }
  out << "    gallium::SwitchSync sync_;  // write-back staging + bit flip "
         "(§4.3.3)\n\n";

  // --- process() -----------------------------------------------------------------
  out << "    void process(gallium::Packet* pkt, const GalliumHeader* "
         "gallium_hdr,\n                 gallium::Verdict* verdict) {\n";
  DeclareRegs(out);
  out << "\n";
  std::set<int> visited;
  EmitRegion(fn_.entry_block(), -1, 0, out, &visited);
  out << "\n";
  out << "        // Output commit: hold the packet until replicated-state\n";
  out << "        // updates are visible on the switch (§4.3.3).\n";
  out << "        if (sync_.HasStagedUpdates()) {\n";
  out << "            sync_.CommitAtomic();\n";
  out << "        }\n";
  out << "    }\n";
  out << "};\n\n";

  // --- Driver boilerplate ----------------------------------------------------------
  out << "int main(int argc, char** argv) {\n";
  out << "    gallium::DpdkInit(argc, argv);\n";
  out << "    " << SanitizeIdentifier(fn_.name()) << "Server server;\n";
  out << "    gallium::RxTxLoop loop(/*port=*/0);\n";
  out << "    for (;;) {\n";
  out << "        auto batch = loop.RxBurst();\n";
  out << "        for (auto& pkt : batch) {\n";
  out << "            const GalliumHeader* hdr = "
         "pkt.gallium_header<GalliumHeader>();\n";
  out << "            gallium::Verdict verdict;\n";
  out << "            server.process(&pkt, hdr, &verdict);\n";
  out << "            loop.Dispatch(std::move(pkt), verdict);\n";
  out << "        }\n";
  out << "    }\n";
  out << "}\n";
  return out.str();
}

}  // namespace

Result<std::string> GenerateServerCpp(const ir::Function& fn,
                                      const partition::PartitionPlan& plan,
                                      CppGenOptions options) {
  CppEmitter emitter(fn, plan, options);
  return emitter.Generate();
}

}  // namespace gallium::cppgen
