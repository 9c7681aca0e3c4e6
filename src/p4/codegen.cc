#include "p4/codegen.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "util/strings.h"

namespace gallium::p4 {

using ir::HeaderField;
using ir::InstId;
using ir::Instruction;
using ir::Opcode;
using ir::Reg;
using partition::Part;
using partition::Pass;
using partition::Step;

namespace {

// Rounds a register width to the P4 field width we allocate.
int SlotBits(ir::Width w) {
  switch (w) {
    case ir::Width::kU1: return 1;
    case ir::Width::kU8: return 8;
    case ir::Width::kU16: return 16;
    case ir::Width::kU32: return 32;
    case ir::Width::kU64: return 64;
  }
  return 32;
}

std::string HeaderFieldLvalue(HeaderField f) {
  switch (f) {
    case HeaderField::kEthSrc: return "hdr.ethernet.srcAddr";
    case HeaderField::kEthDst: return "hdr.ethernet.dstAddr";
    case HeaderField::kEthType: return "hdr.ethernet.etherType";
    case HeaderField::kIpSrc: return "hdr.ipv4.srcAddr";
    case HeaderField::kIpDst: return "hdr.ipv4.dstAddr";
    case HeaderField::kIpProto: return "hdr.ipv4.protocol";
    case HeaderField::kIpTtl: return "hdr.ipv4.ttl";
    case HeaderField::kSrcPort: return "meta.l4_sport";
    case HeaderField::kDstPort: return "meta.l4_dport";
    case HeaderField::kTcpFlags: return "hdr.tcp.flags";
    case HeaderField::kTcpSeq: return "hdr.tcp.seqNo";
    case HeaderField::kTcpAck: return "hdr.tcp.ackNo";
    case HeaderField::kIngressPort: return "standard_metadata.ingress_port";
  }
  return "/*?*/";
}

}  // namespace

MetadataAllocation AllocateMetadata(const ir::Function& fn,
                                    const partition::PartitionPlan& plan) {
  MetadataAllocation alloc;
  alloc.slot_of_reg.assign(fn.num_regs(), "");

  // Which registers live in switch metadata: defined by a statement that
  // runs on the switch (pre/post/replicable).
  std::vector<bool> resident(fn.num_regs(), false);
  // First and last use position (by InstId order, a good proxy for program
  // order in builder-produced functions).
  std::vector<InstId> first_def(fn.num_regs(), -1);
  std::vector<InstId> last_use(fn.num_regs(), -1);

  for (const ir::BasicBlock& bb : fn.blocks()) {
    for (const Instruction& inst : bb.insts) {
      const bool on_switch = plan.RunsOnSwitch(inst.id);
      for (Reg r : inst.dsts) {
        if (on_switch) resident[r] = true;
        if (first_def[r] < 0 || inst.id < first_def[r]) first_def[r] = inst.id;
      }
      for (const ir::Value& v : inst.args) {
        if (v.is_reg()) last_use[v.reg] = std::max(last_use[v.reg], inst.id);
      }
    }
  }
  // Transferred registers must stay live until the handoff at path end;
  // values returning from the server (to_switch) are loaded into metadata at
  // the start of the post pass, so they are resident for the whole pass.
  for (Reg r : plan.to_server.cond_regs) last_use[r] = fn.num_insts();
  for (Reg r : plan.to_server.var_regs) last_use[r] = fn.num_insts();
  // Return-transfer registers are loaded by the post-pass preamble before
  // any statement runs, and the two passes re-execute replicable reads at
  // their original positions — so these slots must span the whole program
  // and never be shared.
  for (Reg r : plan.to_switch.cond_regs) {
    resident[r] = true;
    first_def[r] = 0;
    last_use[r] = fn.num_insts();
  }
  for (Reg r : plan.to_switch.var_regs) {
    resident[r] = true;
    first_def[r] = 0;
    last_use[r] = fn.num_insts();
  }

  // Linear-scan slot allocation: slots are per-width free lists; a slot
  // frees when the register holding it has passed its last use.
  struct Slot {
    std::string name;
    int bits;
  };
  std::map<int, std::vector<Slot>> free_slots;   // width -> available
  std::vector<std::pair<InstId, Slot>> active;   // (expiry, slot)
  int next_slot = 0;

  std::vector<std::pair<InstId, Reg>> defs;
  for (Reg r = 0; r < static_cast<Reg>(fn.num_regs()); ++r) {
    if (!resident[r] || first_def[r] < 0) continue;
    // Dead definitions (no use) still need a slot: the producing statement
    // is emitted and must have a declared destination field.
    if (last_use[r] < first_def[r]) last_use[r] = first_def[r];
    defs.push_back({first_def[r], r});
  }
  std::sort(defs.begin(), defs.end());

  for (const auto& [def_pos, r] : defs) {
    // Expire slots whose holder is dead by now.
    for (auto it = active.begin(); it != active.end();) {
      if (it->first < def_pos) {
        free_slots[it->second.bits].push_back(it->second);
        it = active.erase(it);
      } else {
        ++it;
      }
    }
    const int bits = SlotBits(fn.reg_width(r));
    Slot slot;
    auto& pool = free_slots[bits];
    if (!pool.empty()) {
      slot = pool.back();
      pool.pop_back();
    } else {
      slot = Slot{"s" + std::to_string(next_slot++) + "_b" +
                      std::to_string(bits),
                  bits};
      alloc.slots.push_back(P4Field{slot.name, bits});
      alloc.total_bits += bits;
    }
    alloc.slot_of_reg[r] = slot.name;
    active.push_back({last_use[r], slot});
  }
  return alloc;
}

namespace {

// Shared emission state for one program.
class Emitter {
 public:
  Emitter(const ir::Function& fn, const partition::PartitionPlan& plan,
          const P4GenOptions& options)
      : fn_(fn),
        plan_(plan),
        options_(options),
        cfg_(fn),
        alloc_(AllocateMetadata(fn, plan)) {}

  Result<P4Program> Generate();

 private:
  std::string RegRef(Reg r) const {
    if (!alloc_.slot_of_reg[r].empty()) return "meta." + alloc_.slot_of_reg[r];
    return "meta.x_" + SanitizeIdentifier(fn_.reg_name(r));
  }
  std::string ValueRef(const ir::Value& v) const {
    if (v.is_imm()) return std::to_string(v.imm);
    return RegRef(v.reg);
  }

  // Condition expression for a branch during the given pass.
  // Returns empty if the condition is unavailable in this pass.
  std::string CondExpr(const ir::Value& cond, Part part) const;

  void EmitInstruction(const Instruction& inst,
                       std::vector<std::string>* out);
  // Structured emission of [block, stop) for one partition pass.
  void EmitRegion(int block, int stop, Part part, int depth,
                  std::vector<std::string>* out,
                  std::set<int>* visited);

  void BuildHeadersAndParser(P4Program* program) const;
  void BuildStateObjects(P4Program* program);
  void BuildHandoff(std::vector<std::string>* out) const;

  const ir::Function& fn_;
  const partition::PartitionPlan& plan_;
  P4GenOptions options_;
  analysis::CfgInfo cfg_;
  MetadataAllocation alloc_;

  std::vector<std::string> table_of_map_;    // map index -> table name
  std::vector<std::string> reg_of_global_;   // global index -> register name
  std::vector<std::string> table_of_vector_; // vector index -> table name
  P4Program* program_ = nullptr;
};

std::string Emitter::CondExpr(const ir::Value& cond, Part part) const {
  if (cond.is_imm()) return std::to_string(cond.imm) + " != 0";
  const Reg r = cond.reg;
  // Defined on this device in this pass?
  for (const ir::BasicBlock& bb : fn_.blocks()) {
    for (const Instruction& inst : bb.insts) {
      for (Reg d : inst.dsts) {
        if (d == r && plan_.Runs(PassOf(part), inst.id)) {
          // Branch semantics are truthiness, not equality with one — wide
          // registers may hold any non-zero value.
          return RegRef(r) + " != 0";
        }
      }
    }
  }
  // Carried in the transfer header?
  const partition::TransferSpec& spec =
      part == Part::kPost ? plan_.to_switch : plan_.to_server;
  const int bit = spec.CondBit(r);
  if (part == Part::kPost && bit >= 0) {
    return "((hdr.gallium.cond_bits >> " + std::to_string(bit) +
           ") & 1) == 1";
  }
  return "";  // unavailable: the server resolves this branch
}

void Emitter::EmitInstruction(const Instruction& inst,
                              std::vector<std::string>* out) {
  auto dst = [&] { return RegRef(inst.dsts[0]); };
  switch (inst.op) {
    case Opcode::kAssign:
      out->push_back(dst() + " = " + ValueRef(inst.args[0]) + ";");
      break;
    case Opcode::kAlu: {
      const std::string a = ValueRef(inst.args[0]);
      const std::string b =
          inst.args.size() > 1 ? ValueRef(inst.args[1]) : "0";
      std::string expr;
      switch (inst.alu) {
        case ir::AluOp::kAdd: expr = a + " + " + b; break;
        case ir::AluOp::kSub: expr = a + " - " + b; break;
        case ir::AluOp::kAnd: expr = a + " & " + b; break;
        case ir::AluOp::kOr: expr = a + " | " + b; break;
        case ir::AluOp::kXor: expr = a + " ^ " + b; break;
        case ir::AluOp::kNot: expr = "~" + a; break;
        case ir::AluOp::kShl: expr = a + " << " + b; break;
        case ir::AluOp::kShr: expr = a + " >> " + b; break;
        case ir::AluOp::kEq:
        case ir::AluOp::kNe:
        case ir::AluOp::kLt:
        case ir::AluOp::kLe:
        case ir::AluOp::kGt:
        case ir::AluOp::kGe: {
          static const std::map<ir::AluOp, std::string> kCmp = {
              {ir::AluOp::kEq, "=="}, {ir::AluOp::kNe, "!="},
              {ir::AluOp::kLt, "<"},  {ir::AluOp::kLe, "<="},
              {ir::AluOp::kGt, ">"},  {ir::AluOp::kGe, ">="}};
          out->push_back(dst() + " = (" + a + " " + kCmp.at(inst.alu) + " " +
                         b + ") ? (bit<1>)1 : (bit<1>)0;");
          return;
        }
        default:
          expr = "0 /* unsupported op " + std::string(ir::AluOpName(inst.alu)) +
                 " cannot be offloaded */";
      }
      const int dst_bits = SlotBits(fn_.reg_width(inst.dsts[0]));
      out->push_back(dst() + " = (bit<" + std::to_string(dst_bits) + ">)(" +
                     expr + ");");
      break;
    }
    case Opcode::kHeaderRead:
      out->push_back(dst() + " = (bit<" +
                     std::to_string(SlotBits(fn_.reg_width(inst.dsts[0]))) +
                     ">)" + HeaderFieldLvalue(inst.field) + ";");
      break;
    case Opcode::kHeaderWrite: {
      const std::string value =
          "(bit<" +
          std::to_string(ir::BitWidth(ir::HeaderFieldWidth(inst.field))) +
          ">)" + ValueRef(inst.args[0]);
      out->push_back(HeaderFieldLvalue(inst.field) + " = " + value + ";");
      // Transport ports live behind the protocol demux: the write lands in
      // the metadata alias above and must reach whichever L4 header the
      // packet actually carries.
      if (inst.field == HeaderField::kSrcPort) {
        out->push_back("if (hdr.tcp.isValid()) { hdr.tcp.srcPort = " + value +
                       "; }");
        out->push_back("if (hdr.udp.isValid()) { hdr.udp.srcPort = " + value +
                       "; }");
      } else if (inst.field == HeaderField::kDstPort) {
        out->push_back("if (hdr.tcp.isValid()) { hdr.tcp.dstPort = " + value +
                       "; }");
        out->push_back("if (hdr.udp.isValid()) { hdr.udp.dstPort = " + value +
                       "; }");
      }
      break;
    }
    case Opcode::kMapGet: {
      const std::string& table = table_of_map_[inst.state];
      // Copy the lookup key into the table's key metadata, then apply;
      // the write-back shadow is consulted first when its bit is set
      // (§4.3.3).
      for (size_t k = 0; k < inst.args.size(); ++k) {
        out->push_back("meta." + table + "_key" + std::to_string(k) + " = " +
                       ValueRef(inst.args[k]) + ";");
      }
      out->push_back("meta." + table + "_wb_hit = 0;");
      out->push_back("wb_active_" + table + ".read(meta." + table +
                     "_wb_active, 0);");
      out->push_back("if (meta." + table + "_wb_active == 1) { tbl_" + table +
                     "_wb.apply(); }");
      out->push_back("if (meta." + table + "_wb_hit == 0) { tbl_" + table +
                     ".apply(); }");
      out->push_back(RegRef(inst.dsts[0]) + " = meta." + table + "_hit;");
      for (size_t d = 1; d < inst.dsts.size(); ++d) {
        out->push_back(RegRef(inst.dsts[d]) + " = meta." + table + "_v" +
                       std::to_string(d - 1) + ";");
      }
      break;
    }
    case Opcode::kGlobalRead:
      out->push_back(reg_of_global_[inst.state] + ".read(" + dst() + ", 0);");
      break;
    case Opcode::kGlobalWrite:
      out->push_back(reg_of_global_[inst.state] + ".write(0, " +
                     ValueRef(inst.args[0]) + ");");
      break;
    case Opcode::kVectorGet: {
      const std::string& table = table_of_vector_[inst.state];
      out->push_back("meta." + table + "_key0 = (bit<32>)" +
                     ValueRef(inst.args[0]) + ";");
      out->push_back("tbl_" + table + ".apply();");
      out->push_back(dst() + " = meta." + table + "_v0;");
      break;
    }
    case Opcode::kVectorLen:
      out->push_back("reg_" + SanitizeIdentifier(fn_.vector(inst.state).name) +
                     "_size.read(" + dst() + ", 0);");
      break;
    case Opcode::kSend:
      out->push_back("standard_metadata.egress_spec = (bit<9>)" +
                     ValueRef(inst.args[0]) + ";");
      out->push_back("meta.done = 1;");
      break;
    case Opcode::kDrop:
      out->push_back("mark_to_drop(standard_metadata);");
      out->push_back("meta.done = 1;");
      break;
    default:
      break;  // control flow handled by EmitRegion; server ops never reach
  }
}

void Emitter::EmitRegion(int block, int stop, Part part, int depth,
                         std::vector<std::string>* out,
                         std::set<int>* visited) {
  const std::string indent(static_cast<size_t>(depth) * 4, ' ');
  const Pass pass = PassOf(part);
  while (block != stop && block >= 0) {
    if (visited->count(block)) {
      // Loop back-edge: P4 cannot loop, so the region ends here in every
      // pass (loop bodies are server work by rule 5).
      out->push_back(indent + "meta.needs_server = 1; // loop -> server");
      return;
    }
    visited->insert(block);
    const ir::BasicBlock& bb = fn_.block(block);

    bool emitted_skip_marker = false;
    for (const Instruction& inst : bb.insts) {
      if (inst.IsTerminator()) break;
      const Step step = plan_.StepOf(pass, inst.id);
      if (step == Step::kRun) {
        std::vector<std::string> lines;
        EmitInstruction(inst, &lines);
        for (auto& line : lines) out->push_back(indent + line);
        emitted_skip_marker = false;
      } else if (step == Step::kSkipOwed && !emitted_skip_marker) {
        out->push_back(indent + "meta.needs_server = 1;");
        emitted_skip_marker = true;
      }
    }

    const Instruction& term = bb.terminator();
    if (term.op == Opcode::kJump) {
      block = term.target_true;
      continue;
    }
    if (term.op == Opcode::kReturn) return;

    // Branch: structured if/else up to the immediate post-dominator.
    const int join = cfg_.ImmediatePostDominator(block);
    const std::string cond = CondExpr(term.args[0], part);
    if (cond.empty()) {
      if (partition::PartitionPlan::OnUndefinedBranch(pass) ==
          partition::UndefinedBranch::kOweServer) {
        out->push_back(indent +
                       "meta.needs_server = 1; // server-resolved branch");
      }
      return;
    }
    out->push_back(indent + "if (" + cond + ") {");
    EmitRegion(term.target_true, join, part, depth + 1, out, visited);
    out->push_back(indent + "} else {");
    EmitRegion(term.target_false, join, part, depth + 1, out, visited);
    out->push_back(indent + "}");
    block = join;
  }
}

void Emitter::BuildHeadersAndParser(P4Program* program) const {
  program->headers.push_back(P4Header{
      "ethernet_t",
      {{"dstAddr", 48}, {"srcAddr", 48}, {"etherType", 16}}});
  P4Header gallium{"gallium_t", {{"var_count", 16}, {"reserved", 16},
                                 {"cond_bits", 32}}};
  const int max_slots = std::max(plan_.to_server.NumVarSlots(fn_),
                                 plan_.to_switch.NumVarSlots(fn_));
  for (int i = 0; i < max_slots; ++i) {
    gallium.fields.push_back(P4Field{"var" + std::to_string(i), 32});
  }
  program->headers.push_back(std::move(gallium));
  program->headers.push_back(P4Header{
      "ipv4_t",
      {{"version_ihl", 8}, {"diffserv", 8}, {"totalLen", 16}, {"id", 16},
       {"flags_frag", 16}, {"ttl", 8}, {"protocol", 8}, {"hdrChecksum", 16},
       {"srcAddr", 32}, {"dstAddr", 32}}});
  program->headers.push_back(P4Header{
      "tcp_t", {{"srcPort", 16}, {"dstPort", 16}, {"seqNo", 32},
                {"ackNo", 32}, {"dataOffset_res", 8}, {"flags", 8},
                {"window", 16}, {"checksum", 16}, {"urgentPtr", 16}}});
  program->headers.push_back(
      P4Header{"udp_t",
               {{"srcPort", 16}, {"dstPort", 16}, {"length", 16},
                {"checksum", 16}}});

  program->parser_states.push_back(P4ParserState{
      "start",
      {"packet.extract(hdr.ethernet);",
       "transition select(hdr.ethernet.etherType) {",
       "    0x0800: parse_ipv4;", "    0x88B5: parse_gallium;",
       "    default: accept;", "}"}});
  program->parser_states.push_back(P4ParserState{
      "parse_gallium",
      {"packet.extract(hdr.gallium);", "transition parse_ipv4;"}});
  program->parser_states.push_back(P4ParserState{
      "parse_ipv4",
      {"packet.extract(hdr.ipv4);",
       "transition select(hdr.ipv4.protocol) {", "    6: parse_tcp;",
       "    17: parse_udp;", "    default: accept;", "}"}});
  program->parser_states.push_back(P4ParserState{
      "parse_tcp",
      {"packet.extract(hdr.tcp);", "meta.l4_sport = hdr.tcp.srcPort;",
       "meta.l4_dport = hdr.tcp.dstPort;", "transition accept;"}});
  program->parser_states.push_back(P4ParserState{
      "parse_udp",
      {"packet.extract(hdr.udp);", "meta.l4_sport = hdr.udp.srcPort;",
       "meta.l4_dport = hdr.udp.dstPort;", "transition accept;"}});
}

void Emitter::BuildStateObjects(P4Program* program) {
  table_of_map_.assign(fn_.maps().size(), "");
  reg_of_global_.assign(fn_.globals().size(), "");
  table_of_vector_.assign(fn_.vectors().size(), "");

  for (const auto& [ref, placement] : plan_.state_placement) {
    if (placement == partition::StatePlacement::kServerOnly) continue;
    switch (ref.kind) {
      case ir::StateRef::Kind::kMap: {
        const ir::MapDecl& decl = fn_.map(ref.index);
        const std::string name = SanitizeIdentifier(decl.name);
        table_of_map_[ref.index] = name;

        // Key/value metadata plus hit flags.
        for (size_t k = 0; k < decl.key_widths.size(); ++k) {
          program->metadata_fields.push_back(
              P4Field{name + "_key" + std::to_string(k),
                      SlotBits(decl.key_widths[k])});
        }
        for (size_t v = 0; v < decl.value_widths.size(); ++v) {
          program->metadata_fields.push_back(
              P4Field{name + "_v" + std::to_string(v),
                      SlotBits(decl.value_widths[v])});
        }
        program->metadata_fields.push_back(P4Field{name + "_hit", 1});
        program->metadata_fields.push_back(P4Field{name + "_wb_hit", 1});
        program->metadata_fields.push_back(P4Field{name + "_wb_active", 1});

        // Hit action carries the value words as action parameters.
        P4Action hit{"act_" + name + "_hit", {}, {}};
        for (size_t v = 0; v < decl.value_widths.size(); ++v) {
          const std::string p = "value" + std::to_string(v);
          hit.params.push_back(
              "bit<" + std::to_string(SlotBits(decl.value_widths[v])) + "> " +
              p);
          hit.body.push_back("meta." + name + "_v" + std::to_string(v) +
                             " = " + p + ";");
        }
        hit.body.push_back("meta." + name + "_hit = 1;");
        P4Action miss{"act_" + name + "_miss", {}, {}};
        miss.body.push_back("meta." + name + "_hit = 0;");
        for (size_t v = 0; v < decl.value_widths.size(); ++v) {
          miss.body.push_back("meta." + name + "_v" + std::to_string(v) +
                              " = 0;");
        }
        P4Action wb_hit{"act_" + name + "_wb_hit", {}, {}};
        for (size_t v = 0; v < decl.value_widths.size(); ++v) {
          const std::string p = "value" + std::to_string(v);
          wb_hit.params.push_back(
              "bit<" + std::to_string(SlotBits(decl.value_widths[v])) + "> " +
              p);
          wb_hit.body.push_back("meta." + name + "_v" + std::to_string(v) +
                                " = " + p + ";");
        }
        wb_hit.params.push_back("bit<1> deleted");
        wb_hit.body.push_back("meta." + name + "_wb_hit = 1;");
        wb_hit.body.push_back("meta." + name + "_hit = ~deleted;");
        program->actions.push_back(std::move(hit));
        program->actions.push_back(std::move(miss));
        program->actions.push_back(std::move(wb_hit));

        P4Table table;
        table.name = "tbl_" + name;
        const char* match = decl.is_lpm() ? ": lpm" : ": exact";
        for (size_t k = 0; k < decl.key_widths.size(); ++k) {
          table.keys.push_back("meta." + name + "_key" + std::to_string(k) +
                               match);
        }
        table.actions = {"act_" + name + "_hit", "act_" + name + "_miss"};
        table.default_action = "act_" + name + "_miss";
        table.size = static_cast<int>(decl.max_entries);
        program->tables.push_back(table);

        // Write-back shadow (§4.3.3), a quarter of the main size.
        P4Table wb = table;
        wb.name = "tbl_" + name + "_wb";
        wb.actions = {"act_" + name + "_wb_hit", "act_" + name + "_miss"};
        wb.default_action = "act_" + name + "_miss";
        wb.size = std::max<int>(16, table.size / 4);
        wb.is_write_back = true;
        program->tables.push_back(std::move(wb));

        program->registers.push_back(P4Register{"wb_active_" + name, 1, 1});
        break;
      }
      case ir::StateRef::Kind::kVector: {
        const ir::VectorDecl& decl = fn_.vector(ref.index);
        const std::string name = SanitizeIdentifier(decl.name);
        table_of_vector_[ref.index] = name;
        program->metadata_fields.push_back(P4Field{name + "_key0", 32});
        program->metadata_fields.push_back(
            P4Field{name + "_v0", SlotBits(decl.elem_width)});
        P4Action hit{"act_" + name + "_at",
                     {"bit<" + std::to_string(SlotBits(decl.elem_width)) +
                      "> value0"},
                     {"meta." + name + "_v0 = value0;"}};
        program->actions.push_back(std::move(hit));
        P4Table table;
        table.name = "tbl_" + name;
        table.keys = {"meta." + name + "_key0: exact"};
        table.actions = {"act_" + name + "_at", "NoAction"};
        table.default_action = "NoAction";
        table.size = static_cast<int>(decl.max_size);
        program->tables.push_back(std::move(table));
        program->registers.push_back(
            P4Register{"reg_" + name + "_size", 32, 1});
        break;
      }
      case ir::StateRef::Kind::kGlobal: {
        const ir::GlobalDecl& decl = fn_.global(ref.index);
        const std::string name = "reg_" + SanitizeIdentifier(decl.name);
        reg_of_global_[ref.index] = name;
        program->registers.push_back(
            P4Register{name, SlotBits(decl.width), 1});
        break;
      }
    }
  }
}

void Emitter::BuildHandoff(std::vector<std::string>* out) const {
  out->push_back("if (meta.needs_server == 1) {");
  out->push_back("    // Synthesize the transfer header (Fig. 5) and forward");
  out->push_back("    // the packet to the middlebox server.");
  out->push_back("    hdr.gallium.setValid();");
  out->push_back("    hdr.gallium.var_count = " +
                 std::to_string(plan_.to_server.NumVarSlots(fn_)) + ";");
  out->push_back("    hdr.gallium.cond_bits = 0;");
  for (size_t i = 0; i < plan_.to_server.cond_regs.size(); ++i) {
    out->push_back("    hdr.gallium.cond_bits = hdr.gallium.cond_bits | "
                   "((bit<32>)" +
                   RegRef(plan_.to_server.cond_regs[i]) + " << " +
                   std::to_string(i) + ");");
  }
  int slot = 0;
  for (Reg r : plan_.to_server.var_regs) {
    const bool wide = ir::BitWidth(fn_.reg_width(r)) > 32;
    if (wide) {
      out->push_back("    hdr.gallium.var" + std::to_string(slot) +
                     " = (bit<32>)(" + RegRef(r) + " >> 32);");
      out->push_back("    hdr.gallium.var" + std::to_string(slot + 1) +
                     " = (bit<32>)" + RegRef(r) + ";");
      slot += 2;
    } else {
      out->push_back("    hdr.gallium.var" + std::to_string(slot) +
                     " = (bit<32>)" + RegRef(r) + ";");
      slot += 1;
    }
  }
  out->push_back("    hdr.ethernet.etherType = 0x88B5;");
  out->push_back("    standard_metadata.egress_spec = (bit<9>)" +
                 std::to_string(options_.server_port) + ";");
  out->push_back("}");
}

Result<P4Program> Emitter::Generate() {
  P4Program program;
  program.program_name = fn_.name();
  program_ = &program;

  BuildHeadersAndParser(&program);
  BuildStateObjects(&program);

  // Book-keeping metadata.
  program.metadata_fields.push_back(P4Field{"l4_sport", 16});
  program.metadata_fields.push_back(P4Field{"l4_dport", 16});
  program.metadata_fields.push_back(P4Field{"needs_server", 1});
  program.metadata_fields.push_back(P4Field{"done", 1});
  for (const P4Field& slot : alloc_.slots) {
    program.metadata_fields.push_back(slot);
  }
  // Registers referenced by escape-hatch names for non-slot regs are not
  // allocated: every switch statement's registers received slots above.

  std::vector<std::string>& body = program.ingress.apply_body;
  body.push_back("meta.needs_server = 0;");
  body.push_back("meta.done = 0;");
  body.push_back("if (standard_metadata.ingress_port == (bit<9>)" +
                 std::to_string(options_.server_port) + ") {");
  body.push_back("    // Post-processing: the packet returns from the server.");
  {
    // Preamble: unpack the return transfer header into metadata slots.
    for (size_t i = 0; i < plan_.to_switch.cond_regs.size(); ++i) {
      body.push_back("    " + RegRef(plan_.to_switch.cond_regs[i]) +
                     " = (bit<1>)((hdr.gallium.cond_bits >> " +
                     std::to_string(i) + ") & 1);");
    }
    int in_slot = 0;
    for (Reg r : plan_.to_switch.var_regs) {
      const bool wide = ir::BitWidth(fn_.reg_width(r)) > 32;
      const int bits = SlotBits(fn_.reg_width(r));
      if (wide) {
        body.push_back("    " + RegRef(r) + " = ((bit<64>)hdr.gallium.var" +
                       std::to_string(in_slot) + " << 32) | (bit<64>)hdr."
                       "gallium.var" + std::to_string(in_slot + 1) + ";");
        in_slot += 2;
      } else {
        body.push_back("    " + RegRef(r) + " = (bit<" +
                       std::to_string(bits) + ">)hdr.gallium.var" +
                       std::to_string(in_slot) + ";");
        in_slot += 1;
      }
    }
    std::vector<std::string> post_body;
    std::set<int> visited;
    EmitRegion(fn_.entry_block(), -1, Part::kPost, 1, &post_body, &visited);
    for (auto& line : post_body) body.push_back(line);
  }
  body.push_back("    hdr.gallium.setInvalid();");
  body.push_back("    hdr.ethernet.etherType = 0x0800;");
  body.push_back("} else {");
  body.push_back("    // Pre-processing: the packet arrives from the network.");
  {
    std::vector<std::string> pre_body;
    std::set<int> visited;
    EmitRegion(fn_.entry_block(), -1, Part::kPre, 1, &pre_body, &visited);
    for (auto& line : pre_body) body.push_back(line);
    std::vector<std::string> handoff;
    BuildHandoff(&handoff);
    for (auto& line : handoff) body.push_back("    " + line);
  }
  body.push_back("}");

  if (program.metadata_bits() > options_.max_metadata_bits) {
    return ResourceExhausted(
        "metadata exceeds scratchpad: " +
        std::to_string(program.metadata_bits()) + " bits > " +
        std::to_string(options_.max_metadata_bits));
  }
  return program;
}

}  // namespace

Result<P4Program> GenerateP4(const ir::Function& fn,
                             const partition::PartitionPlan& plan,
                             P4GenOptions options) {
  Emitter emitter(fn, plan, options);
  return emitter.Generate();
}

}  // namespace gallium::p4
