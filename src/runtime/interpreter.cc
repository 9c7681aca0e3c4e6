#include "runtime/interpreter.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace gallium::runtime {

using ir::HeaderField;
using ir::Opcode;
using partition::Part;
using partition::Pass;
using partition::Step;
using partition::UndefinedBranch;

Interpreter::Interpreter(const ir::Function& fn) : fn_(&fn) {}

uint64_t Interpreter::ReadHeaderField(const net::Packet& pkt, HeaderField f) {
  switch (f) {
    case HeaderField::kEthSrc: return pkt.eth().src.ToUint64();
    case HeaderField::kEthDst: return pkt.eth().dst.ToUint64();
    case HeaderField::kEthType: return pkt.eth().ether_type;
    case HeaderField::kIpSrc: return pkt.ip().saddr;
    case HeaderField::kIpDst: return pkt.ip().daddr;
    case HeaderField::kIpProto: return pkt.ip().protocol;
    case HeaderField::kIpTtl: return pkt.ip().ttl;
    case HeaderField::kSrcPort: return pkt.sport();
    case HeaderField::kDstPort: return pkt.dport();
    case HeaderField::kTcpFlags: return pkt.has_tcp() ? pkt.tcp().flags : 0;
    case HeaderField::kTcpSeq: return pkt.has_tcp() ? pkt.tcp().seq : 0;
    case HeaderField::kTcpAck: return pkt.has_tcp() ? pkt.tcp().ack : 0;
    case HeaderField::kIngressPort: return pkt.ingress_port();
  }
  return 0;
}

void Interpreter::WriteHeaderField(net::Packet& pkt, HeaderField f,
                                   uint64_t value) {
  switch (f) {
    case HeaderField::kEthSrc:
      pkt.eth().src = net::MacAddr::FromUint64(value);
      break;
    case HeaderField::kEthDst:
      pkt.eth().dst = net::MacAddr::FromUint64(value);
      break;
    case HeaderField::kEthType:
      pkt.eth().ether_type = static_cast<uint16_t>(value);
      break;
    case HeaderField::kIpSrc:
      pkt.ip().saddr = static_cast<uint32_t>(value);
      break;
    case HeaderField::kIpDst:
      pkt.ip().daddr = static_cast<uint32_t>(value);
      break;
    case HeaderField::kIpProto:
      pkt.ip().protocol = static_cast<uint8_t>(value);
      break;
    case HeaderField::kIpTtl:
      pkt.ip().ttl = static_cast<uint8_t>(value);
      break;
    case HeaderField::kSrcPort:
      pkt.set_sport(static_cast<uint16_t>(value));
      break;
    case HeaderField::kDstPort:
      pkt.set_dport(static_cast<uint16_t>(value));
      break;
    case HeaderField::kTcpFlags:
      if (pkt.has_tcp()) pkt.tcp().flags = static_cast<uint8_t>(value);
      break;
    case HeaderField::kTcpSeq:
      if (pkt.has_tcp()) pkt.tcp().seq = static_cast<uint32_t>(value);
      break;
    case HeaderField::kTcpAck:
      if (pkt.has_tcp()) pkt.tcp().ack = static_cast<uint32_t>(value);
      break;
    case HeaderField::kIngressPort:
      pkt.set_ingress_port(static_cast<uint32_t>(value));
      break;
  }
}

namespace {

bool PayloadContains(const net::Packet& pkt, const std::string& pattern) {
  const auto& payload = pkt.payload();
  if (pattern.empty() || payload.size() < pattern.size()) return false;
  const auto it = std::search(payload.begin(), payload.end(), pattern.begin(),
                              pattern.end());
  return it != payload.end();
}

}  // namespace

ExecResult Interpreter::Run(net::Packet& pkt, StateBackend& state,
                            uint64_t now_ms, ExecScratch* scratch) const {
  return Walk(pkt, state, now_ms, WalkConfig{}, nullptr, nullptr, nullptr,
              scratch);
}

ExecResult Interpreter::RunPartition(
    net::Packet& pkt, StateBackend& state, uint64_t now_ms,
    const partition::PartitionPlan& plan, Part part,
    const partition::TransferSpec* in_spec, const TransferValues* in_values,
    const partition::TransferSpec* out_spec,
    const std::vector<bool>* cached_maps, ExecScratch* scratch) const {
  WalkConfig config;
  config.plan = &plan;
  config.pass = partition::PassOf(part);
  config.cached_maps = cached_maps;
  return Walk(pkt, state, now_ms, config, in_spec, in_values, out_spec,
              scratch);
}

ExecResult Interpreter::RunServerFull(
    net::Packet& pkt, StateBackend& state, uint64_t now_ms,
    const partition::PartitionPlan& plan,
    const partition::TransferSpec* out_spec,
    const std::vector<bool>& cached_maps, ExecScratch* scratch) const {
  WalkConfig config;
  config.plan = &plan;
  config.pass = Pass::kRecovery;
  config.cached_maps = &cached_maps;
  return Walk(pkt, state, now_ms, config, nullptr, nullptr, out_spec, scratch);
}

ExecResult Interpreter::Walk(net::Packet& pkt, StateBackend& state,
                             uint64_t now_ms, const WalkConfig& config,
                             const partition::TransferSpec* in_spec,
                             const TransferValues* in_values,
                             const partition::TransferSpec* out_spec,
                             ExecScratch* scratch) const {
  ExecResult result;
  // Callers in packet loops pass a persistent scratch; vector::assign keeps
  // the old capacity, so re-walking the same function allocates nothing.
  ExecScratch local;
  ExecScratch& s = scratch != nullptr ? *scratch : local;
  s.regs.assign(fn_->num_regs(), 0);
  s.defined.assign(fn_->num_regs(), false);
  std::vector<uint64_t>& regs = s.regs;
  std::vector<bool>& defined = s.defined;

  if (in_spec != nullptr && in_values != nullptr) {
    for (size_t i = 0; i < in_spec->cond_regs.size(); ++i) {
      const ir::Reg r = in_spec->cond_regs[i];
      regs[r] = i < in_values->cond_values.size() ? in_values->cond_values[i]
                                                  : 0;
      defined[r] = true;
    }
    for (size_t i = 0; i < in_spec->var_regs.size(); ++i) {
      const ir::Reg r = in_spec->var_regs[i];
      regs[r] =
          i < in_values->var_values.size() ? in_values->var_values[i] : 0;
      defined[r] = true;
    }
  }

  auto value_of = [&](const ir::Value& v) -> uint64_t {
    return v.is_imm() ? v.imm : regs[v.reg];
  };
  auto set_reg = [&](ir::Reg r, uint64_t v) {
    regs[r] = v & ir::WidthMask(fn_->reg_width(r));
    defined[r] = true;
  };

  int block = fn_->entry_block();
  constexpr int kMaxSteps = 1 << 20;  // guards against runaway loops
  int steps = 0;
  bool done = false;

  const bool track_visits =
      config.plan != nullptr &&
      partition::PartitionPlan::RevisitOwesServer(config.pass);
  std::vector<bool>& visited = s.visited;
  if (track_visits) visited.assign(fn_->num_blocks(), false);

  while (!done) {
    if (track_visits) {
      if (visited[block]) {
        result.needs_server = true;
        break;
      }
      visited[block] = true;
    }
    const ir::BasicBlock& bb = fn_->block(block);
    for (size_t i = 0; i < bb.insts.size(); ++i) {
      const ir::Instruction& inst = bb.insts[i];
      if (++steps > kMaxSteps) {
        result.status = Internal("interpreter step limit exceeded in " +
                                 fn_->name());
        return result;
      }

      // --- Control flow (always traversed) -----------------------------------
      if (inst.op == Opcode::kBranch) {
        const ir::Value& cond = inst.args[0];
        if (cond.is_reg() && !defined[cond.reg]) {
          const UndefinedBranch exit =
              config.plan != nullptr
                  ? partition::PartitionPlan::OnUndefinedBranch(config.pass)
                  : UndefinedBranch::kError;
          if (exit == UndefinedBranch::kOweServer) {
            result.needs_server = true;
            done = true;
            break;
          }
          if (exit == UndefinedBranch::kFalseArm) {
            block = inst.target_false;
            break;
          }
          result.status = Internal("undefined branch condition %" +
                                   fn_->reg_name(cond.reg) + " in " +
                                   fn_->name());
          return result;
        }
        ++result.stats.branches;
        ++result.stats.insts;
        block = value_of(cond) != 0 ? inst.target_true : inst.target_false;
        break;
      }
      if (inst.op == Opcode::kJump) {
        block = inst.target_true;
        break;
      }
      if (inst.op == Opcode::kReturn) {
        done = true;
        break;
      }

      // --- Partition filtering ------------------------------------------------
      if (config.plan != nullptr) {
        const Step step = config.plan->StepOf(config.pass, inst.id);
        if (step == Step::kSkipOwed) result.needs_server = true;
        if (step != Step::kRun) continue;
      }

      ++result.stats.insts;
      switch (inst.op) {
        case Opcode::kAssign:
          set_reg(inst.dsts[0], value_of(inst.args[0]));
          ++result.stats.alu_ops;
          break;
        case Opcode::kAlu: {
          const uint64_t a = value_of(inst.args[0]);
          const uint64_t b =
              inst.args.size() > 1 ? value_of(inst.args[1]) : 0;
          // Evaluate at the wider operand width, then narrow to the dst.
          ir::Width w = ir::Width::kU64;
          set_reg(inst.dsts[0], ir::EvalAluOp(inst.alu, a, b, w));
          ++result.stats.alu_ops;
          break;
        }
        case Opcode::kHeaderRead:
          set_reg(inst.dsts[0], ReadHeaderField(pkt, inst.field));
          ++result.stats.header_ops;
          break;
        case Opcode::kHeaderWrite:
          WriteHeaderField(pkt, inst.field, value_of(inst.args[0]));
          ++result.stats.header_ops;
          break;
        case Opcode::kPayloadMatch:
          set_reg(inst.dsts[0],
                  PayloadContains(pkt, fn_->patterns()[inst.pattern]) ? 1 : 0);
          ++result.stats.payload_ops;
          break;
        case Opcode::kPayloadLen:
          set_reg(inst.dsts[0], pkt.payload().size());
          ++result.stats.payload_ops;
          break;
        case Opcode::kMapGet: {
          StateKey& key = s.key;
          key.clear();
          for (const ir::Value& v : inst.args) key.push_back(value_of(v));
          StateValue& values = s.value;
          const bool is_cached_map =
              config.cached_maps != nullptr &&
              inst.state < config.cached_maps->size() &&
              (*config.cached_maps)[inst.state];
          const bool found = state.MapLookup(inst.state, key, &values);
          if (config.pass == Pass::kPre && is_cached_map && !found) {
            // §7 cache mode: a miss in a partial table is not authoritative;
            // abort the pre pass and let the server decide from its full map.
            result.cache_miss_abort = true;
            result.needs_server = true;
            done = true;
            break;
          }
          if (config.pass == Pass::kRecovery && is_cached_map) {
            result.cached_lookups.push_back({inst.state, key});
          }
          set_reg(inst.dsts[0], found ? 1 : 0);
          for (size_t d = 1; d < inst.dsts.size(); ++d) {
            set_reg(inst.dsts[d], d - 1 < values.size() ? values[d - 1] : 0);
          }
          ++result.stats.map_lookups;
          break;
        }
        case Opcode::kMapPut: {
          const auto& decl = fn_->map(inst.state);
          const size_t nkeys = decl.key_widths.size();
          StateKey& key = s.key;
          StateValue& values = s.value;
          key.clear();
          values.clear();
          for (size_t a = 0; a < nkeys; ++a) key.push_back(value_of(inst.args[a]));
          for (size_t a = nkeys; a < inst.args.size(); ++a) {
            values.push_back(value_of(inst.args[a]));
          }
          state.MapInsert(inst.state, key, values);
          ++result.stats.map_updates;
          break;
        }
        case Opcode::kMapDel: {
          StateKey& key = s.key;
          key.clear();
          for (const ir::Value& v : inst.args) key.push_back(value_of(v));
          state.MapErase(inst.state, key);
          ++result.stats.map_updates;
          break;
        }
        case Opcode::kGlobalRead:
          set_reg(inst.dsts[0], state.GlobalRead(inst.state));
          ++result.stats.global_ops;
          break;
        case Opcode::kGlobalWrite:
          state.GlobalWrite(inst.state, value_of(inst.args[0]));
          ++result.stats.global_ops;
          break;
        case Opcode::kVectorGet:
          set_reg(inst.dsts[0],
                  state.VectorGet(inst.state, value_of(inst.args[0])));
          ++result.stats.vector_ops;
          break;
        case Opcode::kVectorLen:
          set_reg(inst.dsts[0], state.VectorSize(inst.state));
          ++result.stats.vector_ops;
          break;
        case Opcode::kTimeRead:
          set_reg(inst.dsts[0], now_ms);
          break;
        case Opcode::kSend:
          if (result.verdict.decided()) {
            result.status = Internal("second send/drop on one path in " +
                                     fn_->name());
            return result;
          }
          result.verdict.kind = Verdict::Kind::kSend;
          result.verdict.egress_port =
              static_cast<uint32_t>(value_of(inst.args[0]));
          break;
        case Opcode::kDrop:
          if (result.verdict.decided()) {
            result.status = Internal("second send/drop on one path in " +
                                     fn_->name());
            return result;
          }
          result.verdict.kind = Verdict::Kind::kDrop;
          break;
        case Opcode::kBranch:
        case Opcode::kJump:
        case Opcode::kReturn:
          break;  // handled above
      }
      if (done) break;  // a cache-miss abort ends the walk mid-block
    }
  }

  if (out_spec != nullptr) {
    for (ir::Reg r : out_spec->cond_regs) {
      result.transfer_out.cond_values.push_back(defined[r] ? regs[r] : 0);
    }
    for (ir::Reg r : out_spec->var_regs) {
      result.transfer_out.var_values.push_back(defined[r] ? regs[r] : 0);
    }
  }
  return result;
}

net::GalliumHeader PackTransfer(const ir::Function& fn,
                                const partition::TransferSpec& spec,
                                const TransferValues& values) {
  net::GalliumHeader header;
  for (size_t i = 0; i < spec.cond_regs.size(); ++i) {
    const uint64_t v =
        i < values.cond_values.size() ? values.cond_values[i] : 0;
    // Truthiness, not the low bit: wide registers used only as branch
    // conditions travel as a single bit.
    if (v != 0) header.cond_bits |= (1u << i);
  }
  for (size_t i = 0; i < spec.var_regs.size(); ++i) {
    const ir::Reg r = spec.var_regs[i];
    const uint64_t v = i < values.var_values.size() ? values.var_values[i] : 0;
    if (ir::BitWidth(fn.reg_width(r)) > 32) {
      header.vars.push_back(static_cast<uint32_t>(v >> 32));
      header.vars.push_back(static_cast<uint32_t>(v & 0xffffffff));
    } else {
      header.vars.push_back(static_cast<uint32_t>(v));
    }
  }
  return header;
}

Result<TransferValues> UnpackTransfer(const ir::Function& fn,
                                      const partition::TransferSpec& spec,
                                      const net::GalliumHeader& header) {
  TransferValues values;
  for (size_t i = 0; i < spec.cond_regs.size(); ++i) {
    values.cond_values.push_back((header.cond_bits >> i) & 1);
  }
  size_t slot = 0;
  for (const ir::Reg r : spec.var_regs) {
    const bool wide = ir::BitWidth(fn.reg_width(r)) > 32;
    const size_t need = wide ? 2 : 1;
    if (slot + need > header.vars.size()) {
      return InvalidArgument("transfer header too short for spec");
    }
    if (wide) {
      values.var_values.push_back(
          (static_cast<uint64_t>(header.vars[slot]) << 32) |
          header.vars[slot + 1]);
    } else {
      values.var_values.push_back(header.vars[slot]);
    }
    slot += need;
  }
  return values;
}

}  // namespace gallium::runtime
