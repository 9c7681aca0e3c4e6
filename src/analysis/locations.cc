#include "analysis/locations.h"

#include <algorithm>

namespace gallium::analysis {

using ir::Opcode;

ReadWriteSets ComputeReadWriteSets(const ir::Function& fn,
                                   const ir::Instruction& inst) {
  (void)fn;  // kept in the signature: annotations may become per-function
  ReadWriteSets sets;
  auto read_args = [&] {
    for (const ir::Value& v : inst.args) {
      if (v.is_reg()) sets.reads.push_back(Location::MakeReg(v.reg));
    }
  };
  auto write_dsts = [&] {
    for (ir::Reg r : inst.dsts) sets.writes.push_back(Location::MakeReg(r));
  };

  switch (inst.op) {
    case Opcode::kAssign:
    case Opcode::kAlu:
      read_args();
      write_dsts();
      break;
    case Opcode::kHeaderRead:
      sets.reads.push_back(Location::Header(inst.field));
      write_dsts();
      break;
    case Opcode::kHeaderWrite:
      read_args();
      sets.writes.push_back(Location::Header(inst.field));
      break;
    case Opcode::kPayloadMatch:
    case Opcode::kPayloadLen:
      sets.reads.push_back(Location::Payload());
      write_dsts();
      break;
    case Opcode::kMapGet:
      read_args();
      sets.reads.push_back(Location::Map(inst.state));
      write_dsts();
      break;
    case Opcode::kMapPut:
    case Opcode::kMapDel:
      read_args();
      sets.writes.push_back(Location::Map(inst.state));
      break;
    case Opcode::kGlobalRead:
      sets.reads.push_back(Location::Global(inst.state));
      write_dsts();
      break;
    case Opcode::kGlobalWrite:
      read_args();
      sets.writes.push_back(Location::Global(inst.state));
      break;
    case Opcode::kVectorGet:
      read_args();
      sets.reads.push_back(Location::Vector(inst.state));
      write_dsts();
      break;
    case Opcode::kVectorLen:
      sets.reads.push_back(Location::Vector(inst.state));
      write_dsts();
      break;
    case Opcode::kTimeRead:
      sets.reads.push_back(Location::Time());
      write_dsts();
      break;
    case Opcode::kSend:
      // The emitted packet reflects every header field and the payload, so a
      // send reads them all; it also consumes the packet (I/O effect).
      read_args();  // the egress port operand
      for (int f = 0; f < ir::kNumHeaderFields; ++f) {
        sets.reads.push_back(
            Location::Header(static_cast<ir::HeaderField>(f)));
      }
      sets.reads.push_back(Location::Payload());
      sets.writes.push_back(Location::PacketIo());
      break;
    case Opcode::kDrop:
      sets.writes.push_back(Location::PacketIo());
      break;
    case Opcode::kBranch:
      read_args();
      break;
    case Opcode::kJump:
    case Opcode::kReturn:
      break;
  }
  return sets;
}

bool Intersects(const std::vector<Location>& a,
                const std::vector<Location>& b) {
  for (const Location& la : a) {
    if (std::find(b.begin(), b.end(), la) != b.end()) return true;
  }
  return false;
}

}  // namespace gallium::analysis
