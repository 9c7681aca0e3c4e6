// Abstract memory locations and per-instruction read/write sets (§4.1).
//
// "Gallium provides a simple approach to extract all the instruction-level
// dependencies by comparing each instruction's read and write sets (i.e., the
// collection of variables an instruction accesses or modifies)."
//
// The location vocabulary covers everything a statement can touch: virtual
// registers (LLVM temporaries), packet header fields, the packet payload,
// annotated data structures (maps/vectors), scalar globals, the time source,
// and the packet-I/O effect (send/drop ordering).
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "ir/function.h"

namespace gallium::analysis {

struct Location {
  enum class Kind : uint8_t {
    kReg,      // virtual register; index = Reg
    kHeader,   // packet header field; index = HeaderField
    kPayload,  // packet payload (opaque blob)
    kMap,      // map state; index = map StateIndex
    kVector,   // vector state; index = vector StateIndex
    kGlobal,   // scalar global; index = global StateIndex
    kTime,     // wall-clock source
    kPacketIo, // the packet emission effect (send/drop)
  };

  Kind kind = Kind::kReg;
  uint32_t index = 0;

  static Location MakeReg(ir::Reg r) { return {Kind::kReg, r}; }
  static Location Header(ir::HeaderField f) {
    return {Kind::kHeader, static_cast<uint32_t>(f)};
  }
  static Location Payload() { return {Kind::kPayload, 0}; }
  static Location Map(ir::StateIndex i) { return {Kind::kMap, i}; }
  static Location Vector(ir::StateIndex i) { return {Kind::kVector, i}; }
  static Location Global(ir::StateIndex i) { return {Kind::kGlobal, i}; }
  static Location Time() { return {Kind::kTime, 0}; }
  static Location PacketIo() { return {Kind::kPacketIo, 0}; }

  auto operator<=>(const Location&) const = default;
};

struct ReadWriteSets {
  std::vector<Location> reads;
  std::vector<Location> writes;
};

// Builds the read and write sets of one instruction, applying the Click API
// annotations of §4.1:
//  - HashMap::find reads the key registers and the map, writes its results;
//  - HashMap::insert/erase read their arguments and write the map;
//  - Vector::operator[] reads the index and the vector;
//  - header accessors read/write the named header field;
//  - send() reads every header field and the payload (the emitted packet
//    reflects all prior writes) and writes the packet-I/O effect.
ReadWriteSets ComputeReadWriteSets(const ir::Function& fn,
                                   const ir::Instruction& inst);

// True when the two sets intersect.
bool Intersects(const std::vector<Location>& a, const std::vector<Location>& b);

}  // namespace gallium::analysis
