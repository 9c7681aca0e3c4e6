// The software baseline: the whole middlebox program interpreted on a
// server against host state — the FastClick-equivalent configuration the
// paper compares against.
#pragma once

#include <memory>

#include "mbox/middleboxes.h"
#include "runtime/interpreter.h"
#include "runtime/state.h"

namespace gallium::runtime {

class SoftwareMiddlebox {
 public:
  explicit SoftwareMiddlebox(const mbox::MiddleboxSpec& spec);

  struct Outcome {
    Status status = Status::Ok();
    Verdict verdict;
    telemetry::OpCounts stats;
  };

  // Processes one packet in place (header rewrites apply to `pkt`).
  Outcome Process(net::Packet& pkt, uint64_t now_ms = 0);

  const ir::Function& fn() const { return *fn_; }
  HostStateStore& state() { return state_; }

 private:
  const ir::Function* fn_;
  Interpreter interp_;
  HostStateStore state_;
};

// Applies a spec's initial state (backend lists, firewall rules, redirect
// ports) to a host store.
void ApplyStateInit(const mbox::MiddleboxSpec& spec, HostStateStore* store);

}  // namespace gallium::runtime
