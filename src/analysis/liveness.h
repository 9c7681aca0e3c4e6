// Classic backward live-variable analysis over virtual registers.
//
// Used for (a) the partition-boundary "variable liveness test" that decides
// which temporaries must be carried in the synthesized packet header
// (§4.2.2 Constraint 5, §4.3.2) and (b) metadata-slot reuse on the switch
// (§4.3.1: "Gallium records when temporary variables are first and last used
// [and] reuses the memory consumed by variables that are no longer useful").
#pragma once

#include "analysis/bit_matrix.h"
#include "analysis/cfg.h"
#include "ir/function.h"

namespace gallium::analysis {

class Liveness {
 public:
  Liveness(const ir::Function& fn, const CfgInfo& cfg);

  // Registers live immediately before / after instruction `id` executes.
  BitRow LiveIn(ir::InstId id) const { return live_in_.View(id); }
  BitRow LiveOut(ir::InstId id) const { return live_out_.View(id); }

 private:
  BitMatrix live_in_;   // per InstId x register
  BitMatrix live_out_;  // per InstId x register
};

}  // namespace gallium::analysis
