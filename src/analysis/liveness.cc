#include "analysis/liveness.h"

#include <algorithm>

namespace gallium::analysis {

Liveness::Liveness(const ir::Function& fn, const CfgInfo& cfg)
    : live_in_(fn.num_insts(), fn.num_regs()),
      live_out_(fn.num_insts(), fn.num_regs()) {
  const int nblocks = fn.num_blocks();
  BitMatrix block_in(nblocks, fn.num_regs());
  const int words = block_in.words_per_row();
  std::vector<uint64_t> live(words);

  bool changed = true;
  while (changed) {
    changed = false;
    for (int b = nblocks - 1; b >= 0; --b) {
      if (!cfg.BlockReachable(b)) continue;
      // OUT[b] = union of IN[succ].
      std::fill(live.begin(), live.end(), 0);
      for (int s : cfg.successors(b)) {
        const uint64_t* in = block_in.Row(s);
        for (int w = 0; w < words; ++w) live[w] |= in[w];
      }

      // Walk the block backwards.
      const ir::BasicBlock& bb = fn.block(b);
      for (int i = static_cast<int>(bb.insts.size()) - 1; i >= 0; --i) {
        const ir::Instruction& inst = bb.insts[i];
        std::copy(live.begin(), live.end(), live_out_.Row(inst.id));
        for (ir::Reg r : inst.dsts) live[r / 64] &= ~(uint64_t{1} << (r % 64));
        for (const ir::Value& v : inst.args) {
          if (v.is_reg()) live[v.reg / 64] |= uint64_t{1} << (v.reg % 64);
        }
        std::copy(live.begin(), live.end(), live_in_.Row(inst.id));
      }
      uint64_t* in = block_in.Row(b);
      if (!std::equal(live.begin(), live.end(), in)) {
        std::copy(live.begin(), live.end(), in);
        changed = true;
      }
    }
  }
}

}  // namespace gallium::analysis
