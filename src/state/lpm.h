// Longest-prefix match (§7's LPM extension) over exact {prefix, prefix_len}
// keys, so an LPM map sits on a FlowTable like every exact-match map. The
// host store and the switch table share this one ladder and differ only in
// what they probe.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gallium::state {

inline constexpr size_t kLpmKeyWords = 2;  // {prefix, prefix_len}

// Calls probe(const uint64_t* key) with key = {addr & mask(len), len} for
// len = 32, 31, ..., 0 until a probe returns true; returns whether one did.
// The key lives on the stack, so the ladder never allocates.
template <typename Probe>
bool LongestPrefixMatch(uint64_t addr, Probe&& probe) {
  uint64_t key[kLpmKeyWords] = {};
  for (int len = 32; len >= 0; --len) {
    const uint64_t mask = len == 0 ? 0 : 0xffffffffull << (32 - len);
    key[0] = addr & mask & 0xffffffffull;
    key[1] = static_cast<uint64_t>(len);
    if (probe(static_cast<const uint64_t*>(key))) return true;
  }
  return false;
}

}  // namespace gallium::state
