#include "runtime/state.h"

#include <algorithm>
#include <cassert>

#include "state/lpm.h"

namespace gallium::runtime {

HostStateStore::HostStateStore(const ir::Function& fn, uint64_t flow_capacity)
    : fn_(&fn) {
  maps_.reserve(fn.maps().size());
  for (size_t m = 0; m < fn.maps().size(); ++m) {
    const ir::MapDecl& decl = fn.map(m);
    state::FlowTable::Config config;
    config.key_words =
        decl.is_lpm() ? state::kLpmKeyWords : decl.key_widths.size();
    config.value_words = decl.value_widths.size();
    if (flow_capacity > 0) config.initial_capacity = flow_capacity;
    // Per-map seed: two maps holding the same keys (flows + creation times)
    // should not collide in lockstep.
    config.hash_seed = 0x9e3779b97f4a7c15ull ^ (0x100000001b3ull * (m + 1));
    maps_.emplace_back(config);
  }
  vectors_.resize(fn.vectors().size());
  globals_.resize(fn.globals().size());
  for (size_t g = 0; g < fn.globals().size(); ++g) {
    globals_[g] = fn.globals()[g].init;
  }
}

bool HostStateStore::MapLookup(ir::StateIndex map, const StateKey& key,
                               StateValue* values) {
  const state::FlowTable& table = maps_[map];
  values->resize(table.value_words());
  bool hit = false;
  if (fn_->map(map).is_lpm()) {
    // The lookup key is the single address; entries are {prefix, len}.
    hit = state::LongestPrefixMatch(
        key.empty() ? 0 : key[0], [&](const uint64_t* entry) {
          return table.Lookup(entry, values->data());
        });
  } else {
    assert(key.size() == table.key_words());
    hit = key.size() == table.key_words() &&
          table.Lookup(key.data(), values->data());
  }
  if (!hit) std::fill(values->begin(), values->end(), 0);
  return hit;
}

void HostStateStore::MapInsert(ir::StateIndex map, const StateKey& key,
                               const StateValue& values) {
  state::FlowTable& table = maps_[map];
  assert(key.size() == table.key_words());
  assert(values.size() == table.value_words());
  if (key.size() != table.key_words()) return;
  table.Upsert(key.data(), values.data());
}

void HostStateStore::MapErase(ir::StateIndex map, const StateKey& key) {
  state::FlowTable& table = maps_[map];
  if (key.size() != table.key_words()) return;
  table.Erase(key.data());
}

std::map<StateKey, StateValue> HostStateStore::map_contents(
    ir::StateIndex map) const {
  std::map<StateKey, StateValue> sorted;
  const state::FlowTable& table = maps_[map];
  const size_t kw = table.key_words();
  const size_t vw = table.value_words();
  table.ForEach([&](const uint64_t* key, const uint64_t* value) {
    sorted.emplace(StateKey(key, key + kw), StateValue(value, value + vw));
  });
  return sorted;
}

void HostStateStore::ForEachMapEntry(
    ir::StateIndex map,
    const std::function<void(const StateKey&, const StateValue&)>& fn) const {
  const state::FlowTable& table = maps_[map];
  const size_t kw = table.key_words();
  const size_t vw = table.value_words();
  StateKey key_scratch(kw);
  StateValue value_scratch(vw);
  table.ForEach([&](const uint64_t* key, const uint64_t* value) {
    key_scratch.assign(key, key + kw);
    value_scratch.assign(value, value + vw);
    fn(key_scratch, value_scratch);
  });
}

uint64_t HostStateStore::VectorGet(ir::StateIndex vec, uint64_t index) {
  const auto& v = vectors_[vec];
  // A vector compiles to an index-keyed exact-match table on the switch, so
  // an out-of-range read is a table miss and yields zero — the host
  // semantics must match (middleboxes bound their indices with a modulo
  // anyway).
  if (index >= v.size()) return 0;
  return v[index];
}

uint64_t HostStateStore::VectorSize(ir::StateIndex vec) {
  return vectors_[vec].size();
}

uint64_t HostStateStore::GlobalRead(ir::StateIndex global) {
  if (global < delegated_.size() && delegated_[global] != nullptr) {
    return delegated_[global]->Read(global);
  }
  return globals_[global];
}

void HostStateStore::GlobalWrite(ir::StateIndex global, uint64_t value) {
  if (global < delegated_.size() && delegated_[global] != nullptr) {
    delegated_[global]->Write(global, value);
    return;
  }
  globals_[global] = value;
}

void HostStateStore::DelegateGlobal(ir::StateIndex g, GlobalOverlay* overlay) {
  if (delegated_.size() < globals_.size()) delegated_.resize(globals_.size());
  overlay->Write(g, globals_[g]);
  delegated_[g] = overlay;
}

}  // namespace gallium::runtime
