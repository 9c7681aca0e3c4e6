// Runtime state backends.
//
// The interpreter executes IR statements against a StateBackend; the server
// uses plain in-memory containers (HostStateStore) while the switch data
// plane uses match-action tables and registers with write-back semantics
// (switchsim::SwitchStateBackend). Both implement the same interface so the
// semantics of a map lookup are identical on either device.
//
// Every map lives on a flat cuckoo flow table (state::FlowTable): inline
// key/value storage, O(1) lookups, incremental resize — sized for 10M+
// concurrent flows. An LPM map stores its routes under 2-word
// {prefix, prefix_len} keys, and a lookup walks state::LongestPrefixMatch's
// prefix ladder over them. Iteration over a flow table is UNORDERED; any
// consumer that needs determinism goes through map_contents(), which
// returns an explicitly sorted snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "ir/function.h"
#include "state/flow_table.h"
#include "util/status.h"

namespace gallium::runtime {

using StateKey = std::vector<uint64_t>;
using StateValue = std::vector<uint64_t>;

class StateBackend {
 public:
  virtual ~StateBackend() = default;

  // Map operations. Lookup fills `values` (decl-sized) and returns presence;
  // on a miss `values` is zero-filled (the IR's defined miss semantics).
  virtual bool MapLookup(ir::StateIndex map, const StateKey& key,
                         StateValue* values) = 0;
  virtual void MapInsert(ir::StateIndex map, const StateKey& key,
                         const StateValue& values) = 0;
  virtual void MapErase(ir::StateIndex map, const StateKey& key) = 0;

  virtual uint64_t VectorGet(ir::StateIndex vec, uint64_t index) = 0;
  virtual uint64_t VectorSize(ir::StateIndex vec) = 0;

  virtual uint64_t GlobalRead(ir::StateIndex global) = 0;
  virtual void GlobalWrite(ir::StateIndex global, uint64_t value) = 0;
};

// Alternate home for a single global register. When execution is sharded
// across worker cores, replicated globals cannot live in each shard's
// private store — every worker must observe the same value for the sync
// core's inline output commit to stay correct. The engine parks those
// globals in one shared hub and delegates each shard's accesses to it.
class GlobalOverlay {
 public:
  virtual ~GlobalOverlay() = default;
  virtual uint64_t Read(ir::StateIndex global) const = 0;
  virtual void Write(ir::StateIndex global, uint64_t value) = 0;
};

// Plain in-memory state for a host (the FastClick baseline and the
// non-offloaded server partition).
class HostStateStore : public StateBackend {
 public:
  // `flow_capacity` preallocates each map's flow table for that many
  // entries (galliumc --flow-capacity); 0 picks a small default and
  // lets the tables grow incrementally under churn.
  explicit HostStateStore(const ir::Function& fn, uint64_t flow_capacity = 0);

  bool MapLookup(ir::StateIndex map, const StateKey& key,
                 StateValue* values) override;
  void MapInsert(ir::StateIndex map, const StateKey& key,
                 const StateValue& values) override;
  void MapErase(ir::StateIndex map, const StateKey& key) override;
  uint64_t VectorGet(ir::StateIndex vec, uint64_t index) override;
  uint64_t VectorSize(ir::StateIndex vec) override;
  uint64_t GlobalRead(ir::StateIndex global) override;
  void GlobalWrite(ir::StateIndex global, uint64_t value) override;

  // Deterministic (sorted) snapshot of one map's contents, for tests,
  // serialization, and equivalence checks. Flow-table iteration order is
  // arbitrary; this is the explicit sort that keeps snapshot comparisons
  // stable. O(n log n) and allocating — never on the packet path.
  std::map<StateKey, StateValue> map_contents(ir::StateIndex map) const;

  // Unordered visit of one map's entries without materializing a snapshot
  // (resync paths). The key/value references are only valid inside `fn`.
  void ForEachMapEntry(
      ir::StateIndex map,
      const std::function<void(const StateKey&, const StateValue&)>& fn) const;

  // The flat flow table backing a map — batched-aging sweeps and benches
  // reach through this. Its key_words() is 2 for an LPM map.
  state::FlowTable* flow_table(ir::StateIndex map) { return &maps_[map]; }
  const state::FlowTable* flow_table(ir::StateIndex map) const {
    return &maps_[map];
  }

  std::vector<uint64_t>& vector_contents(ir::StateIndex vec) {
    return vectors_[vec];
  }
  const std::vector<uint64_t>& vector_contents(ir::StateIndex vec) const {
    return vectors_[vec];
  }
  uint64_t global_value(ir::StateIndex g) const {
    if (g < delegated_.size() && delegated_[g] != nullptr) {
      return delegated_[g]->Read(g);
    }
    return globals_[g];
  }

  // Re-homes one global into `overlay`: all reads and writes (including
  // global_value, which the resync path uses) go through it from now on.
  // The overlay is seeded with the store's current value.
  void DelegateGlobal(ir::StateIndex g, GlobalOverlay* overlay);

  size_t MapSize(ir::StateIndex map) const { return maps_[map].size(); }

 private:
  const ir::Function* fn_;
  std::vector<state::FlowTable> maps_;  // never resized after construction
  std::vector<std::vector<uint64_t>> vectors_;
  std::vector<uint64_t> globals_;
  std::vector<GlobalOverlay*> delegated_;
};

// Wraps another backend and records every mutation to a watched subset of
// state objects — used by the offloaded runtime to build the control-plane
// update batch that synchronizes replicated state to the switch (§4.3.3).
class RecordingStateBackend : public StateBackend {
 public:
  struct MapMutation {
    ir::StateIndex map;
    StateKey key;
    StateValue values;  // empty = deletion
    bool is_erase = false;
  };
  struct GlobalMutation {
    ir::StateIndex global;
    uint64_t value;
  };

  RecordingStateBackend(StateBackend* inner,
                        std::vector<bool> watched_maps,
                        std::vector<bool> watched_globals)
      : inner_(inner),
        watched_maps_(std::move(watched_maps)),
        watched_globals_(std::move(watched_globals)) {}

  bool MapLookup(ir::StateIndex map, const StateKey& key,
                 StateValue* values) override {
    return inner_->MapLookup(map, key, values);
  }
  void MapInsert(ir::StateIndex map, const StateKey& key,
                 const StateValue& values) override {
    inner_->MapInsert(map, key, values);
    if (map < watched_maps_.size() && watched_maps_[map]) {
      map_mutations_.push_back(MapMutation{map, key, values, false});
    }
  }
  void MapErase(ir::StateIndex map, const StateKey& key) override {
    inner_->MapErase(map, key);
    if (map < watched_maps_.size() && watched_maps_[map]) {
      map_mutations_.push_back(MapMutation{map, key, {}, true});
    }
  }
  uint64_t VectorGet(ir::StateIndex vec, uint64_t index) override {
    return inner_->VectorGet(vec, index);
  }
  uint64_t VectorSize(ir::StateIndex vec) override {
    return inner_->VectorSize(vec);
  }
  uint64_t GlobalRead(ir::StateIndex global) override {
    return inner_->GlobalRead(global);
  }
  void GlobalWrite(ir::StateIndex global, uint64_t value) override {
    inner_->GlobalWrite(global, value);
    if (global < watched_globals_.size() && watched_globals_[global]) {
      global_mutations_.push_back(GlobalMutation{global, value});
    }
  }

  const std::vector<MapMutation>& map_mutations() const {
    return map_mutations_;
  }
  const std::vector<GlobalMutation>& global_mutations() const {
    return global_mutations_;
  }
  bool HasMutations() const {
    return !map_mutations_.empty() || !global_mutations_.empty();
  }
  void Clear() {
    map_mutations_.clear();
    global_mutations_.clear();
  }

 private:
  StateBackend* inner_;
  std::vector<bool> watched_maps_;
  std::vector<bool> watched_globals_;
  std::vector<MapMutation> map_mutations_;
  std::vector<GlobalMutation> global_mutations_;
};

}  // namespace gallium::runtime
