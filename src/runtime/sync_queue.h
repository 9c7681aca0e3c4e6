// Bounded, coalescing control-plane backlog (ROADMAP: "batched+coalesced
// control-plane update streams" surviving heavy flow arrival rates).
//
// The inline write-back path pays one control-plane round-trip (~135 µs)
// per state-mutating packet; under flow churn that is the bottleneck long
// before the data plane is. The backlog queue decouples the two: packets
// enqueue their replicated-state mutations and are released immediately
// (relaxed output commit — the host store stays authoritative), and the
// runtime drains the queue as one *coalesced* batch per pump: mutations to
// the same key merge last-writer-wins, so N updates of one flow's entry
// cost one table write, while per-key ordering (and therefore the final
// replicated state) is preserved exactly.
//
// The queue is bounded. When an enqueue would exceed the bound the runtime
// applies its overflow policy — backpressure (drain inline, blocking like
// strict output commit) or ingress shedding (refuse the packet before it
// touches state, explicitly accounted) — so an unreachable control plane
// degrades into a measured, bounded backlog instead of an unbounded queue.
//
// Every batch the switch receives is a drained backlog; strict mode is the
// backlog delivered on every enqueue. Only *map* mutations may wait. Their
// staleness is detectable (a queued insert the switch has not seen is a
// table miss, and the miss path recomputes on the server against the
// authoritative host store); a replicated global's staleness is not
// (register reads have no miss path), so a batch that carries a global
// mutation is delivered at once, the older backlog with it.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/state.h"
#include "util/status.h"

namespace gallium::runtime {

struct SyncQueueOptions {
  // Queued batches the backlog may hold; 0 selects strict output commit
  // (every batch is delivered as soon as it is queued, its packet held).
  uint64_t max_backlog_batches = 0;
  // Deliver the coalesced backlog every this-many packets (1 = drain every
  // packet; larger values trade switch staleness for coalescing factor).
  uint64_t pump_interval_packets = 1;
  enum class OverflowPolicy : uint8_t {
    kBackpressure,  // drain inline (blocking) until below the bound
    kShedIngress,   // refuse new packets at ingress, explicitly accounted
  };
  OverflowPolicy overflow = OverflowPolicy::kBackpressure;

  bool enabled() const { return max_backlog_batches > 0; }
};

// The backlog itself: a hashed per-key view of every queued mutation, kept
// in first-touch arrival order. Single-writer, like the rest of the
// per-instance runtime.
class CoalescingSyncQueue {
 public:
  using MapMutation = RecordingStateBackend::MapMutation;
  using GlobalMutation = RecordingStateBackend::GlobalMutation;

  // Folds one packet's mutations into the backlog. Mutations land in
  // arrival order per key; a later write to the same key replaces the
  // queued one (last-writer-wins) and is counted as coalesced.
  void Enqueue(const std::vector<MapMutation>& maps,
               const std::vector<GlobalMutation>& globals);

  // Pops the entire pending backlog as one coalesced batch, first-touched
  // key first. The queue is empty afterwards.
  void DrainInto(std::vector<MapMutation>* maps,
                 std::vector<GlobalMutation>* globals);

  // Drops the backlog without delivering it — correct only when a full
  // resync from the host store is about to subsume every queued mutation.
  void ClearForResync();

  bool empty() const { return depth_ == 0; }
  // Queued batches (enqueues) not yet drained — the bounded quantity.
  uint64_t depth() const { return depth_; }
  uint64_t peak_depth() const { return peak_depth_; }

  // Accounting.
  uint64_t enqueued_batches() const { return enqueued_batches_; }
  uint64_t enqueued_mutations() const { return enqueued_mutations_; }
  // Mutations superseded by a later write to the same key — control-plane
  // work the coalescer eliminated.
  uint64_t coalesced_mutations() const { return coalesced_mutations_; }
  uint64_t drained_batches() const { return drained_batches_; }
  // Mutations dropped by ClearForResync (subsumed by a snapshot).
  uint64_t cleared_mutations() const { return cleared_mutations_; }

 private:
  // Pending mutations live in dense vectors in first-touch arrival order —
  // DrainInto emits them by a straight move, no sort. A later write to a
  // queued key overwrites its vector slot in place (last-writer-wins,
  // arrival position preserved). The lookup that used to be an O(log n)
  // ordered-map find per mutation is an open-addressing hash index over the
  // map vector (slot stores position+1; keys are compared against the
  // pending mutation itself, so the index holds no key storage). Globals
  // are dense small integers and index directly. Drains and clears retain
  // capacity: at steady state under churn the queue never allocates.
  struct PendingMap {
    uint64_t hash;
    MapMutation mutation;
  };

  uint64_t HashOf(ir::StateIndex map, const StateKey& key) const;
  // Probes the index for (map, key): returns the slot holding its
  // position+1, or the empty slot where it would be inserted (*slot == 0).
  uint64_t* FindIndexSlot(uint64_t hash, ir::StateIndex map,
                          const StateKey& key);
  // Doubles (or initializes) the index and re-registers every pending
  // mutation. Positions are stable, so this is hash-only work.
  void GrowIndex();

  std::vector<PendingMap> pending_maps_;
  std::vector<uint64_t> map_index_;  // power-of-two open addressing
  std::vector<GlobalMutation> pending_globals_;
  std::vector<uint32_t> global_slot_;  // global -> position+1

  uint64_t depth_ = 0;
  uint64_t peak_depth_ = 0;
  uint64_t enqueued_batches_ = 0;
  uint64_t enqueued_mutations_ = 0;
  uint64_t coalesced_mutations_ = 0;
  uint64_t drained_batches_ = 0;
  uint64_t cleared_mutations_ = 0;
};

}  // namespace gallium::runtime
