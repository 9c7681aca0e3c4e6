// Exact-match match-action table with the write-back shadow mechanism that
// Gallium uses for atomic state synchronization (§4.3.3):
//
//   "For each match table stored on the programmable switch, a smaller-sized
//    write-back table is created. Besides that, a single bit is also added to
//    the switch state, indicating whether the write-back table should be used
//    during table lookup. [...] If there is a matching entry, it will be used
//    as the result of the table lookup. Otherwise, the main match table will
//    be used."
//
// The data plane performs lookups only; all mutation goes through the
// control-plane methods (Stage/SetUseWriteBack/ApplyStagedToMain).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "state/flow_table.h"
#include "util/status.h"

namespace gallium::switchsim {

using TableKey = std::vector<uint64_t>;
using TableValue = std::vector<uint64_t>;

class ExactMatchTable {
 public:
  enum class MatchKind : uint8_t { kExact, kLpm };

  ExactMatchTable(std::string name, size_t key_words, size_t value_words,
                  uint64_t max_entries, MatchKind match_kind = MatchKind::kExact);

  MatchKind match_kind() const { return match_kind_; }

  const std::string& name() const { return name_; }
  uint64_t max_entries() const { return max_entries_; }
  size_t size() const { return main_.size(); }

  // --- Data plane ------------------------------------------------------------
  // Lookup honoring the use-write-back bit. A staged deletion hides the main
  // entry. Fills `value` (zero-filled on miss) and returns hit/miss.
  bool Lookup(const TableKey& key, TableValue* value) const;

  // --- Control plane (driven by the server via SwitchControlPlane) ------------
  // Stages an entry into the write-back table (empty value = delete marker).
  Status Stage(const TableKey& key, std::optional<TableValue> value);
  void SetUseWriteBack(bool use) { use_write_back_ = use; }
  bool use_write_back() const { return use_write_back_; }
  // Whether the main table can absorb every staged entry (always true in
  // cache mode, which evicts instead).
  Status CheckStagedFits() const;
  // Applies all staged entries to the main table and clears the shadow. All
  // or nothing: when the entries do not fit, nothing is applied and they
  // stay staged.
  Status ApplyStagedToMain();
  // Drops the staged entries and clears the use-write-back bit.
  void DiscardStaged() {
    write_back_.clear();
    use_write_back_ = false;
  }

  // Direct main-table mutation, used only for initial configuration (table
  // population before traffic starts).
  Status InsertMain(const TableKey& key, const TableValue& value);

  // Drops every entry (main + staged) and clears the use-write-back bit —
  // what a switch restart or a pre-resync wipe does to the table.
  void Clear() {
    main_.Clear();
    write_back_.clear();
    insertion_order_.clear();
    use_write_back_ = false;
  }

  size_t staged_entries() const { return write_back_.size(); }

  // Cache mode (§7 "Reducing memory usage"): when the table holds only a
  // fraction of the authoritative map, inserts into a full table evict the
  // oldest entry instead of failing.
  void EnableFifoEviction() { fifo_eviction_ = true; }
  bool fifo_eviction() const { return fifo_eviction_; }
  uint64_t evictions() const { return evictions_; }

 private:
  // Makes room for one more entry (cache mode only).
  void EvictOldest();
  // One exact probe of a stored key: the write-back shadow first when the
  // use-write-back bit is set (a staged deletion is a miss), then the main
  // table. Fills value_words() words of `value` on a hit.
  bool Probe(const uint64_t* key, uint64_t* value) const;

  std::string name_;
  size_t key_words_;
  size_t value_words_;
  uint64_t max_entries_;
  MatchKind match_kind_ = MatchKind::kExact;
  bool use_write_back_ = false;
  bool fifo_eviction_ = false;
  uint64_t evictions_ = 0;

  // Main entries sit on the flat cuckoo table (inline storage, O(1) lookups
  // at 10M+ entries) whatever the match kind: an LPM table stores its routes
  // under {prefix, len} keys and walks state::LongestPrefixMatch's ladder.
  state::FlowTable main_;
  std::deque<TableKey> insertion_order_;  // FIFO for cache eviction
  // The write-back shadow stays ordered: it is capped small (max_entries/4)
  // and ApplyStagedToMain's sorted iteration keeps the cache-mode eviction
  // FIFO reproducible across runs.
  // nullopt value = staged deletion.
  std::map<TableKey, std::optional<TableValue>> write_back_;
};

}  // namespace gallium::switchsim
