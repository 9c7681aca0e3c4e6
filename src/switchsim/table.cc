#include "switchsim/table.h"

#include <algorithm>

#include "state/lpm.h"

namespace gallium::switchsim {

namespace {

// Start small and grow incrementally toward max_entries — switch tables are
// declared at paper-scale capacities that most runs never fill.
state::FlowTable::Config MainConfig(size_t key_words, size_t value_words,
                                    uint64_t max_entries) {
  state::FlowTable::Config config;
  config.key_words = key_words;
  config.value_words = value_words;
  config.initial_capacity =
      std::min<uint64_t>(std::max<uint64_t>(max_entries, 16), 1024);
  return config;
}

}  // namespace

ExactMatchTable::ExactMatchTable(std::string name, size_t key_words,
                                 size_t value_words, uint64_t max_entries,
                                 MatchKind match_kind)
    : name_(std::move(name)),
      // LPM entries are stored under {prefix, prefix_len}; data-plane
      // lookups still present a single address word.
      key_words_(match_kind == MatchKind::kLpm ? state::kLpmKeyWords
                                               : key_words),
      value_words_(value_words),
      max_entries_(max_entries),
      match_kind_(match_kind),
      main_(MainConfig(key_words_, value_words_, max_entries_)) {}

bool ExactMatchTable::Probe(const uint64_t* key, uint64_t* value) const {
  if (use_write_back_) {
    const auto it = write_back_.find(TableKey(key, key + key_words_));
    if (it != write_back_.end()) {
      if (!it->second.has_value()) return false;  // staged deletion
      std::copy(it->second->begin(), it->second->end(), value);
      return true;
    }
  }
  return main_.Lookup(key, value);
}

bool ExactMatchTable::Lookup(const TableKey& key, TableValue* value) const {
  value->resize(value_words_);
  // An LPM lookup scans from the most specific prefix; a staged deletion
  // misses at its length and so falls through to shorter prefixes.
  const bool hit =
      match_kind_ == MatchKind::kLpm
          ? state::LongestPrefixMatch(
                key.empty() ? 0 : key[0],
                [&](const uint64_t* entry) {
                  return Probe(entry, value->data());
                })
          : key.size() == key_words_ && Probe(key.data(), value->data());
  if (!hit) std::fill(value->begin(), value->end(), 0);
  return hit;
}

Status ExactMatchTable::Stage(const TableKey& key,
                              std::optional<TableValue> value) {
  if (key.size() != key_words_) {
    return InvalidArgument("table " + name_ + ": key arity mismatch");
  }
  if (value.has_value() && value->size() != value_words_) {
    return InvalidArgument("table " + name_ + ": value arity mismatch");
  }
  // The write-back table is sized as a fraction of the main table; a full
  // shadow means the control plane must flush before staging more.
  const uint64_t shadow_cap = std::max<uint64_t>(16, max_entries_ / 4);
  if (write_back_.size() >= shadow_cap && !write_back_.count(key)) {
    return ResourceExhausted("table " + name_ + ": write-back table full");
  }
  write_back_[key] = std::move(value);
  return Status::Ok();
}

Status ExactMatchTable::CheckStagedFits() const {
  if (fifo_eviction_) return Status::Ok();  // cache mode evicts instead
  if (size() + write_back_.size() <= max_entries_) return Status::Ok();
  // Near capacity: replay ApplyStagedToMain's iteration on entry counts.
  uint64_t entries = size();
  for (const auto& [key, value] : write_back_) {
    const bool resident = main_.Contains(key.data());
    if (!value.has_value()) {
      entries -= resident ? 1 : 0;
    } else if (!resident) {
      if (entries >= max_entries_) {
        return ResourceExhausted("table " + name_ + ": table full (" +
                                 std::to_string(max_entries_) + " entries)");
      }
      ++entries;
    }
  }
  return Status::Ok();
}

Status ExactMatchTable::ApplyStagedToMain() {
  GALLIUM_RETURN_IF_ERROR(CheckStagedFits());
  for (auto& [key, value] : write_back_) {
    if (value.has_value()) {
      if (fifo_eviction_ && !main_.Contains(key.data())) {
        if (size() >= max_entries_) EvictOldest();
        insertion_order_.push_back(key);
      }
      main_.Upsert(key.data(), value->data());
    } else {
      main_.Erase(key.data());
    }
  }
  write_back_.clear();
  return Status::Ok();
}

void ExactMatchTable::EvictOldest() {
  while (!insertion_order_.empty()) {
    const TableKey victim = std::move(insertion_order_.front());
    insertion_order_.pop_front();
    if (main_.Erase(victim.data())) {
      ++evictions_;
      return;
    }
    // The FIFO can hold keys already deleted through the control plane;
    // skip them and keep looking.
  }
}

Status ExactMatchTable::InsertMain(const TableKey& key,
                                   const TableValue& value) {
  if (key.size() != key_words_ || value.size() != value_words_) {
    return InvalidArgument("table " + name_ + ": arity mismatch");
  }
  const bool resident = main_.Contains(key.data());
  if (size() >= max_entries_ && !resident) {
    if (!fifo_eviction_) {
      return ResourceExhausted("table " + name_ + ": table full");
    }
    EvictOldest();
  }
  if (fifo_eviction_ && !resident) insertion_order_.push_back(key);
  main_.Upsert(key.data(), value.data());
  return Status::Ok();
}

}  // namespace gallium::switchsim
