#include "switchsim/table.h"

#include <algorithm>

namespace gallium::switchsim {

ExactMatchTable::ExactMatchTable(std::string name, size_t key_words,
                                 size_t value_words, uint64_t max_entries,
                                 MatchKind match_kind)
    : name_(std::move(name)),
      // LPM entries are stored under {prefix, prefix_len}; data-plane
      // lookups still present a single address word.
      key_words_(match_kind == MatchKind::kLpm ? 2 : key_words),
      value_words_(value_words),
      max_entries_(max_entries),
      match_kind_(match_kind) {
  if (match_kind_ == MatchKind::kExact) {
    state::FlowTable::Config config;
    config.key_words = key_words_;
    config.value_words = value_words_;
    // Start small and grow incrementally toward max_entries — switch tables
    // are declared at paper-scale capacities that most runs never fill.
    config.initial_capacity = std::min<uint64_t>(
        std::max<uint64_t>(max_entries_, 16), 1024);
    flat_ = std::make_unique<state::FlowTable>(config);
  }
}

bool ExactMatchTable::MainContains(const TableKey& key) const {
  if (flat_ != nullptr) {
    return key.size() == key_words_ && flat_->Contains(key.data());
  }
  return main_.count(key) > 0;
}

void ExactMatchTable::MainUpsert(const TableKey& key, const TableValue& value) {
  if (flat_ != nullptr) {
    flat_->Upsert(key.data(), value.data());
    return;
  }
  main_[key] = value;
}

bool ExactMatchTable::MainErase(const TableKey& key) {
  if (flat_ != nullptr) {
    return key.size() == key_words_ && flat_->Erase(key.data());
  }
  return main_.erase(key) > 0;
}

bool ExactMatchTable::Lookup(const TableKey& key, TableValue* value) const {
  if (match_kind_ == MatchKind::kLpm) {
    // Scan from the most specific prefix; at each length a staged entry
    // (when the write-back window is open) overrides the main table —
    // including staged deletions, which make that prefix fall through to
    // shorter ones.
    const uint64_t addr = key.empty() ? 0 : key[0];
    for (int len = 32; len >= 0; --len) {
      const uint64_t mask =
          len == 0 ? 0 : (~0ull << (32 - len)) & 0xffffffffull;
      const TableKey entry_key = {addr & mask, static_cast<uint64_t>(len)};
      if (use_write_back_) {
        const auto staged = write_back_.find(entry_key);
        if (staged != write_back_.end()) {
          if (!staged->second.has_value()) continue;  // staged deletion
          *value = *staged->second;
          return true;
        }
      }
      const auto it = main_.find(entry_key);
      if (it != main_.end()) {
        *value = it->second;
        return true;
      }
    }
    value->assign(value_words_, 0);
    return false;
  }
  if (use_write_back_) {
    const auto it = write_back_.find(key);
    if (it != write_back_.end()) {
      if (!it->second.has_value()) {  // staged deletion
        value->assign(value_words_, 0);
        return false;
      }
      *value = *it->second;
      return true;
    }
  }
  if (key.size() != key_words_) {
    value->assign(value_words_, 0);
    return false;
  }
  value->resize(value_words_);
  if (!flat_->Lookup(key.data(), value->data())) {
    std::fill(value->begin(), value->end(), 0);
    return false;
  }
  return true;
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
    const bool resident = MainContains(key);
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
      if (fifo_eviction_ && !MainContains(key)) {
        if (size() >= max_entries_) EvictOldest();
        insertion_order_.push_back(key);
      }
      MainUpsert(key, *value);
    } else {
      MainErase(key);
    }
  }
  write_back_.clear();
  return Status::Ok();
}

void ExactMatchTable::EvictOldest() {
  while (!insertion_order_.empty()) {
    const TableKey victim = insertion_order_.front();
    insertion_order_.erase(insertion_order_.begin());
    if (MainErase(victim)) {
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
  if (size() >= max_entries_ && !MainContains(key)) {
    if (!fifo_eviction_) {
      return ResourceExhausted("table " + name_ + ": table full");
    }
    EvictOldest();
  }
  if (fifo_eviction_ && !MainContains(key)) insertion_order_.push_back(key);
  MainUpsert(key, value);
  return Status::Ok();
}

}  // namespace gallium::switchsim
