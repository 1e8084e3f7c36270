#include "core/pattern_table.h"

#include <algorithm>
#include <sstream>

namespace gpm::core {

void PatternTable::Accumulate(uint64_t code, const graph::Pattern& exemplar,
                              uint64_t count) {
  auto it = index_.find(code);
  if (it == index_.end()) {
    index_.emplace(code, entries_.size());
    entries_.push_back({code, exemplar, count, true});
  } else {
    entries_[it->second].support += count;
  }
}

const PatternEntry* PatternTable::Find(uint64_t code) const {
  auto it = index_.find(code);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

std::size_t PatternTable::InvalidateBelow(uint64_t min_support) {
  std::size_t invalidated = 0;
  for (PatternEntry& e : entries_) {
    if (e.valid && e.support < min_support) {
      e.valid = false;
      ++invalidated;
    }
  }
  return invalidated;
}

std::unordered_set<uint64_t> PatternTable::InvalidCodes() const {
  std::unordered_set<uint64_t> codes;
  for (const PatternEntry& e : entries_) {
    if (!e.valid) codes.insert(e.code);
  }
  return codes;
}

void PatternTable::EraseInvalid() {
  std::vector<PatternEntry> kept;
  kept.reserve(entries_.size());
  for (PatternEntry& e : entries_) {
    if (e.valid) kept.push_back(std::move(e));
  }
  entries_ = std::move(kept);
  index_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_.emplace(entries_[i].code, i);
  }
}

std::vector<PatternEntry> PatternTable::TopPatterns() const {
  std::vector<PatternEntry> out;
  for (const PatternEntry& e : entries_) {
    if (e.valid) out.push_back(e);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const PatternEntry& a, const PatternEntry& b) {
                     return a.support > b.support;
                   });
  return out;
}

std::vector<PatternEntry> PatternTable::MaximalPatterns() const {
  std::vector<PatternEntry> valid;
  for (const PatternEntry& e : entries_) {
    if (e.valid) valid.push_back(e);
  }
  std::vector<PatternEntry> maximal;
  for (const PatternEntry& e : valid) {
    bool contained = false;
    for (const PatternEntry& other : valid) {
      if (other.code == e.code) continue;
      if (e.exemplar.ContainedIn(other.exemplar)) {
        contained = true;
        break;
      }
    }
    if (!contained) maximal.push_back(e);
  }
  return maximal;
}

std::size_t PatternTable::StorageBytes() const {
  return entries_.size() * sizeof(PatternEntry);
}

std::string PatternTable::DebugString() const {
  std::ostringstream os;
  os << "PatternTable(" << entries_.size() << " patterns:";
  for (const PatternEntry& e : entries_) {
    os << " [sup=" << e.support << (e.valid ? "" : " invalid") << " "
       << e.exemplar.DebugString() << "]";
  }
  os << ")";
  return os.str();
}

}  // namespace gpm::core
