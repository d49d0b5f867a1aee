#include "solver/nogoods.h"

#include <algorithm>

namespace hltg {

bool NogoodStore::learn(std::vector<Lit> lits) {
  if (lits.empty() || lits.size() > max_lits_ || capacity_ == 0) return false;
  const std::uint64_t h = hash_lits(lits);
  for (Entry& e : entries_)
    if (e.hash == h && e.lits == lits) {
      e.stamp = ++clock_;
      return false;
    }
  if (entries_.size() >= capacity_) {
    auto victim = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
    const std::uint64_t stamp = ++clock_;
    *victim = {std::move(lits), h, stamp, stamp};
    last_index_ = static_cast<std::size_t>(victim - entries_.begin());
  } else {
    const std::uint64_t stamp = ++clock_;
    entries_.push_back({std::move(lits), h, stamp, stamp});
    last_index_ = entries_.size() - 1;
  }
  ++learned_;
  return true;
}

}  // namespace hltg
