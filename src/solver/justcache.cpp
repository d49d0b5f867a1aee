#include "solver/justcache.h"

#include <algorithm>

namespace hltg {

CanonStatus canonicalize_objectives(const std::vector<CtrlObjective>& in,
                                    std::vector<Lit>* out) {
  out->clear();
  out->reserve(in.size());
  for (const CtrlObjective& o : in) out->push_back({o.gate, o.cycle, o.value});
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  for (std::size_t i = 1; i < out->size(); ++i)
    if ((*out)[i].gate == (*out)[i - 1].gate &&
        (*out)[i].cycle == (*out)[i - 1].cycle)
      return CanonStatus::kContradiction;
  return CanonStatus::kOk;
}

std::size_t JustCache::position(const std::vector<Lit>& key,
                                std::uint64_t h) const {
  const auto [lo, hi] = index_.equal_range(h);
  for (auto it = lo; it != hi; ++it)
    if (entries_[it->second].key == key) return it->second;
  return entries_.size();
}

const JustCacheEntry* JustCache::lookup(const std::vector<Lit>& key) const {
  const std::size_t i = position(key, hash_lits(key));
  return i < entries_.size() ? &entries_[i].entry : nullptr;
}

void JustCache::insert(const std::vector<Lit>& key, JustCacheEntry entry) {
  const std::uint64_t h = hash_lits(key);
  const std::size_t i = position(key, h);
  if (i < entries_.size()) {
    entries_[i].entry = std::move(entry);
    return;
  }
  index_.emplace(h, entries_.size());
  entries_.push_back({key, std::move(entry)});
}

}  // namespace hltg
