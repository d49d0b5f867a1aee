// Learned-conflict store: bounded LRU of nogoods.
//
// A nogood is a sorted, duplicate-free set of Lits that cannot all hold
// simultaneously - the conflict cut the implication engine extracts when
// propagation hits a contradiction. Because a cut consists only of root
// assignments on a path to a circuit-level contradiction, a nogood is a
// consequence of the controller netlist itself: it stays valid across
// objective sets and across windows (a literal at cycle t exists in any
// window of more than t cycles), so one generator's store prunes every
// later CTRLJUST search of the same campaign worker.
#pragma once

#include <cstdint>
#include <vector>

#include "solver/lit.h"

namespace hltg {

class NogoodStore {
 public:
  /// Cuts wider than `max_lits` are not worth storing: they almost never
  /// fire again and matching them would dominate.
  explicit NogoodStore(std::size_t capacity = 256, std::size_t max_lits = 8)
      : capacity_(capacity), max_lits_(max_lits) {}

  /// Record a conflict cut. `lits` must be sorted and duplicate-free
  /// (conflict_cut() output already is). Returns true when newly stored;
  /// duplicates, empty cuts and cuts wider than max_lits are dropped.
  bool learn(std::vector<Lit> lits);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Widest cut learn() accepts: the limit to pass to conflict_cut().
  std::size_t max_lits() const { return max_lits_; }
  /// Total nogoods ever accepted (monotone; survives eviction).
  std::uint64_t learned() const { return learned_; }

  const std::vector<Lit>& lits(std::size_t i) const {
    return entries_[i].lits;
  }
  /// LRU bump: call when nogood `i` fired (pruned or forced a value).
  void touch(std::size_t i) { entries_[i].stamp = ++clock_; }
  /// Stable identity of slot `i`'s current occupant (eviction replaces the
  /// occupant in place, so an index alone can go stale across learns).
  std::uint64_t id(std::size_t i) const { return entries_[i].id; }
  /// LRU bump that tolerates staleness: bumps only while slot `i` still
  /// holds the nogood it held at registration time. The watch-based
  /// applier fires from its own literal copies, so this is its only
  /// feedback into the store's eviction order.
  void touch_if(std::size_t i, std::uint64_t expected_id) {
    if (i < entries_.size() && entries_[i].id == expected_id)
      entries_[i].stamp = ++clock_;
  }
  /// Slot filled by the most recent successful learn().
  std::size_t last_index() const { return last_index_; }

  /// Resident cuts in slot order, for persistence (src/solver/store.h).
  std::vector<std::vector<Lit>> export_cuts() const {
    std::vector<std::vector<Lit>> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.lits);
    return out;
  }

  void clear() {
    entries_.clear();
    learned_ = 0;
    clock_ = 0;
    last_index_ = 0;
  }

 private:
  struct Entry {
    std::vector<Lit> lits;
    std::uint64_t hash = 0;
    std::uint64_t stamp = 0;
    std::uint64_t id = 0;
  };

  std::size_t capacity_;
  std::size_t max_lits_;
  std::vector<Entry> entries_;
  std::uint64_t learned_ = 0;
  std::uint64_t clock_ = 0;
  std::size_t last_index_ = 0;
};

}  // namespace hltg
