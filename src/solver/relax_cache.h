// DPRELAX memo: exact-key replay of definitive backsolve results.
//
// Learning hard nogoods from DPRELAX failures would be unsound: the
// backsolve is incomplete ("may fail to find a solution even if there is
// one"), so a failure is not a proof, and pruning CTRLJUST with it would
// change which witness the search lands on - diverging campaign rows.
// What IS sound is memoization: a DpRelax::solve call is a pure function
// of its full subproblem (rng seed, iteration/depth caps, constraint set
// including provenance, entry-point free variables, and the injected
// error), so replaying a recorded definitive result - success or failure,
// including the final variable state - is byte-identical to recomputing
// it.
//
// Where it pays: warm starts. Within one run a key practically never
// repeats - it holds the full injection, so no other error shares an
// entry, and the window is mixed into the derived seed (below), so the
// window retry cannot replay one either. A context warm-started from a
// persisted store (solver/store.h) replays every relax solve of the run
// that wrote it. The memo therefore has no capacity and never evicts: a
// bounded LRU would evict imported entries before their turn comes. It
// holds one entry per definitive solve for as long as its SolverContext
// lives - one error at error scope, one worker's share of the population
// at campaign scope.
//
// The window is NOT part of the key, but it IS mixed into the derived seed
// (core/tg.h relax_plan_seed), which the key serializes - so entries never
// transfer between windows. The causality argument for window-independence
// (constraints live at cycles below the window; the simulation is causal)
// holds everywhere EXCEPT one margin: the runaway-PC cap in
// DpRelax::set_instr_word scales with the window, so a backsolve that
// walks near the cap can genuinely depend on it. Seed separation closes
// that hole without widening the key.
//
// Results that aborted on a budget (abort != kNone) are never stored: they
// depend on how much budget was left, which is caller state, not
// subproblem state.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/dprelax.h"
#include "core/objectives.h"
#include "sim/proc_sim.h"

namespace hltg {

class RelaxCache {
 public:
  /// Serialized subproblem identity (exact, not just a hash).
  struct Key {
    std::vector<std::uint64_t> words;
    bool operator==(const Key&) const = default;
  };

  /// Build the key for one solve call. `vars` must be the ENTRY state
  /// (before solve mutates it).
  static Key make_key(const DpRelaxConfig& cfg, const RelaxVars& vars,
                      const std::vector<RelaxConstraint>& constraints,
                      const ErrorInjection& inj);

  /// Probe. On a hit, *result and *vars are overwritten with the recorded
  /// outcome and final variable state.
  bool find(const Key& key, DpRelaxResult* result, RelaxVars* vars) const;

  /// Record a definitive result (ignored when result.abort != kNone; the
  /// first result stored for a key wins). `vars` is the FINAL state after
  /// solve.
  void store(const Key& key, const DpRelaxResult& result,
             const RelaxVars& vars);

  void clear() {
    entries_.clear();
    index_.clear();
  }

  /// Index hash of a key (util/fnv.h fnv_words over its word stream).
  static std::uint64_t hash_key(const Key& k);

  std::size_t size() const { return entries_.size(); }

  /// Every entry in insertion order, for persistence (src/solver/store.h);
  /// deterministic for a deterministic campaign.
  struct Exported {
    Key key;
    DpRelaxResult result;
    RelaxVars vars;
  };
  const std::vector<Exported>& export_entries() const { return entries_; }

 private:
  const Exported* lookup(const Key& key, std::uint64_t h) const;

  std::vector<Exported> entries_;
  /// hash_key -> position in entries_; equal hashes are told apart by key.
  std::unordered_multimap<std::uint64_t, std::size_t> index_;
};

}  // namespace hltg
