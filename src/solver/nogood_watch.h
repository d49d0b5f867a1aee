// Watch-based application of learned nogoods (docs/SOLVER.md).
//
// The legacy applier rescans the whole store on every propagation round:
// O(store x lits) literal probes per shadowed assignment, repeated to a
// fixpoint. This watcher transposes the two-watched-literal scheme onto
// nogoods: a nogood !(l1 & ... & lk) is the clause (!l1 | ... | !lk), a
// literal HOLDS when the engine value equals it (clause literal false),
// is BROKEN when the engine value opposes it (clause literal true - the
// nogood is satisfied), and is FREE at X. Each registered nogood watches
// two literals; propagation touches only the nogoods watching a node the
// trail just assigned.
//
// Invariant (checked against MiniSat's argument, restated in nogood
// terms): each watch is on a non-holding literal, OR it is holding and
// the other watch is broken by an assignment at the same level or below.
// Backtracking only turns assigned values into X, which preserves the
// invariant without any undo work - the watcher needs no per-level state
// beyond a trail cursor that the owner clamps after every pop_to.
//
// Freshly learned nogoods are special: at learn time every literal holds
// (they ARE the conflict), so no watch pair exists. They are "parked" and
// scanned linearly - exactly the legacy discipline - until a scan finds
// two non-holding literals to watch. The parked list is tiny (recent
// cuts only), so the rescan cost the watcher removes stays removed.
//
// Fixpoint equivalence: the watcher forces and conflicts on exactly the
// unit/all-held conditions the legacy rescan fires on, at the same
// propagation fixpoints, so CTRLJUST's engine-assisted search takes the
// same decisions either way. The store remains the bounded-LRU source of
// truth across solves; the watcher keeps its own literal copies per solve
// and feeds firings back only as LRU touches (touch_if).
#pragma once

#include <cstdint>
#include <vector>

#include "solver/implication.h"
#include "solver/lit.h"

namespace hltg {

class NogoodStore;

class NogoodWatcher {
 public:
  /// The engine must outlive the watcher. rebuild() must run after every
  /// engine reset() and before the first propagate().
  explicit NogoodWatcher(ImplicationEngine& eng) : eng_(eng) {}

  /// Drop everything and re-register the store's current contents against
  /// the engine's post-reset values. Nogoods with any literal at a cycle
  /// outside the engine's window are skipped: they cannot fire here and
  /// stay valid for wider windows (see nogoods.h).
  void rebuild(const NogoodStore& store);

  /// Register one newly learned nogood mid-solve.
  void add(const std::vector<Lit>& lits, std::size_t store_idx,
           std::uint64_t store_id);

  /// Clamp the trail cursor after the owner ran engine.pop_to(): pass the
  /// post-pop trail size.
  void on_pop(std::size_t trail_size) {
    if (cursor_ > trail_size) cursor_ = trail_size;
  }

  /// Process every trail entry since the last call plus the parked list to
  /// a fixpoint (forcing open literals' negations via imply_from_nogood and
  /// running engine propagation after each firing). Returns false when a
  /// fully-held nogood fired into a conflict (the engine holds the cut).
  /// `hits` counts firings, `comparisons` counts literal probes - the
  /// benchmark's reduction metric against the legacy rescan.
  bool propagate(NogoodStore& store, std::uint64_t* hits,
                 std::uint64_t* comparisons);

  std::size_t registered() const { return ngs_.size(); }

 private:
  enum class LS : std::uint8_t { kFree, kHolds, kBroken };

  struct Watched {
    std::vector<Lit> lits;
    std::vector<ImplicationEngine::NodeId> nodes;  ///< per literal
    int w1 = -1, w2 = -1;  ///< watched literal indices; -1 while parked
    std::size_t store_idx = 0;
    std::uint64_t store_id = 0;
  };

  LS state(const Watched& w, int j, std::uint64_t* comparisons) const {
    ++*comparisons;
    const L3 v = eng_.value(w.nodes[static_cast<std::size_t>(j)]);
    if (v == L3::X) return LS::kFree;
    return ((v == L3::T) == w.lits[static_cast<std::size_t>(j)].value)
               ? LS::kHolds
               : LS::kBroken;
  }

  /// Force the negation of literal `open` (or, with open < 0, of literal 0
  /// of a fully-held nogood - an immediate conflict with the right
  /// antecedents for the cut walker, mirroring the legacy applier).
  bool fire(const Watched& w, int open, NogoodStore& store,
            std::uint64_t* hits);

  /// Scan one parked nogood: establish watches, fire, or leave parked.
  /// Returns false on conflict; sets *fired when it forced a value.
  bool scan_parked(std::uint32_t wi, NogoodStore& store, std::uint64_t* hits,
                   std::uint64_t* comparisons, bool* fired, bool* established);

  void attach(std::uint32_t wi, int lit_idx);

  ImplicationEngine& eng_;
  std::vector<Watched> ngs_;
  std::vector<std::uint32_t> parked_;
  /// Watch lists exist only for watched nodes: list_of_[node] indexes
  /// lists_ (kNoList: nothing watches the node), and each list holds the
  /// indices of the nogoods watching its node. rebuild() empties the lists
  /// but keeps them for reuse, so a watcher that lives across many solves
  /// holds as many lists as one solve watches nodes, not one per node.
  static constexpr std::uint32_t kNoList = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> list_of_;
  std::vector<std::vector<std::uint32_t>> lists_;
  std::size_t lists_used_ = 0;
  std::vector<ImplicationEngine::NodeId> touched_;  ///< nodes with lists
  std::vector<ImplicationEngine::NodeId> ante_buf_;  ///< scratch for fire()
  std::size_t cursor_ = 0;
};

}  // namespace hltg
