// Implication engine over the unrolled controller: event-driven 3-valued
// deduction with an implication graph.
//
// The engine owns one node per (gate, cycle) of a T-cycle window and
// propagates *forced* values in both directions through every gate:
// forward (fanins determine the output) and backward (a demanded output
// pins fanins - AND=1 forces every fanin to 1; AND=0 with one unassigned
// fanin and the rest 1 forces that fanin to 0; DFFs couple cycle t to
// cycle t-1). This is the FAN/SOCRATES-style deduction the plain window
// imply() of core/unroll.h cannot do: CTRLJUST asserts its objectives,
// calls propagate(), and only branches on decision variables that are
// still genuinely free.
//
// Wide AND/OR gates (the decoder's one-hot planes) use two-watched-fanin
// wakeups: a gate instance is only re-examined when a *controlling* value
// arrives on any fanin, when its output is assigned, or when one of its two
// watched (not-yet-identity) fanins is assigned - the classic two-watched-
// literal scheme transposed to gates, so a 40-input OR plane costs O(1)
// per irrelevant fanin assignment instead of a rescan. A per-gate wake
// table, built at construction, lists the (fanout, pin) pairs an
// assignment wakes, so no fanin list is scanned to find a pin.
//
// Every forced value records its antecedent nodes, forming an implication
// graph. On contradiction, conflict_cut() walks the graph back to the root
// assignments (decisions and asserted objectives) actually on a path to
// the conflict - the learned nogood handed to the conflict store. The walk
// stops as soon as the cut outgrows the caller's limit (the store's width
// cap): a cut the store would drop is not worth finishing.
//
// The engine keeps no J-frontier: CTRLJUST picks its next objective from
// the forward view of the window, so nothing asks which values still await
// justification (docs/SOLVER.md).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gatenet/gatenet.h"
#include "solver/lit.h"
#include "util/logic3.h"

namespace hltg {

class ImplicationEngine {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kNoNode = static_cast<NodeId>(-1);

  ImplicationEngine(const GateNet& gn, unsigned cycles);

  unsigned cycles() const { return T_; }
  const GateNet& net() const { return gn_; }

  NodeId node(GateId g, unsigned t) const {
    return static_cast<NodeId>(t) * n_ + g;
  }
  GateId gate_of(NodeId nd) const { return nd % n_; }
  unsigned cycle_of(NodeId nd) const { return nd / n_; }

  L3 value(GateId g, unsigned t) const { return val_[node(g, t)]; }
  L3 value(NodeId nd) const { return val_[nd]; }

  /// Rewind everything (all levels, all roots) back to the reset-state
  /// fixpoint computed at construction. The wide gates' watched fanins stay
  /// where the last search left them.
  void reset();

  /// reset(), and put the watched fanins back where construction left
  /// them: the engine is then indistinguishable from a new one, and every
  /// later deduction is the one a new engine would make.
  void renew();

  /// Assert a root value (an objective, or a decision when `decision`) at
  /// the current level. Returns false on an immediate contradiction.
  bool assert_lit(GateId g, unsigned t, bool v, bool decision);

  /// Force a node because all other literals of a learned nogood hold.
  /// `antecedents` are the nodes of those literals. False on contradiction.
  bool imply_from_nogood(GateId g, unsigned t, bool v,
                         const std::vector<NodeId>& antecedents);

  /// Run deduction to a fixpoint. False on conflict (cut available).
  bool propagate();

  /// Open a new backtrack level (call before a decision's assert_lit).
  void push_level();
  /// Undo every assignment above `level` and clear any conflict.
  void pop_to(unsigned level);

  bool in_conflict() const { return conflict_; }

  /// Root literals (decisions + asserted objectives) the last conflict
  /// depends on - the implication-graph cut. Sorted, duplicate-free. A cut
  /// of more than `limit` literals comes back empty, its walk abandoned
  /// once the limit is passed.
  std::vector<Lit> conflict_cut(
      std::size_t limit = static_cast<std::size_t>(-1)) const;

  /// Forced (non-root) assignments made since construction/reset.
  std::uint64_t propagations() const { return propagations_; }

  /// The assignment trail in chronological order (pop_to truncates it).
  /// The nogood watcher keys its wake-ups off new trail entries; anything
  /// else should treat this as read-only diagnostics.
  const std::vector<NodeId>& trail() const { return trail_; }

  /// One fanout wake-up: fanin `pin` of `gate`, or with pin kDffPin the
  /// next-cycle output of the DFF `gate`.
  struct Wake {
    GateId gate;
    std::uint32_t pin;
    bool operator==(const Wake&) const = default;
  };
  static constexpr std::uint32_t kDffPin = static_cast<std::uint32_t>(-1);
  /// What an assignment to gate g wakes, in the order propagate() visits
  /// it: one entry per pin of each GateNet::fanouts() entry that g drives,
  /// duplicate fanins included, as a scan of the fanin lists would find
  /// them. Built once at construction.
  std::span<const Wake> wakes(GateId g) const {
    return {wake_.data() + wake_ofs_[g], wake_.data() + wake_ofs_[g + 1]};
  }

  /// The two fanin pins watched on (g, t) of a wide AND/OR gate; nullopt
  /// for every other gate. Diagnostics: propagation moves them.
  std::optional<std::array<unsigned, 2>> watched_pins(GateId g,
                                                      unsigned t) const {
    if (gates_[g].watch_slot < 0) return std::nullopt;
    const std::size_t i = watch_at(g, t);
    return std::array<unsigned, 2>{watches_[i], watches_[i + 1]};
  }

 private:
  enum class Reason : std::uint8_t {
    kUnset,
    kReset,     ///< implied by the reset fixpoint (unconditional)
    kRoot,      ///< decision or asserted objective
    kForward,   ///< fanins determined the value (justified by construction)
    kBackward,  ///< demanded by a fanout (may still need justification)
    kNogood,    ///< forced by a learned nogood (antecedents recorded)
  };

  struct NodeInfo {
    Reason reason = Reason::kUnset;
    std::uint32_t ante_ofs = 0;
    std::uint16_t ante_len = 0;
  };

  /// Set node `nd` to `v` for reason `r`: a no-op when it already holds
  /// `v`, a conflict when it holds the opposite value.
  bool assign(NodeId nd, L3 v, Reason r, const NodeId* ante,
              std::size_t ante_n) {
    return val_[nd] == v || record(nd, v, r, ante, ante_n);
  }
  /// assign() of a node not already at `v`.
  bool record(NodeId nd, L3 v, Reason r, const NodeId* ante,
              std::size_t ante_n);
  void fail(NodeId nd, const NodeId* ante, std::size_t ante_n);

  /// Full local deduction of one gate instance (both directions).
  bool deduce_gate(GateId g, unsigned t);
  bool deduce_dff(GateId d, unsigned t);
  /// Event filter: called when fanin `idx` of (g, t) was assigned. Runs the
  /// watched-fanin protocol for wide AND/OR, full deduction otherwise.
  bool wake_from_fanin(GateId g, unsigned t, unsigned idx);

  std::size_t watch_at(GateId g, unsigned t) const {
    return (static_cast<std::size_t>(gates_[g].watch_slot) * T_ + t) * 2;
  }
  std::uint16_t& watch(GateId g, unsigned t, int which) {
    return watches_[watch_at(g, t) + which];
  }
  /// The fanins of gate g, from the compact copy below.
  const GateId* fanin(GateId g) const {
    return fanin_.data() + gates_[g].fanin_at;
  }

  const GateNet& gn_;
  unsigned T_;
  std::uint32_t n_;

  /// What deduction reads of each gate, copied from the GateNet once so
  /// the hot loops stay off the full Gate records. watch_slot indexes the
  /// watched-fanin slots of AND/OR gates with >= kWatchMinFanin fanins
  /// (-1: unwatched).
  struct GateRec {
    GateKind kind;
    std::uint16_t nfanin;
    std::int32_t watch_slot;
    std::uint32_t fanin_at;  ///< offset into fanin_
  };
  std::vector<GateRec> gates_;
  std::vector<GateId> fanin_;

  /// wakes(g) is wake_[wake_ofs_[g] .. wake_ofs_[g + 1]).
  std::vector<std::uint32_t> wake_ofs_;
  std::vector<Wake> wake_;

  std::vector<L3> val_;
  std::vector<NodeInfo> info_;
  std::vector<NodeId> ante_pool_;
  std::vector<NodeId> trail_;
  std::size_t qhead_ = 0;

  struct LevelMark {
    std::size_t trail, pool;
  };
  std::vector<LevelMark> trail_lim_;
  LevelMark base_{};  ///< marks at the end of the reset fixpoint

  static constexpr unsigned kWatchMinFanin = 3;
  std::vector<std::uint16_t> watches_;
  std::vector<std::uint16_t> initial_watches_;  ///< watches_ after construction

  bool conflict_ = false;
  std::vector<NodeId> conflict_nodes_;
  /// Root literal that clashed with an already-assigned node; it never made
  /// it into the graph, so conflict_cut() adds it explicitly.
  Lit pending_root_{};
  bool have_pending_ = false;

  std::uint64_t propagations_ = 0;
  std::vector<NodeId> ante_buf_;  ///< scratch antecedents for deduce_gate
  /// Scratch for conflict_cut: visited flags, walk stack, visited nodes.
  mutable std::vector<std::uint8_t> mark_;
  mutable std::vector<NodeId> cut_stack_, cut_marked_;
};

}  // namespace hltg
