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
// per irrelevant fanin assignment instead of a rescan.
//
// Every forced value records its antecedent nodes, forming an implication
// graph. On contradiction, conflict_cut() walks the graph back to the root
// assignments (decisions and asserted objectives) actually on a path to
// the conflict - the learned nogood handed to the conflict store.
//
// The engine keeps no J-frontier: CTRLJUST picks its next objective from
// the forward view of the window, so nothing asks which values still await
// justification (docs/SOLVER.md).
#pragma once

#include <cstdint>
#include <memory>
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
  /// fixpoint computed at construction.
  void reset();

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
  /// depends on - the implication-graph cut. Sorted, duplicate-free.
  std::vector<Lit> conflict_cut() const;

  /// Forced (non-root) assignments made since construction/reset.
  std::uint64_t propagations() const { return propagations_; }

  /// The assignment trail in chronological order (pop_to truncates it).
  /// The nogood watcher keys its wake-ups off new trail entries; anything
  /// else should treat this as read-only diagnostics.
  const std::vector<NodeId>& trail() const { return trail_; }

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

  bool assign(NodeId nd, L3 v, Reason r, const NodeId* ante,
              std::size_t ante_n);
  void fail(NodeId nd, const NodeId* ante, std::size_t ante_n);

  /// Full local deduction of one gate instance (both directions).
  bool deduce_gate(GateId g, unsigned t);
  bool deduce_dff(GateId d, unsigned t);
  /// Event filter: called when fanin `idx` of (g, t) was assigned. Runs the
  /// watched-fanin protocol for wide AND/OR, full deduction otherwise.
  bool wake_from_fanin(GateId g, unsigned t, unsigned idx);

  int watch_slot(GateId g) const { return watch_slot_[g]; }
  std::uint16_t& watch(GateId g, unsigned t, int which) {
    return watches_[(static_cast<std::size_t>(watch_slot_[g]) * T_ + t) * 2 +
                    which];
  }

  const GateNet& gn_;
  unsigned T_;
  std::uint32_t n_;

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

  /// Watched-fanin slots for AND/OR gates with >= kWatchMinFanin fanins.
  static constexpr unsigned kWatchMinFanin = 3;
  std::vector<int> watch_slot_;       ///< per gate; -1 = unwatched
  std::vector<std::uint16_t> watches_;

  bool conflict_ = false;
  std::vector<NodeId> conflict_nodes_;
  /// Root literal that clashed with an already-assigned node; it never made
  /// it into the graph, so conflict_cut() adds it explicitly.
  Lit pending_root_{};
  bool have_pending_ = false;

  std::uint64_t propagations_ = 0;
  mutable std::vector<std::uint8_t> mark_;  ///< scratch for conflict_cut
};

}  // namespace hltg
