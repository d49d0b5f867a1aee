// CTRLJUST: justification of CTRL signals in the controller (Sec. V.C).
//
// A PODEM-based branch-and-bound search over the pipeframe decision
// variables - the CPI and STS bits of each cycle of the unrolled window
// (never the CSI state bits; that is the Sec.-IV transformation). Given a
// set of objectives (c_i, v_i) on controller signals, it determines an
// input sequence starting from the controller's reset state that satisfies
// all of them, or proves none exists within the window / budget.
//
// One search loop, with or without the implication engine (src/solver/).
// The decision sequence always comes from the forward view: imply the
// decisions into the window (re-evaluating only the forward cone of the
// assignments that changed), classify the objectives, backtrace an open
// one. With the engine on (CtrlJustConfig::use_engine) objectives are also
// asserted in the engine, propagate() forces values in both directions,
// conflicts are analyzed into learned nogoods and definitive results land
// in the justification cache when a SolverContext is attached. The engine
// only prunes proven-doomed subtrees, so a search that no cap stops lands
// on the same success leaf either way (see docs/SOLVER.md).
//
// Decisions on STS variables must later be justified by the datapath: they
// are returned so TG can hand them to DPRELAX (Sec. V.C / Fig. 4).
#pragma once

#include <memory>
#include <vector>

#include "core/objectives.h"
#include "core/unroll.h"
#include "solver/implication.h"
#include "solver/solver.h"
#include "util/budget.h"
#include "util/effort.h"
#include "util/status.h"

namespace hltg {

class NogoodWatcher;

/// One entry of the recorded search trace.
struct SearchEvent {
  enum Kind : std::uint8_t { kDecide, kFlip, kPop } kind;
  GateId gate;
  unsigned cycle;
  bool value;
};

struct CtrlJustResult {
  TgStatus status = TgStatus::kFailure;
  /// Why the search unwound when status == kFailure with objectives still
  /// open (per-search caps, or the attempt-wide budget firing).
  AbortReason abort = AbortReason::kNone;
  /// Decisions/implied values on STS variables: (gate, cycle, value). Every
  /// entry becomes a datapath justification obligation for DPRELAX.
  std::vector<std::tuple<GateId, unsigned, bool>> sts_assignments;
  /// Assignments on CPI variables: (gate, cycle, value) - fixed instruction
  /// bits for the emitter.
  std::vector<std::tuple<GateId, unsigned, bool>> cpi_assignments;
  Effort stats;  ///< the CTRLJUST counters of util/effort.h
  std::vector<SearchEvent> trace;  ///< populated when record_trace is set
};

/// Human-readable rendering of a recorded search trace.
std::string render_trace(const GateNet& gn,
                         const std::vector<SearchEvent>& trace);

struct CtrlJustConfig {
  std::uint64_t max_backtracks = 64;
  std::uint64_t max_decisions = 5000;
  bool record_trace = false;  ///< keep the decision sequence for debugging
  /// Shadow the search with the implication engine (nogoods, cache). Off:
  /// the bare PODEM loop (error_campaign --solver off).
  bool use_engine = true;
};

class CtrlJust {
 public:
  CtrlJust(const GateNet& gn, unsigned cycles, CtrlJustConfig cfg = {});
  ~CtrlJust();

  /// Attach the shared per-generator deduction context (learned nogoods +
  /// justification cache). Optional; the engine runs without one, it just
  /// cannot learn across solves. The context must outlive this object.
  void set_context(SolverContext* ctx) { ctx_ = ctx; }

  /// Make the next solve() behave as a new CtrlJust's first would. Between
  /// solves the engine keeps its wide gates' watched fanins where the last
  /// search left them. That reaches the same fixpoints, but in another
  /// order, which can change antecedents, cuts and counters; a CtrlJust
  /// reused for another batch of solves calls this first.
  void renew() {
    if (engine_) engine_->renew();
  }

  /// Solve for the given objectives, starting from an empty assignment.
  /// `budget`, when given, is polled every iteration and charged with the
  /// search's decisions/backtracks; when it fires the search unwinds with
  /// kFailure and the abort reason set.
  CtrlJustResult solve(const std::vector<CtrlObjective>& objectives,
                       Budget* budget = nullptr);

  /// The window (exposed so TG can read the full implied CTRL trajectory
  /// after a successful solve). A justification-cache hit replays its
  /// witness into the window.
  const ControllerWindow& window() const { return win_; }

 private:
  struct Decision {
    GateId gate;
    unsigned cycle;
    bool value;
    bool flipped = false;
  };

  /// Objective state under current implications.
  enum class ObjState { kSatisfied, kViolated, kOpen };
  ObjState objective_state(const CtrlObjective& o) const;

  /// PODEM backtrace from an open objective to an unassigned free variable.
  /// Returns false if no route exists (treated as a conflict).
  bool backtrace(CtrlObjective o, Decision* out) const;

  /// The branch-and-bound loop (solve() adds canonicalization and cache).
  CtrlJustResult search(const std::vector<CtrlObjective>& objectives,
                        Budget* budget);

  /// Apply learned nogoods to a fixpoint (force negations, detect all-hold
  /// conflicts). False when a nogood fired into a conflict.
  bool apply_nogoods(CtrlJustResult& res);
  /// Record the current conflict's cut in the store, if one is attached.
  void learn_conflict(CtrlJustResult& res);

  const GateNet& gn_;
  unsigned cycles_;
  ControllerWindow win_;
  CtrlJustConfig cfg_;
  SolverContext* ctx_ = nullptr;
  std::unique_ptr<ImplicationEngine> engine_;  ///< lazy; use_engine only
  /// Watch-based nogood applier (lazy; engine on, with a context whose
  /// config enables use_nogood_watches). Rebuilt at the top of every solve.
  std::unique_ptr<NogoodWatcher> watcher_;
};

}  // namespace hltg
