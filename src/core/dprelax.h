// DPRELAX: value selection in the datapath by discrete relaxation
// (Sec. V.B, after Lee & Patel).
//
// The free value variables are the paper's DPI set: instruction-word fields
// (register specifiers, immediates - the opcode/function bits are already
// fixed by CTRLJUST's CPI decisions), the initial register file, and the
// initial data memory. A solve relaxes on event-driven RelaxWindows
// (core/relax_window.h) its caller owns and may keep across solves (TG
// does, core/tg.h): the good machine's, plus the erroneous one's when a
// kSiteDiffers constraint needs it. Each iteration:
//   1. updates the windows with the current variables, re-evaluating only
//      what differs from their last update - the previous iteration's, or
//      the previous solve's last; the values always equal a full
//      simulation of the implementation whatever the windows held before,
//      so semantics can never diverge and a solve reads the same values on
//      reused windows as on fresh ones,
//   2. finds a violated constraint, and
//   3. backsolves it through the window's values - module-by-module inverse
//      rules (add: a = y - b; mux: follow the selected input; register-file
//      read: adjust the feeding write or the initial state; ...) - until a
//      free variable is adjusted.
// The method is incomplete, exactly as the paper notes: it "cannot prove
// that the system has no solutions, and may fail to find a solution even if
// there is one"; failures surface as backtracks/aborts in TG. Because
// DPTRACE selects paths first, the systems handed here are usually
// underdetermined and convergence is fast.
#pragma once

#include <vector>

#include "core/objectives.h"
#include "core/relax_window.h"
#include "util/budget.h"
#include "util/rng.h"
#include "util/status.h"

namespace hltg {

struct DpRelaxConfig {
  unsigned max_iterations = 80;
  unsigned max_depth = 64;   ///< backsolve recursion cap
  std::uint64_t seed = 12345;
};

struct DpRelaxResult {
  TgStatus status = TgStatus::kFailure;
  AbortReason abort = AbortReason::kNone;  ///< set when the budget fired
  unsigned iterations = 0;
  /// Iterations that also updated the erroneous machine's window.
  unsigned pair_captures = 0;
  /// Schedule steps the windows evaluated during this solve (the change in
  /// their counters). The deduction store does not carry it, and TG
  /// charges it only for solves it ran, never for a memo replay.
  std::uint64_t evals = 0;
  std::string note;
};

/// True when some constraint is kSiteDiffers: the solve then needs the
/// erroneous machine's window.
bool needs_erroneous_window(const std::vector<RelaxConstraint>& constraints);

class DpRelax {
 public:
  explicit DpRelax(const DlxModel& m, DpRelaxConfig cfg = {});

  /// Iterate until every constraint holds in the good machine (and, for
  /// kSiteDiffers constraints, the erroneous machine diverges at the site).
  /// `good` is the good machine's window and `err` the erroneous
  /// machine's, of the same size (the test window); `err` is given exactly
  /// when needs_erroneous_window(constraints). Either may hold any earlier
  /// update. `budget`, when given, is polled once per iteration.
  DpRelaxResult solve(RelaxVars& vars,
                      const std::vector<RelaxConstraint>& constraints,
                      RelaxWindow& good, RelaxWindow* err,
                      Budget* budget = nullptr);

 private:
  bool violated(const RelaxConstraint& c, const RelaxWindow& good,
                const RelaxWindow* err) const;
  /// Returns true if some free variable was adjusted.
  bool backsolve(RelaxVars& vars, const RelaxWindow& win, NetId net,
                 unsigned cycle, std::uint64_t need, unsigned depth);
  bool perturb_site(RelaxVars& vars, const RelaxWindow& win, NetId site,
                    unsigned cycle);
  bool set_instr_word(RelaxVars& vars, const RelaxWindow& win,
                      unsigned cycle, std::uint64_t need);

  const DlxModel& m_;
  DpRelaxConfig cfg_;
  mutable Rng rng_;
  unsigned next_reg_ = 0;  ///< rotating register allocator for retargeting
};

}  // namespace hltg
