// TG: the overall test-generation algorithm (Fig. 3 / Fig. 4).
//
// Per design error:
//   1. DPTRACE derives candidate justification/propagation path plans with
//      their CTRL objectives and value constraints (step 2 of Fig. 3).
//   2. For each plan, CTRLJUST runs its branch-and-bound search over the
//      pipeframe decision variables (CPI / STS per cycle) to justify the
//      CTRL objectives from the reset state.
//   3. DPRELAX selects data values satisfying the plan's constraints plus
//      the STS obligations CTRLJUST incurred.
//   4. The emitted test is confirmed by dual simulation (spec vs erroneous
//      implementation); only confirmed tests count as detections.
// A plan whose CTRLJUST search or relaxation fails sends TG back to the
// next candidate path - the coarse-grained realization of the
// CONFLICT -> backtrack arrows of Fig. 3 (granularity note in DESIGN.md).
#pragma once

#include <map>
#include <memory>

#include "core/ctrljust.h"
#include "core/dprelax.h"
#include "core/dptrace.h"
#include "errors/campaign.h"
#include "errors/redundancy.h"
#include "solver/solver.h"

namespace hltg {

struct TgConfig {
  unsigned window = 14;
  /// When every plan in the base window fails, retry once with this window
  /// (0 disables). Longer windows admit later activation cycles and longer
  /// propagation chains at higher search cost.
  unsigned retry_window = 20;
  DpTraceConfig trace;
  CtrlJustConfig ctrljust;
  DpRelaxConfig relax;
  /// Shared deduction subsystem (src/solver/): learned nogoods,
  /// justification cache, DPRELAX memo. TG attaches it only while
  /// `ctrljust.use_engine` is on; off (the error_campaign --solver off
  /// hatch) runs the bare PODEM CTRLJUST with no solver state.
  SolverConfig solver;
  // Ablation toggles for the design choices DESIGN.md calls out.
  bool shape_dedup = true;     ///< skip plans whose shape failed confirmation
  bool reset_precheck = true;  ///< skip plans violated by the reset trajectory
  bool control_flow_macros = true;  ///< divergence templates for branch path

  TgConfig() { trace.window = window; }
};

struct TgResult {
  TgStatus status = TgStatus::kFailure;
  /// Set when the attempt unwound because its Budget fired (deadline /
  /// backtracks / decisions / cancelled); kNone for ordinary exhaustion of
  /// the plan list or for success.
  AbortReason abort = AbortReason::kNone;
  TestCase test;
  unsigned test_length = 0;  ///< instructions issued through observation
  Effort stats;              ///< summed over both windows and every plan
  std::string note;
  /// The error was proven undetectable before any search (generate()'s
  /// redundancy screen); status is kFailure and the note names the proof.
  bool proven_redundant = false;
};

class TestGenerator {
 public:
  TestGenerator(const DlxModel& m, TgConfig cfg = {});

  /// `budget`, when given, covers the whole attempt (both windows, every
  /// plan, all three engines); when it fires mid-search the attempt unwinds
  /// cleanly with kFailure and abort set. A bus-SSL error the redundancy
  /// proofs accept returns first, before any budget check, with
  /// proven_redundant set.
  TgResult generate(const DesignError& err, Budget* budget = nullptr);

  /// One attempt with a fixed window (generate() adds the window retry).
  TgResult generate_with_window(const DesignError& err, unsigned window,
                                Budget* budget = nullptr);

  /// Adapter for the campaign driver: the campaign arms one fresh Budget
  /// per error and passes it in; the attempt records the structured abort
  /// reason.
  BudgetedGenFn budgeted_strategy();

  /// Last-resort templates for errors in the control-transfer path (branch
  /// condition / target buses): a taken branch plus marker stores on the
  /// fall-through and target paths. A condition error flips which markers
  /// execute; a target error strands the erroneous machine on a misaligned
  /// or far PC, so the target marker never commits. Tried only after the
  /// path-based plans are exhausted.
  TgResult try_control_flow_macro(const DesignError& err) const;

  const DpTrace& tracer() const { return trace_; }

  /// The per-generator deduction state, exposed for persistence: a warm
  /// start imports a DedSnapshot here before the first generate(), and the
  /// campaign driver exports/merges the contexts afterwards
  /// (src/solver/store.h, docs/ROBUSTNESS.md).
  SolverContext& solver_context() { return solver_ctx_; }
  const SolverContext& solver_context() const { return solver_ctx_; }

 private:
  std::vector<RelaxConstraint> activation_constraints(
      const DesignError& err) const;
  /// Extra CTRL objectives making the error site *used* at the activation
  /// cycle (e.g. a rewired mux input must be selected for a BSE to matter).
  std::vector<CtrlObjective> usage_objectives(const DesignError& err,
                                              unsigned cycle) const;
  /// The proof that no test detects `e` ("" when neither proof holds).
  std::string redundancy_proof(const BusSslError& e);

  const DlxModel& m_;
  TgConfig cfg_;
  /// Both redundancy analyses of the datapath (errors/redundancy.h), run
  /// on the first bus-SSL error and kept for the generator's lifetime.
  struct RedundancyProofs {
    BitConstants constants;
    ObservableBits observable;
  };
  std::unique_ptr<const RedundancyProofs> proofs_;
  DpTrace trace_;
  /// Lazily built tracer for the retry window, kept for the generator's
  /// lifetime so its search memo (dptrace.h) survives across errors the
  /// same way trace_'s does. Plans are pure functions of (site, window),
  /// so the reuse is outcome-neutral for any error order or --jobs split.
  std::unique_ptr<DpTrace> retry_trace_;
  unsigned retry_trace_window_ = 0;  ///< window retry_trace_ was built for
  /// CTRLJUST state of one window size: the reset trajectory of the plan
  /// pre-check (a pure function of the window size) and the search with
  /// its window, engine and nogood watcher. generate_with_window() renews
  /// the search before its first plan, so every attempt searches exactly
  /// as with a new CtrlJust, without constructing one.
  struct WindowSearch {
    WindowSearch(const GateNet& gn, unsigned window, CtrlJustConfig cfg)
        : window(window), reset_win(gn, window), cj(gn, window, cfg) {}
    unsigned window;
    ControllerWindow reset_win;
    CtrlJust cj;
  };
  /// The state for `window`, rebuilt only when the window size changes.
  /// One size is kept, not one per size: the retry window runs for few
  /// errors (35 of 228 on the Table-1 SSL set), and keeping the base
  /// window's state alive beside it raised peak memory.
  WindowSearch& window_search(unsigned window);
  std::unique_ptr<WindowSearch> search_;
  /// DPRELAX's good-machine window of each window size (the base and the
  /// retry window), kept for the generator's lifetime and handed to every
  /// solve, whose first update then diffs against the previous solve's
  /// variables instead of sweeping a fresh window. A window's values never
  /// depend on that history (core/relax_window.h), so neither does a row.
  std::map<unsigned, RelaxWindow> relax_windows_;
  /// Per-generator deduction state. With solver.scope == kError (default)
  /// it is reset at the start of every generate(): nogoods, cached
  /// justifications and relax memos are shared across the plans and windows
  /// of ONE error, never across errors - campaign rows stay byte-identical
  /// however errors are distributed over --jobs workers. With kCampaign the
  /// context lives for the generator's lifetime: one worker's shard of
  /// errors (outcome-neutrality argument in solver/solver.h and
  /// docs/SOLVER.md).
  SolverContext solver_ctx_;
};

/// The two divergence templates try_control_flow_macro tries, in order: a
/// branch taken in the good machine (beqz r0) and one not taken (beqz r1,
/// r1 = 1), each followed by two fall-through marker stores and a target
/// marker store.
std::vector<TestCase> control_flow_templates();

/// Fingerprint of the implementation model TG searches: every gate of the
/// controller network and every net/module of the datapath netlist. Two
/// runs with equal hashes search the same design, so netlist-level
/// deductions (nogoods, cached justifications, relax memos) transfer
/// between them. Gates campaign journals and persisted deduction stores.
std::uint64_t tg_design_hash(const DlxModel& m);

/// Seed DPRELAX uses for a given plan: a pure function of the base seed and
/// the plan's identity (error site, path shape, activation cycle, window).
/// Because trial order is not an input, a plan relaxes identically whether
/// it is trial #1 or #7 of its window - in particular a warm start whose
/// imported deductions skip earlier plans replays the same seeds, which the
/// DPRELAX memo's byte-identical replay depends on. The window IS an input:
/// a solve is window-dependent at the margin (the runaway-PC cap in
/// DpRelax::set_instr_word scales with it), so memo entries must never
/// transfer between windows on a seed collision.
std::uint64_t relax_plan_seed(std::uint64_t base_seed, NetId site,
                              const std::string& plan_shape,
                              unsigned activate_cycle, unsigned window);

/// Fingerprint of the TgConfig knobs that cached deduction results depend
/// on (windows, search caps, relaxation seed, engine and solver toggles).
/// The nogood store's capacity is built in and excluded: it changes what
/// stays resident, never what a resident entry means.
std::uint64_t tg_config_hash(const TgConfig& cfg);

}  // namespace hltg
