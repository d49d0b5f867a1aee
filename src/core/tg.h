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

#include <memory>

#include "core/ctrljust.h"
#include "core/dprelax.h"
#include "core/dptrace.h"
#include "errors/campaign.h"
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
  /// Shared deduction subsystem (src/solver/): implication engine, learned
  /// nogoods, justification cache. `solver.enable = false` restores the
  /// legacy pure-PODEM CTRLJUST (the error_campaign --solver=off hatch).
  SolverConfig solver;
  bool confirm_by_simulation = true;
  // Ablation toggles for the design choices DESIGN.md calls out.
  bool shape_dedup = true;     ///< skip plans whose shape failed confirmation
  bool reset_precheck = true;  ///< skip plans violated by the reset trajectory
  bool control_flow_macros = true;  ///< divergence templates for branch path

  TgConfig() { trace.window = window; }
};

struct TgStats {
  std::uint64_t plans_tried = 0;
  std::uint64_t plan_retries = 0;   ///< coarse Fig.-3 backtracks (path level)
  std::uint64_t decisions = 0;
  std::uint64_t backtracks = 0;     ///< CTRLJUST search backtracks
  std::uint64_t implications = 0;
  std::uint64_t relax_iterations = 0;
  std::uint64_t learned = 0;        ///< nogoods recorded by conflict analysis
  std::uint64_t nogood_hits = 0;    ///< learned nogoods that pruned or forced
  /// Literal probes spent applying nogoods (rescan or watch scheme).
  std::uint64_t nogood_comparisons = 0;
  std::uint64_t cache_hits = 0;     ///< CTRLJUST solves answered from cache
  std::uint64_t cache_lookups = 0;  ///< cache probes (hits + misses)
  std::uint64_t dptrace_expansions = 0;  ///< best-first nodes expanded
  std::uint64_t dptrace_searches = 0;    ///< per-activation searches run
  std::uint64_t dptrace_reused = 0;      ///< searches answered by the memo
  std::uint64_t relax_hits = 0;     ///< DPRELAX solves replayed from the memo
  std::uint64_t relax_lookups = 0;  ///< DPRELAX memo probes
  /// DPRELAX good+err window captures run as one 2-lane batch simulation
  /// (sim/batch_sim) instead of two full window simulations.
  std::uint64_t relax_pair_captures = 0;
  /// Post-success 01X analysis (gatenet/evalw): candidate CPI bits whose
  /// relaxation to X still forces every CTRL objective of the winning plan.
  /// Pure statistics - the emitted test is unchanged.
  std::uint64_t cpi_dont_cares = 0;
  std::uint64_t dontcare_candidates = 0;
  /// DPRELAX memo misses where a resident entry differed only in the
  /// injection-site suffix of the key - the reuse a site-independent
  /// keying would capture (measured, not exploited; docs/SOLVER.md).
  std::uint64_t relax_cross_site_misses = 0;
  // Per-phase wall time (monotonic clock), for the campaign CSV / --replay.
  std::uint64_t dptrace_ns = 0;
  std::uint64_t ctrljust_ns = 0;
  std::uint64_t dprelax_ns = 0;
  /// Set when the attempt unwound because its Budget fired (deadline /
  /// backtracks / decisions / cancelled); kNone for ordinary exhaustion of
  /// the plan list or for success.
  AbortReason abort = AbortReason::kNone;
};

struct TgResult {
  TgStatus status = TgStatus::kFailure;
  TestCase test;
  unsigned test_length = 0;  ///< instructions issued through observation
  TgStats stats;
  std::string note;
};

class TestGenerator {
 public:
  TestGenerator(const DlxModel& m, TgConfig cfg = {});

  /// `budget`, when given, covers the whole attempt (both windows, every
  /// plan, all three engines); when it fires mid-search the attempt unwinds
  /// cleanly with kFailure and stats.abort set.
  TgResult generate(const DesignError& err, Budget* budget = nullptr);

  /// One attempt with a fixed window (generate() adds the window retry).
  TgResult generate_with_window(const DesignError& err, unsigned window,
                                Budget* budget = nullptr);

  /// Adapter for the campaign driver.
  TestGenFn strategy();

  /// Budget-aware adapter: the campaign arms one fresh Budget per error and
  /// passes it in; the attempt records the structured abort reason.
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

  const DlxModel& m_;
  TgConfig cfg_;
  DpTrace trace_;
  /// Lazily built tracer for the retry window, kept for the generator's
  /// lifetime so its search memo (dptrace.h) survives across errors the
  /// same way trace_'s does. Plans are pure functions of (site, window),
  /// so the reuse is outcome-neutral for any error order or --jobs split.
  std::unique_ptr<DpTrace> retry_trace_;
  unsigned retry_trace_window_ = 0;  ///< window retry_trace_ was built for
  /// Per-generator deduction state. With solver.scope == kError (default)
  /// it is reset at the start of every generate(): nogoods, cached
  /// justifications and relax memos are shared across the plans and windows
  /// of ONE error, never across errors - campaign rows stay byte-identical
  /// however errors are distributed over --jobs workers. With kCampaign the
  /// context lives for the generator's lifetime (single-worker runs only;
  /// outcome-neutrality argument in solver/solver.h and docs/SOLVER.md).
  SolverContext solver_ctx_;
};

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
/// on (windows, search caps, relaxation seed, solver toggles). Capacities
/// are deliberately excluded: they change what stays resident, never what
/// a resident entry means.
std::uint64_t tg_config_hash(const TgConfig& cfg);

}  // namespace hltg
