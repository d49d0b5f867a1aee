#include "core/tg.h"

#include <chrono>
#include <memory>

#include "core/emit.h"
#include "gatenet/evalw.h"
#include "isa/asm.h"
#include "sim/cosim.h"
#include "util/log.h"
#include "util/word.h"

namespace hltg {

namespace {
DpTraceConfig trace_cfg(const TgConfig& c) {
  DpTraceConfig t = c.trace;
  t.window = c.window;
  return t;
}

struct DontCareCount {
  std::uint64_t candidates = 0;
  std::uint64_t droppable = 0;
};

/// Post-success CPI don't-care analysis via the bit-parallel 01X evaluator:
/// lane k carries the winning assignment with candidate CPI bit k relaxed
/// to X; one eval_cycle3w sweep per window cycle answers all candidates at
/// once. A candidate is droppable when every CTRL objective stays forced to
/// its required value in that lane. Conservative (X-propagation may hide a
/// don't-care) and purely statistical: the emitted test keeps every bit.
DontCareCount count_cpi_dont_cares(
    const GateNet& ctrl, unsigned window,
    const std::vector<std::tuple<GateId, unsigned, bool>>& cpi,
    const std::vector<std::tuple<GateId, unsigned, bool>>& sts,
    const std::vector<CtrlObjective>& objectives) {
  DontCareCount out;
  const std::size_t k =
      std::min<std::size_t>(cpi.size(), kMaxLanes);  // one lane per candidate
  if (k == 0) return out;
  out.candidates = k;
  const unsigned words = lane_words(static_cast<unsigned>(k));
  const std::size_t ngates = ctrl.num_gates();
  std::vector<std::uint64_t> ones, zeros, scratch;
  load_reset3w(ctrl, ones, zeros, words);
  std::vector<std::uint64_t> ok(words, 0);
  for (std::size_t lane = 0; lane < k; ++lane)
    ok[lane >> 6] |= std::uint64_t{1} << (lane & 63);

  auto assign = [&](GateId g, unsigned cycle, bool v, unsigned t,
                    std::size_t dropped) {
    if (cycle != t) return;
    std::uint64_t* plane = (v ? ones : zeros).data() + std::size_t{g} * words;
    for (unsigned w = 0; w < words; ++w) plane[w] = ~std::uint64_t{0};
    if (dropped < k)
      plane[dropped >> 6] &= ~(std::uint64_t{1} << (dropped & 63));
  };

  for (unsigned t = 0; t < window; ++t) {
    // Unassigned free variables are X in every lane.
    for (GateId g = 0; g < ngates; ++g)
      if (ctrl.gate(g).kind == GateKind::kVar) {
        std::fill_n(ones.data() + std::size_t{g} * words, words, 0);
        std::fill_n(zeros.data() + std::size_t{g} * words, words, 0);
      }
    for (std::size_t i = 0; i < cpi.size(); ++i) {
      const auto& [g, cycle, v] = cpi[i];
      assign(g, cycle, v, t, i);  // lane i: this very bit relaxed to X
    }
    for (const auto& [g, cycle, v] : sts) assign(g, cycle, v, t, k);
    eval_cycle3w(ctrl, ones.data(), zeros.data(), words);
    for (const CtrlObjective& o : objectives) {
      if (o.cycle != t) continue;
      const std::uint64_t* forced =
          (o.value ? ones : zeros).data() + std::size_t{o.gate} * words;
      for (unsigned w = 0; w < words; ++w) ok[w] &= forced[w];
    }
    clock_dffs3w(ctrl, ones.data(), zeros.data(), words, scratch);
  }
  for (std::size_t lane = 0; lane < k; ++lane)
    if ((ok[lane >> 6] >> (lane & 63)) & 1) ++out.droppable;
  return out;
}
}  // namespace

TestGenerator::TestGenerator(const DlxModel& m, TgConfig cfg)
    : m_(m), cfg_(cfg), trace_(m, trace_cfg(cfg_)), solver_ctx_(cfg_.solver) {}

std::vector<RelaxConstraint> TestGenerator::activation_constraints(
    const DesignError& err) const {
  RelaxConstraint act;
  act.net = err.site_net(m_.dp);
  act.why = "activation";
  if (const auto* ssl = std::get_if<BusSslError>(&err.e)) {
    act.kind = RelaxKind::kGoodEquals;
    act.mask = std::uint64_t{1} << ssl->bit;
    act.value = ssl->stuck_value ? 0 : act.mask;  // good bit != stuck value
    return {act};
  }
  if (const auto* bse = std::get_if<BusSourceError>(&err.e)) {
    // The wrong wiring only matters when the two sources carry different
    // values in the good machine...
    RelaxConstraint differ;
    differ.kind = RelaxKind::kGoodNetsDiffer;
    differ.net = m_.dp.module(bse->module).data_in[bse->input];
    differ.net2 = bse->wrong_source;
    differ.why = "activation-sources-differ";
    // ... and the difference must survive the module (a shifted zero or a
    // masked operand swallows it).
    act.kind = RelaxKind::kSiteDiffers;
    return {differ, act};
  }
  act.kind = RelaxKind::kSiteDiffers;
  return {act};
}

std::vector<CtrlObjective> TestGenerator::usage_objectives(
    const DesignError& err, unsigned cycle) const {
  std::vector<CtrlObjective> out;
  const auto* bse = std::get_if<BusSourceError>(&err.e);
  if (!bse) return out;
  const Module& mod = m_.dp.module(bse->module);
  if (mod.kind != ModuleKind::kMux) return out;
  // The rewired data input must be the selected one, or the error is
  // invisible regardless of values.
  const NetId sel = mod.ctrl_in[0];
  if (m_.dp.net(sel).role != NetRole::kCtrl) return out;  // data-dependent
  const CtrlBind* cb = m_.find_ctrl(sel);
  for (unsigned b = 0; b < m_.dp.net(sel).width; ++b)
    out.push_back({cb->bits[b], cycle, ((bse->input >> b) & 1) != 0});
  return out;
}

TgResult TestGenerator::generate(const DesignError& err, Budget* budget) {
  // Error scope: fresh deduction state per error, so reuse spans this
  // error's plans and windows only. Campaign scope keeps the context for
  // the generator's lifetime (see solver_ctx_ comment in tg.h).
  if (cfg_.solver.scope == SolverScope::kError) solver_ctx_.reset();
  // Campaign scope under --jobs > 1: trade nogoods with the other workers
  // through the shared board. Strictly between errors - the search hot
  // path below only ever touches the worker-private context.
  if (cfg_.solver.scope == SolverScope::kCampaign)
    solver_ctx_.sync_shared_nogoods();
  TgResult first = generate_with_window(err, cfg_.window, budget);
  if (first.status == TgStatus::kSuccess || cfg_.retry_window <= cfg_.window)
    return first;
  // A fired budget covers the whole attempt: no window retry on its dime.
  if (first.stats.abort != AbortReason::kNone) return first;
  TgResult second = generate_with_window(err, cfg_.retry_window, budget);
  // Carry the accumulated effort of both attempts.
  second.stats.plans_tried += first.stats.plans_tried;
  second.stats.plan_retries += first.stats.plan_retries;
  second.stats.decisions += first.stats.decisions;
  second.stats.backtracks += first.stats.backtracks;
  second.stats.implications += first.stats.implications;
  second.stats.relax_iterations += first.stats.relax_iterations;
  second.stats.learned += first.stats.learned;
  second.stats.nogood_hits += first.stats.nogood_hits;
  second.stats.nogood_comparisons += first.stats.nogood_comparisons;
  second.stats.cache_hits += first.stats.cache_hits;
  second.stats.cache_lookups += first.stats.cache_lookups;
  second.stats.dptrace_expansions += first.stats.dptrace_expansions;
  second.stats.dptrace_searches += first.stats.dptrace_searches;
  second.stats.dptrace_reused += first.stats.dptrace_reused;
  second.stats.relax_hits += first.stats.relax_hits;
  second.stats.relax_lookups += first.stats.relax_lookups;
  second.stats.relax_cross_site_misses += first.stats.relax_cross_site_misses;
  second.stats.relax_pair_captures += first.stats.relax_pair_captures;
  second.stats.cpi_dont_cares += first.stats.cpi_dont_cares;
  second.stats.dontcare_candidates += first.stats.dontcare_candidates;
  second.stats.dptrace_ns += first.stats.dptrace_ns;
  second.stats.ctrljust_ns += first.stats.ctrljust_ns;
  second.stats.dprelax_ns += first.stats.dprelax_ns;
  if (second.status != TgStatus::kSuccess && second.note.empty())
    second.note = first.note;
  return second;
}

TgResult TestGenerator::generate_with_window(const DesignError& err,
                                             unsigned window, Budget* budget) {
  TgResult res;
  // Unwind with a structured abort reason; the partial stats stay valid.
  auto budget_fired = [&]() -> bool {
    if (!budget) return false;
    const AbortReason why = budget->exhausted();
    if (why == AbortReason::kNone) return false;
    res.status = TgStatus::kFailure;
    res.stats.abort = why;
    if (!res.note.empty()) res.note += "; ";
    res.note += "budget: " + std::string(to_string(why));
    return true;
  };
  if (budget_fired()) return res;
  const ErrorInjection inj = err.injection();
  const NetId site = err.site_net(m_.dp);
  const bool base_window = window == cfg_.window;
  if (!base_window && (!retry_trace_ || retry_trace_window_ != window)) {
    DpTraceConfig tcfg = cfg_.trace;
    tcfg.window = window;
    retry_trace_ = std::make_unique<DpTrace>(m_, tcfg);
    retry_trace_window_ = window;
  }
  const DpTrace& tracer = base_window ? trace_ : *retry_trace_;
  if (!tracer.observable_without_redirect(site)) {
    // Control-transfer-path site: the only routes to an observation point
    // run through a taken branch; use the divergence templates directly.
    TgResult macro = cfg_.control_flow_macros ? try_control_flow_macro(err)
                                              : TgResult{};
    if (macro.status == TgStatus::kSuccess) {
      macro.note = "control-flow macro";
      return macro;
    }
    res.note = "control-path site: macro templates failed";
    return res;
  }

  // Phase timing: one monotonic stamp per engine call, accumulated into
  // the attempt's stats (surfaced in the campaign CSV and --replay).
  auto tick = [] { return std::chrono::steady_clock::now(); };
  auto lap = [&](std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(tick() - t0)
            .count());
  };

  DpTraceStats trace_stats;
  const auto trace_t0 = tick();
  const auto plans =
      tracer.plans(site, activation_constraints(err), budget, &trace_stats);
  res.stats.dptrace_ns += lap(trace_t0);
  res.stats.dptrace_expansions += trace_stats.expansions;
  res.stats.dptrace_searches += trace_stats.searches_run;
  res.stats.dptrace_reused += trace_stats.searches_reused;
  if (budget_fired()) return res;
  if (plans.empty()) {
    res.note = "DPTRACE: no propagation path";
    return res;
  }

  // A plan that produced a test but failed dual-simulation confirmation
  // would produce the same masked difference from any activation cycle;
  // remember its shape and skip repeats.
  std::set<std::string> unconfirmed_shapes;
  auto shape_of = [&](const PathPlan& plan) {
    std::string s = std::to_string(plan.observe_module) + ":";
    for (const PathHop& h : plan.hops) s += std::to_string(h.net) + ",";
    return s;
  };

  // Reset-trajectory pre-check: with no assignments, the window already
  // implies every gate value forced by the reset state; a plan demanding the
  // opposite (typically: an objective before the pipeline can fill) can be
  // skipped without a search.
  ControllerWindow reset_win(m_.ctrl, window);
  auto reset_violates = [&](const PathPlan& plan) {
    for (const CtrlObjective& o : plan.ctrl_objectives) {
      const L3 v = reset_win.value(o.gate, o.cycle);
      if (v != L3::X && (v == L3::T) != o.value) return true;
    }
    return false;
  };

  // One CtrlJust for every plan of this window: the solve() entry clears
  // per-search state, while the implication engine's reset fixpoint and the
  // attached per-error context (nogoods + justification cache) carry over -
  // that reuse is the point of the shared solver layer.
  CtrlJustConfig cjcfg = cfg_.ctrljust;
  cjcfg.use_engine = cfg_.solver.enable;
  CtrlJust cj(m_.ctrl, window, cjcfg);
  if (cfg_.solver.enable) cj.set_context(&solver_ctx_);

  for (const PathPlan& plan : plans) {
    if (budget_fired()) return res;
    if (cfg_.shape_dedup && unconfirmed_shapes.count(shape_of(plan))) continue;
    if (cfg_.reset_precheck && reset_violates(plan)) continue;
    ++res.stats.plans_tried;
    if (res.stats.plans_tried > 1) ++res.stats.plan_retries;

    auto fail_note = [&](const std::string& what) {
      if (!res.note.empty()) res.note += "; ";
      res.note += "plan" + std::to_string(res.stats.plans_tried) + "@" +
                  std::to_string(plan.activate_cycle) + ": " + what;
    };

    std::vector<CtrlObjective> objectives = plan.ctrl_objectives;
    for (const CtrlObjective& o :
         usage_objectives(err, plan.activate_cycle))
      objectives.push_back(o);

    const auto cj_t0 = tick();
    const CtrlJustResult cr = cj.solve(objectives, budget);
    res.stats.ctrljust_ns += lap(cj_t0);
    res.stats.decisions += cr.stats.decisions;
    res.stats.backtracks += cr.stats.backtracks;
    res.stats.implications += cr.stats.implications;
    res.stats.learned += cr.stats.learned;
    res.stats.nogood_hits += cr.stats.nogood_hits;
    res.stats.nogood_comparisons += cr.stats.nogood_comparisons;
    res.stats.cache_hits += cr.stats.cache_hits;
    res.stats.cache_lookups += cr.stats.cache_lookups;
    if (cr.status != TgStatus::kSuccess) {
      // Per-search caps (cr.abort) just fail this plan; only the
      // attempt-wide budget aborts the whole error.
      if (budget_fired()) return res;
      fail_note("CTRLJUST failed");
      continue;
    }

    RelaxVars vars;
    const EmitResult er =
        emit_cpi_assignments(m_, cj.window(), cr.cpi_assignments, &vars);
    if (!er.ok) {
      fail_note("emit: " + er.note);
      continue;
    }

    std::vector<RelaxConstraint> cons = plan.relax_constraints;
    for (auto [g, t, v] : cr.sts_assignments) {
      // Locate the datapath STS net bound to this controller variable.
      for (const StsBind& sb : m_.sts_binds) {
        if (sb.gate != g) continue;
        RelaxConstraint rc;
        rc.net = sb.dp_net;
        rc.cycle = t;
        rc.mask = 1;
        rc.value = v ? 1 : 0;
        rc.why = "sts";
        cons.push_back(rc);
        break;
      }
    }

    DpRelaxConfig rcfg = cfg_.relax;
    // The derived seed is a pure function of the plan's identity - never of
    // trial position - so the same plan relaxes identically no matter how
    // many predecessors a warm start's imported deductions skipped
    // (relax_plan_seed doc in tg.h).
    rcfg.seed = relax_plan_seed(cfg_.relax.seed, site, shape_of(plan),
                                plan.activate_cycle, window);
    // DPRELAX memo: a solve is a pure function of its subproblem, so
    // replaying a recorded definitive result is byte-identical to
    // recomputing it. Repeat visits to a plan (shape-duplicated paths,
    // warm-started reruns) are answered without a relaxation sweep.
    const bool memoize = cfg_.solver.enable && cfg_.solver.use_relax_cache;
    RelaxCache::Key rkey;
    DpRelaxResult rr;
    bool replayed = false;
    const auto rx_t0 = tick();
    if (memoize) {
      rkey = RelaxCache::make_key(rcfg, vars, cons, inj);
      ++res.stats.relax_lookups;
      const std::uint64_t xsite0 = solver_ctx_.relax.cross_site_misses();
      if (solver_ctx_.relax.find(rkey, &rr, &vars)) {
        ++res.stats.relax_hits;
        replayed = true;
      }
      res.stats.relax_cross_site_misses +=
          solver_ctx_.relax.cross_site_misses() - xsite0;
    }
    if (!replayed) {
      DpRelax relax(m_, window, rcfg);
      rr = relax.solve(vars, cons, inj, budget);
      if (memoize) solver_ctx_.relax.store(rkey, rr, vars);
    }
    res.stats.dprelax_ns += lap(rx_t0);
    res.stats.relax_iterations += rr.iterations;
    res.stats.relax_pair_captures += rr.pair_captures;
    if (rr.status != TgStatus::kSuccess) {
      if (budget_fired()) return res;
      fail_note("DPRELAX: " + rr.note);
      continue;
    }

    TestCase tc = vars.to_test();
    trim_trailing_nops(&tc.imem);
    if (cfg_.confirm_by_simulation && !detects(m_, tc, inj)) {
      fail_note("not confirmed by dual simulation");
      unconfirmed_shapes.insert(shape_of(plan));
      continue;
    }
    const DontCareCount dc = count_cpi_dont_cares(
        m_.ctrl, window, cr.cpi_assignments, cr.sts_assignments, objectives);
    res.stats.dontcare_candidates += dc.candidates;
    res.stats.cpi_dont_cares += dc.droppable;
    res.status = TgStatus::kSuccess;
    res.test = std::move(tc);
    res.test_length = plan.observe_cycle + 1;
    return res;
  }
  if (budget_fired()) return res;
  TgResult macro = cfg_.control_flow_macros ? try_control_flow_macro(err)
                                            : TgResult{};
  if (macro.status == TgStatus::kSuccess) {
    macro.stats = res.stats;
    macro.note = res.note.empty() ? "control-flow macro"
                                  : res.note + "; control-flow macro";
    return macro;
  }

  res.status = TgStatus::kFailure;
  if (res.note.empty()) res.note = "all plans exhausted";
  return res;
}

TgResult TestGenerator::try_control_flow_macro(const DesignError& err) const {
  TgResult res;
  const ErrorInjection inj = err.injection();
  // Variant A: branch taken in the good machine (beqz r0). Variant B:
  // branch not taken (beqz r1 with r1 != 0). Marker stores bracket both
  // outcomes; any flip of the decision or corruption of the target changes
  // the committed store sequence.
  for (int variant = 0; variant < 2; ++variant) {
    TestCase tc;
    Instr br;
    br.op = Op::kBeqz;
    br.rs1 = variant == 0 ? 0u : 1u;
    br.imm = 2;  // skip the two fall-through markers
    Instr st1{Op::kSw, 0, 0, 2, 0x100};   // fall-through marker
    Instr st2{Op::kSw, 0, 0, 3, 0x104};   // second fall-through marker
    Instr st3{Op::kSw, 0, 0, 4, 0x108};   // target marker
    tc.imem = encode_program({br, st1, st2, st3});
    tc.rf_init[1] = 1;
    tc.rf_init[2] = 0x11111111;
    tc.rf_init[3] = 0x22222222;
    tc.rf_init[4] = 0x33333333;
    if (detects(m_, tc, inj)) {
      res.status = TgStatus::kSuccess;
      res.test = tc;
      res.test_length = static_cast<unsigned>(tc.imem.size()) + 2;
      return res;
    }
  }
  return res;
}

namespace {
ErrorAttempt to_attempt(const TgResult& r, double seconds) {
  ErrorAttempt a;
  a.seconds = seconds;
  a.generated = r.status == TgStatus::kSuccess;
  a.sim_confirmed = a.generated;  // generate() confirms before returning
  a.test = r.test;
  a.test_length = r.test_length;
  a.backtracks = r.stats.backtracks + r.stats.plan_retries;
  a.decisions = r.stats.decisions;
  a.implications = r.stats.implications;
  a.learned = r.stats.learned;
  a.nogood_hits = r.stats.nogood_hits;
  a.cache_hits = r.stats.cache_hits;
  a.dptrace_ns = r.stats.dptrace_ns;
  a.ctrljust_ns = r.stats.ctrljust_ns;
  a.dprelax_ns = r.stats.dprelax_ns;
  a.note = r.note;
  a.abort = r.stats.abort;
  return a;
}
}  // namespace

TestGenFn TestGenerator::strategy() {
  return [this](const DesignError& err) {
    const auto t0 = std::chrono::steady_clock::now();
    const TgResult r = generate(err);
    return to_attempt(
        r, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count());
  };
}

BudgetedGenFn TestGenerator::budgeted_strategy() {
  return [this](const DesignError& err, Budget& budget) {
    const auto t0 = std::chrono::steady_clock::now();
    const TgResult r = generate(err, &budget);
    return to_attempt(
        r, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count());
  };
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
  void mix(const std::string& s) {
    mix(s.size());
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
};

}  // namespace

std::uint64_t relax_plan_seed(std::uint64_t base_seed, NetId site,
                              const std::string& plan_shape,
                              unsigned activate_cycle, unsigned window) {
  Fnv f;
  f.mix(base_seed);
  f.mix(static_cast<std::uint64_t>(site));
  f.mix(plan_shape);
  f.mix(activate_cycle);
  f.mix(window);
  return f.h;
}

std::uint64_t tg_design_hash(const DlxModel& m) {
  Fnv f;
  f.mix(m.ctrl.num_gates());
  for (GateId g = 0; g < m.ctrl.num_gates(); ++g) {
    const Gate& gate = m.ctrl.gate(g);
    f.mix(gate.name);
    f.mix(static_cast<std::uint64_t>(gate.kind));
    f.mix(static_cast<std::uint64_t>(gate.stage));
    f.mix(static_cast<std::uint64_t>(gate.role));
    f.mix((gate.tertiary ? 2u : 0u) | (gate.reset_value ? 1u : 0u));
    f.mix(gate.fanin.size());
    for (const GateId in : gate.fanin) f.mix(in);
  }
  f.mix(m.dp.num_nets());
  for (NetId n = 0; n < m.dp.num_nets(); ++n) {
    const Net& net = m.dp.net(n);
    f.mix(net.name);
    f.mix(net.width);
    f.mix(static_cast<std::uint64_t>(net.stage));
    f.mix(static_cast<std::uint64_t>(net.role));
    f.mix(static_cast<std::uint64_t>(net.driver));
    f.mix(net.sinks.size());
    for (const auto& [mod, slot] : net.sinks) {
      f.mix(static_cast<std::uint64_t>(mod));
      f.mix(slot);
    }
  }
  f.mix(m.dp.num_modules());
  for (ModId mod = 0; mod < m.dp.num_modules(); ++mod) {
    const Module& mo = m.dp.module(mod);
    f.mix(mo.name);
    f.mix(static_cast<std::uint64_t>(mo.kind));
    f.mix(static_cast<std::uint64_t>(mo.stage));
    f.mix(mo.data_in.size());
    for (const NetId in : mo.data_in) f.mix(static_cast<std::uint64_t>(in));
    f.mix(mo.ctrl_in.size());
    for (const NetId in : mo.ctrl_in) f.mix(static_cast<std::uint64_t>(in));
    f.mix(static_cast<std::uint64_t>(mo.out));
    f.mix(mo.param);
    f.mix(mo.tag);
  }
  return f.h;
}

std::uint64_t tg_config_hash(const TgConfig& cfg) {
  Fnv f;
  f.mix(cfg.window);
  f.mix(cfg.retry_window);
  f.mix(cfg.ctrljust.max_backtracks);
  f.mix(cfg.ctrljust.max_decisions);
  f.mix(cfg.ctrljust.use_engine ? 1u : 0u);
  f.mix(cfg.relax.max_iterations);
  f.mix(cfg.relax.max_depth);
  f.mix(cfg.relax.seed);
  f.mix((cfg.solver.enable ? 1u : 0u) | (cfg.solver.use_nogoods ? 2u : 0u) |
        (cfg.solver.use_cache ? 4u : 0u) |
        (cfg.solver.use_nogood_watches ? 8u : 0u) |
        (cfg.solver.use_relax_cache ? 16u : 0u));
  return f.h;
}

}  // namespace hltg
