#include "core/ctrljust.h"

#include <algorithm>
#include <sstream>

#include "solver/justcache.h"
#include "solver/nogood_watch.h"

namespace hltg {

std::string render_trace(const GateNet& gn,
                         const std::vector<SearchEvent>& trace) {
  std::ostringstream os;
  int depth = 0;
  for (const SearchEvent& e : trace) {
    const char* what = e.kind == SearchEvent::kDecide ? "decide"
                       : e.kind == SearchEvent::kFlip ? "flip  "
                                                      : "pop   ";
    if (e.kind == SearchEvent::kPop) --depth;
    os << std::string(std::max(depth, 0) * 2, ' ') << what << " "
       << gn.gate(e.gate).name << "@" << e.cycle << " = " << (e.value ? 1 : 0)
       << "\n";
    if (e.kind == SearchEvent::kDecide) ++depth;
  }
  return os.str();
}

CtrlJust::CtrlJust(const GateNet& gn, unsigned cycles, CtrlJustConfig cfg)
    : gn_(gn), cycles_(cycles), win_(gn, cycles), cfg_(cfg) {}

CtrlJust::~CtrlJust() = default;

CtrlJust::ObjState CtrlJust::objective_state(const CtrlObjective& o) const {
  const L3 v = win_.value(o.gate, o.cycle);
  if (v == L3::X) return ObjState::kOpen;
  return (v == L3::T) == o.value ? ObjState::kSatisfied : ObjState::kViolated;
}

bool CtrlJust::backtrace(CtrlObjective o, Decision* out) const {
  GateId g = o.gate;
  unsigned t = o.cycle;
  bool v = o.value;
  for (int guard = 0; guard < 100000; ++guard) {
    const Gate& gate = gn_.gate(g);
    switch (gate.kind) {
      case GateKind::kVar:
        if (win_.value(g, t) != L3::X) return false;  // already determined
        *out = {g, t, v, false};
        return true;
      case GateKind::kDff:
        if (t == 0) return false;  // cannot justify against the reset state
        g = gate.fanin[0];
        --t;
        break;
      case GateKind::kBuf:
        g = gate.fanin[0];
        break;
      case GateKind::kNot:
        g = gate.fanin[0];
        v = !v;
        break;
      case GateKind::kAnd:
      case GateKind::kOr: {
        // For the controlling objective value pick any X input; for the
        // non-controlling value every input must comply - also pick an X
        // input (the others follow in later iterations).
        GateId pick = kNoGate;
        for (GateId in : gate.fanin)
          if (win_.value(in, t) == L3::X) {
            pick = in;
            break;
          }
        if (pick == kNoGate) return false;
        g = pick;
        // AND wants 1 -> inputs 1; AND wants 0 -> drive picked input 0.
        // OR mirrors.
        break;
      }
      case GateKind::kXor: {
        const L3 a = win_.value(gate.fanin[0], t);
        const L3 b = win_.value(gate.fanin[1], t);
        if (a == L3::X && b == L3::X) {
          g = gate.fanin[0];
          // target value for fanin0 is arbitrary; keep v.
        } else if (a == L3::X) {
          v = v != (b == L3::T);
          g = gate.fanin[0];
        } else if (b == L3::X) {
          v = v != (a == L3::T);
          g = gate.fanin[1];
        } else {
          return false;
        }
        break;
      }
      case GateKind::kConst0:
      case GateKind::kConst1:
        return false;
    }
  }
  return false;
}

CtrlJustResult CtrlJust::solve(const std::vector<CtrlObjective>& objectives,
                               Budget* budget) {
  // Engine off: the bare PODEM search, without canonicalization or cache.
  if (!cfg_.use_engine) return search(objectives, budget);

  // Canonicalize once: the signature drives the cache, and a contradictory
  // set (both values of one point) fails without any search.
  std::vector<Lit> key;
  const CanonStatus canon = canonicalize_objectives(objectives, &key);
  if (canon == CanonStatus::kContradiction) {
    CtrlJustResult res;
    res.status = TgStatus::kFailure;
    win_.clear();
    win_.imply();
    return res;
  }

  const bool cache_on = ctx_ && ctx_->cfg.use_cache;
  if (cache_on) {
    if (const JustCacheEntry* e = ctx_->cache.lookup(key)) {
      CtrlJustResult res;
      ++res.stats.cache_lookups;
      ++res.stats.cache_hits;
      res.status = e->success ? TgStatus::kSuccess : TgStatus::kFailure;
      res.sts_assignments = e->sts_assignments;
      res.cpi_assignments = e->cpi_assignments;
      // Replay the witness into the window so window() consumers (the
      // emitter's redirect/stall checks) see the same trajectory as after
      // a live solve.
      win_.clear();
      if (e->success) {
        for (auto [g, t, v] : e->cpi_assignments)
          win_.assign(g, t, l3_from_bool(v));
        for (auto [g, t, v] : e->sts_assignments)
          win_.assign(g, t, l3_from_bool(v));
      }
      win_.imply();
      return res;
    }
  }

  CtrlJustResult res = search(objectives, budget);
  if (cache_on) ++res.stats.cache_lookups;  // the miss that led here
  // Only definitive results are cacheable: a capped or deadline-aborted
  // failure proves nothing about the objective set.
  if (cache_on && res.abort == AbortReason::kNone) {
    JustCacheEntry e;
    e.success = res.status == TgStatus::kSuccess;
    e.sts_assignments = res.sts_assignments;
    e.cpi_assignments = res.cpi_assignments;
    ctx_->cache.insert(key, std::move(e));
  }
  return res;
}

bool CtrlJust::apply_nogoods(CtrlJustResult& res) {
  if (!ctx_) return true;
  ImplicationEngine& eng = *engine_;
  NogoodStore& store = ctx_->nogoods;
  if (watcher_)
    return watcher_->propagate(store, &res.stats.nogood_hits,
                               &res.stats.nogood_comparisons);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < store.size(); ++i) {
      const std::vector<Lit>& ng = store.lits(i);
      // A literal beyond this window does not exist here; the nogood
      // cannot fire (it stays valid for wider windows).
      bool applicable = true;
      int open = -1;
      std::vector<ImplicationEngine::NodeId> holding;
      for (std::size_t j = 0; j < ng.size() && applicable; ++j) {
        const Lit& l = ng[j];
        if (l.cycle >= cycles_) {
          applicable = false;
          break;
        }
        ++res.stats.nogood_comparisons;
        const L3 v = eng.value(l.gate, l.cycle);
        if (v == L3::X) {
          if (open >= 0) applicable = false;  // two free lits: inert
          open = static_cast<int>(j);
        } else if ((v == L3::T) != l.value) {
          applicable = false;  // a literal already fails: nogood satisfied
        } else {
          holding.push_back(eng.node(l.gate, l.cycle));
        }
      }
      if (!applicable) continue;
      store.touch(i);
      ++res.stats.nogood_hits;
      // All-but-one literals hold: the open one must be negated. With
      // open == -1 every literal holds; forcing any member's negation
      // conflicts immediately, with the right antecedents for the cut
      // walker.
      const Lit target = open >= 0 ? ng[static_cast<std::size_t>(open)] : ng[0];
      if (open < 0)
        holding.erase(std::find(holding.begin(), holding.end(),
                                eng.node(target.gate, target.cycle)));
      if (!eng.imply_from_nogood(target.gate, target.cycle, !target.value,
                                 holding))
        return false;
      if (!eng.propagate()) return false;
      changed = true;
    }
  }
  return true;
}

void CtrlJust::learn_conflict(CtrlJustResult& res) {
  if (!ctx_ || !engine_->in_conflict()) return;
  NogoodStore& nogoods = ctx_->nogoods;
  if (nogoods.learn(engine_->conflict_cut(nogoods.max_lits()))) {
    ++res.stats.learned;
    if (watcher_) {
      const std::size_t slot = nogoods.last_index();
      watcher_->add(nogoods.lits(slot), slot, nogoods.id(slot));
    }
  }
}

// The CTRLJUST search: one PODEM branch-and-bound loop (Fig. 3). The
// decision sequence is driven by the forward view alone (forward imply of
// the decisions in win_, backtrace, objective classification). With
// use_engine the implication engine shadows every decision; a run that
// succeeds still lands on the same success leaf - same witness, same
// window, same downstream DPRELAX / emitter behavior - and the engine
// contributes what the forward view cannot:
//  - backward propagation detects that a subtree is doomed the moment the
//    decision is asserted, instead of several decisions later (the whole
//    doomed subtree collapses into one backtrack);
//  - a variable the engine has already forced is decided at its forced
//    value directly, pre-flipped (the other value is a proven conflict);
//  - learned nogoods from earlier conflicts of this error's plans fire as
//    soon as their literals hold.
// Skipping doomed subtrees never changes the first success leaf of the
// chronological flip-search; it only reaches it in fewer steps. Without
// the engine every engine step below is skipped.
CtrlJustResult CtrlJust::search(const std::vector<CtrlObjective>& objectives,
                                Budget* budget) {
  CtrlJustResult res;
  ImplicationEngine* eng = nullptr;
  if (cfg_.use_engine) {
    if (!engine_) engine_ = std::make_unique<ImplicationEngine>(gn_, cycles_);
    eng = engine_.get();
    eng->reset();
    if (ctx_ && ctx_->cfg.use_nogood_watches) {
      if (!watcher_) watcher_ = std::make_unique<NogoodWatcher>(*eng);
      watcher_->rebuild(ctx_->nogoods);
    } else {
      watcher_.reset();
    }
  }
  win_.clear();
  std::vector<Decision> stack;
  bool conflict = false;  // the engine refuted the last assertion

  // Bring the forward view up to date with the decisions. After an engine
  // conflict the next iteration backtracks without reading the window, and
  // the imply() after that backtrack covers both edits: the window's values
  // are a function of its assignments alone. The call counts either way.
  auto imply = [&] {
    if (!conflict) win_.imply();
    ++res.stats.implications;
  };
  // Assert a literal in the engine; false on a conflict (its cut learned).
  auto shadow = [&](GateId g, unsigned t, bool v, bool decision) {
    if (!eng) return true;
    const bool ok = eng->assert_lit(g, t, v, decision) && eng->propagate() &&
                    apply_nogoods(res);
    if (!ok) learn_conflict(res);
    return ok;
  };
  // Undo the engine's assignments above the first `level` decisions.
  auto pop_to = [&](std::size_t level) {
    if (!eng) return;
    eng->pop_to(static_cast<unsigned>(level));
    if (watcher_) watcher_->on_pop(eng->trail().size());
  };

  for (const CtrlObjective& o : objectives)
    if (!shadow(o.gate, o.cycle, o.value, false)) {
      conflict = true;
      break;
    }

  imply();
  for (;;) {
    if (res.stats.backtracks > cfg_.max_backtracks ||
        res.stats.decisions > cfg_.max_decisions) {
      res.status = TgStatus::kFailure;
      res.abort = res.stats.backtracks > cfg_.max_backtracks
                      ? AbortReason::kBacktracks
                      : AbortReason::kDecisions;
      break;
    }
    if (budget) {
      const AbortReason why = budget->exhausted();
      if (why != AbortReason::kNone) {
        res.status = TgStatus::kFailure;
        res.abort = why;
        break;
      }
    }

    // Classify objectives. Prefer backtracing an objective that wants a 1:
    // on the decoder's one-hot OR planes a 1-objective pins a complete
    // instruction term, after which the sibling 0-objectives usually follow
    // by implication; starting from a 0-objective assigns near-arbitrary
    // CPI bits and walks into conflicts.
    bool violated = conflict;
    const CtrlObjective* open = nullptr;
    if (!violated) {
      for (const CtrlObjective& o : objectives) {
        const ObjState st = objective_state(o);
        if (st == ObjState::kViolated) {
          violated = true;
          break;
        }
        if (st == ObjState::kOpen && (!open || (o.value && !open->value)))
          open = &o;
      }
    }

    Decision next{};
    if (!violated) {
      if (!open) {
        res.status = TgStatus::kSuccess;
        break;
      }
      if (!backtrace(*open, &next)) violated = true;  // unreachable: conflict
    }

    if (violated) {
      // Backtrack: flip the most recent unflipped decision.
      ++res.stats.backtracks;
      if (budget) budget->charge_backtracks(1);
      bool resumed = false;
      while (!stack.empty()) {
        Decision& d = stack.back();
        win_.assign(d.gate, d.cycle, L3::X);
        pop_to(stack.size() - 1);
        if (!d.flipped) {
          d.flipped = true;
          d.value = !d.value;
          win_.assign(d.gate, d.cycle, l3_from_bool(d.value));
          if (cfg_.record_trace)
            res.trace.push_back(
                {SearchEvent::kFlip, d.gate, d.cycle, d.value});
          if (eng) eng->push_level();
          conflict = !shadow(d.gate, d.cycle, d.value, true);
          resumed = true;
          break;
        }
        if (cfg_.record_trace)
          res.trace.push_back({SearchEvent::kPop, d.gate, d.cycle, d.value});
        stack.pop_back();
      }
      if (!resumed) {
        res.status = TgStatus::kFailure;
        break;
      }
      imply();
      continue;
    }

    // Engine hint: a variable the engine has forced can only take that
    // value; trying the other one is a proven dead end. Decide the forced
    // value and mark the decision pre-flipped so backtracking pops it.
    // A forced assignment is a propagation, not a branch point, so it
    // counts as an implication rather than a decision.
    const L3 hint = eng ? eng->value(next.gate, next.cycle) : L3::X;
    if (hint != L3::X) {
      next.value = hint == L3::T;
      next.flipped = true;
      ++res.stats.implications;
    } else {
      ++res.stats.decisions;
      if (budget) budget->charge_decisions(1);
    }
    win_.assign(next.gate, next.cycle, l3_from_bool(next.value));
    if (cfg_.record_trace)
      res.trace.push_back(
          {SearchEvent::kDecide, next.gate, next.cycle, next.value});
    stack.push_back(next);
    if (eng) eng->push_level();
    conflict = !shadow(next.gate, next.cycle, next.value, true);
    imply();
  }

  win_.imply();  // a cap can stop the search right after a conflict
  if (eng) res.stats.implications += eng->propagations();
  if (res.status == TgStatus::kSuccess) {
    for (auto [g, t, v] : win_.assignments()) {
      if (gn_.gate(g).role == SigRole::kSts)
        res.sts_assignments.emplace_back(g, t, v);
      else if (gn_.gate(g).role == SigRole::kCPI)
        res.cpi_assignments.emplace_back(g, t, v);
    }
  }
  return res;
}

}  // namespace hltg
