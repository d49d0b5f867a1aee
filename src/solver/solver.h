// Shared deduction context: one SolverContext per generator (per campaign
// worker), owning the learned-conflict store, the justification cache and
// the DPRELAX memo that successive searches share. The nogood store keeps
// its built-in capacity (nogoods.h); the justification cache and the memo
// have none (justcache.h, relax_cache.h). TG attaches the context, and
// uses the memo, only while CtrlJustConfig::use_engine is on - the one
// engine switch.
//
// Scope and determinism: with scope == kError (the default) TG resets the
// context at the start of every generate() call, so learned state is
// reused across the plans x windows of ONE error but never leaks between
// errors. This keeps campaign rows byte-identical regardless of how errors
// are distributed over --jobs workers. scope == kCampaign keeps the
// context alive across errors of a single worker: outcomes, witnesses and
// emitted tests stay identical to error scope because every piece of
// carried state is outcome-neutral - nogoods are consequences of the
// controller netlist alone (valid for any objective set and window, see
// nogoods.h), cached justifications and relax results replay the exact
// result the fresh search would recompute, and the engine-assisted search
// only prunes proven-doomed subtrees, which never changes the first
// success leaf. Effort counters (decisions, hits) legitimately differ -
// that is the reuse.
//
// Multi-worker campaigns (--jobs > 1) give every worker its own context
// and nothing else: workers exchange no deduction state, so each worker's
// context is a pure function of the errors its round-robin shard holds
// (errors/parallel_campaign.h), and so are its effort counters and the
// store its campaign saves. Contexts can be persisted across processes
// through src/solver/store.h; a store moves only outcome-neutral state, so
// the byte-identical guarantee above extends to sharded and warm-started
// campaigns (docs/ROBUSTNESS.md).
#pragma once

#include "solver/justcache.h"
#include "solver/nogoods.h"
#include "solver/relax_cache.h"

namespace hltg {

/// Lifetime of the deduction state (see header comment).
enum class SolverScope {
  kError,     ///< reset per error: order-independent, any --jobs
  kCampaign,  ///< keep across a worker's errors (any --jobs; each
              ///< worker keeps its own context)
};

/// Knobs of the attached context. The engine itself is switched by
/// CtrlJustConfig::use_engine; with it on, conflict cuts are always learned
/// and applied.
struct SolverConfig {
  bool use_cache = true;  ///< reuse justification results across plans
  /// Apply nogoods through two watched assignments per nogood instead of
  /// rescanning the whole store every propagation round. Same fixpoints,
  /// same firings - strictly fewer literal probes (docs/SOLVER.md).
  bool use_nogood_watches = true;
  SolverScope scope = SolverScope::kError;
};

struct SolverContext {
  SolverConfig cfg;
  NogoodStore nogoods;
  JustCache cache;
  RelaxCache relax;

  explicit SolverContext(SolverConfig c = {}) : cfg(c) {}

  void reset() {
    nogoods.clear();
    cache.clear();
    relax.clear();
  }
};

}  // namespace hltg
