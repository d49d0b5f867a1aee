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
// Multi-worker campaigns (--jobs > 1) attach every worker's context to one
// NogoodBoard: workers publish their newly learned cuts and import the
// other workers' cuts between errors (see TestGenerator::generate), so the
// hot path still only ever touches the worker-private stores. Contexts can
// also be persisted across processes through src/solver/store.h; both
// mechanisms move only outcome-neutral state, so the byte-identical
// guarantee above extends to sharded and warm-started campaigns
// (docs/ROBUSTNESS.md).
#pragma once

#include <cstddef>

#include "solver/justcache.h"
#include "solver/nogood_board.h"
#include "solver/nogoods.h"
#include "solver/relax_cache.h"

namespace hltg {

/// Lifetime of the deduction state (see header comment).
enum class SolverScope {
  kError,     ///< reset per error: order-independent, any --jobs
  kCampaign,  ///< keep across a worker's errors (any --jobs; workers
              ///< exchange nogoods through a shared NogoodBoard)
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
  /// Cross-worker nogood exchange (campaign scope only). Not owned; must
  /// outlive every generator attached to it. nullptr: no sharing.
  NogoodBoard* shared_board = nullptr;
};

struct SolverContext {
  SolverConfig cfg;
  NogoodStore nogoods;
  JustCache cache;
  RelaxCache relax;

  explicit SolverContext(SolverConfig c = {}) : cfg(c) {
    // Recording feeds the board; without one it would only burn memory.
    if (cfg.shared_board) nogoods.set_recording(true);
  }

  void reset() {
    nogoods.clear();
    cache.clear();
    relax.clear();
  }

  /// Exchange nogoods with the shared board: publish cuts learned since
  /// the last sync, then import the other workers' cuts this context has
  /// not seen yet. Called by TG between errors (never inside a search);
  /// no-op without a board.
  void sync_shared_nogoods() {
    NogoodBoard* board = cfg.shared_board;
    if (!board) return;
    board->publish(nogoods.drain_recorded());
    const auto snap = board->snapshot();
    if (!snap) return;
    // Re-importing a cut this store already holds (including its own
    // publications) is a learn() duplicate no-op.
    for (; board_cursor_ < snap->cuts.size(); ++board_cursor_)
      nogoods.learn(snap->cuts[board_cursor_]);
  }

 private:
  std::size_t board_cursor_ = 0;  ///< master-list position already imported
};

}  // namespace hltg
