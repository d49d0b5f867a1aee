// Batch (bit-parallel) error simulation: up to kMaxLanes erroneous machines
// on one candidate test in a single cycle-accurate simulation.
//
// The campaign's dropping pass asks "which of the remaining errors does this
// test fortuitously detect?" - an O(tests x errors) loop that the serial
// detector answers with one full cosim per (test, error) pair. Here the
// bit-level controller is evaluated once per cycle for all lanes at once
// (gatenet/evalw: bit k of word w of every gate is machine 64*w + k), while
// the word-level datapath - whose 32-bit values cannot share bit-lanes -
// falls back to scalar per-lane evaluation inside the same cycle loop. The
// specification trace is computed once per test instead of once per pair,
// and a lane freezes as soon as its store sequence provably diverges from
// the specification (detection is monotone), so detected machines stop
// costing datapath work.
//
// Lane width follows resolve_lanes (CPUID auto, HLTG_LANES, or an explicit
// max_lanes); lanes never interact, so chunking a population at any width
// yields identical per-error outcomes - only the pass counters change.
//
// Per-lane semantics are exactly ProcSim + ArchTrace::diff; the equivalence
// is cross-checked against the scalar `detects()` oracle in
// tests/test_evalw.cpp for all four error models.
#pragma once

#include <cstdint>
#include <vector>

#include "errors/campaign.h"
#include "errors/inject.h"
#include "gatenet/evalw.h"
#include "sim/proc_sim.h"

namespace hltg {

/// Work counters for the batch engine. Accumulated into the pointer a
/// caller passes (no internal locking: share one stats object only across
/// sequential calls).
struct BatchSimStats {
  std::uint64_t batches = 0;            ///< batch simulations run
  std::uint64_t controller_passes = 0;  ///< cycles evaluated (one full
                                        ///< controller sweep per cycle)
  std::uint64_t gate_evals = 0;         ///< wide single-gate evaluations
  std::uint64_t lanes_evaluated = 0;    ///< sum of lane counts over batches
  unsigned lane_width = 0;              ///< resolved lanes per batch
  LaneBackend backend = LaneBackend::kScalar;  ///< dispatched kernel
};

struct BatchDetectConfig {
  unsigned max_lanes = 0;     ///< lanes per batch; 0 = resolve_lanes() auto
  bool force_scalar = false;  ///< use the serial per-error cosim (reference)
  unsigned cycles = 0;        ///< 0: derive from program length
  BatchSimStats* stats = nullptr;  ///< optional work-counter sink
};

/// One batch: simulate `lanes.size()` (<= kMaxLanes) erroneous machines
/// against `tc` and return the detection mask words (bit k of word w set
/// iff lane 64*w + k's architectural trace differs from `spec`).
std::vector<std::uint64_t> batch_detectw(
    const DlxModel& m, const TestCase& tc, const ArchTrace& spec,
    unsigned cycles, const std::vector<const ErrorInjection*>& lanes,
    BatchSimStats* stats = nullptr);

/// 64-lane compatibility wrapper around batch_detectw.
std::uint64_t batch_detect64(const DlxModel& m, const TestCase& tc,
                             const ArchTrace& spec, unsigned cycles,
                             const std::vector<const ErrorInjection*>& lanes);

/// Per-lane full window capture: every net and gate value at the settled
/// point of every cycle, for up to kMaxLanes injections in one simulation.
/// Lane semantics match ProcSim::begin_cycle exactly; DPRELAX pairs its
/// good/erroneous machine captures through this (core/archstate.h).
struct LaneCapture {
  std::vector<std::vector<std::uint64_t>> nets;   ///< [t][net]
  std::vector<std::vector<std::uint8_t>> gates;   ///< [t][gate]
};
std::vector<LaneCapture> batch_capture(
    const DlxModel& m, const TestCase& tc, unsigned cycles,
    const std::vector<const ErrorInjection*>& lanes,
    BatchSimStats* stats = nullptr);

/// Whole-population detector: chunks `errors` into <= width groups and
/// batch-simulates each; out[i] iff errors[i] is detected by `tc`.
std::vector<bool> detect_errors(const DlxModel& m, const TestCase& tc,
                                const std::vector<const DesignError*>& errors,
                                const BatchDetectConfig& cfg = {});

/// Adapter for run_campaign_with_dropping's batched detection oracle.
BatchDetectFn batch_detector(const DlxModel& m, BatchDetectConfig cfg = {});

}  // namespace hltg
