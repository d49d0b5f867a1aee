// Batch error simulation: up to kMaxLanes erroneous machines on one
// candidate test in a single cycle-accurate concurrent simulation.
//
// The campaign's dropping pass asks "which of the remaining errors does this
// test fortuitously detect?" - an O(tests x errors) loop that the serial
// detector answers with one full cosim per (test, error) pair. Here a
// test's erroneous machines share one run (concurrent simulation, Ulrich
// and Baker 1974): each cycle the fault-free machine is evaluated once, in the
// model's schedule order, and a lane keeps only what differs from it - a
// lane mask per datapath net and per register, and its own copies of the
// memory words it wrote differently. A datapath step runs for a lane only
// when one of its inputs differs in that lane or the lane's injection sits
// on the step, which on random suites is a few percent of the lane-steps.
// The bit-level controller is evaluated once per cycle for all lanes at
// once (gatenet/evalw: bit k of word w of every gate is machine 64*w + k).
// The specification trace is computed once per test instead of once per
// pair; every lane is compared store by store against it (never against
// the fault-free machine, which may itself diverge), and a lane freezes as
// soon as its store sequence provably diverges (detection is monotone), so
// detected machines stop costing work.
//
// A population is chunked into batches of kMaxLanes lanes (a caller may
// cap the width with max_lanes); lanes never interact, so chunking at any
// width yields identical per-error outcomes - only the pass counters
// change. Narrow batches cost more: each repeats the fault-free machine.
//
// Per-lane semantics are exactly ProcSim + ArchTrace::diff, including the
// single pass's rule that a step reading a net produced later in the
// schedule sees its previous-cycle value; the equivalence is cross-checked
// against the scalar `detects()` oracle in tests/test_evalw.cpp for all four
// error models.
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
  std::uint64_t module_evals = 0;       ///< per-lane datapath module
                                        ///< evaluations (combinational,
                                        ///< register-file and memory
                                        ///< reads), the fault-free
                                        ///< machine's excluded: independent
                                        ///< of lane width
  unsigned lane_width = 0;              ///< resolved lanes per batch
  std::uint64_t widest_batch = 0;       ///< lanes of the widest batch
  /// Kernel of the widest batch: a full-width batch runs AVX2 even when
  /// the remainder batch after it runs the portable kernel.
  LaneBackend backend = LaneBackend::kScalar;
};

struct BatchDetectConfig {
  unsigned max_lanes = 0;     ///< lanes per batch; 0 = kMaxLanes
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

/// The evaluation schedule a batch simulation steps through: the model's
/// shared DlxModel::schedule(), never a per-simulation copy.
const std::vector<EvalStep>& batch_schedule(
    const DlxModel& m, const TestCase& tc,
    const std::vector<const ErrorInjection*>& lanes);

/// Whole-population detector: chunks `errors` into <= width groups and
/// batch-simulates each; out[i] iff errors[i] is detected by `tc`.
std::vector<bool> detect_errors(const DlxModel& m, const TestCase& tc,
                                const std::vector<const DesignError*>& errors,
                                const BatchDetectConfig& cfg = {});

/// Adapter for run_campaign_with_dropping's batched detection oracle.
BatchDetectFn batch_detector(const DlxModel& m, BatchDetectConfig cfg = {});

}  // namespace hltg
