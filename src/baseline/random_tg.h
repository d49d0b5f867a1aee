// Pseudo-random test-program generation baseline (Sec. I / II.A context:
// "biased pseudo-random test program generators" are the industrial
// state of practice the directed method is compared against).
//
// Generates valid, forward-branching-only DLX programs with biased operand
// values and register reuse (to excite hazards and bypasses), plus random
// initial register-file and memory state. Error coverage is measured by
// dual simulation.
#pragma once

#include <cstdint>

#include "errors/campaign.h"
#include "isa/spec_sim.h"
#include "util/rng.h"

namespace hltg {

struct RandomTgConfig {
  unsigned program_length = 20;
  unsigned max_programs_per_error = 8;  ///< attempts before declaring abort
  std::uint64_t seed = 1;
  /// Probability weights (out of 100).
  unsigned p_store = 25;     ///< chance an instruction is a store
  unsigned p_load = 15;
  unsigned p_branch = 5;     ///< forward branches only
  unsigned reg_pool = 8;     ///< registers drawn from r1..r<pool> for reuse
};

/// Generate one random test case.
TestCase random_test(Rng& rng, const RandomTgConfig& cfg);

/// Campaign strategy (also the campaign's graceful-degradation fallback):
/// for each error, try up to max_programs_per_error random programs; first
/// one whose dual simulation mismatches wins. Polls the budget between
/// candidate programs, so a deadline, cap, or cancellation ends the attempt
/// promptly with the abort reason recorded. A pure function of the error
/// (its Rng is seeded from the error site), hence thread-safe.
BudgetedGenFn random_budgeted_strategy(const DlxModel& m,
                                       RandomTgConfig cfg = {});

}  // namespace hltg
