// DPRELAX plan seeds and memo replay across warm starts.
//
// The derived seed must be a pure function of the plan's identity (site,
// shape, activation cycle, window) and never of trial position - a warm
// start whose imported deductions skip earlier plans must replay the same
// seeds, or the relax memo's byte-identical-replay contract silently
// breaks. The window must be an input: DpRelax::solve is window-dependent
// at the margin (relax_plan_seed doc in core/tg.h), so memo entries may
// never transfer between windows.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/tg.h"
#include "dlx/dlx.h"
#include "errors/bus_ssl.h"
#include "errors/mse.h"
#include "solver/store.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

// ------------------------------------------------------------- the seed

TEST(RelaxPlanSeed, PureFunctionOfPlanIdentity) {
  const std::uint64_t a = relax_plan_seed(1, 42, "alu:x,y", 3, 14);
  // Same inputs, any call order, any number of interleaved calls: same seed.
  (void)relax_plan_seed(9, 7, "other", 0, 20);
  EXPECT_EQ(relax_plan_seed(1, 42, "alu:x,y", 3, 14), a);

  // Every identity component separates seeds.
  EXPECT_NE(relax_plan_seed(2, 42, "alu:x,y", 3, 14), a);  // base seed
  EXPECT_NE(relax_plan_seed(1, 43, "alu:x,y", 3, 14), a);  // site
  EXPECT_NE(relax_plan_seed(1, 42, "alu:x,z", 3, 14), a);  // shape
  EXPECT_NE(relax_plan_seed(1, 42, "alu:x,y", 4, 14), a);  // activation
  EXPECT_NE(relax_plan_seed(1, 42, "alu:x,y", 3, 20), a);  // window
}

TEST(RelaxPlanSeed, WindowsNeverCollideOverPlanSpace) {
  // A base-window seed must never equal the retry-window seed of any plan
  // in a sizable sample: cross-window memo transfer is unsound.
  std::set<std::uint64_t> win14, win20;
  for (NetId site = 0; site < 64; ++site)
    for (unsigned cyc = 0; cyc < 4; ++cyc) {
      std::string shape = "m";  // appended: see tests/random_net.h
      shape += std::to_string(site % 5);
      win14.insert(relax_plan_seed(0xABCD, site, shape, cyc, 14));
      win20.insert(relax_plan_seed(0xABCD, site, shape, cyc, 20));
    }
  for (std::uint64_t s : win14) EXPECT_EQ(win20.count(s), 0u) << s;
}

// --------------------------------------------------- warm-start replay

/// Generate `errors` with a campaign-scope context, export it, then
/// regenerate with the snapshot imported into a fresh generator: the
/// emitted tests must be byte-identical while DPRELAX solves are answered
/// from the memo instead of re-running relaxation sweeps. Returns the cold
/// run's effort.
Effort expect_warm_start_replays(const std::vector<DesignError>& errors) {
  TgConfig cfg;
  cfg.solver.scope = SolverScope::kCampaign;

  struct RunOut {
    std::vector<TestCase> tests;
    std::vector<TgStatus> statuses;
    Effort effort;
  };
  auto run = [&](const DedSnapshot* warm, DedSnapshot* out_snap) {
    TestGenerator tg(model(), cfg);
    if (warm) import_context(*warm, &tg.solver_context());
    RunOut out;
    for (const DesignError& e : errors) {
      const TgResult r = tg.generate(e);
      out.tests.push_back(r.test);
      out.statuses.push_back(r.status);
      out.effort += r.stats;
    }
    if (out_snap) *out_snap = export_context(tg.solver_context());
    return out;
  };

  DedSnapshot snap;
  const RunOut cold = run(nullptr, &snap);
  EXPECT_FALSE(snap.relax.empty()) << "cold run recorded no relax memos";

  const RunOut warm = run(&snap, nullptr);
  EXPECT_EQ(warm.statuses, cold.statuses);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    EXPECT_EQ(warm.tests[i].imem, cold.tests[i].imem) << i;
    EXPECT_EQ(warm.tests[i].rf_init, cold.tests[i].rf_init) << i;
    EXPECT_EQ(warm.tests[i].dmem_init, cold.tests[i].dmem_init) << i;
  }
  // The warmth is specifically the relax memo, and it is complete: every
  // relax solve of the warm run replays one the cold run recorded.
  EXPECT_GT(warm.effort.relax_lookups, 0u);
  EXPECT_EQ(warm.effort.relax_hits, warm.effort.relax_lookups);
  EXPECT_GT(warm.effort.relax_hits, cold.effort.relax_hits);
  // Replayed results carry the recorded iteration and pair-capture counts,
  // so the Table-1 stats stay byte-identical across cold and warm runs -
  // the memo accelerates, it never changes what is reported.
  EXPECT_EQ(warm.effort.relax_iterations, cold.effort.relax_iterations);
  EXPECT_EQ(warm.effort.relax_pair_captures, cold.effort.relax_pair_captures);
  return cold.effort;
}

std::vector<DesignError> first8(std::vector<DesignError> errors) {
  if (errors.size() > 8) errors.resize(8);
  return errors;
}

TEST(RelaxReplay, WarmStartAnswersRelaxFromTheImportedMemo) {
  {
    SCOPED_TRACE("ssl");
    expect_warm_start_replays(first8(wrap(enumerate_bus_ssl(model().dp))));
  }
  // Every SSL activation constraint is kGoodEquals, so DPRELAX never
  // captures a good/erroneous window pair there and the pair-capture check
  // compares 0 with 0. The MSE slice (kSiteDiffers) makes it real.
  SCOPED_TRACE("mse");
  const Effort cold = expect_warm_start_replays(first8(wrap(enumerate_mse(
      model().dp, {Stage::kEX, Stage::kMEM, Stage::kWB}))));
  EXPECT_GT(cold.relax_pair_captures, 0u);
}

TEST(RelaxReplay, ErrorScopeGeneratorLeavesTheMemoEmpty) {
  // At error scope the context is cleared at every error and no plan is
  // relaxed twice within one, so the memo could never hit: the generator
  // neither looks it up nor stores into it. The same errors at campaign
  // scope do, so the check is not vacuous.
  const std::vector<DesignError> errors =
      first8(wrap(enumerate_bus_ssl(model().dp)));
  TestGenerator error_tg(model());
  TgConfig campaign_cfg;
  campaign_cfg.solver.scope = SolverScope::kCampaign;
  TestGenerator campaign_tg(model(), campaign_cfg);
  Effort error_scope, campaign_scope;
  for (const DesignError& e : errors) {
    const TgResult r = error_tg.generate(e);
    EXPECT_EQ(error_tg.solver_context().relax.size(), 0u);
    error_scope += r.stats;
    const TgResult c = campaign_tg.generate(e);
    EXPECT_EQ(c.status, r.status);
    EXPECT_EQ(c.test.imem, r.test.imem);
    campaign_scope += c.stats;
  }
  EXPECT_EQ(error_scope.relax_lookups, 0u);
  EXPECT_GT(error_scope.relax_evals, 0u);
  EXPECT_GT(campaign_scope.relax_lookups, 0u);
  EXPECT_GT(campaign_tg.solver_context().relax.size(), 0u);
}

TEST(RelaxReplay, MemoEntriesIndependentOfPriorErrorEffortHistory) {
  // The ROADMAP carry-over this test closes out: the derived relax seed
  // once folded in `plans_tried`, so an error's relaxation sweep (and
  // therefore its recorded memo entries) depended on how much effort
  // earlier errors had burned. Generate one error with a FRESH campaign-
  // scope context, then the same error at the END of a multi-error
  // campaign: the emitted test must be byte-identical, and every memo
  // entry the fresh run recorded must appear in the history run with an
  // identical solution - proof the memo key and its payload are pure
  // functions of the subproblem, never of effort history.
  std::vector<DesignError> errors = wrap(enumerate_bus_ssl(model().dp));
  ASSERT_GE(errors.size(), 6u);
  errors.resize(6);
  const DesignError& last = errors.back();

  TgConfig cfg;
  cfg.solver.scope = SolverScope::kCampaign;

  TestGenerator fresh_tg(model(), cfg);
  const TgResult fresh = fresh_tg.generate(last);
  const DedSnapshot fresh_snap = export_context(fresh_tg.solver_context());
  ASSERT_FALSE(fresh_snap.relax.empty())
      << "single-error run recorded no relax memos";

  TestGenerator hist_tg(model(), cfg);
  TgResult hist;  // the loop ends on `last`: its result after full history
  for (const DesignError& e : errors) hist = hist_tg.generate(e);
  const DedSnapshot hist_snap = export_context(hist_tg.solver_context());

  EXPECT_EQ(hist.status, fresh.status);
  EXPECT_EQ(hist.test.imem, fresh.test.imem);
  EXPECT_EQ(hist.test.rf_init, fresh.test.rf_init);
  EXPECT_EQ(hist.test.dmem_init, fresh.test.dmem_init);

  for (const RelaxCache::Exported& want : fresh_snap.relax) {
    bool found = false;
    for (const RelaxCache::Exported& got : hist_snap.relax) {
      if (!(got.key == want.key)) continue;
      found = true;
      EXPECT_EQ(got.result.status, want.result.status);
      EXPECT_EQ(got.vars.imem, want.vars.imem);
      EXPECT_EQ(got.vars.imem_fixed, want.vars.imem_fixed);
      EXPECT_EQ(got.vars.rf_init, want.vars.rf_init);
      EXPECT_EQ(got.vars.mem_init, want.vars.mem_init);
      break;
    }
    EXPECT_TRUE(found) << "memo key recorded by the fresh run is absent "
                          "after a campaign with prior-error history";
  }
}

TEST(RelaxReplay, SnapshotSurvivesSerializationWithPairCaptures) {
  // DpRelaxResult grew pair_captures (store format v2): a relax memo round-
  // tripped through the byte format must replay identically, counter
  // included - a silent drop here would skew the warm-start Table-1 stats.
  RelaxCache::Exported e;
  e.key.words = {0x1111, 0x2222, 0x3333};
  e.result.status = TgStatus::kSuccess;
  e.result.iterations = 5;
  e.result.pair_captures = 3;
  e.result.note = "fabricated";
  e.vars.imem = {0xDEADBEEFu, 0x12345678u};
  e.vars.imem_fixed = {0xFFFF0000u, 0x0000FFFFu};
  e.vars.rf_init[7] = 42;
  e.vars.mem_init[0x40] = 99;
  DedSnapshot snap;
  snap.relax.push_back(e);

  const std::string path = "/tmp/hltg_relax_replay_store.bin";
  std::string why;
  ASSERT_TRUE(save_ded_store(path, DedStoreMeta{}, snap, &why)) << why;
  const DedStoreLoad load = load_ded_store(path, 0, 0);
  ASSERT_TRUE(load.ok) << load.note;
  ASSERT_EQ(load.snapshot.relax.size(), 1u);
  const RelaxCache::Exported& got = load.snapshot.relax[0];
  EXPECT_EQ(got.key, e.key);
  EXPECT_EQ(got.result.status, e.result.status);
  EXPECT_EQ(got.result.iterations, e.result.iterations);
  EXPECT_EQ(got.result.pair_captures, e.result.pair_captures);
  EXPECT_EQ(got.vars.imem, e.vars.imem);
  EXPECT_EQ(got.vars.imem_fixed, e.vars.imem_fixed);
  EXPECT_EQ(got.vars.rf_init, e.vars.rf_init);
  EXPECT_EQ(got.vars.mem_init, e.vars.mem_init);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hltg
