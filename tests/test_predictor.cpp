// Tests of the branch-predictor (BTB) model variant: architectural
// equivalence with the ISA specification, misprediction recovery, and the
// performance effect of correct predictions.
#include <gtest/gtest.h>

#include "baseline/random_tg.h"
#include "core/tg.h"
#include "gatenet/levelize.h"
#include "isa/asm.h"
#include "netlist/check.h"
#include "sim/cosim.h"

namespace hltg {
namespace {

const DlxModel& bp_model() {
  static const DlxModel m = build_dlx({.branch_predictor = true});
  return m;
}

const DlxModel& base_model() {
  static const DlxModel m = build_dlx();
  return m;
}

TestCase make_tc(const std::string& src) {
  const AsmResult r = assemble(src);
  EXPECT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  TestCase tc;
  tc.imem = encode_program(r.program);
  return tc;
}

TEST(Predictor, ModelChecksClean) {
  const CheckResult r = check_netlist(bp_model().dp);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_NO_THROW(bp_model().ctrl.topo_order());
}

TEST(Predictor, AddsStateAndTertiarySignals) {
  const GateNetStats base = analyze(base_model().ctrl);
  const GateNetStats bp = analyze(bp_model().ctrl);
  EXPECT_GT(bp.num_dffs, base.num_dffs);          // prediction CPRs
  EXPECT_GT(bp.num_tertiary, base.num_tertiary);  // pred_taken crossings
  EXPECT_EQ(bp.num_sts, base.num_sts + 2);        // btb_hit, ptarget_eq
}

TEST(Predictor, StraightLineUnaffected) {
  const TestCase tc = make_tc(
      "addi r1, r0, 7\nadd r2, r1, r1\nsw 0x40(r0), r2\n");
  const CosimResult r = cosim(bp_model(), tc, drain_cycles(tc.imem.size()));
  EXPECT_TRUE(r.match) << r.diff;
}

TEST(Predictor, TakenBranchStillCorrect) {
  const TestCase tc = make_tc(
      "addi r1, r0, 1\n"
      "bnez r1, 2\n"
      "addi r2, r0, 99\n"   // squashed
      "addi r3, r0, 98\n"   // squashed
      "sw 0x40(r0), r1\n");
  const CosimResult r = cosim(bp_model(), tc, drain_cycles(tc.imem.size()));
  EXPECT_TRUE(r.match) << r.diff;
}

TEST(Predictor, LoopRePredictionSavesSquashes) {
  // A backward loop executes its branch repeatedly; after the first taken
  // branch trains the BTB, later iterations are predicted and cost no
  // squash. The predictor machine must squash strictly less.
  const TestCase tc = make_tc(
      "addi r1, r0, 6\n"
      "addi r2, r0, 0\n"
      "addi r2, r2, 1\n"    // pc 8: loop body
      "subi r1, r1, 1\n"
      "bnez r1, -3\n"       // back to pc 8
      "sw 0x40(r0), r2\n");
  const unsigned cycles = 64;
  ProcSim base(base_model(), tc);
  base.run(cycles);
  ProcSim bp(bp_model(), tc);
  bp.run(cycles);
  // Same architecture...
  EXPECT_TRUE(base.arch_trace().diff(bp.arch_trace()).empty());
  // ... fewer control-flow squashes.
  EXPECT_LT(bp.squashes(), base.squashes());
  EXPECT_GT(bp.squashes(), 0u);  // the final not-taken exit mispredicts
}

TEST(Predictor, SpecEquivalenceOnLoopProgram) {
  const TestCase tc = make_tc(
      "addi r1, r0, 4\n"
      "addi r3, r0, 0\n"
      "add r3, r3, r1\n"
      "subi r1, r1, 1\n"
      "bnez r1, -3\n"
      "sw 0x80(r0), r3\n");
  // Spec executes the same dynamic instruction stream: compare final state
  // after both machines have quiesced.
  const unsigned cycles = 96;
  const ArchTrace spec = spec_run(tc, cycles);
  const ArchTrace impl = impl_run(bp_model(), tc, cycles);
  EXPECT_TRUE(spec.diff(impl).empty()) << spec.diff(impl);
}

class PredictorRandomCosim : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, PredictorRandomCosim,
                         ::testing::Range(0, 16));

TEST_P(PredictorRandomCosim, MatchesSpec) {
  RandomTgConfig cfg;
  cfg.program_length = 36;
  cfg.reg_pool = 4;
  cfg.p_branch = 10;  // forward branches train and exercise the BTB
  Rng rng(4200 + GetParam());
  const TestCase tc = random_test(rng, cfg);
  const CosimResult r = cosim(bp_model(), tc, drain_cycles(tc.imem.size()));
  EXPECT_TRUE(r.match) << r.diff;
}

TEST(Predictor, BtbAliasOnNonBranchRecovers) {
  // Train entry for pc 8 (a branch), then execute a non-branch instruction
  // that aliases into the same BTB set on a later pass: the false
  // prediction must be detected in EX and invalidated, with no
  // architectural damage.
  const TestCase tc = make_tc(
      "j 1\n"            // pc 0: trains BTB entry 0 with target 8
      "nop\n"
      "addi r1, r0, 1\n" // pc 8
      "jr r31\n"         // pc 12: r31 = 0 -> jumps back to pc 0!
      "nop\n");
  // pc 0 re-executed: BTB predicts taken to 8 - correct again. Then the
  // loop continues; architectural equivalence is the whole assertion.
  const unsigned cycles = 48;
  const ArchTrace spec = spec_run(tc, cycles);
  const ArchTrace impl = impl_run(bp_model(), tc, cycles);
  EXPECT_TRUE(spec.diff(impl).empty()) << spec.diff(impl);
}

TEST(Predictor, TestGenerationStillWorks) {
  // The generic TG machinery runs unchanged on the predictor model.
  const NetId add_out = bp_model().dp.find_net("ex.alu_add");
  DesignError e{BusSslError{add_out, 0, false}};
  TestGenerator tg(bp_model());
  const TgResult r = tg.generate(e);
  ASSERT_EQ(r.status, TgStatus::kSuccess) << r.note;
  EXPECT_TRUE(detects(bp_model(), r.test, e.injection()));
}

TEST(Predictor, CampaignCoverageComparableOutsidePredictionPath) {
  // Spot-check a slice of the SSL campaign on the predictor model. Errors
  // inside the prediction machinery (BTB arrays, prediction plumbing) are
  // excluded: a corrupted prediction only causes a misprediction, which the
  // EX check *recovers from* with no architectural effect - they are
  // undetectable by spec-vs-implementation comparison by design.
  const auto raw = enumerate_bus_ssl(bp_model().dp);
  std::vector<BusSslError> filtered;
  for (const BusSslError& e : raw) {
    const std::string& nm = bp_model().dp.net(e.net).name;
    if (nm.rfind("btb.", 0) == 0 || nm == "idex.pc" || nm == "idex.ptarget" ||
        nm == "sts.ptarget_eq" || nm == "sts.btb_hit")
      continue;
    filtered.push_back(e);
  }
  std::vector<DesignError> some;
  const auto all = wrap(filtered);
  for (std::size_t i = 0; i < all.size(); i += 9) some.push_back(all[i]);
  TestGenerator tg(bp_model());
  const CampaignResult res =
      run_campaign(bp_model().dp, some, tg.budgeted_strategy());
  // Slightly below the base model's rate: the extra prediction logic gives
  // CTRLJUST more ways to wander into redirect-implying assignments.
  EXPECT_GT(res.stats.detected * 10, res.stats.total * 7);  // > 70%
}

TEST(Predictor, PredictionPathErrorsAreArchitecturallyBenign) {
  // Direct demonstration: corrupt a BTB target line and run a branchy
  // program - the machine mispredicts, recovers, and matches the spec.
  const NetId tgt0 = bp_model().dp.find_net("btb.target0");
  ASSERT_NE(tgt0, kNoNet);
  const ErrorInjection inj = BusSslError{tgt0, 5, true}.injection();
  const TestCase tc = make_tc(
      "addi r1, r0, 3\n"
      "addi r2, r2, 1\n"    // pc 4: loop body
      "subi r1, r1, 1\n"
      "bnez r1, -3\n"       // trains BTB, then hits the corrupted target
      "sw 0x40(r0), r2\n");
  const unsigned cycles = 64;
  const ArchTrace spec = spec_run(tc, cycles);
  const ArchTrace impl = impl_run(bp_model(), tc, cycles, inj);
  EXPECT_TRUE(spec.diff(impl).empty()) << spec.diff(impl);
}

}  // namespace
}  // namespace hltg
