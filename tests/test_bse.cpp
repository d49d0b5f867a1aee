// Tests of the bus source error model and campaign error-dropping.
#include <gtest/gtest.h>

#include "core/tg.h"
#include "errors/bse.h"
#include "isa/asm.h"
#include "sim/cosim.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

TestCase make_tc(const std::string& src) {
  const AsmResult r = assemble(src);
  EXPECT_TRUE(r.ok());
  TestCase tc;
  tc.imem = encode_program(r.program);
  return tc;
}

TEST(Bse, EnumerationShape) {
  const auto errs = enumerate_bse(model().dp);
  EXPECT_GT(errs.size(), 30u);
  for (const auto& e : errs) {
    const Module& m = model().dp.module(e.module);
    ASSERT_LT(e.input, m.data_in.size());
    EXPECT_EQ(model().dp.net(m.data_in[e.input]).width,
              model().dp.net(e.wrong_source).width)
        << e.describe(model().dp);
    EXPECT_NE(m.data_in[e.input], e.wrong_source);
  }
}

TEST(Bse, RewiredAdderDetectedByDirectedTest) {
  // Rewire the ALU adder's second operand to operand A: add computes a + a.
  const ModId add = model().dp.find_module("ex.alu_add");
  const NetId a_byp = model().dp.find_net("ex.a_byp");
  BusSourceError e{add, 1, a_byp};
  TestCase tc = make_tc(
      "addi r1, r0, 3\n"
      "addi r2, r0, 5\n"
      "add r3, r1, r2\n"  // 8 good, 6 erroneous (3+3)
      "sw 0x40(r0), r3\n");
  EXPECT_TRUE(detects(model(), tc, e.injection()));
}

TEST(Bse, NotDetectedWhenSourcesAgree) {
  // The rewiring is permanent, so *every* cycle must have op2 == operand A
  // for it to stay invisible: use a same-source add (a == b) with no
  // immediate instructions (whose op2 = imm would differ from A).
  const ModId add = model().dp.find_module("ex.alu_add");
  const NetId a_byp = model().dp.find_net("ex.a_byp");
  BusSourceError e{add, 1, a_byp};
  TestCase tc = make_tc("add r3, r1, r1\nsw 0x40(r0), r3\n");
  tc.rf_init[1] = 4;
  // The store's address adder uses op2 = imm(0x40) vs A = r0: rewired it
  // computes 0+0. That *is* visible - so restrict further: store datum via
  // the same-register idiom and a zero offset from a register holding the
  // address... simplest invisibility: no store at all, compare final RF.
  tc.imem = make_tc("add r3, r1, r1\n").imem;
  EXPECT_FALSE(detects(model(), tc, e.injection()));
}

TEST(Bse, GeneratorCoversRewiredOperand) {
  const ModId add = model().dp.find_module("ex.alu_add");
  const NetId a_byp = model().dp.find_net("ex.a_byp");
  DesignError e{BusSourceError{add, 1, a_byp}};
  TestGenerator tg(model());
  const TgResult r = tg.generate(e);
  ASSERT_EQ(r.status, TgStatus::kSuccess) << r.note;
  EXPECT_TRUE(detects(model(), r.test, e.injection()));
}

TEST(Bse, GeneratorCoversRewiredMuxInput) {
  // Bypass mux input 1 (EX/MEM source) rewired to the stale operand: only
  // detectable when the bypass actually fires.
  const ModId byp = model().dp.find_module("ex.a_byp");
  const Module& mux = model().dp.module(byp);
  DesignError e{BusSourceError{byp, 1, mux.data_in[0]}};
  TestGenerator tg(model());
  const TgResult r = tg.generate(e);
  ASSERT_EQ(r.status, TgStatus::kSuccess) << r.note;
  EXPECT_TRUE(detects(model(), r.test, e.injection()));
}

TEST(Bse, WrapperRoundTrip) {
  const auto errs = wrap(enumerate_bse(model().dp));
  ASSERT_FALSE(errs.empty());
  EXPECT_EQ(errs[0].model_name(), "BSE");
  EXPECT_NE(errs[0].site_net(model().dp), kNoNet);
  EXPECT_FALSE(errs[0].describe(model().dp).empty());
}

TEST(CampaignDropping, CompactsTestSet) {
  // Small slice of the SSL population with real generation + dropping.
  const auto all = wrap(enumerate_bus_ssl(model().dp));
  std::vector<DesignError> some(all.begin(), all.begin() + 24);
  TestGenerator tg(model());
  const CampaignResult plain =
      run_campaign(model().dp, some, tg.budgeted_strategy());
  TestGenerator tg2(model());
  const CampaignResult dropped = run_campaign_with_dropping(
      model().dp, some, tg2.budgeted_strategy(),
      batch_from_scalar([&](const TestCase& tc, const DesignError& e) {
        return detects(model(), tc, e.injection());
      }));
  EXPECT_GE(dropped.stats.detected, plain.stats.detected);
  EXPECT_LT(dropped.tests_kept, plain.tests_kept);
  EXPECT_GT(dropped.dropped, 0u);
  EXPECT_EQ(dropped.stats.detected,
            dropped.tests_kept + dropped.dropped);
}

TEST(CampaignDropping, EveryKeptTestStillConfirmed) {
  const auto all = wrap(enumerate_bus_ssl(model().dp));
  std::vector<DesignError> some(all.begin(), all.begin() + 12);
  TestGenerator tg(model());
  const CampaignResult res = run_campaign_with_dropping(
      model().dp, some, tg.budgeted_strategy(),
      batch_from_scalar([&](const TestCase& tc, const DesignError& e) {
        return detects(model(), tc, e.injection());
      }));
  for (const CampaignRow& row : res.rows) {
    if (row.attempt.generated) {
      EXPECT_TRUE(detects(model(), row.attempt.test,
                          row.error.injection()));
    }
  }
}

}  // namespace
}  // namespace hltg
