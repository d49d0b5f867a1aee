// Tests for the divergence debugger and the suite-coverage metrics.
#include <gtest/gtest.h>

#include "core/tg.h"
#include "errors/coverage.h"
#include "isa/asm.h"
#include "sim/diff_debug.h"

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

TEST(DiffDebug, LocatesFirstDivergentCycle) {
  // ALU adder stuck line: the instruction is in EX at cycle 2, so the first
  // divergence is exactly there.
  ErrorInjection inj;
  const NetId site = model().dp.find_net("ex.alu_add");
  inj.stuck.push_back({site, 0, false});
  TestCase tc = make_tc(
      "addi r1, r0, 1\n"   // alu_add = 1 in EX at cycle 2 -> stuck kills bit
      "sw 0x40(r0), r1\n");
  const DivergenceReport rep = diff_runs(model(), tc, 12, inj);
  ASSERT_TRUE(rep.diverged);
  EXPECT_EQ(rep.first_cycle, 2u);
  bool site_listed = false;
  for (const NetDivergence& d : rep.first_diffs)
    if (d.net == site) {
      site_listed = true;
      EXPECT_EQ(d.good & 1, 1u);
      EXPECT_EQ(d.bad & 1, 0u);
    }
  EXPECT_TRUE(site_listed);
}

TEST(DiffDebug, NoDivergenceWhenUnactivated) {
  ErrorInjection inj;
  inj.stuck.push_back({model().dp.find_net("ex.alu_add"), 0, false});
  // alu_add stays even everywhere: r0 + 0 in every default slot.
  TestCase tc = make_tc("nop\nnop\n");
  const DivergenceReport rep = diff_runs(model(), tc, 10, inj);
  EXPECT_FALSE(rep.diverged);
}

TEST(DiffDebug, SpreadGrowsDownstream) {
  ErrorInjection inj;
  inj.stuck.push_back({model().dp.find_net("ex.alu_add"), 0, true});
  TestCase tc = make_tc(
      "add r1, r0, r0\n"   // result 0 vs 1
      "add r2, r1, r1\n"
      "sw 0x40(r0), r2\n");
  const DivergenceReport rep = diff_runs(model(), tc, 10, inj);
  ASSERT_TRUE(rep.diverged);
  // The cone at the first cycle is small; later cycles implicate more nets.
  unsigned max_spread = 0;
  for (unsigned s : rep.spread) max_spread = std::max(max_spread, s);
  EXPECT_GT(max_spread, rep.spread[rep.first_cycle]);
  const std::string text = rep.to_string(model().dp);
  EXPECT_NE(text.find("first divergence at cycle"), std::string::npos);
  EXPECT_NE(text.find("ex.alu_add"), std::string::npos);
}

TEST(Coverage, CountsOpcodesAndHazards) {
  std::vector<TestCase> suite;
  suite.push_back(make_tc("add r1, r2, r3\nsub r4, r1, r2\n"));
  suite.push_back(make_tc(
      "lw r1, 0(r0)\n"
      "add r2, r1, r1\n"     // load-use stall
      "bnez r2, 1\n"
      "addi r3, r0, 9\n"     // squashed when taken
      "sw 0x40(r0), r2\n"));
  const SuiteCoverage cov = measure_coverage(model(), suite);
  EXPECT_EQ(cov.tests, 2u);
  EXPECT_TRUE(cov.opcode_used[static_cast<int>(Op::kAdd)]);
  EXPECT_TRUE(cov.opcode_used[static_cast<int>(Op::kLw)]);
  EXPECT_FALSE(cov.opcode_used[static_cast<int>(Op::kJal)]);
  EXPECT_GT(cov.stalls, 0u);
  EXPECT_GT(cov.bypasses_a, 0u);
  EXPECT_LT(cov.opcode_coverage(), 100.0);
  EXPECT_NE(cov.to_string().find("missing opcodes:"), std::string::npos);
}

TEST(Coverage, GeneratedSuiteShape) {
  // Coverage of a small generated campaign: the directed tests exercise a
  // meaningful slice of the ISA without being told to.
  const auto all = wrap(enumerate_bus_ssl(model().dp));
  std::vector<DesignError> some;
  for (std::size_t i = 0; i < all.size(); i += 12) some.push_back(all[i]);
  TestGenerator tg(model());
  const CampaignResult res =
      run_campaign(model().dp, some, tg.budgeted_strategy());
  std::vector<TestCase> suite;
  for (const CampaignRow& row : res.rows)
    if (row.attempt.generated) suite.push_back(row.attempt.test);
  const SuiteCoverage cov = measure_coverage(model(), suite);
  EXPECT_GT(cov.opcodes_covered(), 5u);
  EXPECT_GT(cov.instructions, suite.size());  // more than 1 instr per test
}

}  // namespace
}  // namespace hltg
