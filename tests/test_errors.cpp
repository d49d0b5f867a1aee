#include <gtest/gtest.h>

#include "errors/campaign.h"
#include "errors/inject.h"
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

TEST(BusSsl, EnumerationCoversTargetStages) {
  const auto errs = enumerate_bus_ssl(model().dp);
  EXPECT_GT(errs.size(), 150u);
  for (const auto& e : errs) {
    const Stage s = model().dp.net(e.net).stage;
    EXPECT_TRUE(s == Stage::kEX || s == Stage::kMEM || s == Stage::kWB);
    EXPECT_LT(e.bit, model().dp.net(e.net).width);
  }
}

TEST(BusSsl, SkipsConstantsAndCtrl) {
  const auto errs = enumerate_bus_ssl(model().dp);
  for (const auto& e : errs) {
    const Net& n = model().dp.net(e.net);
    EXPECT_NE(n.role, NetRole::kCtrl) << n.name;
    if (n.driver != kNoMod) {
      EXPECT_NE(model().dp.module(n.driver).kind, ModuleKind::kConst)
          << n.name;
    }
  }
}

TEST(BusSsl, BitsDedupedOnNarrowBuses) {
  BusSslConfig cfg;
  cfg.bits = {0, 31};
  const auto errs = enumerate_bus_ssl(model().dp, cfg);
  // For a 1-bit STS net both requested bits clamp to 0 and must dedupe.
  for (const auto& a : errs)
    for (const auto& b : errs)
      if (&a != &b) {
        EXPECT_FALSE(a.net == b.net && a.bit == b.bit &&
                     a.stuck_value == b.stuck_value);
      }
}

TEST(BusSsl, AluStuckLineIsDetectedByDirectedTest) {
  // Stick bit 0 of the ALU adder output at 0 and run a test computing an
  // odd sum stored to memory: detection is guaranteed.
  const NetId add_out = model().dp.find_net("ex.alu_add");
  ASSERT_NE(add_out, kNoNet);
  BusSslError e{add_out, 0, false};
  TestCase tc = make_tc(
      "addi r1, r0, 2\n"
      "addi r2, r0, 1\n"
      "add r3, r1, r2\n"   // 3: bit 0 set
      "sw 0x40(r0), r3\n");
  EXPECT_TRUE(detects(model(), tc, e.injection()));
}

TEST(BusSsl, StuckAtCorrectValueNotDetected) {
  const NetId add_out = model().dp.find_net("ex.alu_add");
  BusSslError e{add_out, 0, false};
  TestCase tc = make_tc(
      "addi r1, r0, 2\n"
      "add r3, r1, r1\n"   // 4: bit 0 already 0 -> no activation
      "sw 0x40(r0), r3\n");
  EXPECT_FALSE(detects(model(), tc, e.injection()));
}

TEST(Mse, SubForAddDetected) {
  const ModId add_mod = model().dp.find_module("ex.alu_add");
  ASSERT_NE(add_mod, kNoMod);
  ModuleSubstitutionError e{add_mod, ModuleKind::kSub};
  TestCase tc = make_tc(
      "addi r1, r0, 5\n"
      "addi r2, r0, 3\n"
      "add r3, r1, r2\n"  // 8 vs 2
      "sw 0x40(r0), r3\n");
  EXPECT_TRUE(detects(model(), tc, e.injection()));
}

TEST(Mse, CandidatesStayInClass) {
  for (ModuleKind k : substitution_candidates(ModuleKind::kAdd))
    EXPECT_NE(k, ModuleKind::kAdd);
  EXPECT_TRUE(substitution_candidates(ModuleKind::kMux).empty());
  EXPECT_FALSE(substitution_candidates(ModuleKind::kLt).empty());
}

TEST(Boe, SwappedSubOperandsDetected) {
  const ModId sub_mod = model().dp.find_module("ex.alu_sub");
  ASSERT_NE(sub_mod, kNoMod);
  BusOrderError e{sub_mod};
  TestCase tc = make_tc(
      "addi r1, r0, 9\n"
      "addi r2, r0, 4\n"
      "sub r3, r1, r2\n"  // 5 vs -5
      "sw 0x40(r0), r3\n");
  EXPECT_TRUE(detects(model(), tc, e.injection()));
}

TEST(Boe, EnumeratesOnlyOrderSensitive) {
  const auto errs = enumerate_boe(model().dp, {Stage::kEX});
  EXPECT_FALSE(errs.empty());
  for (const auto& e : errs)
    EXPECT_TRUE(is_order_sensitive(model().dp.module(e.module).kind));
}

TEST(DesignError, WrapperDispatch) {
  const auto ssl = enumerate_bus_ssl(model().dp);
  const auto wrapped = wrap(ssl);
  ASSERT_EQ(wrapped.size(), ssl.size());
  EXPECT_EQ(wrapped[0].model_name(), "bus-SSL");
  EXPECT_EQ(wrapped[0].site_net(model().dp), ssl[0].net);
  EXPECT_FALSE(wrapped[0].describe(model().dp).empty());
}

TEST(Campaign, AggregatesStats) {
  // Tiny campaign with a trivial strategy that "detects" every second error.
  std::vector<DesignError> errs =
      wrap(std::vector<BusSslError>{{0, 0, false}, {1, 0, false},
                                    {2, 0, false}, {3, 0, false}});
  int k = 0;
  const CampaignResult r = run_campaign(
      model().dp, errs, [&k](const DesignError&, Budget&) {
        ErrorAttempt a;
        a.generated = a.sim_confirmed = (k++ % 2 == 0);
        a.test_length = 6;
        a.backtracks = 1;
        return a;
      });
  EXPECT_EQ(r.stats.total, 4u);
  EXPECT_EQ(r.stats.detected, 2u);
  EXPECT_EQ(r.stats.aborted, 2u);
  EXPECT_DOUBLE_EQ(r.stats.avg_test_length, 6.0);
  EXPECT_EQ(r.stats.backtracks, 2u);
  const std::string t = r.stats.table1("Table 1");
  EXPECT_NE(t.find("No. of errors detected"), std::string::npos);
}

TEST(Campaign, Table1RowsDoNotDependOnTiming) {
  // Two campaigns that differ only in timing: DPRELAX 999.9 ms vs
  // 1000.0 ms gains a digit. Every line but the timing block's is equal.
  CampaignStats a;
  a.total = 228;
  a.attempted = 228;
  a.detected = 194;
  a.aborted = 21;
  a.proven_redundant = 13;
  a.avg_test_length = 4.9;
  a.backtracks = 3210;
  a.effort.learned = 12;
  a.effort.nogood_hits = 7;
  a.effort.dptrace_ns = 15'000'000;
  a.effort.ctrljust_ns = 410'000'000;
  a.effort.dprelax_ns = 999'900'000;
  a.cpu_seconds = 1.1;
  CampaignStats b = a;
  b.effort.dptrace_ns = 9'000'000;
  b.effort.ctrljust_ns = 1'410'000'000;
  b.effort.dprelax_ns = 1'000'000'000;
  b.cpu_seconds = 612.0;

  const std::string ta = a.table1("Table 1");
  const std::string tb = b.table1("Table 1");
  // The deterministic rows: everything before the timing block's border.
  auto rows = [](const std::string& t) {
    const std::size_t border_end = t.find("\n| timing");
    EXPECT_NE(border_end, std::string::npos);
    return t.substr(0, t.rfind('\n', border_end - 1) + 1);
  };
  EXPECT_EQ(rows(ta), rows(tb));
  EXPECT_NE(rows(ta).find("No. of errors detected"), std::string::npos);
  // The paper counts every undetected error as aborted: 21 + 13.
  EXPECT_NE(rows(ta).find("(paper: aborted) | 34 "), std::string::npos);
  EXPECT_EQ(rows(ta).find("time"), std::string::npos);
  EXPECT_NE(ta.find("| 999.9 "), std::string::npos);
  EXPECT_NE(tb.find("| 1000.0 "), std::string::npos);
  EXPECT_NE(ta.size(), tb.size());  // the timing block did re-pad
}

}  // namespace
}  // namespace hltg
