// Tests of the constant-bit dataflow and redundant-error identification.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <string>

#include "baseline/random_tg.h"
#include "core/tg.h"
#include "errors/parallel_campaign.h"
#include "errors/redundancy.h"
#include "netlist/builder.h"
#include "sim/batch_sim.h"
#include "sim/cosim.h"
#include "util/rng.h"

namespace hltg {
namespace {

TEST(Redundancy, ZextUpperBitsKnownZero) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a", 8);
  const NetId y = b.zext("y", a, 32);
  b.output("o", y);
  const BitConstants bc = analyze_bit_constants(nl);
  EXPECT_FALSE(bc.is_known(y, 0));
  EXPECT_TRUE(bc.is_known(y, 8));
  EXPECT_TRUE(bc.is_known(y, 31));
  EXPECT_FALSE(bc.known_value(y, 31));
}

TEST(Redundancy, ConstantsFullyKnown) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId k = b.constant("k", 8, 0xA5);
  b.output("o", k);
  const BitConstants bc = analyze_bit_constants(nl);
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_TRUE(bc.is_known(k, i));
    EXPECT_EQ(bc.known_value(k, i), (0xA5u >> i) & 1);
  }
}

TEST(Redundancy, AndWithConstantZeroKnown) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a", 8);
  const NetId k = b.constant("k", 8, 0x0F);
  const NetId y = b.and_w("y", a, k);
  b.output("o", y);
  const BitConstants bc = analyze_bit_constants(nl);
  EXPECT_TRUE(bc.is_known(y, 7));   // masked to 0
  EXPECT_FALSE(bc.known_value(y, 7));
  EXPECT_FALSE(bc.is_known(y, 0));  // follows a
}

TEST(Redundancy, OrWithConstantOneKnown) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a", 8);
  const NetId k = b.constant("k", 8, 0xF0);
  const NetId y = b.or_w("y", a, k);
  b.output("o", y);
  const BitConstants bc = analyze_bit_constants(nl);
  EXPECT_TRUE(bc.is_known(y, 7));
  EXPECT_TRUE(bc.known_value(y, 7));
  EXPECT_FALSE(bc.is_known(y, 0));
}

TEST(Redundancy, ShlByConstantZerosLowBits) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a", 32);
  const NetId k = b.constant("k", 5, 2);
  const NetId y = b.shl("y", a, k);
  b.output("o", y);
  const BitConstants bc = analyze_bit_constants(nl);
  EXPECT_TRUE(bc.is_known(y, 0));
  EXPECT_TRUE(bc.is_known(y, 1));
  EXPECT_FALSE(bc.known_value(y, 0));
  EXPECT_FALSE(bc.is_known(y, 2));
}

TEST(Redundancy, MuxAgreementPropagates)
{
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId s = b.ctrl("s", 1);
  const NetId k1 = b.constant("k1", 4, 0b0101);
  const NetId k2 = b.constant("k2", 4, 0b0111);
  const NetId y = b.mux("y", s, {k1, k2});
  b.output("o", y);
  const BitConstants bc = analyze_bit_constants(nl);
  EXPECT_TRUE(bc.is_known(y, 0));   // both 1
  EXPECT_TRUE(bc.known_value(y, 0));
  EXPECT_TRUE(bc.is_known(y, 3));   // both 0
  EXPECT_FALSE(bc.is_known(y, 1));  // disagree
}

TEST(Redundancy, RegisterConstantWhenFeedMatchesReset) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId k = b.constant("k", 8, 0);
  const NetId q = b.reg("q", k, kNoNet, kNoNet, 0);
  b.output("o", q);
  const BitConstants bc = analyze_bit_constants(nl);
  for (unsigned i = 0; i < 8; ++i) EXPECT_TRUE(bc.is_known(q, i));
}

TEST(Redundancy, RegisterUnknownWhenFeedDisagreesWithReset) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId k = b.constant("k", 8, 0xFF);
  const NetId q = b.reg("q", k, kNoNet, kNoNet, 0);  // reset 0, feed FF
  b.output("o", q);
  const BitConstants bc = analyze_bit_constants(nl);
  EXPECT_FALSE(bc.is_known(q, 0));
}

TEST(Redundancy, DlxPredicateZextBit31Redundant) {
  const DlxModel m = build_dlx();
  const BitConstants bc = analyze_bit_constants(m.dp);
  const NetId slt32 = m.dp.find_net("ex.slt32");
  ASSERT_NE(slt32, kNoNet);
  EXPECT_TRUE(is_redundant(bc, {slt32, 31, false}));
  EXPECT_FALSE(is_redundant(bc, {slt32, 31, true}));
  EXPECT_FALSE(is_redundant(bc, {slt32, 0, false}));
}

TEST(Observability, SliceHidesUpperBits) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a", 32);
  const NetId low = b.slice("low", a, 0, 8);
  b.output("o", low);
  const ObservableBits ob = analyze_observable_bits(nl);
  EXPECT_TRUE(ob.is_observable(a, 0));
  EXPECT_TRUE(ob.is_observable(a, 7));
  EXPECT_FALSE(ob.is_observable(a, 8));
  EXPECT_FALSE(ob.is_observable(a, 31));
}

TEST(Observability, AdderCarrySmearsDownward) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a", 8);
  const NetId c = b.input("c", 8);
  const NetId sum = b.add("sum", a, c);
  const NetId mid = b.slice("mid", sum, 4, 1);  // only bit 4 observed
  b.output("o", mid);
  const ObservableBits ob = analyze_observable_bits(nl);
  // Bits 0..4 of the operands can reach bit 4 through carries; 5..7 cannot.
  EXPECT_TRUE(ob.is_observable(a, 0));
  EXPECT_TRUE(ob.is_observable(a, 4));
  EXPECT_FALSE(ob.is_observable(a, 5));
  EXPECT_FALSE(ob.is_observable(a, 7));
}

TEST(Observability, ComparatorMakesOperandsFullyObservable) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a", 16);
  const NetId c = b.input("c", 16);
  const NetId eq = b.predicate("eq", ModuleKind::kEq, a, c);
  b.output("o", eq);
  const ObservableBits ob = analyze_observable_bits(nl);
  EXPECT_TRUE(ob.is_observable(a, 15));
  EXPECT_TRUE(ob.is_observable(c, 0));
}

TEST(Observability, DeadConeUnobservable) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a", 8);
  const NetId dead = b.not_w("dead", a);
  (void)dead;
  const NetId live = b.not_w("live", a);
  b.output("o", live);
  const ObservableBits ob = analyze_observable_bits(nl);
  EXPECT_EQ(ob.mask[dead], 0u);
  EXPECT_TRUE(ob.is_observable(live, 3));
}

TEST(Observability, DlxLoadShifterUpperBitsUnobservable) {
  // mem.rshift only feeds byte/half slices: its bits [31:16] can never
  // reach an observation point - the proof the generator's screen uses.
  const DlxModel m = build_dlx();
  const ObservableBits ob = analyze_observable_bits(m.dp);
  const NetId rshift = m.dp.find_net("mem.rshift");
  ASSERT_NE(rshift, kNoNet);
  EXPECT_TRUE(ob.is_observable(rshift, 0));
  EXPECT_TRUE(ob.is_observable(rshift, 15));
  EXPECT_FALSE(ob.is_observable(rshift, 16));
  EXPECT_FALSE(ob.is_observable(rshift, 31));
}

TEST(Observability, DlxMainBusesFullyObservable) {
  const DlxModel m = build_dlx();
  const ObservableBits ob = analyze_observable_bits(m.dp);
  for (const char* name : {"ex.alu_add", "exmem.result", "memwb.value"}) {
    const NetId n = m.dp.find_net(name);
    EXPECT_EQ(ob.mask[n], 0xFFFFFFFFull) << name;
  }
}

TEST(Redundancy, DlxCampaignSubset) {
  const DlxModel m = build_dlx();
  const auto all = enumerate_bus_ssl(m.dp);
  const auto red = redundant_subset(m.dp, all);
  // A modest but nonzero slice of the enumerated errors is provably
  // undetectable (constant lane bits, zext upper bits).
  EXPECT_GT(red.size(), 3u);
  EXPECT_LT(red.size(), all.size() / 4);
}

// ------------------------------ independent check of the generator screen
//
// TestGenerator::generate returns proven_redundant, without searching, for
// every bus-SSL error both proofs accept. These tests check those claims
// with nothing the proofs use: a seeded program suite graded by the batch
// engine and by serial cosimulation, and the fault-free simulator's values.

const DlxModel& dlx() {
  static const DlxModel m = build_dlx();
  return m;
}

/// The Table-1 SSL errors the screen reports proven_redundant.
std::vector<DesignError> screened_errors() {
  return wrap(redundant_subset(dlx().dp, enumerate_bus_ssl(dlx().dp)));
}

/// 72 seeded random_tg programs of lengths 6 to 48 (forward branches only)
/// and the two control-flow templates.
std::vector<TestCase> screen_suite() {
  Rng rng(0x5c2ee7);
  std::vector<TestCase> suite;
  for (unsigned k = 0; k < 72; ++k) {
    RandomTgConfig cfg;
    cfg.program_length = 6 + k * 42 / 71;
    suite.push_back(random_test(rng, cfg));
  }
  for (TestCase& tc : control_flow_templates()) suite.push_back(std::move(tc));
  return suite;
}

TEST(Redundancy, ProvenRedundantErrorsEscapeRandomSuite) {
  // Independent soundness check of both proofs: the suite, batch-simulated
  // against the whole Table-1 population, never detects an error the
  // analyzers call provably undetectable - while it does detect plenty of
  // the others, so the check is not vacuous.
  const DlxModel& m = dlx();
  const std::vector<DesignError> all = wrap(enumerate_bus_ssl(m.dp));
  const BitConstants bc = analyze_bit_constants(m.dp);
  const ObservableBits ob = analyze_observable_bits(m.dp);
  std::vector<const DesignError*> ptrs;
  std::vector<bool> proven;
  for (const DesignError& e : all) {
    ptrs.push_back(&e);
    proven.push_back(is_redundant(bc, ob, std::get<BusSslError>(e.e)));
  }
  EXPECT_EQ(std::count(proven.begin(), proven.end(), true), 13);

  const std::vector<TestCase> suite = screen_suite();
  std::vector<bool> ever(all.size(), false);
  for (std::size_t t = 0; t < suite.size(); ++t) {
    const std::vector<bool> hit = detect_errors(m, suite[t], ptrs);
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_FALSE(hit[i] && proven[i])
          << all[i].describe(m.dp) << " detected by suite test " << t;
      ever[i] = ever[i] || hit[i];
    }
  }
  // Serial cosimulation, the batch engine's reference: every proven error
  // against both templates and four seeded random programs.
  Rng pick(0x5e71a1);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!proven[i]) continue;
    std::vector<std::size_t> picks = {suite.size() - 2, suite.size() - 1};
    for (int k = 0; k < 4; ++k) picks.push_back(pick.below(suite.size() - 2));
    for (const std::size_t t : picks)
      EXPECT_FALSE(detects(m, suite[t], all[i].injection()))
          << all[i].describe(m.dp) << " detected serially by suite test "
          << t;
  }
  // Not vacuous: the suite detects most of the other errors.
  std::size_t others = 0;
  for (std::size_t i = 0; i < all.size(); ++i) others += ever[i] && !proven[i];
  EXPECT_GT(others, (all.size() - 13) / 2);
}

TEST(RedundancyScreen, ConstantLinesHoldTheirValueInEveryCycle) {
  // A constant-line proof claims the fault-free machine never drives the
  // line off its stuck value: check every settled cycle of the suite.
  const DlxModel& m = dlx();
  const BitConstants bc = analyze_bit_constants(m.dp);
  std::vector<BusSslError> constant;
  for (const DesignError& d : screened_errors())
    if (is_redundant(bc, std::get<BusSslError>(d.e)))
      constant.push_back(std::get<BusSslError>(d.e));
  ASSERT_FALSE(constant.empty());
  for (const TestCase& tc : screen_suite()) {
    ProcSim sim(m, tc);
    const unsigned cycles = drain_cycles(tc.imem.size());
    for (unsigned c = 0; c < cycles; ++c) {
      sim.begin_cycle();
      for (const BusSslError& e : constant)
        ASSERT_EQ(((sim.net_value(e.net) >> e.bit) & 1) != 0, e.stuck_value)
            << DesignError{e}.describe(m.dp) << " in cycle " << c;
      sim.end_cycle();
    }
  }
}

TEST(RedundancyScreen, ProvenRowsAreNeverDetectedNorOfferedToTheFallback) {
  const DlxModel& m = dlx();
  m.ctrl.warm_caches();
  (void)m.dp.topo_order();
  std::vector<DesignError> errors = screened_errors();
  const std::size_t proven = errors.size();
  // One detectable error, forced to the fallback, keeps that path live.
  errors.push_back(
      DesignError{BusSslError{m.dp.find_net("ex.alu_add"), 0, false}});
  CampaignFaultPlan faults;
  faults[proven].kind = CampaignFault::Kind::kBudgetExhaust;
  const GenFactory factory = [&m](unsigned) {
    auto tg = std::make_shared<TestGenerator>(m);
    BudgetedGenFn s = tg->budgeted_strategy();
    return [tg, s](const DesignError& e, Budget& b) { return s(e, b); };
  };
  const BudgetedGenFn random = random_budgeted_strategy(m);
  for (const unsigned jobs : {1u, 2u}) {
    std::mutex mu;
    std::set<std::string> offered;  // guarded by mu
    ParallelCampaignConfig cfg;
    cfg.jobs = jobs;
    cfg.faults = &faults;
    cfg.fallback = [&](const DesignError& e, Budget& b) {
      {
        std::lock_guard<std::mutex> lk(mu);
        offered.insert(e.describe(m.dp));
      }
      return random(e, b);
    };
    const CampaignResult res =
        run_campaign_parallel(m.dp, errors, factory, cfg);
    ASSERT_EQ(res.rows.size(), errors.size());
    EXPECT_EQ(res.stats.proven_redundant, proven) << "jobs " << jobs;
    for (std::size_t i = 0; i < proven; ++i) {
      const ErrorAttempt& a = res.rows[i].attempt;
      const std::string what = errors[i].describe(m.dp);
      EXPECT_EQ(a.outcome(), AttemptOutcome::kProvenRedundant) << what;
      EXPECT_FALSE(a.generated) << what;
      EXPECT_EQ(a.abort, AbortReason::kNone) << what;
      EXPECT_EQ(a.backtracks + a.decisions, 0u) << what;
    }
    EXPECT_EQ(offered, std::set<std::string>{errors[proven].describe(m.dp)})
        << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace hltg
