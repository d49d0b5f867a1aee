// Tests of the constant-bit dataflow and redundant-error identification.
#include <gtest/gtest.h>

#include "baseline/random_tg.h"
#include "errors/redundancy.h"
#include "netlist/builder.h"
#include "sim/batch_sim.h"
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
  // reach an observation point - the proof the Table-1 post-mortem uses.
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

TEST(Redundancy, ProvenRedundantErrorsEscapeRandomSuite) {
  // Independent soundness check of both proofs: a seeded suite of random
  // programs, batch-simulated against the whole Table-1 population, never
  // detects an error the analyzers call provably undetectable - while it
  // does detect plenty of the others, so the check is not vacuous.
  const DlxModel m = build_dlx();
  const auto all = enumerate_bus_ssl(m.dp);
  const auto red = redundant_subset(m.dp, all);
  ASSERT_FALSE(red.empty());
  const std::vector<DesignError> errs = wrap(all);
  std::vector<const DesignError*> ptrs;
  std::vector<bool> proven;
  for (std::size_t i = 0; i < errs.size(); ++i) {
    ptrs.push_back(&errs[i]);
    bool r = false;
    for (const BusSslError& e : red)
      r = r || (e.net == all[i].net && e.bit == all[i].bit &&
                e.stuck_value == all[i].stuck_value);
    proven.push_back(r);
  }
  Rng rng(0x5eed);
  std::vector<bool> ever(errs.size(), false);
  for (unsigned len : {8u, 16u, 32u})
    for (int k = 0; k < 8; ++k) {
      RandomTgConfig cfg;
      cfg.program_length = len;
      const TestCase tc = random_test(rng, cfg);
      const std::vector<bool> hit = detect_errors(m, tc, ptrs);
      for (std::size_t i = 0; i < hit.size(); ++i) {
        EXPECT_FALSE(hit[i] && proven[i])
            << errs[i].describe(m.dp) << " detected by a length-" << len
            << " program";
        ever[i] = ever[i] || hit[i];
      }
    }
  std::size_t detected = 0;
  for (bool d : ever) detected += d;
  EXPECT_GT(detected, errs.size() / 2);
}

}  // namespace
}  // namespace hltg
