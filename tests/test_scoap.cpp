#include <gtest/gtest.h>

#include "netlist/builder.h"
#include "netlist/scoap.h"

namespace hltg {
namespace {

TEST(Scoap, InputsCheapConstantsUncontrollable) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a", 8);
  const NetId k = b.constant("k", 8, 5);
  const NetId y = b.add("y", a, k);
  b.output("o", y);
  const ScoapCosts sc = compute_scoap(nl);
  EXPECT_EQ(sc.cc[a], 1u);
  EXPECT_EQ(sc.cc[k], kInfCost);
  // ADD class: controllable through the cheap input despite the constant.
  EXPECT_LT(sc.cc[y], kInfCost);
  EXPECT_EQ(sc.co[y], 0u);
  EXPECT_LT(sc.co[a], kInfCost);
}

TEST(Scoap, AndClassSumsInputCosts) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a", 8);
  const NetId c = b.input("c", 8);
  const NetId y_and = b.and_w("y_and", a, c);
  const NetId y_add = b.add("y_add", a, c);
  b.output("o1", y_and);
  b.output("o2", y_add);
  const ScoapCosts sc = compute_scoap(nl);
  EXPECT_GT(sc.cc[y_and], sc.cc[y_add]);  // sum vs min
}

TEST(Scoap, DepthIncreasesCost) {
  Netlist nl;
  NetlistBuilder b(nl);
  NetId x = b.input("x", 8);
  const NetId first = x;
  for (int i = 0; i < 5; ++i) {
    std::string name = "n";  // appended: see tests/random_net.h
    name += std::to_string(i);
    x = b.not_w(name, x);
  }
  b.output("o", x);
  const ScoapCosts sc = compute_scoap(nl);
  EXPECT_GT(sc.cc[x], sc.cc[first]);
  EXPECT_GT(sc.co[first], sc.co[x]);
}

TEST(Scoap, RegisterAddsTimeFrameCost) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a", 8);
  const NetId q = b.reg("q", a);
  b.output("o", q);
  const ScoapCosts sc = compute_scoap(nl);
  EXPECT_GT(sc.cc[q], sc.cc[a]);
}

TEST(Scoap, UnobservableNetIsInf) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a", 8);
  const NetId dead = b.not_w("dead", a);
  (void)dead;
  const NetId live = b.not_w("live", a);
  b.output("o", live);
  const ScoapCosts sc = compute_scoap(nl);
  EXPECT_EQ(sc.co[dead], kInfCost);
  EXPECT_LT(sc.co[live], kInfCost);
}

TEST(Scoap, MemWriteObservesItsInputs) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId addr = b.input("addr", 32);
  const NetId data = b.input("data", 32);
  const NetId bem = b.input("bem", 4);
  const NetId we = b.ctrl("we", 1);
  b.mem_write("dmem", addr, data, bem, we);
  const ScoapCosts sc = compute_scoap(nl);
  EXPECT_LE(sc.co[data], 1u);
  EXPECT_LE(sc.co[addr], 1u);
}

TEST(Scoap, CostAddSaturates) {
  EXPECT_EQ(cost_add(kInfCost, kInfCost), kInfCost);
  EXPECT_EQ(cost_add(kInfCost - 1, 5), kInfCost);
  EXPECT_EQ(cost_add(2, 3), 5u);
}

}  // namespace
}  // namespace hltg
