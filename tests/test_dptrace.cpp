// Tests of DPTRACE path selection over the space-time datapath graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/dptrace.h"
#include "errors/bus_ssl.h"
#include "errors/inject.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

const DpTrace& tracer() {
  static const DpTrace t(model());
  return t;
}

std::vector<RelaxConstraint> act_bit0(NetId site) {
  RelaxConstraint a;
  a.net = site;
  a.mask = 1;
  a.value = 1;
  a.why = "activation";
  return {a};
}

TEST(DpTrace, AluResultIsObservable) {
  const NetId n = model().dp.find_net("ex.alu_add");
  EXPECT_TRUE(tracer().statically_observable(n));
  EXPECT_TRUE(tracer().observable_without_redirect(n));
}

TEST(DpTrace, BranchTargetOnlyObservableViaRedirect) {
  for (const char* name : {"ex.btarget", "ex.imm_x4", "ex.redirect_target"}) {
    const NetId n = model().dp.find_net(name);
    ASSERT_NE(n, kNoNet) << name;
    EXPECT_TRUE(tracer().statically_observable(n)) << name;
    EXPECT_FALSE(tracer().observable_without_redirect(n)) << name;
  }
}

TEST(DpTrace, PlansStartAtStageFillCycle) {
  const NetId n = model().dp.find_net("ex.alu_sub");
  const auto plans = tracer().plans(n, act_bit0(n));
  ASSERT_FALSE(plans.empty());
  for (const PathPlan& p : plans) EXPECT_GE(p.activate_cycle, 2u);
  EXPECT_EQ(plans.front().activate_cycle, 2u);
}

TEST(DpTrace, PlanCarriesAluSelectObjectives) {
  const NetId n = model().dp.find_net("ex.alu_sub");
  const auto plans = tracer().plans(n, act_bit0(n));
  ASSERT_FALSE(plans.empty());
  // Some plan must pin alu_sel to SUB (0001) at the activation cycle.
  const CtrlBind* alu = model().find_ctrl(model().dp.find_net("ctrl.alu_sel"));
  bool found = false;
  for (const PathPlan& p : plans) {
    int hits = 0;
    for (const CtrlObjective& o : p.ctrl_objectives) {
      for (unsigned b = 0; b < alu->bits.size(); ++b)
        if (o.gate == alu->bits[b] && o.cycle == p.activate_cycle &&
            o.value == (b == 0))
          ++hits;
    }
    if (hits == static_cast<int>(alu->bits.size())) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DpTrace, PlansEndAtObservationSinks) {
  const NetId n = model().dp.find_net("ex.alu_xor");
  const auto plans = tracer().plans(n, act_bit0(n));
  ASSERT_FALSE(plans.empty());
  for (const PathPlan& p : plans) {
    const ModuleKind k = model().dp.module(p.observe_module).kind;
    EXPECT_TRUE(k == ModuleKind::kMemWrite || k == ModuleKind::kRfWrite ||
                k == ModuleKind::kOutput);
    EXPECT_GE(p.observe_cycle, p.activate_cycle);
  }
}

TEST(DpTrace, ActivationConstraintAttached) {
  const NetId n = model().dp.find_net("ex.alu_or");
  const auto plans = tracer().plans(n, act_bit0(n));
  ASSERT_FALSE(plans.empty());
  for (const PathPlan& p : plans) {
    const auto it = std::find_if(
        p.relax_constraints.begin(), p.relax_constraints.end(),
        [&](const RelaxConstraint& c) {
          return c.why == "activation" && c.net == n &&
                 c.cycle == p.activate_cycle;
        });
    EXPECT_NE(it, p.relax_constraints.end());
  }
}

TEST(DpTrace, MemoryPortObservationForcesWordStore) {
  const NetId n = model().dp.find_net("ex.alu_add");
  const auto plans = tracer().plans(n, act_bit0(n));
  const CtrlBind* size = model().find_ctrl(model().dp.find_net("ctrl.size_sel"));
  bool saw_store_plan = false;
  for (const PathPlan& p : plans) {
    if (model().dp.module(p.observe_module).kind != ModuleKind::kMemWrite)
      continue;
    saw_store_plan = true;
    // size_sel must be pinned to kWord (bit0=0, bit1=1) at the store cycle.
    int hits = 0;
    for (const CtrlObjective& o : p.ctrl_objectives) {
      if (o.cycle != p.observe_cycle) continue;
      if (o.gate == size->bits[0] && !o.value) ++hits;
      if (o.gate == size->bits[1] && o.value) ++hits;
    }
    EXPECT_EQ(hits, 2);
  }
  EXPECT_TRUE(saw_store_plan);
}

TEST(DpTrace, RegisterFileObservationForbidsR0) {
  const NetId n = model().dp.find_net("mem.result");
  const auto plans = tracer().plans(n, act_bit0(n));
  bool saw_rf_plan = false;
  for (const PathPlan& p : plans) {
    if (model().dp.module(p.observe_module).kind != ModuleKind::kRfWrite)
      continue;
    saw_rf_plan = true;
    const auto it = std::find_if(
        p.relax_constraints.begin(), p.relax_constraints.end(),
        [](const RelaxConstraint& c) { return c.why == "dest-not-r0"; });
    EXPECT_NE(it, p.relax_constraints.end());
  }
  EXPECT_TRUE(saw_rf_plan);
}

TEST(DpTrace, StsComparatorGetsBypassConsumptionPath) {
  for (const char* name :
       {"sts.fwda_mem", "sts.fwdb_wb", "sts.dest_mem_nz"}) {
    const NetId n = model().dp.find_net(name);
    ASSERT_NE(n, kNoNet) << name;
    EXPECT_TRUE(tracer().observable_without_redirect(n)) << name;
  }
}

TEST(DpTrace, BranchConditionHasNoDataPath) {
  // a_zero is only consumed by the branch decision: no redirect-free path.
  const NetId n = model().dp.find_net("sts.a_zero");
  EXPECT_FALSE(tracer().observable_without_redirect(n));
}

TEST(DpTrace, SpecifierPipeRegObservableThroughComparators) {
  const NetId n = model().dp.find_net("idex.rsb");
  EXPECT_TRUE(tracer().statically_observable(n));
  const auto plans = tracer().plans(n, act_bit0(n));
  EXPECT_FALSE(plans.empty());
}

TEST(DpTrace, PlanCyclesFitWindow) {
  DpTraceConfig cfg;
  cfg.window = 8;
  const DpTrace tr(model(), cfg);
  const NetId n = model().dp.find_net("memwb.value");
  const auto plans = tr.plans(n, act_bit0(n));
  for (const PathPlan& p : plans) {
    EXPECT_LT(p.observe_cycle, 8u);
    for (const PathHop& h : p.hops) EXPECT_LT(h.cycle, 8u);
  }
}

// ------------------------------------------- shared-prefix reuse equivalence

bool same_objective(const CtrlObjective& a, const CtrlObjective& b) {
  return a.gate == b.gate && a.cycle == b.cycle && a.value == b.value;
}

bool same_constraint(const RelaxConstraint& a, const RelaxConstraint& b) {
  return a.kind == b.kind && a.net == b.net && a.cycle == b.cycle &&
         a.mask == b.mask && a.value == b.value && a.net2 == b.net2 &&
         a.why == b.why;
}

::testing::AssertionResult same_plans(const std::vector<PathPlan>& a,
                                      const std::vector<PathPlan>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "plan count " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const PathPlan& p = a[i];
    const PathPlan& q = b[i];
    if (p.activate_cycle != q.activate_cycle ||
        p.observe_cycle != q.observe_cycle ||
        p.observe_module != q.observe_module)
      return ::testing::AssertionFailure() << "plan " << i << " header";
    if (p.hops.size() != q.hops.size() ||
        p.ctrl_objectives.size() != q.ctrl_objectives.size() ||
        p.relax_constraints.size() != q.relax_constraints.size())
      return ::testing::AssertionFailure() << "plan " << i << " sizes";
    for (std::size_t j = 0; j < p.hops.size(); ++j)
      if (p.hops[j].net != q.hops[j].net || p.hops[j].cycle != q.hops[j].cycle)
        return ::testing::AssertionFailure() << "plan " << i << " hop " << j;
    for (std::size_t j = 0; j < p.ctrl_objectives.size(); ++j)
      if (!same_objective(p.ctrl_objectives[j], q.ctrl_objectives[j]))
        return ::testing::AssertionFailure()
               << "plan " << i << " objective " << j;
    for (std::size_t j = 0; j < p.relax_constraints.size(); ++j)
      if (!same_constraint(p.relax_constraints[j], q.relax_constraints[j]))
        return ::testing::AssertionFailure()
               << "plan " << i << " constraint " << j;
  }
  return ::testing::AssertionSuccess();
}

TEST(DpTraceReuse, PlansIdenticalToLegacyAcrossTable1Sites) {
  // The memoized enumerator must reproduce the per-cycle enumerator's plans
  // exactly - order AND contents - for every Table-1 SSL error site, at the
  // base and the retry window. This is the equivalence the tentpole reuse
  // optimization is gated on.
  std::set<NetId> sites;
  for (const DesignError& e : wrap(enumerate_bus_ssl(model().dp)))
    sites.insert(e.site_net(model().dp));
  ASSERT_FALSE(sites.empty());
  for (unsigned window : {14u, 20u}) {
    DpTraceConfig legacy_cfg;
    legacy_cfg.window = window;
    legacy_cfg.reuse = false;
    DpTraceConfig reuse_cfg = legacy_cfg;
    reuse_cfg.reuse = true;
    const DpTrace legacy(model(), legacy_cfg);
    const DpTrace reusing(model(), reuse_cfg);
    for (NetId site : sites) {
      SCOPED_TRACE("site " + std::to_string(site) + " window " +
                   std::to_string(window));
      EXPECT_TRUE(same_plans(reusing.plans(site, act_bit0(site)),
                             legacy.plans(site, act_bit0(site))));
    }
  }
}

TEST(DpTraceReuse, ReuseSkipsSearchesAndCutsExpansions) {
  std::set<NetId> sites;
  for (const DesignError& e : wrap(enumerate_bus_ssl(model().dp)))
    sites.insert(e.site_net(model().dp));
  DpTraceConfig legacy_cfg;
  legacy_cfg.reuse = false;
  const DpTrace legacy(model(), legacy_cfg);
  Effort on{}, off{};
  for (NetId site : sites) {
    tracer().plans(site, act_bit0(site), nullptr, &on);
    legacy.plans(site, act_bit0(site), nullptr, &off);
  }
  EXPECT_GT(on.dptrace_reused, 0u);
  EXPECT_EQ(on.dptrace_searches + on.dptrace_reused,
            off.dptrace_searches);  // same activation cycles visited
  EXPECT_LT(on.dptrace_expansions, off.dptrace_expansions);
}

TEST(DpTrace, HopsAreConnectedInTime) {
  const NetId n = model().dp.find_net("ex.alu_and");
  const auto plans = tracer().plans(n, act_bit0(n));
  ASSERT_FALSE(plans.empty());
  for (const PathPlan& p : plans) {
    for (std::size_t i = 1; i < p.hops.size(); ++i) {
      const unsigned dt = p.hops[i].cycle - p.hops[i - 1].cycle;
      EXPECT_LE(dt, 1u);  // combinational or one pipe register
    }
  }
}

}  // namespace
}  // namespace hltg
