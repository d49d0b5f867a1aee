// Tests of the unrolled controller window and the CTRLJUST PODEM search.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/ctrljust.h"
#include "core/unroll.h"
#include "dlx/dlx.h"
#include "gatenet/eval3.h"
#include "isa/encode.h"
#include "random_net.h"
#include "util/rng.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

GateId ctrl_bit(const char* net_name, unsigned bit = 0) {
  const NetId n = model().dp.find_net(net_name);
  EXPECT_NE(n, kNoNet) << net_name;
  return model().find_ctrl(n)->bits[bit];
}

/// Assigns the full opcode/func bits of `op` fetched at `cycle`.
void assign_instruction(ControllerWindow& w, Op op, unsigned cycle) {
  const unsigned opc = opcode_of(op), fn = func_of(op);
  for (int i = 0; i < 6; ++i) {
    w.assign(model().cpi[i], cycle, l3_from_bool((opc >> i) & 1));
    w.assign(model().cpi[6 + i], cycle, l3_from_bool((fn >> i) & 1));
  }
}

TEST(Window, ResetStateImplied) {
  ControllerWindow w(model().ctrl, 6);
  // With nothing assigned, all CPR outputs are 0 at cycle 0 and the derived
  // write enables stay 0 through the pipeline-fill cycles.
  EXPECT_EQ(w.value(ctrl_bit("ctrl.rf_we"), 0), L3::F);
  EXPECT_EQ(w.value(ctrl_bit("ctrl.rf_we"), 3), L3::F);
  EXPECT_EQ(w.value(ctrl_bit("ctrl.mem_we"), 2), L3::F);
  // By cycle 4 a fetched instruction could reach WB: value depends on the
  // unassigned CPIs, hence unknown.
  EXPECT_EQ(w.value(ctrl_bit("ctrl.rf_we"), 4), L3::X);
}

TEST(Window, CpiAssignmentPropagatesDownPipe) {
  ControllerWindow w(model().ctrl, 8);
  assign_instruction(w, Op::kAdd, 0);
  w.imply();
  // ADD reaches EX at cycle 2 with alu_sel = 0 and use_imm = 0.
  EXPECT_EQ(w.value(ctrl_bit("ctrl.use_imm"), 2), L3::F);
  for (unsigned b = 0; b < kAluSelW; ++b)
    EXPECT_EQ(w.value(ctrl_bit("ctrl.alu_sel", b), 2), L3::F) << b;
  // And writes back at cycle 4.
  EXPECT_EQ(w.value(ctrl_bit("ctrl.rf_we"), 4), L3::T);
  EXPECT_EQ(w.value(ctrl_bit("ctrl.mem_we"), 3), L3::F);
}

/// Number of (gate, cycle) points where two windows of one net disagree.
unsigned differing_values(const ControllerWindow& a,
                          const ControllerWindow& b) {
  unsigned n = 0;
  for (unsigned t = 0; t < a.cycles(); ++t)
    for (GateId g = 0; g < a.net().num_gates(); ++g)
      n += a.value(g, t) != b.value(g, t);
  return n;
}

TEST(Window, ClearRestoresUnknown) {
  ControllerWindow w(model().ctrl, 6);
  const ControllerWindow fresh(model().ctrl, 6);
  assign_instruction(w, Op::kAdd, 0);
  assign_instruction(w, Op::kSw, 1);
  w.assign(model().cpi[0], 3, L3::T);
  w.imply();
  ASSERT_GT(differing_values(w, fresh), 0u);
  w.clear();
  EXPECT_EQ(w.assignment(model().cpi[0], 0), L3::X);
  EXPECT_TRUE(w.assignments().empty());
  // Every value is back on the reset trajectory of a fresh window.
  EXPECT_EQ(differing_values(w, fresh), 0u);
}

/// The full-sweep reference: every cycle re-simulated from the reset state
/// through eval_cycle3, the way the window was implied before implication
/// became event-driven.
std::vector<std::vector<L3>> full_sweep(const ControllerWindow& w) {
  const GateNet& gn = w.net();
  std::vector<std::vector<L3>> vals(w.cycles(),
                                    std::vector<L3>(gn.num_gates(), L3::X));
  for (unsigned t = 0; t < w.cycles(); ++t) {
    for (GateId g = 0; g < gn.num_gates(); ++g) {
      const Gate& gate = gn.gate(g);
      if (gate.kind == GateKind::kDff)
        vals[t][g] = t == 0 ? l3_from_bool(gate.reset_value)
                            : vals[t - 1][gate.fanin[0]];
      else if (gate.kind == GateKind::kVar)
        vals[t][g] = w.assignment(g, t);
    }
    eval_cycle3(gn, vals[t]);
  }
  return vals;
}

/// Every value of `w` equals the full sweep's, and so does every value of a
/// freshly constructed window given the same assignments.
testing::AssertionResult matches_full_sweep(const ControllerWindow& w) {
  ControllerWindow fresh(w.net(), w.cycles());
  for (auto [g, t, v] : w.assignments()) fresh.assign(g, t, l3_from_bool(v));
  fresh.imply();
  const std::vector<std::vector<L3>> ref = full_sweep(w);
  for (unsigned t = 0; t < w.cycles(); ++t)
    for (GateId g = 0; g < w.net().num_gates(); ++g) {
      const L3 inc = w.value(g, t), fr = fresh.value(g, t);
      if (inc != ref[t][g] || fr != ref[t][g])
        return testing::AssertionFailure()
               << w.net().gate(g).name << "@" << t << ": incremental "
               << to_string(inc) << ", fresh window " << to_string(fr)
               << ", full sweep " << to_string(ref[t][g]);
    }
  return testing::AssertionSuccess();
}

/// Drives `w` through `steps` rounds of seeded edits over `vars` - assign,
/// unassign, flip, chronological pop and clear(), one to three per round -
/// and checks every value after each round's imply().
void drive_window(ControllerWindow& w, const std::vector<GateId>& vars,
                  std::uint64_t seed, int steps) {
  struct Decision {
    GateId g;
    unsigned t;
    bool v;
  };
  std::vector<Decision> stack;
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const unsigned edits = 1 + static_cast<unsigned>(rng.below(3));
    for (unsigned e = 0; e < edits; ++e) {
      const std::uint64_t pick = rng.below(100);
      if (pick < 2) {
        w.clear();
        stack.clear();
      } else if (pick < 50 || stack.empty()) {  // decide a free variable
        const GateId g = vars[rng.below(vars.size())];
        const unsigned t = static_cast<unsigned>(rng.below(w.cycles()));
        if (w.assignment(g, t) != L3::X) continue;
        stack.push_back({g, t, rng.flip()});
        w.assign(g, t, l3_from_bool(stack.back().v));
      } else if (pick < 65) {  // flip the newest decision, as a backtrack
        Decision& d = stack.back();
        w.assign(d.g, d.t, L3::X);
        d.v = !d.v;
        w.assign(d.g, d.t, l3_from_bool(d.v));
      } else if (pick < 85) {  // chronological pop
        w.assign(stack.back().g, stack.back().t, L3::X);
        stack.pop_back();
      } else {  // unassign any decision
        const std::size_t i = rng.below(stack.size());
        w.assign(stack[i].g, stack[i].t, L3::X);
        stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    w.imply();
    ASSERT_TRUE(matches_full_sweep(w)) << "seed " << seed << ", round " << step;
  }
}

TEST(Window, IncrementalImplyMatchesFullSweep) {
  std::vector<GateId> vars = model().cpi;
  for (GateId g : model().ctrl.gates_with_role(SigRole::kSts))
    vars.push_back(g);
  for (unsigned cycles : {6u, 14u, 20u}) {
    SCOPED_TRACE("DLX controller, window " + std::to_string(cycles));
    ControllerWindow w(model().ctrl, cycles);
    drive_window(w, vars, 0xC0DE + cycles, 120);
    if (HasFatalFailure()) return;
  }
  // Random nets put DFFs behind DFFs, variables and constants; 70 cycles
  // spill the per-gate cycle bits into a second word.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const GateNet gn = random_net(seed, 6, 40, 5);
    for (unsigned cycles : {3u, 17u, 70u}) {
      SCOPED_TRACE("random net " + std::to_string(seed) + ", window " +
                   std::to_string(cycles));
      ControllerWindow w(gn, cycles);
      drive_window(w, gn.gates_of_kind(GateKind::kVar), seed * 100 + cycles,
                   80);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CtrlJust, JustifiesStoreWriteEnable) {
  CtrlJust cj(model().ctrl, 10);
  // mem_we at cycle 3 <=> a store fetched at cycle 0.
  const CtrlJustResult r = cj.solve({{ctrl_bit("ctrl.mem_we"), 3, true}});
  ASSERT_EQ(r.status, TgStatus::kSuccess);
  EXPECT_FALSE(r.cpi_assignments.empty());
  // Decode the assigned instruction word at cycle 0: it must be a store.
  std::uint32_t word = 0;
  for (auto [g, t, v] : r.cpi_assignments) {
    if (t != 0 || !v) continue;
    for (int i = 0; i < 12; ++i)
      if (model().cpi[i] == g)
        word |= 1u << (i < 6 ? 26 + i : i - 6);
  }
  EXPECT_TRUE(is_store(decode(word).op)) << to_string(decode(word));
}

TEST(CtrlJust, RejectsPrefillObjective) {
  CtrlJust cj(model().ctrl, 10);
  // rf_we at cycle 2 is impossible: WB is only reachable at cycle >= 4.
  const CtrlJustResult r = cj.solve({{ctrl_bit("ctrl.rf_we"), 2, true}});
  EXPECT_EQ(r.status, TgStatus::kFailure);
}

TEST(CtrlJust, JustifiesAluSelect) {
  for (AluSel sel : {AluSel::kSub, AluSel::kXor, AluSel::kSrl}) {
    CtrlJust cj(model().ctrl, 10);
    std::vector<CtrlObjective> objs;
    for (unsigned b = 0; b < kAluSelW; ++b)
      objs.push_back({ctrl_bit("ctrl.alu_sel", b), 4,
                      ((static_cast<unsigned>(sel) >> b) & 1) != 0});
    const CtrlJustResult r = cj.solve(objs);
    EXPECT_EQ(r.status, TgStatus::kSuccess)
        << static_cast<unsigned>(sel);
  }
}

TEST(CtrlJust, UnencodableAluSelectFails) {
  // alu_sel = 15 corresponds to no instruction (one-hot decode).
  CtrlJust cj(model().ctrl, 10);
  std::vector<CtrlObjective> objs;
  for (unsigned b = 0; b < kAluSelW; ++b)
    objs.push_back({ctrl_bit("ctrl.alu_sel", b), 4, true});
  const CtrlJustResult r = cj.solve(objs);
  EXPECT_EQ(r.status, TgStatus::kFailure);
}

TEST(CtrlJust, ConflictingObjectivesFail) {
  // A store (mem_we@3) cannot simultaneously write the register file from
  // the same slot (rf_we@4 with the same fetch cycle). Note rf_we@4 refers
  // to the instruction fetched at 0, which must then be both store and
  // ALU-writeback: impossible.
  CtrlJust cj(model().ctrl, 10);
  const CtrlJustResult r = cj.solve({{ctrl_bit("ctrl.mem_we"), 3, true},
                                     {ctrl_bit("ctrl.rf_we"), 4, true}});
  EXPECT_EQ(r.status, TgStatus::kFailure);
}

TEST(CtrlJust, IndependentSlotsCompose) {
  // Store fetched at 0 (mem_we@3) and writeback fetched at 1 (rf_we@5)
  // coexist in different pipeframes.
  CtrlJust cj(model().ctrl, 10);
  const CtrlJustResult r = cj.solve({{ctrl_bit("ctrl.mem_we"), 3, true},
                                     {ctrl_bit("ctrl.rf_we"), 5, true}});
  EXPECT_EQ(r.status, TgStatus::kSuccess);
}

TEST(CtrlJust, StsDecisionsReported) {
  // Forcing the bypass select requires deciding STS compare variables.
  const NetId fwd_a = model().dp.find_net("ctrl.fwd_a");
  const GateId bit0 = model().find_ctrl(fwd_a)->bits[0];
  CtrlJust cj(model().ctrl, 10);
  const CtrlJustResult r = cj.solve({{bit0, 4, true}});
  ASSERT_EQ(r.status, TgStatus::kSuccess);
  EXPECT_FALSE(r.sts_assignments.empty());
}

TEST(CtrlJust, DecisionVariablesArePipeframeOnly) {
  // Every decision CTRLJUST makes is on a CPI or STS variable - never on a
  // state bit. (This is the Sec.-IV property.)
  CtrlJust cj(model().ctrl, 10);
  const CtrlJustResult r = cj.solve({{ctrl_bit("ctrl.mem_we"), 4, true}});
  ASSERT_EQ(r.status, TgStatus::kSuccess);
  for (auto [g, t, v] : r.cpi_assignments)
    EXPECT_EQ(model().ctrl.gate(g).role, SigRole::kCPI);
  for (auto [g, t, v] : r.sts_assignments)
    EXPECT_EQ(model().ctrl.gate(g).role, SigRole::kSts);
}

TEST(CtrlJust, TraceRecordsDecisions) {
  CtrlJustConfig cfg;
  cfg.record_trace = true;
  cfg.use_engine = false;  // engine off: every decide is a decision
  CtrlJust cj(model().ctrl, 10, cfg);
  const CtrlJustResult r = cj.solve({{ctrl_bit("ctrl.mem_we"), 3, true}});
  ASSERT_EQ(r.status, TgStatus::kSuccess);
  ASSERT_FALSE(r.trace.empty());
  unsigned decides = 0;
  for (const SearchEvent& e : r.trace)
    decides += e.kind == SearchEvent::kDecide;
  EXPECT_EQ(decides, r.stats.decisions);
  const std::string text = render_trace(model().ctrl, r.trace);
  EXPECT_NE(text.find("decide"), std::string::npos);
  EXPECT_NE(text.find("cpi."), std::string::npos);
}

TEST(CtrlJust, TraceRecordsDecisionsEngine) {
  // With the deduction engine, an engine-forced assignment still appears as
  // a decide event in the trace (it opens a level) but is counted as an
  // implication, not a decision - so decides >= decisions.
  CtrlJustConfig cfg;
  cfg.record_trace = true;
  CtrlJust cj(model().ctrl, 10, cfg);
  const CtrlJustResult r = cj.solve({{ctrl_bit("ctrl.mem_we"), 3, true}});
  ASSERT_EQ(r.status, TgStatus::kSuccess);
  unsigned decides = 0;
  for (const SearchEvent& e : r.trace)
    decides += e.kind == SearchEvent::kDecide;
  EXPECT_GE(decides, r.stats.decisions);
}

TEST(CtrlJust, TraceOffByDefault) {
  CtrlJust cj(model().ctrl, 10);
  const CtrlJustResult r = cj.solve({{ctrl_bit("ctrl.mem_we"), 3, true}});
  EXPECT_TRUE(r.trace.empty());
}

TEST(CtrlJust, BudgetAbortsGracefully) {
  CtrlJustConfig cfg;
  cfg.max_decisions = 1;
  CtrlJust cj(model().ctrl, 10, cfg);
  const CtrlJustResult r = cj.solve({{ctrl_bit("ctrl.mem_we"), 3, true},
                                     {ctrl_bit("ctrl.rf_we"), 5, true}});
  EXPECT_EQ(r.status, TgStatus::kFailure);
}

}  // namespace
}  // namespace hltg
