// Tests of the conventional timeframe-organization baseline and its
// comparison against the pipeframe search (Sec. IV).
#include <gtest/gtest.h>

#include "baseline/timeframe.h"
#include "core/ctrljust.h"
#include "dlx/dlx.h"
#include "gatenet/levelize.h"

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

TEST(Timeframe, SolvesSimpleObjective) {
  TimeframeJust tf(model().ctrl, 10);
  const TimeframeResult r = tf.solve({{ctrl_bit("ctrl.mem_we"), 3, true}});
  EXPECT_EQ(r.status, TgStatus::kSuccess) << r.note;
  EXPECT_GT(r.state_bits_decided, 0u);  // CSI decisions needed justification
}

TEST(Timeframe, EmptyObjectivesTrivial) {
  TimeframeJust tf(model().ctrl, 10);
  EXPECT_EQ(tf.solve({}).status, TgStatus::kSuccess);
}

TEST(Timeframe, RejectsBeyondWindow) {
  TimeframeJust tf(model().ctrl, 4);
  const TimeframeResult r = tf.solve({{ctrl_bit("ctrl.rf_we"), 9, true}});
  EXPECT_EQ(r.status, TgStatus::kFailure);
}

TEST(Timeframe, DetectsUnreachableStateDemand) {
  // rf_we at cycle 2 would require non-reset state in the fill frames.
  TimeframeJust tf(model().ctrl, 10);
  const TimeframeResult r = tf.solve({{ctrl_bit("ctrl.rf_we"), 2, true}});
  EXPECT_EQ(r.status, TgStatus::kFailure);
}

TEST(Timeframe, PipeframeDecidesFewerJustificationVariables) {
  // The structural claim of Sec. IV: in the timeframe organization, the
  // per-frame justification variables are the CSIs (n2 per stage); in the
  // pipeframe organization they are only the tertiary signals (n3), and our
  // CTRLJUST decides none at all (CPI/STS only). Check on live searches.
  const std::vector<CtrlObjective> objs = {
      {ctrl_bit("ctrl.mem_we"), 4, true}, {ctrl_bit("ctrl.rf_we"), 6, true}};

  // The pipeframe organization solves the compound problem...
  CtrlJust cj(model().ctrl, 10);
  const CtrlJustResult rp = cj.solve(objs);
  ASSERT_EQ(rp.status, TgStatus::kSuccess);

  // ... while the timeframe organization either dead-ends on an unreachable
  // decided state (no inter-frame backtracking - the conflict class Sec. IV
  // says cannot arise under the pipeframe organization) or pays for the
  // justification of decided CSI bits.
  TimeframeJust tf(model().ctrl, 10);
  const TimeframeResult rt = tf.solve(objs);
  if (rt.status == TgStatus::kSuccess) {
    EXPECT_GT(rt.state_bits_decided, 0u);
  }

  // The analytic decision-variable counts agree with the paper's claim.
  const GateNetStats st = analyze(model().ctrl);
  EXPECT_LT(st.pipeframe_justify_vars(), st.timeframe_justify_vars());
}

TEST(Timeframe, BudgetGraceful) {
  TimeframeConfig cfg;
  cfg.max_decisions = 1;
  TimeframeJust tf(model().ctrl, 10, cfg);
  const TimeframeResult r = tf.solve({{ctrl_bit("ctrl.mem_we"), 3, true}});
  EXPECT_EQ(r.status, TgStatus::kFailure);
}

}  // namespace
}  // namespace hltg
