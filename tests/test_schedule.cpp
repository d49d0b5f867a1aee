// The merged controller/datapath evaluation schedule is built once per
// model and shared: every simulator of one model steps through the same
// object, and its first use is race-free when several threads simulate a
// fresh model at once (the campaign workers' situation). Runs under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/archstate.h"
#include "dlx/dlx.h"
#include "isa/asm.h"
#include "sim/batch_sim.h"
#include "sim/proc_sim.h"
#include "sim/schedule.h"

namespace hltg {
namespace {

TestCase make_tc(const std::string& src) {
  const AsmResult r = assemble(src);
  EXPECT_TRUE(r.ok());
  TestCase tc;
  tc.imem = encode_program(r.program);
  return tc;
}

const char* const kProgram =
    "addi r1, r0, 5\n"
    "add r2, r1, r1\n"
    "sw 0(r0), r2\n"
    "lw r3, 0(r0)\n"
    "sub r4, r3, r1\n";

TEST(Schedule, OneSharedSchedulePerModel) {
  const DlxModel m = build_dlx();
  const TestCase tc = make_tc(kProgram);
  const ProcSim a(m, tc);
  const ProcSim b(m, tc);
  const ErrorInjection clean;
  const std::vector<const ErrorInjection*> lanes = {&clean};
  const std::vector<EvalStep>& batch = batch_schedule(m, tc, lanes);
  EXPECT_EQ(&a.schedule(), &m.schedule());
  EXPECT_EQ(&b.schedule(), &m.schedule());
  EXPECT_EQ(&batch, &m.schedule());

  // The shared copy is the schedule build_eval_schedule computes.
  const std::vector<EvalStep> built = build_eval_schedule(m);
  ASSERT_EQ(m.schedule().size(), built.size());
  for (std::size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(m.schedule()[i].kind, built[i].kind) << i;
    EXPECT_EQ(m.schedule()[i].index, built[i].index) << i;
  }
}

TEST(Schedule, FirstUseFromTwoThreadsIsRaceFree) {
  // A fresh model with only the controller caches warmed, as a campaign
  // shares it across workers: both threads reach schedule() first.
  const DlxModel m = build_dlx();
  m.ctrl.warm_caches();
  const TestCase tc = make_tc(kProgram);
  std::atomic<bool> go{false};
  WindowCapture caps[2];
  auto capture = [&](int i) {
    while (!go.load()) std::this_thread::yield();
    caps[i] = capture_window(m, tc, 14);
  };
  std::thread t0(capture, 0);
  std::thread t1(capture, 1);
  go.store(true);
  t0.join();
  t1.join();
  EXPECT_EQ(caps[0].nets, caps[1].nets);
  EXPECT_EQ(caps[0].gates, caps[1].gates);
  // The run simulated: r2 = 5 + 5 reached write-back.
  bool wrote_r2 = false;
  for (unsigned t = 0; t < caps[0].cycles(); ++t)
    wrote_r2 = wrote_r2 || caps[0].net(t, m.sig.wb_value) == 10;
  EXPECT_TRUE(wrote_r2);
}

}  // namespace
}  // namespace hltg
