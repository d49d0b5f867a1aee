// Tests for simulator internals, tracing, the random baseline and misc
// reporting helpers not covered by the subsystem suites.
#include <gtest/gtest.h>

#include "baseline/random_tg.h"
#include "dlx/signal_names.h"
#include "isa/asm.h"
#include "isa/encode.h"
#include "sim/cosim.h"
#include "sim/trace.h"

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

TEST(ProcSimMisc, CombinedInjectionKinds) {
  // A stuck line, a module substitution and an operand swap together.
  ErrorInjection inj;
  inj.stuck.push_back({model().dp.find_net("ex.alu_add"), 0, true});
  inj.substitute[model().dp.find_module("ex.alu_xor")] = ModuleKind::kAndW;
  inj.swap_inputs.insert(model().dp.find_module("ex.alu_sub"));
  TestCase tc = make_tc(
      "addi r1, r0, 6\n"
      "addi r2, r0, 2\n"
      "sub r3, r1, r2\n"
      "xor r4, r1, r2\n"
      "sw 0x40(r0), r3\n"
      "sw 0x44(r0), r4\n");
  EXPECT_TRUE(detects(model(), tc, inj));
}

TEST(ProcSimMisc, StuckOnCtrlNetChangesBehaviour) {
  // Stuck write-enable: the store never commits.
  ErrorInjection inj;
  inj.stuck.push_back({model().dp.find_net("ctrl.mem_we"), 0, false});
  TestCase tc = make_tc("addi r1, r0, 1\nsw 0x40(r0), r1\n");
  ProcSim sim(model(), tc, inj);
  sim.run(16);
  EXPECT_TRUE(sim.writes().empty());
  EXPECT_TRUE(detects(model(), tc, inj));
}

TEST(ProcSimMisc, CommittedCounterCountsWritebacks) {
  TestCase tc = make_tc("addi r1, r0, 1\naddi r2, r0, 2\nadd r3, r1, r2\n");
  ProcSim sim(model(), tc);
  sim.run(16);
  EXPECT_EQ(sim.instructions_committed(), 3u);
}

TEST(ProcSimMisc, CycleCounterAdvances) {
  TestCase tc = make_tc("nop\n");
  ProcSim sim(model(), tc);
  sim.run(5);
  EXPECT_EQ(sim.cycle(), 5u);
}

TEST(ProcSimMisc, DrainCyclesScalesWithProgram) {
  EXPECT_GT(drain_cycles(10), drain_cycles(1));
  EXPECT_GE(drain_cycles(0), 8u);
}

TEST(TraceMisc, RenderListsInstructionsAndStages) {
  TestCase tc = make_tc("addi r1, r0, 1\nadd r2, r1, r1\n");
  const std::string d = trace_pipeline(model(), tc, 8);
  EXPECT_NE(d.find("addi r1, r0, 1"), std::string::npos);
  EXPECT_NE(d.find("add r2, r1, r1"), std::string::npos);
  EXPECT_NE(d.find("FDXMW"), std::string::npos);
  EXPECT_NE(d.find("cycle:"), std::string::npos);
}

TEST(TraceMisc, SquashedInstructionLosesStages) {
  TestCase tc = make_tc(
      "addi r1, r0, 1\n"
      "bnez r1, 1\n"
      "addi r2, r0, 99\n"  // squashed: never reaches X
      "addi r3, r0, 3\n");
  const std::string d = trace_pipeline(model(), tc, 12);
  // Row i2 exists but shows only F/D before dying.
  const std::size_t row = d.find("i2");
  ASSERT_NE(row, std::string::npos);
  const std::string line = d.substr(row, d.find('\n', row) - row);
  EXPECT_EQ(line.find('X'), std::string::npos) << line;
}

TEST(RandomTg, DeterministicGivenSeed) {
  RandomTgConfig cfg;
  Rng a(42), b(42);
  const TestCase ta = random_test(a, cfg);
  const TestCase tb = random_test(b, cfg);
  EXPECT_EQ(ta.imem, tb.imem);
  EXPECT_EQ(ta.rf_init, tb.rf_init);
}

TEST(RandomTg, ProgramsAreDefinedInstructions) {
  RandomTgConfig cfg;
  Rng rng(77);
  const TestCase tc = random_test(rng, cfg);
  for (std::uint32_t w : tc.imem) EXPECT_TRUE(is_defined(w));
}

TEST(RandomTg, EndsWithExposingStores) {
  RandomTgConfig cfg;
  Rng rng(5);
  const TestCase tc = random_test(rng, cfg);
  unsigned stores = 0;
  for (std::size_t i = tc.imem.size() - cfg.reg_pool; i < tc.imem.size(); ++i)
    stores += is_store(decode(tc.imem[i]).op);
  EXPECT_EQ(stores, cfg.reg_pool);
}

TEST(SignalNames, StateBitCount) {
  // PC(32) + IF/ID(64) + ID/EX(143) + EX/MEM(69) + MEM/WB(37) = 345.
  EXPECT_EQ(datapath_state_bits(model().dp), 345u);
}

TEST(SignalNames, DescribeIsStable) {
  const std::string d = describe_model(model());
  EXPECT_NE(d.find("datapath:"), std::string::npos);
  EXPECT_NE(d.find("345 state bits"), std::string::npos);
  EXPECT_NE(d.find("CTRL bindings (18)"), std::string::npos);
  EXPECT_NE(d.find("STS bindings (10)"), std::string::npos);
  EXPECT_GT(d.size(), 500u);
}

TEST(CosimMisc, GoldenImplementationMatchesSelf) {
  TestCase tc = make_tc("addi r1, r0, 3\nsw 0(r0), r1\n");
  const ArchTrace a = impl_run(model(), tc, 20);
  const ArchTrace b = impl_run(model(), tc, 20);
  EXPECT_EQ(a, b);
}

TEST(CosimMisc, UndefinedOpcodesBehaveAsNopsInBothMachines) {
  TestCase tc;
  tc.imem = {0x3Fu << 26, encode({Op::kAddi, 0, 0, 1, 7}), 0x00000007u,
             encode({Op::kSw, 0, 0, 1, 0x40})};
  const CosimResult r = cosim(model(), tc, 24);
  EXPECT_TRUE(r.match) << r.diff;
}

}  // namespace
}  // namespace hltg
