// End-to-end tests of the full test-generation algorithm (TG, Fig. 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/emit.h"
#include "core/tg.h"
#include "errors/boe.h"
#include "errors/bse.h"
#include "errors/bus_ssl.h"
#include "errors/mse.h"
#include "errors/redundancy.h"
#include "isa/testcase_io.h"
#include "sim/cosim.h"
#include "util/rng.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

TestGenerator& tg() {
  static TestGenerator t(model());
  return t;
}

DesignError ssl(const char* net, unsigned bit, bool v) {
  const NetId n = model().dp.find_net(net);
  EXPECT_NE(n, kNoNet) << net;
  return DesignError{BusSslError{n, bit, v}};
}

void expect_detects(const DesignError& e, unsigned max_len = 16) {
  const TgResult r = tg().generate(e);
  ASSERT_EQ(r.status, TgStatus::kSuccess) << e.describe(model().dp) << "\n"
                                          << r.note;
  EXPECT_TRUE(detects(model(), r.test, e.injection()))
      << e.describe(model().dp);
  EXPECT_GE(r.test_length, 3u);
  EXPECT_LE(r.test_length, max_len);
}

TEST(Tg, AluAdderStuckLines) {
  expect_detects(ssl("ex.alu_add", 0, false));
  expect_detects(ssl("ex.alu_add", 0, true));
  expect_detects(ssl("ex.alu_add", 31, false));
  expect_detects(ssl("ex.alu_add", 31, true));
}

TEST(Tg, AluLogicUnits) {
  expect_detects(ssl("ex.alu_and", 0, false));
  expect_detects(ssl("ex.alu_or", 0, true));
  expect_detects(ssl("ex.alu_xor", 31, true));
  expect_detects(ssl("ex.alu_sub", 0, false));
}

TEST(Tg, ShifterOutputs) {
  expect_detects(ssl("ex.alu_shl", 0, true));
  expect_detects(ssl("ex.alu_srl", 0, false));
  expect_detects(ssl("ex.alu_sra", 31, false));
}

TEST(Tg, PredicateOutputs) {
  expect_detects(ssl("ex.p_slt", 0, false));
  expect_detects(ssl("ex.p_seq", 0, true));
}

TEST(Tg, MemStageBuses) {
  expect_detects(ssl("exmem.result", 5, false));
  expect_detects(ssl("exmem.sdata", 0, false));
  expect_detects(ssl("mem.result", 0, true));
  expect_detects(ssl("mem.ld_val", 0, false));
}

TEST(Tg, WbStageBuses) {
  expect_detects(ssl("memwb.value", 0, false));
  expect_detects(ssl("memwb.value", 31, true));
  expect_detects(ssl("memwb.dest", 0, false));
}

TEST(Tg, BypassBusesAndComparators) {
  expect_detects(ssl("ex.a_byp", 0, false));
  expect_detects(ssl("ex.b_byp", 0, true));
  expect_detects(ssl("sts.fwda_mem", 0, false));
  expect_detects(ssl("sts.fwda_mem", 0, true));
  expect_detects(ssl("sts.dest_mem_nz", 0, false));
}

TEST(Tg, ControlFlowMacroHandlesBranchPath) {
  // Branch-condition and target errors are only observable through a taken
  // control transfer; TG must fall back to the divergence templates.
  expect_detects(ssl("sts.a_zero", 0, false));
  expect_detects(ssl("sts.a_zero", 0, true));
  expect_detects(ssl("ex.btarget", 31, true));
  expect_detects(ssl("ex.redirect_target", 0, true));
}

TEST(Tg, ModuleSubstitutionError) {
  const ModId add = model().dp.find_module("ex.alu_add");
  DesignError e{ModuleSubstitutionError{add, ModuleKind::kSub}};
  const TgResult r = tg().generate(e);
  ASSERT_EQ(r.status, TgStatus::kSuccess) << r.note;
  EXPECT_TRUE(detects(model(), r.test, e.injection()));
}

TEST(Tg, BusOrderError) {
  const ModId sub = model().dp.find_module("ex.alu_sub");
  DesignError e{BusOrderError{sub}};
  const TgResult r = tg().generate(e);
  ASSERT_EQ(r.status, TgStatus::kSuccess) << r.note;
  EXPECT_TRUE(detects(model(), r.test, e.injection()));
}

TEST(Tg, RedundantErrorAborts) {
  // Bit 31 of a zero-extended 1-bit predicate is constant 0: stuck-at-0 is
  // provably undetectable and TG must fail, not fabricate a test. The
  // screen says so before any search, under any budget.
  const DesignError e = ssl("ex.slt32", 31, false);
  const BitConstants bc = analyze_bit_constants(model().dp);
  EXPECT_TRUE(is_redundant(bc, std::get<BusSslError>(e.e)));
  CancelToken stop;
  stop.request_stop();
  Budget spent;  // already fired: any search would unwind at once
  spent.set_cancel(&stop);
  for (Budget* b : {static_cast<Budget*>(nullptr), &spent}) {
    const TgResult r = tg().generate(e, b);
    EXPECT_NE(r.status, TgStatus::kSuccess);
    EXPECT_TRUE(r.proven_redundant);
    EXPECT_EQ(r.abort, AbortReason::kNone);
    EXPECT_EQ(r.stats.plans_tried + r.stats.decisions, 0u);
    EXPECT_EQ(r.note, "proven redundant: constant line, always 0");
  }
  // The other stuck value is detectable: no screen, a real test.
  const TgResult d = tg().generate(ssl("ex.slt32", 31, true));
  EXPECT_FALSE(d.proven_redundant);
}

TEST(Tg, GeneratedTestsAreShort) {
  // Sec. VI: "typical sequences consist of a few non-trivial instructions
  // followed by a sequence of NOP instructions", average 6.2.
  const TgResult r = tg().generate(ssl("ex.alu_add", 7, false));
  ASSERT_EQ(r.status, TgStatus::kSuccess);
  EXPECT_LE(r.test.imem.size(), 8u);
  EXPECT_LE(r.test_length, 10u);
}

TEST(Tg, StatsPopulated) {
  const TgResult r = tg().generate(ssl("ex.alu_sub", 3, true));
  ASSERT_EQ(r.status, TgStatus::kSuccess);
  EXPECT_GE(r.stats.plans_tried, 1u);
  EXPECT_GE(r.stats.decisions, 1u);
  EXPECT_GE(r.stats.implications, 1u);
  EXPECT_GE(r.stats.relax_iterations, 1u);
}

TEST(Tg, StrategyAdapterConfirms) {
  auto strat = tg().budgeted_strategy();
  Budget unlimited;
  const ErrorAttempt a = strat(ssl("ex.alu_add", 2, false), unlimited);
  EXPECT_TRUE(a.generated);
  EXPECT_TRUE(a.sim_confirmed);
  EXPECT_GT(a.test_length, 0u);
  EXPECT_GE(a.seconds, 0.0);
}

TEST(TgState, UsedGeneratorMatchesFreshOnEveryModel) {
  // A generator keeps its CTRLJUST search state and its DPRELAX windows
  // between errors. None of what earlier errors left there may show: each
  // error of a seeded sample must come out of a generator that already ran
  // other errors through both windows exactly as out of a new generator -
  // every outcome and every counter but the phase times and relax_evals.
  // The sample's sites are distinct and unused by the earlier errors, so
  // DPTRACE's per-site memo, state meant to carry over, is empty for each
  // sample error either way. relax_evals is the one counter the history
  // moves: a used generator's first solve diffs its good-machine windows
  // against the earlier errors' last variables where a new generator's
  // sweeps them, and a diff evaluates each step at most once per cycle,
  // so never more than the sweep it replaces.
  const std::vector<Stage> stages = {Stage::kEX, Stage::kMEM, Stage::kWB};
  const std::pair<const char*, std::vector<DesignError>> models[] = {
      {"ssl", wrap(enumerate_bus_ssl(model().dp))},
      {"mse", wrap(enumerate_mse(model().dp, stages))},
      {"boe", wrap(enumerate_boe(model().dp, stages))},
      {"bse", wrap(enumerate_bse(model().dp))},
  };
  const TgConfig cfg;
  for (const auto& [name, errors] : models) {
    SCOPED_TRACE(name);
    std::vector<DesignError> order = errors;
    Rng rng(0x7e57);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    const std::size_t n_sample =
        std::min<std::size_t>(6, (order.size() + 1) / 2);
    std::vector<DesignError> sample, earlier;
    std::set<NetId> sites;
    for (const DesignError& e : order)
      if (sample.size() < n_sample &&
          sites.insert(e.site_net(model().dp)).second)
        sample.push_back(e);
    for (const DesignError& e : order)
      if (earlier.size() < 4 && !sites.count(e.site_net(model().dp)))
        earlier.push_back(e);
    ASSERT_FALSE(sample.empty());
    ASSERT_FALSE(earlier.empty());

    TestGenerator used(model(), cfg);
    std::uint64_t plans[2] = {0, 0};
    for (const DesignError& e : earlier) {
      plans[1] += used.generate_with_window(e, cfg.retry_window)
                      .stats.plans_tried;
      plans[0] += used.generate_with_window(e, cfg.window).stats.plans_tried;
    }
    ASSERT_GT(plans[0], 0u);
    ASSERT_GT(plans[1], 0u);

    for (const DesignError& e : sample) {
      SCOPED_TRACE(e.describe(model().dp));
      const TgResult a = TestGenerator(model(), cfg).generate(e);
      const TgResult b = used.generate(e);
      EXPECT_EQ(a.status, b.status);
      EXPECT_EQ(a.abort, b.abort);
      EXPECT_EQ(serialize_test(a.test), serialize_test(b.test));
      EXPECT_EQ(a.note, b.note);
      EXPECT_EQ(a.test_length, b.test_length);
      for (const EffortField& f : kEffortFields)
        if (f.member == &Effort::relax_evals) {
          EXPECT_LE(b.stats.*f.member, a.stats.*f.member) << f.key;
        } else if (f.journal != EffortJournal::kPhaseTime) {
          EXPECT_EQ(a.stats.*f.member, b.stats.*f.member) << f.key;
        }
    }
  }
}

TEST(Emit, CpiBitMapping) {
  // opcode gates map to word bits 26..31, func gates to 0..5.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(instr_bit_of_cpi(model(), model().cpi[i]), 26 + i);
    EXPECT_EQ(instr_bit_of_cpi(model(), model().cpi[6 + i]), i);
  }
  EXPECT_EQ(instr_bit_of_cpi(model(), model().cpi[0] + 1000), -1);
}

TEST(Emit, StraightLineFetchIndex) {
  ControllerWindow win(model().ctrl, 6);
  RelaxVars vars;
  const EmitResult er = emit_cpi_assignments(model(), win, {}, &vars);
  ASSERT_TRUE(er.ok);
  for (unsigned t = 0; t < 6; ++t) EXPECT_EQ(er.fetch_index[t], t);
}

TEST(Emit, ConflictingBitsRejected) {
  ControllerWindow win(model().ctrl, 6);
  RelaxVars vars;
  const GateId g = model().cpi[0];
  const EmitResult er =
      emit_cpi_assignments(model(), win, {{g, 2, true}, {g, 2, false}}, &vars);
  // Same gate, same cycle, contradictory values: second write must fail.
  EXPECT_FALSE(er.ok);
}

TEST(Emit, TrimTrailingNops) {
  std::vector<std::uint32_t> imem = {5, 0, 0, 0};
  trim_trailing_nops(&imem);
  EXPECT_EQ(imem, (std::vector<std::uint32_t>{5}));
  std::vector<std::uint32_t> all0 = {0, 0};
  trim_trailing_nops(&all0);
  EXPECT_EQ(all0.size(), 1u);
}

}  // namespace
}  // namespace hltg
