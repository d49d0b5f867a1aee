// The event-driven relaxation window (core/relax_window.h) against its
// independent reference: after every edit of seeded random edit sequences,
// every net and gate value at every cycle equals a fresh capture_window()
// of the same machine. Campaign-level equality is not enough to trust the
// window: a dropped edge can leave every campaign row unchanged, so the
// edits here aim at each carry the window keeps - instruction fetch,
// register-file and memory write-to-later-read, registers and DFFs into
// the next cycle, and the previous-cycle read of a value produced later in
// the schedule (a BSE rewired to a later bus or to its module's own
// output). Runs under ThreadSanitizer in CI for the shared reader tables.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/archstate.h"
#include "core/dprelax.h"
#include "core/relax_window.h"
#include "errors/boe.h"
#include "errors/bse.h"
#include "errors/bus_ssl.h"
#include "errors/inject.h"
#include "errors/mse.h"
#include "isa/asm.h"
#include "isa/encode.h"
#include "util/rng.h"
#include "util/word.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

/// Programs whose free variables reach every carry: bypassed and far
/// register reads, stores then loads of one address, and a branch that
/// R1's initial value takes or not.
const char* const kPrograms[] = {
    "addi r1, r1, 3\n"
    "add r2, r1, r1\n"
    "sub r3, r2, r1\n"
    "nop\n"
    "nop\n"
    "nop\n"
    "add r4, r1, r3\n"
    "sw 0x40(r0), r4\n",

    "sw 0x40(r0), r1\n"
    "lw r2, 0x40(r0)\n"
    "nop\n"
    "add r3, r2, r2\n"
    "sb 0x44(r0), r3\n"
    "lw r4, 0x44(r0)\n"
    "sw 0x48(r0), r4\n",

    "beqz r1, skip\n"
    "addi r2, r0, 1\n"
    "sw 0x40(r0), r2\n"
    "skip: add r3, r2, r1\n"
    "lw r4, 0x48(r0)\n"
    "sw 0x44(r0), r3\n"
    "sw 0x4c(r0), r4\n",
};

RelaxVars program_vars(const char* src) {
  const AsmResult r = assemble(src);
  EXPECT_TRUE(r.ok()) << src;
  RelaxVars vars;
  vars.imem = encode_program(r.program);
  // CTRLJUST fixes the opcode bits, and the function bits of R-type words.
  for (std::uint32_t w : vars.imem)
    vars.imem_fixed.push_back(0xFC000000u | (w >> 26 == 0 ? 0x3Fu : 0u));
  return vars;
}

/// One random edit of a free variable, the kinds DPRELAX's backsolve makes.
void edit(Rng& rng, RelaxVars& vars, std::vector<RelaxVars>& history) {
  switch (rng.below(5)) {
    case 0:
    case 1: {  // an instruction-word field, fixed bits kept; may grow imem
      const std::size_t idx = rng.below(vars.imem.size() + 2);
      vars.ensure_size(idx + 1);
      static constexpr unsigned kField[][2] = {
          {21, 5}, {16, 5}, {11, 5}, {0, 16}};
      const auto* f = kField[rng.below(4)];
      const std::uint32_t want = static_cast<std::uint32_t>(
          set_field(vars.imem[idx], f[0], f[1], rng.word(f[1])));
      const std::uint32_t fixed = vars.imem_fixed[idx];
      vars.imem[idx] = (vars.imem[idx] & fixed) | (want & ~fixed);
      break;
    }
    case 2: {  // an initial register: small values steer the branch
      const unsigned r = 1 + static_cast<unsigned>(rng.below(rng.flip() ? 4 : 31));
      vars.rf_init[r] = static_cast<std::uint32_t>(
          rng.flip() ? rng.below(3) : rng.word(32));
      break;
    }
    case 3: {  // an aligned initial memory word
      const std::uint32_t a = 0x40 + 4 * static_cast<std::uint32_t>(rng.below(4));
      vars.mem_init[a] = static_cast<std::uint32_t>(rng.word(32));
      break;
    }
    case 4:  // back to an earlier state
      vars = history[rng.below(history.size())];
      break;
  }
  history.push_back(vars);
}

/// Every value of `win` equals a fresh capture of the same machine.
::testing::AssertionResult matches_capture(const RelaxWindow& win,
                                           const RelaxVars& vars,
                                           const ErrorInjection& inj) {
  const DlxModel& m = model();
  const WindowCapture cap =
      capture_window(m, vars.to_test(), win.cycles(), inj);
  for (unsigned t = 0; t < win.cycles(); ++t) {
    for (NetId n = 0; n < m.dp.num_nets(); ++n)
      if (win.net(t, n) != cap.net(t, n))
        return ::testing::AssertionFailure()
               << "net " << m.dp.net(n).name << " @" << t << ": window "
               << win.net(t, n) << ", capture " << cap.net(t, n);
    for (GateId g = 0; g < m.ctrl.num_gates(); ++g)
      if (win.gate(t, g) != cap.gate(t, g))
        return ::testing::AssertionFailure()
               << "gate " << m.ctrl.gate(g).name << " @" << t << ": window "
               << win.gate(t, g) << ", capture " << cap.gate(t, g);
  }
  return ::testing::AssertionSuccess();
}

/// The machines under test: the good one, and injections from all four
/// error models, including BSE rewires the schedule's single pass reads
/// one cycle late.
std::vector<std::pair<std::string, ErrorInjection>> machines() {
  const DlxModel& m = model();
  const std::vector<Stage> stages = {Stage::kEX, Stage::kMEM, Stage::kWB};
  std::vector<DesignError> errs;
  const auto ssl = wrap(enumerate_bus_ssl(m.dp));
  const auto mse = wrap(enumerate_mse(m.dp, stages));
  const auto boe = wrap(enumerate_boe(m.dp, stages));
  const auto bse = enumerate_bse(m.dp);
  for (const auto* pop : {&ssl, &mse})
    for (std::size_t i = 0; i < pop->size(); i += pop->size() / 3)
      errs.push_back((*pop)[i]);
  errs.push_back(boe.front());
  for (std::size_t i = 0; i < bse.size(); i += bse.size() / 3)
    errs.push_back(DesignError{bse[i]});

  const ScheduleFanout& fan = m.fanout();
  auto rank = [&](NetId n) { return fan.producer[n]; };
  // A BSE of the population wired to its module's own output.
  for (const BusSourceError& e : bse)
    if (e.wrong_source == m.dp.module(e.module).out) {
      errs.push_back(DesignError{e});
      break;
    }
  // And one wired to a bus the schedule evaluates after its reader: the
  // adder's operand from the ALU result it feeds.
  const ModId add = m.dp.net(m.dp.find_net("ex.alu_add")).driver;
  const NetId later = m.dp.find_net("ex.alu_res");
  EXPECT_NE(later, kNoNet);
  EXPECT_GT(rank(later), rank(m.dp.module(add).out));
  errs.push_back(DesignError{BusSourceError{add, 1, later}});

  std::vector<std::pair<std::string, ErrorInjection>> out = {{"good", {}}};
  for (const DesignError& e : errs)
    out.emplace_back(e.describe(m.dp), e.injection());
  return out;
}

TEST(RelaxWindow, IncrementalUpdateMatchesFullCapture) {
  const auto ms = machines();
  std::uint64_t seed = 1;
  for (unsigned window : {6u, 14u, 20u})
    for (const auto& [name, inj] : ms)
      for (const char* src : kPrograms) {
        SCOPED_TRACE("window " + std::to_string(window) + ", " + name +
                     ", seed " + std::to_string(seed));
        Rng rng(seed++);
        RelaxVars vars = program_vars(src);
        std::vector<RelaxVars> history = {vars};
        RelaxWindow win(model(), window, inj);
        win.update(vars);
        ASSERT_TRUE(matches_capture(win, vars, inj)) << "first sweep";
        for (unsigned i = 0; i < 12; ++i) {
          edit(rng, vars, history);
          win.update(vars);
          ASSERT_TRUE(matches_capture(win, vars, inj)) << "edit " << i;
        }
      }
}

TEST(RelaxWindow, UnchangedVariablesEvaluateNothing) {
  RelaxVars vars = program_vars(kPrograms[1]);
  RelaxWindow win(model(), 14);
  win.update(vars);
  const std::uint64_t sweep = win.evals();
  EXPECT_EQ(sweep, 14 * model().fanout().producing.size());
  win.update(vars);
  EXPECT_EQ(win.evals(), sweep);
  // One initial register that nothing reads in the window moves nothing
  // but its own register file entries.
  vars.rf_init[30] = 7;
  win.update(vars);
  EXPECT_EQ(win.evals(), sweep);
  // A stored register moves a small cone, far from a full sweep.
  vars.rf_init[1] = 0x1234;
  win.update(vars);
  EXPECT_GT(win.evals(), sweep);
  EXPECT_LT(win.evals() - sweep, sweep / 10);
  EXPECT_TRUE(matches_capture(win, vars, {}));
}

TEST(RelaxWindow, ErroneousMachineMatchesItsCapture) {
  // The good and the erroneous machine of one solve each ride their own
  // window; both equal their own full capture, and genuinely differ.
  const NetId net = model().dp.find_net("ex.alu_add");
  ASSERT_NE(net, kNoNet);
  const ErrorInjection inj = DesignError{BusSslError{net, 0, false}}.injection();
  RelaxVars vars = program_vars(
      "addi r1, r0, 3\n"
      "add r3, r1, r1\n"
      "sw 0x40(r0), r3\n"
      "add r4, r3, r1\n"
      "sw 0x44(r0), r4\n");
  RelaxWindow good(model(), 14), err(model(), 14, inj);
  Rng rng(7);
  std::vector<RelaxVars> history = {vars};
  for (unsigned i = 0; i < 8; ++i) {
    good.update(vars);
    err.update(vars);
    ASSERT_TRUE(matches_capture(good, vars, {})) << "edit " << i;
    ASSERT_TRUE(matches_capture(err, vars, inj)) << "edit " << i;
    if (i == 0) {
      bool differ = false;
      for (unsigned t = 0; t < 14 && !differ; ++t)
        for (NetId n = 0; n < model().dp.num_nets() && !differ; ++n)
          differ = good.net(t, n) != err.net(t, n);
      EXPECT_TRUE(differ) << "the pair must differ, or the check is vacuous";
    }
    edit(rng, vars, history);
  }
}

/// One error of each model, and the BSE that wires mem.bem_b's mux to its
/// own output, which reads its previous cycle's value.
std::vector<DesignError> one_error_per_model() {
  const DlxModel& m = model();
  const std::vector<Stage> stages = {Stage::kEX, Stage::kMEM, Stage::kWB};
  const NetId bem_b = m.dp.find_net("mem.bem_b");
  EXPECT_NE(bem_b, kNoNet);
  return {DesignError{BusSslError{m.dp.find_net("ex.alu_add"), 0, false}},
          wrap(enumerate_mse(m.dp, stages)).front(),
          wrap(enumerate_boe(m.dp, stages)).front(),
          DesignError{enumerate_bse(m.dp).front()},
          DesignError{BusSourceError{m.dp.net(bem_b).driver, 0, bem_b}}};
}

/// The variables consecutive DPRELAX solves of unrelated plans start from.
/// Each differs from the one before in a way a reused window must diff:
/// the program shrinks with the PC trajectory unchanged (words past the
/// new end read 0), grows, an initial-memory word a load reads vanishes
/// while the load stays put, initial registers change, and one solve
/// starts from no program at all.
std::vector<RelaxVars> solve_starts() {
  RelaxVars a = program_vars(kPrograms[0]);
  a.rf_init[1] = 5;
  a.mem_init[0x48] = 0x1234;
  RelaxVars b = program_vars(
      "lw r2, 0x48(r0)\n"
      "nop\n"
      "add r3, r2, r2\n"
      "sw 0x44(r0), r3\n");
  b.mem_init[0x48] = 0x99;
  b.mem_init[0x40] = 3;
  RelaxVars b_vanished = b;
  b_vanished.mem_init.erase(0x48);
  b_vanished.rf_init[2] = 0x55;
  RelaxVars c = program_vars(kPrograms[2]);
  c.mem_init[0x48] = 0xFFFF;
  c.rf_init[1] = 1;
  return {a, b, b_vanished, program_vars(kPrograms[1]), RelaxVars{}, c, a};
}

/// A constraint on `net` at `cycle`; `net2` is a kGoodNetsDiffer's other net.
RelaxConstraint constraint(RelaxKind kind, NetId net, unsigned cycle,
                           std::uint64_t value = 0, NetId net2 = kNoNet) {
  RelaxConstraint c;
  c.kind = kind;
  c.net = net;
  c.cycle = cycle;
  c.value = value;
  c.net2 = net2;
  c.why = model().dp.net(net).name;
  return c;
}

/// Constraint systems of the kinds DPRELAX sees: on the good machine
/// alone, or making the erroneous machine diverge at `err`'s site (with
/// the sources of a BSE apart, as TG's activation asks).
std::vector<std::vector<RelaxConstraint>> systems(const DesignError* err) {
  const DlxModel& m = model();
  auto net = [&](const char* name) { return m.dp.find_net(name); };
  if (!err)
    return {
        {constraint(RelaxKind::kGoodEquals, net("ex.a_byp"), 2, 0xDEADBEEF)},
        {constraint(RelaxKind::kGoodEquals, net("sts.fwda_mem"), 3, 1),
         constraint(RelaxKind::kGoodEquals, net("ex.alu_add"), 4, 7)},
        {constraint(RelaxKind::kGoodNetsDiffer, net("idex.a"), 3, 0,
                    net("exmem.result"))},
        {constraint(RelaxKind::kGoodEquals, net("memwb.value"), 5,
                    0x0BADF00D)},
    };
  std::vector<RelaxConstraint> act;
  if (const auto* bse = std::get_if<BusSourceError>(&err->e))
    act.push_back(constraint(RelaxKind::kGoodNetsDiffer,
                             m.dp.module(bse->module).data_in[bse->input],
                             3, 0, bse->wrong_source));
  std::vector<std::vector<RelaxConstraint>> out;
  for (unsigned cycle : {2u, 3u, 4u}) {
    out.push_back(act);
    out.back().push_back(
        constraint(RelaxKind::kSiteDiffers, err->site_net(m.dp), cycle));
  }
  return out;
}

TEST(RelaxWindow, ReusedAcrossSolvesMatchesFreshCapture) {
  // TG keeps its windows across DPRELAX solves, so a solve's first update
  // diffs against whatever unrelated program the previous solve left -
  // or, after a solve its budget cut short, against variables the caller
  // has since moved past. Every value must still equal a fresh capture,
  // and a seeded solve must run on reused windows exactly as on fresh ones.
  const DlxModel& m = model();
  const std::vector<DesignError> errs = one_error_per_model();
  std::vector<std::pair<std::string, ErrorInjection>> machines = {
      {"good", {}}};
  for (const DesignError& e : errs)
    machines.emplace_back(e.describe(m.dp), e.injection());
  const std::vector<RelaxVars> starts = solve_starts();

  // The windows alone: each start, then a few in-solve edits.
  std::uint64_t seed = 100;
  for (unsigned window : {14u, 20u})
    for (const auto& [name, inj] : machines) {
      SCOPED_TRACE("window " + std::to_string(window) + ", " + name);
      RelaxWindow win(m, window, inj);
      for (std::size_t s = 0; s < starts.size(); ++s) {
        RelaxVars vars = starts[s];
        win.update(vars);
        ASSERT_TRUE(matches_capture(win, vars, inj)) << "start " << s;
        Rng rng(seed++);
        std::vector<RelaxVars> history = {vars};
        for (unsigned i = 0; i < 3; ++i) {
          edit(rng, vars, history);
          win.update(vars);
          ASSERT_TRUE(matches_capture(win, vars, inj))
              << "start " << s << ", edit " << i;
        }
      }
    }

  // Seeded solves: the good machine's window serves every solve, each
  // erroneous machine's every solve of its error. Every fourth solve runs
  // out of iterations, leaving its variables past its windows' last update.
  RelaxWindow good(m, 14);
  std::vector<RelaxWindow> err_wins;
  for (const DesignError& e : errs) err_wins.emplace_back(m, 14, e.injection());
  unsigned solves = 0, cut_short = 0, solved = 0;
  for (std::size_t s = 0; s < starts.size(); ++s)
    for (std::size_t e = 0; e <= errs.size(); ++e) {
      const DesignError* err = e ? &errs[e - 1] : nullptr;
      const auto sys = systems(err);
      const std::vector<RelaxConstraint>& cons = sys[(s + e) % sys.size()];
      SCOPED_TRACE("start " + std::to_string(s) + ", " +
                   machines[e].first + ", " + cons.back().why);
      DpRelaxConfig cfg;
      cfg.seed = 1000 + solves;
      if (++solves % 4 == 0) cfg.max_iterations = 2;
      ASSERT_EQ(needs_erroneous_window(cons), err != nullptr);

      RelaxVars fresh_vars = starts[s];
      RelaxWindow fresh_good(m, 14);
      std::optional<RelaxWindow> fresh_err;
      if (err) fresh_err.emplace(m, 14, err->injection());
      const DpRelaxResult a = DpRelax(m, cfg).solve(
          fresh_vars, cons, fresh_good, fresh_err ? &*fresh_err : nullptr);

      RelaxVars vars = starts[s];
      RelaxWindow* err_win = err ? &err_wins[e - 1] : nullptr;
      const DpRelaxResult b =
          DpRelax(m, cfg).solve(vars, cons, good, err_win);
      EXPECT_EQ(a.status, b.status);
      EXPECT_EQ(a.note, b.note);
      EXPECT_EQ(a.iterations, b.iterations);
      EXPECT_EQ(a.pair_captures, b.pair_captures);
      EXPECT_EQ(fresh_vars.imem, vars.imem);
      EXPECT_EQ(fresh_vars.imem_fixed, vars.imem_fixed);
      EXPECT_EQ(fresh_vars.rf_init, vars.rf_init);
      EXPECT_EQ(fresh_vars.mem_init, vars.mem_init);
      // A diff never evaluates more than the sweep it replaces.
      EXPECT_LE(b.evals, a.evals);
      cut_short += b.note == "iteration budget exhausted";
      if (b.status == TgStatus::kSuccess) {
        ++solved;
        // A success returns right after updating on the final variables.
        ASSERT_TRUE(matches_capture(good, vars, {}));
        if (err_win) {
          ASSERT_TRUE(matches_capture(*err_win, vars, err->injection()));
        }
      }
    }
  // Neither half may be vacuous.
  EXPECT_GT(cut_short, 0u);
  EXPECT_GT(solved, 0u);
}

TEST(RelaxWindow, ReaderTablesFirstUseFromTwoThreadsIsRaceFree) {
  // A fresh model whose schedule and reader tables are both first reached
  // from two threads at once, as campaign workers share one model.
  const DlxModel m = build_dlx();
  m.ctrl.warm_caches();
  const RelaxVars vars = program_vars(kPrograms[0]);
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> seen[2];
  auto run = [&](int i) {
    while (!go.load()) std::this_thread::yield();
    RelaxWindow win(m, 14);
    win.update(vars);
    for (unsigned t = 0; t < 14; ++t)
      for (NetId n = 0; n < m.dp.num_nets(); ++n)
        seen[i].push_back(win.net(t, n));
  };
  std::thread t0(run, 0);
  std::thread t1(run, 1);
  go.store(true);
  t0.join();
  t1.join();
  EXPECT_EQ(&m.fanout(), &m.fanout());
  EXPECT_EQ(seen[0], seen[1]);
  const WindowCapture cap = capture_window(m, vars.to_test(), 14);
  for (unsigned t = 0; t < 14; ++t)
    for (NetId n = 0; n < m.dp.num_nets(); ++n)
      ASSERT_EQ(seen[0][t * m.dp.num_nets() + n], cap.net(t, n));
}

}  // namespace
}  // namespace hltg
