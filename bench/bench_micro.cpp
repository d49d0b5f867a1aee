// E7 - Engineering microbenchmarks (google-benchmark).
//
// Throughput numbers for the substrates the CPU-time comparison rests on:
// the cycle-accurate two-level simulator, 3-valued controller implication
// over the unrolled window, whole-window capture against the event-driven
// relaxation window (one edit's update, and a reused window's first update
// of a solve), and one full TG run.
#include <benchmark/benchmark.h>

#include "baseline/random_tg.h"
#include "core/archstate.h"
#include "core/relax_window.h"
#include "core/tg.h"
#include "core/unroll.h"
#include "sim/cosim.h"

using namespace hltg;

namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

TestCase sample_test() {
  Rng rng(7);
  RandomTgConfig cfg;
  cfg.program_length = 32;
  return random_test(rng, cfg);
}

void BM_ProcSimCycles(benchmark::State& state) {
  const TestCase tc = sample_test();
  for (auto _ : state) {
    ProcSim sim(model(), tc);
    sim.run(static_cast<unsigned>(state.range(0)));
    benchmark::DoNotOptimize(sim.reg(1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProcSimCycles)->Arg(64)->Arg(256);

void BM_SpecSimInstructions(benchmark::State& state) {
  const TestCase tc = sample_test();
  for (auto _ : state) {
    SpecSimulator sim(tc);
    benchmark::DoNotOptimize(sim.run(static_cast<unsigned>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpecSimInstructions)->Arg(256);

void BM_ControllerImply(benchmark::State& state) {
  // One decision and its backtrack per iteration: the event-driven window
  // re-evaluates the CPI bit's forward cone on each imply().
  ControllerWindow win(model().ctrl, static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    win.assign(model().cpi[0], 0, L3::T);
    win.imply();
    win.assign(model().cpi[0], 0, L3::X);
    win.imply();
    benchmark::DoNotOptimize(win.value(model().cpi[0], 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ControllerImply)->Arg(8)->Arg(14)->Arg(24);

void BM_WindowCapture(benchmark::State& state) {
  const TestCase tc = sample_test();
  for (auto _ : state) {
    benchmark::DoNotOptimize(capture_window(model(), tc, 14));
  }
}
BENCHMARK(BM_WindowCapture);

RelaxVars vars_of(const TestCase& tc) {
  RelaxVars vars;
  vars.imem = tc.imem;
  vars.rf_init = tc.rf_init;
  vars.mem_init = tc.dmem_init;
  return vars;
}

void BM_RelaxWindowUpdate(benchmark::State& state) {
  // One initial-register edit and its undo per iteration, as a DPRELAX
  // backsolve makes them: each update re-evaluates only the register's
  // reads and their forward cone in the 14-cycle window.
  RelaxVars vars = vars_of(sample_test());
  RelaxWindow win(model(), 14);
  win.update(vars);
  const std::uint32_t r1 = vars.rf_init[1];
  for (auto _ : state) {
    vars.rf_init[1] = r1 + 1;
    win.update(vars);
    vars.rf_init[1] = r1;
    win.update(vars);
    benchmark::DoNotOptimize(win.net(13, model().sig.wb_value));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_RelaxWindowUpdate);

void BM_RelaxWindowNextSolve(benchmark::State& state) {
  // The first update of a solve on a window TG reuses: from the variables
  // of one generated test to another's, as the good machine's window moves
  // from one plan to the next. A fresh window would sweep all 14 cycles
  // instead (BM_WindowCapture simulates the same span).
  TestGenerator tg(model());
  RelaxVars from, to;
  for (auto [net, vars] : {std::pair{"ex.alu_add", &from},
                           std::pair{"ex.alu_sub", &to}}) {
    const TgResult r = tg.generate(
        DesignError{BusSslError{model().dp.find_net(net), 3, true}});
    if (r.status != TgStatus::kSuccess) {
      state.SkipWithError("no test generated");
      return;
    }
    *vars = vars_of(r.test);
  }
  RelaxWindow win(model(), 14);
  win.update(from);
  for (auto _ : state) {
    win.update(to);
    win.update(from);
    benchmark::DoNotOptimize(win.net(13, model().sig.wb_value));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_RelaxWindowNextSolve);

void BM_CosimDetect(benchmark::State& state) {
  const TestCase tc = sample_test();
  const auto ssl = enumerate_bus_ssl(model().dp);
  const ErrorInjection inj = BusSslError{ssl[0].net, 0, false}.injection();
  for (auto _ : state) {
    benchmark::DoNotOptimize(detects(model(), tc, inj));
  }
}
BENCHMARK(BM_CosimDetect);

void BM_FullTgOneError(benchmark::State& state) {
  const NetId site = model().dp.find_net("ex.alu_add");
  DesignError err{BusSslError{site, 0, false}};
  for (auto _ : state) {
    TestGenerator tg(model());
    benchmark::DoNotOptimize(tg.generate(err).status);
  }
}
BENCHMARK(BM_FullTgOneError);

void BM_BuildDlxModel(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_dlx().dp.num_nets());
  }
}
BENCHMARK(BM_BuildDlxModel);

}  // namespace

BENCHMARK_MAIN();
