// DPTRACE microbenchmark (google-benchmark): the best-first plan enumerator
// with and without cross-activation search reuse (DpTraceConfig::reuse,
// docs/PERFORMANCE.md), over representative datapath sites and windows, plus
// the nogood application schemes (watched assignments vs full-store rescan)
// on a CTRLJUST corpus that learns and replays conflict cuts.
#include <benchmark/benchmark.h>

#include "core/ctrljust.h"
#include "core/dptrace.h"
#include "dlx/dlx.h"
#include "solver/solver.h"

using namespace hltg;

namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

GateId ctrl_bit(const char* net_name, unsigned bit = 0) {
  return model().find_ctrl(model().dp.find_net(net_name))->bits[bit];
}

// Sites spanning the pipeline: an EX-stage result bus (short paths), a
// decode-stage operand bus (needs forwarding/stall choices) and the
// store-data shifter bus (memory-path plans).
const char* kSites[] = {"ex.alu_add", "id.rf_a", "mem.sdata_sh"};

void BM_DpTracePlans(benchmark::State& state) {
  DpTraceConfig cfg;
  cfg.window = static_cast<unsigned>(state.range(0));
  cfg.reuse = state.range(1) != 0;
  const DpTrace trace(model(), cfg);
  Effort stats;
  for (auto _ : state) {
    for (const char* s : kSites) {
      const NetId site = model().dp.find_net(s);
      benchmark::DoNotOptimize(trace.plans(site, {}, nullptr, &stats).size());
    }
  }
  state.counters["expansions_per_iter"] = benchmark::Counter(
      static_cast<double>(stats.dptrace_expansions),
      benchmark::Counter::kAvgIterations);
  state.counters["reused"] = benchmark::Counter(
      static_cast<double>(stats.dptrace_reused),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DpTracePlans)
    ->ArgNames({"window", "reuse"})
    ->Args({14, 0})
    ->Args({14, 1})
    ->Args({20, 0})
    ->Args({20, 1});

// An objective corpus that provokes conflicts (unreachable demands) so the
// nogood store fills up, then replays solvable sets against the learned
// cuts - the regime where application cost dominates.
std::vector<std::vector<CtrlObjective>> nogood_corpus() {
  std::vector<std::vector<CtrlObjective>> corpus;
  corpus.push_back({{ctrl_bit("ctrl.mem_we"), 3, true}});
  corpus.push_back({{ctrl_bit("ctrl.mem_we"), 4, true}});
  corpus.push_back({{ctrl_bit("ctrl.rf_we"), 2, true}});  // unreachable
  corpus.push_back({{ctrl_bit("ctrl.rf_we"), 4, true}});
  corpus.push_back({{ctrl_bit("ctrl.alu_sel", 0), 4, true}});
  corpus.push_back({{ctrl_bit("ctrl.alu_sel", 1), 4, true},
                    {ctrl_bit("ctrl.alu_sel", 0), 4, false}});
  corpus.push_back({{ctrl_bit("ctrl.alu_sel", 0), 4, true},
                    {ctrl_bit("ctrl.alu_sel", 1), 4, true},
                    {ctrl_bit("ctrl.alu_sel", 2), 4, true},
                    {ctrl_bit("ctrl.alu_sel", 3), 4, true}});  // no such op
  corpus.push_back({{ctrl_bit("ctrl.mem_we"), 3, true},
                    {ctrl_bit("ctrl.rf_we"), 4, true}});
  corpus.push_back({{ctrl_bit("ctrl.mem_we"), 3, true},
                    {ctrl_bit("ctrl.rf_we"), 5, true}});
  corpus.push_back({{ctrl_bit("ctrl.fwd_a"), 4, true}});
  return corpus;
}

void BM_NogoodApply(benchmark::State& state) {
  const auto corpus = nogood_corpus();
  SolverConfig cfg;
  cfg.use_cache = false;  // keep every solve live
  cfg.use_nogood_watches = state.range(0) != 0;
  std::uint64_t probes = 0;
  for (auto _ : state) {
    SolverContext ctx(cfg);
    for (const auto& objs : corpus) {
      CtrlJust cj(model().ctrl, 10);
      cj.set_context(&ctx);
      probes += cj.solve(objs).stats.nogood_comparisons;
    }
  }
  state.counters["probes_per_iter"] = benchmark::Counter(
      static_cast<double>(probes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_NogoodApply)->ArgNames({"watch"})->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
