// Campaign-engine benchmark: serial vs parallel test generation, scalar vs
// bit-parallel error simulation, and a lane-engine sweep (64 / 256 / 512
// lanes per batch, gatenet/evalw) whose pass counters CI guards, emitted
// as a machine-readable JSON report (BENCH_campaign.json). See
// docs/PERFORMANCE.md for how to read it.
//
//   $ ./bench_campaign [--quick] [--jobs N] [--out file.json]
//
// --quick shrinks the error population (CI smoke); --jobs sets the worker
// count of the parallel engine (default: hardware concurrency, capped at
// 8). The parallel speedup is bounded by the machine's core count - the
// report records hardware_threads so a 1-core container's numbers read as
// what they are, next to the build type and compiler. The dropping-pass
// speedup is algorithmic (one controller evaluation for a whole batch of
// injected errors, datapath work only where an error's machine differs from
// the fault-free one) and shows on any machine.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/tg.h"
#include "errors/boe.h"
#include "errors/bse.h"
#include "errors/bus_ssl.h"
#include "errors/mse.h"
#include "errors/parallel_campaign.h"
#include "sim/batch_sim.h"
#include "sim/cosim.h"

using namespace hltg;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

GenFactory tg_factory(const DlxModel& m) {
  return [&m](unsigned) {
    auto tg = std::make_shared<TestGenerator>(m);
    BudgetedGenFn s = tg->budgeted_strategy();
    return [tg, s](const DesignError& e, Budget& b) { return s(e, b); };
  };
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  unsigned jobs = std::min(8u, std::max(1u, std::thread::hardware_concurrency()));
  std::string out_path = "BENCH_campaign.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick"))
      quick = true;
    else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
      jobs = static_cast<unsigned>(std::atoi(argv[++i]));
    else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
      out_path = argv[++i];
    else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 1;
    }
  }

  const DlxModel m = build_dlx();
  m.ctrl.warm_caches();
  (void)m.dp.topo_order();
  std::vector<DesignError> errors = wrap(enumerate_bus_ssl(m.dp));
  if (quick && errors.size() > 48) errors.resize(48);
  std::printf("bench_campaign: %zu SSL errors, %u jobs, %u hardware threads\n",
              errors.size(), jobs, std::thread::hardware_concurrency());

  // --- one-job engine (one generator, calling thread) -------------------
  double t0 = now_seconds();
  TestGenerator tg(m);
  const CampaignResult serial =
      run_campaign(m.dp, errors, tg.budgeted_strategy(), CampaignConfig{});
  const double serial_s = now_seconds() - t0;
  std::printf("serial   : %.2fs (%.1f errors/s, %zu detected)\n", serial_s,
              errors.size() / serial_s, serial.stats.detected);

  // --- parallel campaign ------------------------------------------------
  ParallelCampaignConfig pcfg;
  pcfg.jobs = jobs;
  t0 = now_seconds();
  const CampaignResult par =
      run_campaign_parallel(m.dp, errors, tg_factory(m), pcfg);
  const double par_s = now_seconds() - t0;
  const double par_speedup = serial_s / par_s;
  std::printf("parallel : %.2fs (%.1f errors/s, %.2fx, %zu detected)\n", par_s,
              errors.size() / par_s, par_speedup, par.stats.detected);
  if (par.stats.detected != serial.stats.detected)
    std::printf("WARNING: parallel detection count diverged\n");

  // --- dropping pass: scalar vs 64-lane batch ---------------------------
  // Sweep the serially generated tests over the whole population, the way
  // the dropping engine does after each kept test.
  std::vector<TestCase> tests;
  for (const CampaignRow& row : serial.rows)
    if (row.attempt.detected()) tests.push_back(row.attempt.test);
  if (quick && tests.size() > 12) tests.resize(12);
  std::vector<const DesignError*> ptrs;
  for (const DesignError& e : errors) ptrs.push_back(&e);

  BatchDetectConfig scalar_cfg;
  scalar_cfg.force_scalar = true;
  t0 = now_seconds();
  std::size_t scalar_hits = 0;
  for (const TestCase& tc : tests)
    for (const bool b : detect_errors(m, tc, ptrs, scalar_cfg)) scalar_hits += b;
  const double scalar_s = now_seconds() - t0;

  t0 = now_seconds();
  std::size_t batch_hits = 0;
  for (const TestCase& tc : tests)
    for (const bool b : detect_errors(m, tc, ptrs)) batch_hits += b;
  const double batch_s = now_seconds() - t0;
  const double drop_speedup = scalar_s / batch_s;
  std::printf(
      "dropping : %zu tests x %zu errors, scalar %.2fs, batch %.2fs "
      "(%.1fx, %zu hits)\n",
      tests.size(), errors.size(), scalar_s, batch_s, drop_speedup,
      batch_hits);
  if (scalar_hits != batch_hits)
    std::printf("WARNING: batch detector diverged from scalar (%zu vs %zu)\n",
                batch_hits, scalar_hits);

  // --- lane-engine sweep: the same dropping pass at forced widths -------
  // Wider lanes pack more injected errors per controller sweep; detections
  // and per-lane module evaluations must be width-invariant while the pass
  // counters shrink ~linearly. The sweep always runs the four models'
  // EX/MEM/WB population that tgbench's grade_random grades (433 errors,
  // even under --quick): 7 batches per test at 64 lanes, 2 at 256 and 1 at
  // 512, so each width costs differently and no guard is vacuous.
  const std::vector<Stage> stages = {Stage::kEX, Stage::kMEM, Stage::kWB};
  std::vector<DesignError> full_errors;
  for (auto&& part :
       {wrap(enumerate_bus_ssl(m.dp)), wrap(enumerate_mse(m.dp, stages)),
        wrap(enumerate_boe(m.dp, stages)), wrap(enumerate_bse(m.dp))})
    full_errors.insert(full_errors.end(), part.begin(), part.end());
  std::vector<const DesignError*> full_ptrs;
  for (const DesignError& e : full_errors) full_ptrs.push_back(&e);
  struct LaneRun {
    unsigned width;
    BatchSimStats stats;
    double seconds = 0;
    std::size_t detections = 0;
  };
  std::vector<LaneRun> lane_runs;
  for (unsigned width : {64u, 256u, 512u}) {
    LaneRun run;
    run.width = width;
    BatchDetectConfig cfg;
    cfg.max_lanes = width;
    cfg.stats = &run.stats;
    t0 = now_seconds();
    for (const TestCase& tc : tests)
      for (const bool b : detect_errors(m, tc, full_ptrs, cfg))
        run.detections += b;
    run.seconds = now_seconds() - t0;
    std::printf(
        "lanes %3u : %.2fs, %llu batches, %llu controller passes, "
        "%llu gate evals, %llu module evals (%s, %zu hits)\n",
        width, run.seconds,
        static_cast<unsigned long long>(run.stats.batches),
        static_cast<unsigned long long>(run.stats.controller_passes),
        static_cast<unsigned long long>(run.stats.gate_evals),
        static_cast<unsigned long long>(run.stats.module_evals),
        std::string(to_string(run.stats.backend)).c_str(), run.detections);
    if (!lane_runs.empty() && run.detections != lane_runs[0].detections)
      std::printf("WARNING: %u-lane detections diverged\n", width);
    lane_runs.push_back(run);
  }
  const double pass_reduction_256 =
      static_cast<double>(lane_runs[0].stats.controller_passes) /
      static_cast<double>(lane_runs[1].stats.controller_passes);
  const double pass_reduction_512 =
      static_cast<double>(lane_runs[0].stats.controller_passes) /
      static_cast<double>(lane_runs[2].stats.controller_passes);
  std::printf("lane pass reduction: 256 vs 64 %.2fx, 512 vs 64 %.2fx\n",
              pass_reduction_256, pass_reduction_512);

  // --- full dropping campaign (generator + batched error simulation) ----
  TestGenerator tg2(m);
  t0 = now_seconds();
  const CampaignResult dres = run_campaign_with_dropping(
      m.dp, errors, tg2.budgeted_strategy(), batch_detector(m),
      CampaignConfig{});
  const double drop_campaign_s = now_seconds() - t0;
  std::printf(
      "dropping campaign: %.2fs (%zu generator runs instead of %zu, "
      "%zu dropped, error sim %.2fs)\n",
      drop_campaign_s, dres.stats.total - dres.dropped, dres.stats.total,
      dres.dropped, dres.dropping_seconds);

  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"campaign\",\n"
               "  \"quick\": %s,\n"
               "  \"errors\": %zu,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"build_type\": \"%s\",\n"
               "  \"compiler\": \"%s\",\n"
               "  \"serial\": {\"seconds\": %.4f, \"errors_per_sec\": %.2f, "
               "\"detected\": %zu},\n"
               "  \"parallel\": {\"jobs\": %u, \"seconds\": %.4f, "
               "\"errors_per_sec\": %.2f, \"speedup\": %.3f, "
               "\"detected\": %zu},\n"
               "  \"dropping_pass\": {\"tests\": %zu, \"scalar_seconds\": "
               "%.4f, \"batch_seconds\": %.4f, \"speedup\": %.2f, "
               "\"detections\": %zu},\n"
               "  \"dropping_campaign\": {\"seconds\": %.4f, "
               "\"generator_runs\": %zu, \"dropped\": %zu, \"tests_kept\": "
               "%zu, \"error_sim_seconds\": %.4f},\n"
               "  \"lane_engine\": {\n"
               "    \"sweep_errors\": %zu,\n"
               "    \"auto_lanes\": %u,\n"
               "    \"pass_reduction_256_vs_64\": %.3f,\n"
               "    \"pass_reduction_512_vs_64\": %.3f,\n",
               quick ? "true" : "false", errors.size(),
               std::thread::hardware_concurrency(), HLTG_BUILD_TYPE,
               HLTG_COMPILER, serial_s,
               errors.size() / serial_s, serial.stats.detected, jobs, par_s,
               errors.size() / par_s, par_speedup, par.stats.detected,
               tests.size(), scalar_s, batch_s, drop_speedup, batch_hits,
               drop_campaign_s, dres.stats.total - dres.dropped, dres.dropped,
               dres.tests_kept, dres.dropping_seconds, full_errors.size(),
               resolve_lanes(), pass_reduction_256, pass_reduction_512);
  for (std::size_t i = 0; i < lane_runs.size(); ++i) {
    const LaneRun& r = lane_runs[i];
    std::fprintf(f,
                 "    \"lanes_%u\": {\"backend\": \"%s\", \"seconds\": %.4f, "
                 "\"batches\": %llu, \"controller_passes\": %llu, "
                 "\"gate_evals\": %llu, \"lanes_evaluated\": %llu, "
                 "\"module_evals\": %llu, \"detections\": %zu}%s\n",
                 r.width, std::string(to_string(r.stats.backend)).c_str(),
                 r.seconds, static_cast<unsigned long long>(r.stats.batches),
                 static_cast<unsigned long long>(r.stats.controller_passes),
                 static_cast<unsigned long long>(r.stats.gate_evals),
                 static_cast<unsigned long long>(r.stats.lanes_evaluated),
                 static_cast<unsigned long long>(r.stats.module_evals),
                 r.detections, i + 1 < lane_runs.size() ? "," : "");
  }
  std::fprintf(f,
               "  }\n"
               "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
