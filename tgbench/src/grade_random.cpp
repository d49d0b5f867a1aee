// Workload grade_random: grade a regression suite. A seeded suite of
// biased-random programs (baseline/random_tg), in a fixed mix of program
// lengths, is error-simulated test by test with detect_errors - batch
// simulation at the resolved lane width - against all four error models
// over EX/MEM/WB. One pass grades the whole suite. The test generator is
// never called.
#include <algorithm>
#include <fstream>
#include <map>
#include <memory>

#include "baseline/random_tg.h"
#include "bench.h"
#include "dlx/dlx.h"
#include "gatenet/evalw.h"
#include "errors/boe.h"
#include "errors/bse.h"
#include "errors/bus_ssl.h"
#include "errors/mse.h"
#include "sim/batch_sim.h"
#include "trace.h"
#include "util/rng.h"

namespace tgbench {

namespace {

using namespace hltg;

/// Program lengths of the suite, each used kPerLength times: the work per
/// pass does not depend on the seed, only the programs do.
constexpr unsigned kLengths[] = {6, 10, 16, 24, 32, 48};
constexpr unsigned kPerLength = 12;
/// Tests (seeded, with repeats) the serial cosimulation re-grades.
constexpr unsigned kSerialTests = 6;

struct Setup {
  std::unique_ptr<DlxModel> m;
  std::vector<DesignError> errors;
  std::vector<TestCase> suite;
};

Setup set_up(std::uint64_t seed) {
  Setup s;
  s.m = std::make_unique<DlxModel>(build_dlx());
  s.m->ctrl.warm_caches();
  s.m->dp.topo_order();
  const std::vector<Stage> stages = {Stage::kEX, Stage::kMEM, Stage::kWB};
  const Netlist& dp = s.m->dp;
  for (auto&& part : {wrap(enumerate_bus_ssl(dp)),
                      wrap(enumerate_mse(dp, stages)),
                      wrap(enumerate_boe(dp, stages)),
                      wrap(enumerate_bse(dp))})
    s.errors.insert(s.errors.end(), part.begin(), part.end());
  Rng rng(seed);
  for (const unsigned len : kLengths) {
    RandomTgConfig cfg;
    cfg.program_length = len;
    for (unsigned k = 0; k < kPerLength; ++k)
      s.suite.push_back(random_test(rng, cfg));
  }
  for (std::size_t i = s.suite.size(); i > 1; --i)
    std::swap(s.suite[i - 1], s.suite[rng.below(i)]);
  return s;
}

std::size_t count_hits(const std::vector<bool>& v) {
  return static_cast<std::size_t>(std::count(v.begin(), v.end(), true));
}

}  // namespace

Outcome run_grade_random(const Options& o) {
  Outcome r;
  SetupClock setup;
  const auto set_up_seeded = [&] { return set_up(o.seed); };
  Setup su = setup.burst(set_up_seeded);
  const DlxModel& m = *su.m;
  std::vector<const DesignError*> population;
  for (const DesignError& e : su.errors) population.push_back(&e);
  const std::size_t n_tests = su.suite.size();
  const std::size_t pairs = n_tests * population.size();

  Tracer& tr = Tracer::get();
  std::vector<std::vector<bool>> verdicts;  // warm-up pass: [test][error]
  BestTimes best(n_tests), wall(1);
  for (Passes pass(o); pass.next();) {
    if (!pass.warmup()) setup.burst(set_up_seeded);
    tr.set_on(pass.traced());
    const std::uint64_t pass_span = tr.next_id();
    std::size_t mismatched = 0;

    const std::int64_t t0 = now_ns();
    for (std::size_t t = 0; t < n_tests; ++t) {
      BatchSimStats st;
      BatchDetectConfig cfg;
      cfg.stats = &st;
      const std::int64_t c0 = now_ns();
      std::vector<bool> out = detect_errors(m, su.suite[t], population, cfg);
      const std::int64_t c1 = now_ns();
      if (pass.sampled()) best.add(t, ms_between(c0, c1));
      if (tr.on()) {
        Span s;
        s.name = "sim.detect";
        s.id = tr.next_id();
        s.parent = pass_span;
        s.start_ns = c0;
        s.end_ns = c1;
        s.args = JsonWriter()
                     .num("pairs", std::uint64_t{population.size()})
                     .num("hits", std::uint64_t{count_hits(out)})
                     .num("batches", st.batches)
                     .num("controller_passes", st.controller_passes)
                     .num("gate_evals", st.gate_evals)
                     .num("lanes_evaluated", st.lanes_evaluated)
                     .take();
        tr.record(std::move(s));
      }
      if (pass.warmup())
        verdicts.push_back(std::move(out));
      else if (out != verdicts[t])
        ++mismatched;
    }
    const std::int64_t t1 = now_ns();
    tr.record("bench.pass", pass_span, 0, t0,
              JsonWriter().num("pass", pass.index()).str("workload", o.workload).take());
    r.attempted += n_tests;
    if (mismatched)
      r.fail("pass " + std::to_string(pass.index()) +
                 " changed the verdicts of " + std::to_string(mismatched) +
                 " tests",
             mismatched);
    if (pass.warmup()) continue;
    const double wall_ms = ms_between(t0, t1);
    (pass.traced() ? r.traced_pass_ms : r.plain_pass_ms).push_back(wall_ms);
    if (pass.sampled()) wall.add(0, wall_ms);
  }
  tr.set_on(false);

  // Correctness, outside the timed passes. Two other graders must give the
  // batch verdicts, test by test: batch simulation at another lane width
  // (64 lanes, one word, or 128 where 64 is the measured width) over the
  // whole suite, and the serial per-error cosimulation (force_scalar: no
  // batch simulation at all) over a seeded sample of tests. The suite's hit
  // count must equal the committed reference for the seed, when the
  // reference file has one.
  BatchDetectConfig other_width, serial;
  other_width.max_lanes = resolve_lanes() == 64 ? 128 : 64;
  serial.force_scalar = true;
  std::vector<bool> serial_test(n_tests, false);
  Rng pick(o.seed ^ 0x5eedULL);
  for (unsigned k = 0; k < kSerialTests; ++k) serial_test[pick.below(n_tests)] = true;
  std::size_t hits = 0;
  std::vector<bool> covered(population.size(), false);
  for (std::size_t t = 0; t < n_tests; ++t) {
    for (const BatchDetectConfig* cfg : {&other_width, &serial}) {
      if (cfg == &serial && !serial_test[t]) continue;
      const std::vector<bool> ref = detect_errors(m, su.suite[t], population, *cfg);
      std::size_t differ = 0;
      for (std::size_t e = 0; e < ref.size(); ++e) differ += ref[e] != verdicts[t][e];
      if (differ)
        r.fail("test " + std::to_string(t) + ": " + std::to_string(differ) +
                   " verdicts differ from the " +
                   (cfg == &serial ? "serial cosimulation"
                                   : std::to_string(cfg->max_lanes) + "-lane grade"),
               differ);
    }
    hits += count_hits(verdicts[t]);
    for (std::size_t e = 0; e < population.size(); ++e)
      if (verdicts[t][e]) covered[e] = true;
  }
  const std::string ref_path = o.ref_dir + "/grade_random_hits.txt";
  std::map<std::uint64_t, std::size_t> reference;
  {
    std::ifstream in(ref_path);
    std::uint64_t seed = 0;
    std::size_t n = 0;
    while (in >> seed >> n) reference[seed] = n;
  }
  if (o.write_reference) {
    reference[o.seed] = hits;
    std::ofstream out(ref_path, std::ios::trunc);
    for (const auto& [seed, n] : reference) out << seed << ' ' << n << '\n';
  } else if (const auto it = reference.find(o.seed);
             it != reference.end() && it->second != hits) {
    r.fail("hit count " + std::to_string(hits) + " != reference " +
               std::to_string(it->second) + " for seed " + std::to_string(o.seed),
           hits > it->second ? hits - it->second : it->second - hits);
  }

  const std::vector<double> lat = best.ops();
  const double rate = wall.rate(static_cast<double>(pairs));
  const double p50 = quantile(lat, 0.5);
  const double p95 = quantile(lat, 0.95);
  r.metrics = {
      {"setup_s", setup.seconds()},
      {"grade_pairs_per_s", rate},
      {"grade_p50_ms", p50},
      {"grade_p95_ms", p95},
      {"detected", static_cast<double>(count_hits(covered))},
      // Metrics named for the other workloads report this workload's own
      // test gradings (README.md, "Every metric on every workload").
      {"errors_per_s", rate},
      {"error_p50_ms", p50},
      {"error_p95_ms", p95},
      {"req_per_s", rate},
      {"req_p50_ms", p50},
      {"req_p99_ms", p95},
      {"req_miss_p50_ms", p50},
      {"req_hit_p50_ms", p50},
  };
  return r;
}

}  // namespace tgbench
