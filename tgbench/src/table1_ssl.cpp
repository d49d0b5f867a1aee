// Workload table1_ssl: the paper's Table-1 experiment. Every bus-SSL error
// of EX/MEM/WB goes through run_campaign_parallel at two jobs with the
// default TgConfig, the witness oracle cross-checking every detection
// claim, and a journal. One pass is one full campaign. The seed picks the
// error orders the passes use: shard assignment and DPTRACE memo reuse
// change with the order, the outcomes must not.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <unistd.h>

#include "bench.h"
#include "core/tg.h"
#include "dlx/dlx.h"
#include "errors/bus_ssl.h"
#include "errors/parallel_campaign.h"
#include "trace.h"
#include "triage/witness_check.h"
#include "util/rng.h"

namespace tgbench {

namespace {

using namespace hltg;

constexpr unsigned kJobs = 2;
/// Error orders a run cycles through, each for two consecutive passes (a
/// traced run thus traces and leaves untraced every order). How the
/// aborted errors fall into the two shards moves a pass's wall by up to
/// ~20%, so throughput averages the best wall of each order.
constexpr unsigned kOrders = 4;

struct Setup {
  std::unique_ptr<DlxModel> m;
  std::vector<DesignError> errors;
};

Setup set_up(std::uint64_t seed) {
  Setup s;
  s.m = std::make_unique<DlxModel>(build_dlx());
  s.m->ctrl.warm_caches();
  s.m->dp.topo_order();
  s.errors = wrap(enumerate_bus_ssl(s.m->dp));
  Rng rng(seed);
  seeded_shuffle(s.errors, rng);  // the warm-up pass's order
  return s;
}

/// Per-error wall time of one pass, split by where it was spent.
struct PassTimes {
  std::vector<std::int64_t> gen_ns;
  std::vector<std::int64_t> oracle_ns;
};

/// The synthetic children of a core.generate span: the attempt's per-phase
/// times laid end to end from the span's start (the phases interleave in
/// reality; only their sums are known).
void record_phases(std::uint64_t parent, std::int64_t t0, std::int64_t t1,
                   const ErrorAttempt& a) {
  Tracer& tr = Tracer::get();
  const std::pair<const char*, std::uint64_t> phases[] = {
      {"core.dptrace", a.dptrace_ns},
      {"core.ctrljust", a.ctrljust_ns},
      {"core.dprelax", a.dprelax_ns},
      {"solver.probe", a.probe_ns}};
  std::int64_t at = t0;
  for (const auto& [name, ns] : phases) {
    if (ns == 0) continue;
    Span s;
    s.name = name;
    s.id = tr.next_id();
    s.parent = parent;
    s.start_ns = at;
    s.end_ns = std::min<std::int64_t>(t1, at + static_cast<std::int64_t>(ns));
    s.args = JsonWriter().boolean("synthetic", true).take();
    at = s.end_ns;
    tr.record(std::move(s));
  }
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

}  // namespace

Outcome run_table1_ssl(const Options& o) {
  Outcome r;
  SetupClock setup;
  const auto set_up_seeded = [&] { return set_up(o.seed); };
  Setup su = setup.burst(set_up_seeded);
  const DlxModel& m = *su.m;
  const std::vector<DesignError> base = su.errors;
  const std::size_t n = base.size();
  // errors[i] = base[order[i]]: reordered in place each pass (the campaign
  // callbacks locate an error by its address in this vector).
  std::vector<DesignError>& errors = su.errors;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  const std::string ref_path = o.ref_dir + "/table1_ssl_detected.txt";
  std::vector<std::string> reference = read_lines(ref_path);
  std::sort(reference.begin(), reference.end());
  if (reference.empty() && !o.write_reference)
    r.fail("missing reference " + ref_path);

  const std::string dir =
      o.work_dir + "/table1_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  Tracer& tr = Tracer::get();
  PassTimes times;
  std::uint64_t campaign_span = 0;

  const DetectFn oracle = scalar_oracle(m);
  ParallelCampaignConfig pcfg;
  pcfg.jobs = kJobs;
  pcfg.journal_path = dir + "/journal.jsonl";
  pcfg.design_hash = tg_design_hash(m);
  pcfg.solver_config_hash = tg_config_hash(TgConfig{});
  pcfg.triage.verify = true;
  // Each error index runs on exactly one worker thread per pass, so the
  // per-index slots below are written without sharing.
  pcfg.triage.oracle = [&](const TestCase& tc, const DesignError& e) {
    const std::int64_t t0 = now_ns();
    const bool hit = oracle(tc, e);
    const std::size_t idx = static_cast<std::size_t>(&e - errors.data());
    if (idx < n) times.oracle_ns[idx] += now_ns() - t0;
    tr.record("triage.oracle", tr.next_id(), campaign_span, t0,
              JsonWriter().num("error", std::uint64_t{idx}).take());
    return hit;
  };
  const GenFactory factory = [&](unsigned) -> BudgetedGenFn {
    auto tg = std::make_shared<TestGenerator>(m, TgConfig{});
    BudgetedGenFn gen = tg->budgeted_strategy();
    return [&, tg, gen](const DesignError& e, Budget& b) {
      const std::int64_t t0 = now_ns();
      ErrorAttempt a = gen(e, b);
      const std::int64_t t1 = now_ns();
      const std::size_t idx = static_cast<std::size_t>(&e - errors.data());
      if (idx < n) times.gen_ns[idx] += t1 - t0;
      if (tr.on()) {
        Span s;
        s.name = "core.generate";
        s.id = tr.next_id();
        s.parent = campaign_span;
        s.start_ns = t0;
        s.end_ns = t1;
        s.args = JsonWriter()
                     .num("error", std::uint64_t{idx})
                     .boolean("detected", a.generated && a.sim_confirmed)
                     .num("decisions", a.decisions)
                     .num("backtracks", a.backtracks)
                     .num("implications", a.implications)
                     .num("learned", a.learned)
                     .num("nogood_hits", a.nogood_hits)
                     .num("justcache_hits", a.cache_hits)
                     .take();
        record_phases(s.id, t0, t1, a);
        tr.record(std::move(s));
      }
      return a;
    };
  };

  BestTimes best(n), walls(kOrders);
  std::vector<bool> detected_by_id(n, false);
  std::size_t detected_count = 0;
  for (Passes pass(o); pass.next();) {
    if (!pass.warmup()) setup.burst(set_up_seeded);
    tr.set_on(pass.traced());
    const unsigned k = pass.warmup() ? 0 : (pass.index() - 1) / 2 % kOrders;
    if (!pass.warmup()) {
      Rng rng(o.seed * 1000003u + k);
      for (std::size_t i = 0; i < n; ++i) order[i] = i;
      seeded_shuffle(order, rng);
      for (std::size_t i = 0; i < n; ++i) errors[i] = base[order[i]];
    }
    times.gen_ns.assign(n, 0);
    times.oracle_ns.assign(n, 0);
    const std::uint64_t pass_span = tr.next_id();
    campaign_span = tr.next_id();

    const std::int64_t t0 = now_ns();
    const CampaignResult res = run_campaign_parallel(m.dp, errors, factory, pcfg);
    const std::int64_t t1 = now_ns();
    tr.record("errors.campaign", campaign_span, pass_span, t0,
              JsonWriter().num("jobs", std::uint64_t{kJobs}).take());
    tr.record("bench.pass", pass_span, 0, t0,
              JsonWriter().num("pass", pass.index()).str("workload", o.workload).take());

    // Correctness: exactly the reference detected set, every claim
    // confirmed by the oracle, no exceptions.
    r.attempted += n;
    if (res.stats.attempted != n || res.interrupted || res.resume_refused)
      r.fail("pass " + std::to_string(pass.index()) +
                 " did not attempt every error",
             n - std::min(n, res.stats.attempted));
    std::vector<std::string> detected;
    for (std::size_t i = 0; i < res.rows.size(); ++i) {
      const ErrorAttempt& a = res.rows[i].attempt;
      if (a.detected()) detected.push_back(res.rows[i].error.describe(m.dp));
      if (a.abort == AbortReason::kException) r.fail("exception: " + a.note);
      detected_by_id[order[i]] = a.detected();
    }
    if (res.stats.claim_mismatch || res.stats.oracle_errors)
      r.fail("claim mismatches / oracle errors: " +
                 std::to_string(res.stats.claim_mismatch) + " / " +
                 std::to_string(res.stats.oracle_errors),
             res.stats.claim_mismatch + res.stats.oracle_errors);
    std::sort(detected.begin(), detected.end());
    if (o.write_reference && pass.warmup()) {
      std::ofstream out(ref_path, std::ios::trunc);
      for (const std::string& d : detected) out << d << '\n';
      reference = detected;
    }
    std::vector<std::string> diff;
    std::set_symmetric_difference(detected.begin(), detected.end(),
                                  reference.begin(), reference.end(),
                                  std::back_inserter(diff));
    for (const std::string& d : diff) r.fail("detected set differs at " + d);
    detected_count = detected.size();

    if (pass.warmup()) continue;
    const double wall_ms = ms_between(t0, t1);
    (pass.traced() ? r.traced_pass_ms : r.plain_pass_ms).push_back(wall_ms);
    if (!pass.sampled()) continue;
    walls.add(k, wall_ms);
    for (std::size_t i = 0; i < n; ++i)
      best.add(order[i],
               static_cast<double>(times.gen_ns[i] + times.oracle_ns[i]) / 1e6);
  }
  tr.set_on(false);
  std::filesystem::remove_all(dir);

  const std::vector<double> lat = best.ops();
  const double rate = walls.rate(static_cast<double>(n));
  const double p50 = quantile(lat, 0.5);
  const double p95 = quantile(lat, 0.95);
  r.metrics = {
      {"setup_s", setup.seconds()},
      {"errors_per_s", rate},
      {"error_p50_ms", p50},
      {"error_p95_ms", p95},
      {"detected", static_cast<double>(detected_count)},
      // Metrics named for the other workloads report this workload's own
      // error attempts (README.md, "Every metric on every workload").
      {"grade_pairs_per_s", rate},
      {"grade_p50_ms", p50},
      {"grade_p95_ms", p95},
      {"req_per_s", rate},
      {"req_p50_ms", p50},
      {"req_p99_ms", p95},
      {"req_miss_p50_ms",
       quantile(best.ops_if([&](std::size_t id) { return !detected_by_id[id]; }), 0.5)},
      {"req_hit_p50_ms",
       quantile(best.ops_if([&](std::size_t id) { return detected_by_id[id]; }), 0.5)},
  };
  return r;
}

}  // namespace tgbench
