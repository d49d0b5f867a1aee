// Solver-subsystem benchmark: the Table-1 bus-SSL error set generated under
// six configurations, emitted as a machine-readable JSON report
// (BENCH_tg.json) so CI can archive the numbers run over run and guard the
// hot-path counters against regressions (tools/check_bench.py).
//
//   engine_off     CTRLJUST without the implication engine, no DPTRACE reuse
//   no_reuse       engine on, but DPTRACE memo and nogood watches off -
//                  the hot paths before the reuse overhaul
//   engine_on      full defaults (per-error solver scope)
//   campaign_scope engine on with campaign-lifetime deduction reuse
//   warm_start     campaign scope warm-started from the deduction snapshot
//                  the campaign_scope pass exported (the persisted-store
//                  path of docs/ROBUSTNESS.md, minus the file I/O)
//   campaign_shard campaign scope split over 4 round-robin shards, each
//                  with its own generator, interleaved on one thread - the
//                  per-worker deduction state of a --jobs 4 sharded
//                  campaign without scheduler noise
//
//   $ ./bench_solver [--quick] [--out BENCH_tg.json]
//
// The report names the build type and compiler. Per configuration it
// carries per-error wall-time p50/p95, the detections, every Effort
// counter under its kEffortFields key (util/effort.h) and the cache hit
// rate. `relax_evals` counts the schedule steps DPRELAX's event-driven
// windows evaluated in solves actually run (a memo replay charges none;
// tools/check_bench.py guards it). Each generator keeps its windows
// across solves, so a solve is charged only its diff from the previous
// solve's variables; campaign_shard's four generators each start cold,
// which is why it reads a little above engine_on. Only the three campaign-scope
// configurations consult the DPRELAX memo: the generator memoizes only at
// the scope that exports and imports stores, so `relax_lookups` reads 0
// for engine_off, no_reuse and engine_on. `relax_pair_captures`, the iterations
// that also updated the erroneous machine, is 0 here by construction:
// every SSL activation constraint is kGoodEquals, and DPRELAX keeps an
// erroneous-machine window only for kSiteDiffers constraints (the MSE
// slice of tests/test_relax_replay.cpp runs them). Headlines: the
// (decisions + backtracks) reduction engine-on vs engine-off, the DPTRACE
// expansion reduction and the nogood-probe reduction reuse-on vs reuse-off.
// The benchmark also asserts that every configuration detects the *same*
// errors with the *same* emitted tests - the solver and the reuse layers
// are pure search accelerators, never a behaviour change - and exits
// nonzero on divergence.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tg.h"
#include "isa/testcase_io.h"
#include "sim/cosim.h"
#include "solver/store.h"

using namespace hltg;

namespace {

struct RunStats {
  std::vector<double> seconds;     ///< per-error wall time
  std::vector<std::string> tests;  ///< per-error emitted test; "" = none
  std::size_t detected_count = 0;
  Effort effort;
  double total_seconds = 0;

  double percentile(double p) const {
    if (seconds.empty()) return 0;
    std::vector<double> s = seconds;
    std::sort(s.begin(), s.end());
    const std::size_t i = static_cast<std::size_t>(p * (s.size() - 1) + 0.5);
    return s[std::min(i, s.size() - 1)];
  }
  double cache_hit_rate() const {
    return effort.cache_lookups
               ? static_cast<double>(effort.cache_hits) / effort.cache_lookups
               : 0;
  }
};

void fold(RunStats* out, const TgResult& r, double s) {
  out->seconds.push_back(s);
  out->total_seconds += s;
  out->tests.push_back(
      r.status == TgStatus::kSuccess ? serialize_test(r.test) : "");
  out->detected_count += r.status == TgStatus::kSuccess;
  out->effort += r.stats;
}

/// One generator over the whole population. `warm` (optional) is imported
/// before the first error; `out_snap` (optional) receives the final
/// deduction snapshot - together they model the persisted-store warm start.
RunStats run(const DlxModel& m, const std::vector<DesignError>& errors,
             const TgConfig& cfg, const DedSnapshot* warm = nullptr,
             DedSnapshot* out_snap = nullptr) {
  TestGenerator tg(m, cfg);
  if (warm) import_context(*warm, &tg.solver_context());
  RunStats out;
  for (const DesignError& err : errors) {
    const auto t0 = std::chrono::steady_clock::now();
    const TgResult r = tg.generate(err);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    fold(&out, r, s);
  }
  if (out_snap) *out_snap = export_context(tg.solver_context());
  return out;
}

/// `lanes` independent campaign-scope generators, error i on lane
/// i % lanes - the shards of a multi-worker campaign, interleaved on one
/// thread.
RunStats run_sharded(const DlxModel& m, const std::vector<DesignError>& errors,
                     TgConfig cfg, unsigned lanes) {
  cfg.solver.scope = SolverScope::kCampaign;
  std::vector<std::unique_ptr<TestGenerator>> gens;
  for (unsigned i = 0; i < lanes; ++i)
    gens.push_back(std::make_unique<TestGenerator>(m, cfg));
  RunStats out;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const TgResult r = gens[i % lanes]->generate(errors[i]);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    fold(&out, r, s);
  }
  return out;
}

void emit(std::FILE* f, const char* name, const RunStats& r) {
  std::fprintf(f,
               "  \"%s\": {\"seconds\": %.4f, \"per_error_p50\": %.6f, "
               "\"per_error_p95\": %.6f, \"detected\": %zu",
               name, r.total_seconds, r.percentile(0.50), r.percentile(0.95),
               r.detected_count);
  for (const EffortField& e : kEffortFields)
    std::fprintf(f, ", \"%s\": %llu", e.key,
                 static_cast<unsigned long long>(r.effort.*e.member));
  std::fprintf(f, ", \"cache_hit_rate\": %.4f}", r.cache_hit_rate());
}

/// One stdout line per configuration: wall time, detections, every counter.
void summarize(const char* name, const RunStats& r) {
  std::printf("%-14s: %.2fs, %zu detected", name, r.total_seconds,
              r.detected_count);
  for (const EffortField& e : kEffortFields)
    std::printf(", %s %llu", e.key,
                static_cast<unsigned long long>(r.effort.*e.member));
  std::printf("\n");
}

double ratio(std::uint64_t base, std::uint64_t opt) {
  return opt > 0 ? static_cast<double>(base) / static_cast<double>(opt) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_tg.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick"))
      quick = true;
    else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
      out_path = argv[++i];
    else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 1;
    }
  }

  const DlxModel m = build_dlx();
  std::vector<DesignError> errors = wrap(enumerate_bus_ssl(m.dp));
  if (quick && errors.size() > 64) errors.resize(64);
  std::printf("bench_solver: %zu Table-1 SSL errors\n", errors.size());

  TgConfig off_cfg;
  off_cfg.ctrljust.use_engine = false;
  off_cfg.trace.reuse = false;
  const RunStats off = run(m, errors, off_cfg);

  TgConfig noreuse_cfg;
  noreuse_cfg.trace.reuse = false;
  noreuse_cfg.solver.use_nogood_watches = false;
  const RunStats noreuse = run(m, errors, noreuse_cfg);

  const RunStats on = run(m, errors, TgConfig{});

  TgConfig campaign_cfg;
  campaign_cfg.solver.scope = SolverScope::kCampaign;
  DedSnapshot snapshot;
  const RunStats campaign = run(m, errors, campaign_cfg, nullptr, &snapshot);

  const RunStats warm = run(m, errors, campaign_cfg, &snapshot);

  const RunStats shard = run_sharded(m, errors, TgConfig{}, 4);

  const std::pair<const char*, const RunStats*> configs[] = {
      {"engine_off", &off},  {"no_reuse", &noreuse},
      {"engine_on", &on},    {"campaign_scope", &campaign},
      {"warm_start", &warm}, {"campaign_shard", &shard}};
  for (const auto& [name, stats] : configs) summarize(name, *stats);

  const Effort &e_off = off.effort, &e_on = on.effort,
               &e_noreuse = noreuse.effort;
  const double effort_reduction = ratio(e_off.decisions + e_off.backtracks,
                                        e_on.decisions + e_on.backtracks);
  const double expansion_reduction =
      ratio(e_noreuse.dptrace_expansions, e_on.dptrace_expansions);
  const double probe_reduction =
      ratio(e_noreuse.nogood_comparisons, e_on.nogood_comparisons);
  std::printf("search effort (decisions + backtracks): %llu -> %llu "
              "(%.2fx reduction)\n",
              static_cast<unsigned long long>(e_off.decisions +
                                              e_off.backtracks),
              static_cast<unsigned long long>(e_on.decisions +
                                              e_on.backtracks),
              effort_reduction);
  std::printf("DPTRACE expansions: %llu -> %llu (%.2fx reduction)\n",
              static_cast<unsigned long long>(e_noreuse.dptrace_expansions),
              static_cast<unsigned long long>(e_on.dptrace_expansions),
              expansion_reduction);
  std::printf("nogood literal probes: %llu -> %llu (%.2fx reduction)\n",
              static_cast<unsigned long long>(e_noreuse.nogood_comparisons),
              static_cast<unsigned long long>(e_on.nogood_comparisons),
              probe_reduction);

  const bool outcomes_identical =
      off.tests == on.tests && off.tests == noreuse.tests &&
      off.tests == campaign.tests && off.tests == warm.tests &&
      off.tests == shard.tests;
  if (!outcomes_identical)
    std::printf("ERROR: detections or emitted tests diverged between "
                "configurations\n");

  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"tg_solver\",\n"
               "  \"build_type\": \"%s\",\n"
               "  \"compiler\": \"%s\",\n"
               "  \"quick\": %s,\n"
               "  \"errors\": %zu,\n",
               HLTG_BUILD_TYPE, HLTG_COMPILER, quick ? "true" : "false",
               errors.size());
  for (const auto& [name, stats] : configs) {
    emit(f, name, *stats);
    std::fprintf(f, ",\n");
  }
  std::fprintf(f,
               "  \"effort_reduction\": %.3f,\n"
               "  \"expansion_reduction\": %.3f,\n"
               "  \"probe_reduction\": %.3f,\n"
               "  \"outcomes_identical\": %s\n"
               "}\n",
               effort_reduction, expansion_reduction, probe_reduction,
               outcomes_identical ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return outcomes_identical ? 0 : 2;
}
