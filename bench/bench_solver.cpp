// Solver-subsystem benchmark: the Table-1 bus-SSL error set generated under
// four configurations, emitted as a machine-readable JSON report
// (BENCH_tg.json) so CI can archive the numbers run over run and guard the
// hot-path counters against regressions (tools/check_bench.py).
//
//   engine_off     legacy pure-PODEM CTRLJUST, no DPTRACE reuse
//   no_reuse       engine on, but DPTRACE memo and nogood watches off -
//                  the hot paths before the reuse overhaul (the DPRELAX
//                  memo has no switch; at per-error scope it never hits)
//   engine_on      full defaults (per-error solver scope)
//   campaign_scope engine on with campaign-lifetime deduction reuse
//   warm_start     campaign scope warm-started from the deduction snapshot
//                  the campaign_scope pass exported (the persisted-store
//                  path of docs/ROBUSTNESS.md, minus the file I/O)
//   campaign_shard campaign scope split over 4 round-robin shards with a
//                  shared NogoodBoard, interleaved deterministically on one
//                  thread - the per-worker deduction state of a --jobs 4
//                  sharded campaign without scheduler noise
//
//   $ ./bench_solver [--quick] [--out BENCH_tg.json]
//
// Per configuration the report carries per-error wall-time p50/p95, the
// decision/backtrack/implication totals, DPTRACE expansion counts, nogood
// literal-probe counts and the cache hit rates. Headlines: the
// (decisions + backtracks) reduction engine-on vs engine-off, the DPTRACE
// expansion reduction and the nogood-probe reduction reuse-on vs reuse-off.
// The benchmark also asserts that every configuration detects the *same*
// errors - the solver and the reuse layers are pure search accelerators,
// never a behaviour change - and exits nonzero on divergence.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/tg.h"
#include "sim/cosim.h"
#include "solver/nogood_board.h"
#include "solver/store.h"

using namespace hltg;

namespace {

struct RunStats {
  std::vector<double> seconds;  ///< per-error wall time
  std::vector<bool> detected;   ///< per-error outcome
  std::size_t detected_count = 0;
  std::uint64_t decisions = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t implications = 0;
  std::uint64_t learned = 0;
  std::uint64_t nogood_hits = 0;
  std::uint64_t nogood_comparisons = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t dptrace_expansions = 0;
  std::uint64_t dptrace_searches = 0;
  std::uint64_t dptrace_reused = 0;
  std::uint64_t relax_hits = 0;
  std::uint64_t relax_lookups = 0;
  std::uint64_t relax_pair_captures = 0;
  double total_seconds = 0;

  double percentile(double p) const {
    if (seconds.empty()) return 0;
    std::vector<double> s = seconds;
    std::sort(s.begin(), s.end());
    const std::size_t i = static_cast<std::size_t>(p * (s.size() - 1) + 0.5);
    return s[std::min(i, s.size() - 1)];
  }
  double cache_hit_rate() const {
    return cache_lookups ? static_cast<double>(cache_hits) / cache_lookups : 0;
  }
};

void fold(RunStats* out, const TgResult& r, double s) {
  out->seconds.push_back(s);
  out->total_seconds += s;
  out->detected.push_back(r.status == TgStatus::kSuccess);
  out->detected_count += r.status == TgStatus::kSuccess;
  out->decisions += r.stats.decisions;
  out->backtracks += r.stats.backtracks + r.stats.plan_retries;
  out->implications += r.stats.implications;
  out->learned += r.stats.learned;
  out->nogood_hits += r.stats.nogood_hits;
  out->nogood_comparisons += r.stats.nogood_comparisons;
  out->cache_hits += r.stats.cache_hits;
  out->cache_lookups += r.stats.cache_lookups;
  out->dptrace_expansions += r.stats.dptrace_expansions;
  out->dptrace_searches += r.stats.dptrace_searches;
  out->dptrace_reused += r.stats.dptrace_reused;
  out->relax_hits += r.stats.relax_hits;
  out->relax_lookups += r.stats.relax_lookups;
  out->relax_pair_captures += r.stats.relax_pair_captures;
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

/// `lanes` campaign-scope generators sharing one NogoodBoard, error i on
/// lane i % lanes - a sharded multi-worker campaign interleaved
/// deterministically on one thread. The board sync runs inside generate(),
/// exactly as in the parallel engine.
RunStats run_sharded(const DlxModel& m, const std::vector<DesignError>& errors,
                     TgConfig cfg, unsigned lanes) {
  NogoodBoard board;
  cfg.solver.scope = SolverScope::kCampaign;
  cfg.solver.shared_board = &board;
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
  std::fprintf(
      f,
      "  \"%s\": {\"seconds\": %.4f, \"per_error_p50\": %.6f, "
      "\"per_error_p95\": %.6f, \"detected\": %zu, "
      "\"decisions\": %llu, \"backtracks\": %llu, "
      "\"implications\": %llu, \"learned\": %llu, "
      "\"nogood_hits\": %llu, \"nogood_comparisons\": %llu, "
      "\"cache_hits\": %llu, \"cache_lookups\": %llu, "
      "\"cache_hit_rate\": %.4f, \"dptrace_expansions\": %llu, "
      "\"dptrace_searches\": %llu, \"dptrace_reused\": %llu, "
      "\"relax_hits\": %llu, \"relax_lookups\": %llu, "
      "\"relax_pair_captures\": %llu}",
      name, r.total_seconds, r.percentile(0.50), r.percentile(0.95),
      r.detected_count, static_cast<unsigned long long>(r.decisions),
      static_cast<unsigned long long>(r.backtracks),
      static_cast<unsigned long long>(r.implications),
      static_cast<unsigned long long>(r.learned),
      static_cast<unsigned long long>(r.nogood_hits),
      static_cast<unsigned long long>(r.nogood_comparisons),
      static_cast<unsigned long long>(r.cache_hits),
      static_cast<unsigned long long>(r.cache_lookups), r.cache_hit_rate(),
      static_cast<unsigned long long>(r.dptrace_expansions),
      static_cast<unsigned long long>(r.dptrace_searches),
      static_cast<unsigned long long>(r.dptrace_reused),
      static_cast<unsigned long long>(r.relax_hits),
      static_cast<unsigned long long>(r.relax_lookups),
      static_cast<unsigned long long>(r.relax_pair_captures));
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
  off_cfg.solver.enable = false;
  off_cfg.trace.reuse = false;
  const RunStats off = run(m, errors, off_cfg);
  std::printf("engine off    : %.2fs, %zu detected, %llu decisions, "
              "%llu backtracks, %llu expansions\n",
              off.total_seconds, off.detected_count,
              static_cast<unsigned long long>(off.decisions),
              static_cast<unsigned long long>(off.backtracks),
              static_cast<unsigned long long>(off.dptrace_expansions));

  TgConfig noreuse_cfg;
  noreuse_cfg.trace.reuse = false;
  noreuse_cfg.solver.use_nogood_watches = false;
  const RunStats noreuse = run(m, errors, noreuse_cfg);
  std::printf("no reuse      : %.2fs, %zu detected, %llu expansions, "
              "%llu nogood probes\n",
              noreuse.total_seconds, noreuse.detected_count,
              static_cast<unsigned long long>(noreuse.dptrace_expansions),
              static_cast<unsigned long long>(noreuse.nogood_comparisons));

  const RunStats on = run(m, errors, TgConfig{});
  std::printf("engine on     : %.2fs, %zu detected, %llu decisions, "
              "%llu backtracks, %llu forced, %llu nogoods (%llu fired), "
              "cache %.0f%% of %llu lookups, %llu expansions "
              "(%llu/%llu searches reused), %llu nogood probes\n",
              on.total_seconds, on.detected_count,
              static_cast<unsigned long long>(on.decisions),
              static_cast<unsigned long long>(on.backtracks),
              static_cast<unsigned long long>(on.implications),
              static_cast<unsigned long long>(on.learned),
              static_cast<unsigned long long>(on.nogood_hits),
              100.0 * on.cache_hit_rate(),
              static_cast<unsigned long long>(on.cache_lookups),
              static_cast<unsigned long long>(on.dptrace_expansions),
              static_cast<unsigned long long>(on.dptrace_reused),
              static_cast<unsigned long long>(on.dptrace_searches +
                                              on.dptrace_reused),
              static_cast<unsigned long long>(on.nogood_comparisons));

  TgConfig campaign_cfg;
  campaign_cfg.solver.scope = SolverScope::kCampaign;
  DedSnapshot snapshot;
  const RunStats campaign = run(m, errors, campaign_cfg, nullptr, &snapshot);
  std::printf("campaign scope: %.2fs, %zu detected, cache %.0f%% of %llu "
              "lookups, %llu relax replays of %llu\n",
              campaign.total_seconds, campaign.detected_count,
              100.0 * campaign.cache_hit_rate(),
              static_cast<unsigned long long>(campaign.cache_lookups),
              static_cast<unsigned long long>(campaign.relax_hits),
              static_cast<unsigned long long>(campaign.relax_lookups));

  const RunStats warm = run(m, errors, campaign_cfg, &snapshot);
  std::printf("warm start    : %.2fs, %zu detected, cache %.0f%% of %llu "
              "lookups, %llu relax replays of %llu (%zu deductions "
              "carried in)\n",
              warm.total_seconds, warm.detected_count,
              100.0 * warm.cache_hit_rate(),
              static_cast<unsigned long long>(warm.cache_lookups),
              static_cast<unsigned long long>(warm.relax_hits),
              static_cast<unsigned long long>(warm.relax_lookups),
              snapshot.entries());

  const RunStats shard = run_sharded(m, errors, TgConfig{}, 4);
  std::printf("campaign shard: %.2fs, %zu detected, %llu nogoods learned, "
              "cache %.0f%% of %llu lookups (4 lanes, shared board)\n",
              shard.total_seconds, shard.detected_count,
              static_cast<unsigned long long>(shard.learned),
              100.0 * shard.cache_hit_rate(),
              static_cast<unsigned long long>(shard.cache_lookups));

  const double effort_reduction =
      ratio(off.decisions + off.backtracks, on.decisions + on.backtracks);
  const double expansion_reduction =
      ratio(noreuse.dptrace_expansions, on.dptrace_expansions);
  const double probe_reduction =
      ratio(noreuse.nogood_comparisons, on.nogood_comparisons);
  std::printf("search effort (decisions + backtracks): %llu -> %llu "
              "(%.2fx reduction)\n",
              static_cast<unsigned long long>(off.decisions + off.backtracks),
              static_cast<unsigned long long>(on.decisions + on.backtracks),
              effort_reduction);
  std::printf("DPTRACE expansions: %llu -> %llu (%.2fx reduction)\n",
              static_cast<unsigned long long>(noreuse.dptrace_expansions),
              static_cast<unsigned long long>(on.dptrace_expansions),
              expansion_reduction);
  std::printf("nogood literal probes: %llu -> %llu (%.2fx reduction)\n",
              static_cast<unsigned long long>(noreuse.nogood_comparisons),
              static_cast<unsigned long long>(on.nogood_comparisons),
              probe_reduction);

  const bool outcomes_identical = off.detected == on.detected &&
                                  off.detected == noreuse.detected &&
                                  off.detected == campaign.detected &&
                                  off.detected == warm.detected &&
                                  off.detected == shard.detected;
  if (!outcomes_identical)
    std::printf("ERROR: detection outcomes diverged between configurations\n");

  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"tg_solver\",\n"
               "  \"quick\": %s,\n"
               "  \"errors\": %zu,\n",
               quick ? "true" : "false", errors.size());
  emit(f, "engine_off", off);
  std::fprintf(f, ",\n");
  emit(f, "no_reuse", noreuse);
  std::fprintf(f, ",\n");
  emit(f, "engine_on", on);
  std::fprintf(f, ",\n");
  emit(f, "campaign_scope", campaign);
  std::fprintf(f, ",\n");
  emit(f, "warm_start", warm);
  std::fprintf(f, ",\n");
  emit(f, "campaign_shard", shard);
  std::fprintf(f,
               ",\n"
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
