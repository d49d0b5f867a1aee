// Error campaign: run the generator over a configurable error population
// and print the Table-1 style summary plus per-error outcomes.
// `error_campaign --help` prints the flag synopsis (kUsage below).
//
// The campaign flags (--model, --stages, the budget caps, --fallback,
// --solver, --solver-scope, --drop, --jobs) go through the parser
// tg_client uses into a RequestSpec; plan_request validates it and
// run_campaign_plan runs it, exactly as the tg_server daemon does.
//
// Resilience controls (docs/ROBUSTNESS.md): --deadline-ms / --max-* arm a
// per-error budget (0 = no cap); --fallback retries budget-exhausted
// errors with the biased-random baseline generator; --journal checkpoints
// one fsync'd JSONL row per error so an interrupted run restarted with
// --resume reproduces the identical summary; Ctrl-C (or SIGTERM) cancels
// cooperatively (the current error finishes and is journaled before the
// partial summary prints).
//
// Self-checking controls (docs/ROBUSTNESS.md "Self-checking and triage"):
// --verify-witness re-validates every detection claim through an
// independent scalar cosimulation; a refuted claim is retried once with the
// opposite --solver setting and, failing that, lands in the claim_mismatch
// bucket (exit status 2). --minimize delta-debugs each mismatching witness;
// --quarantine-dir writes one diagnostic bundle per incident. The --replay
// mode re-runs one saved testcase through the oracle and exits 0 iff the
// verdict matches --expect - it is the repro command each bundle ships.
//
// Performance controls (docs/PERFORMANCE.md): --jobs N runs the generator
// on N worker threads (identical summary for any N); --drop error-simulates
// each generated test against all remaining errors with the bit-parallel
// batch simulator and drops the fortuitously detected ones. The two are
// mutually exclusive (dropping is inherently sequential: each drop pass
// depends on the tests kept so far). The batch simulator packs up to 512
// errors per pass on every host.
//
// --solver off runs the same CTRLJUST search loop with no implication
// engine attached (docs/SOLVER.md): no nogood learning, justification cache
// or DPRELAX memo. Detection outcomes and emitted tests are identical
// either way; only the effort counters differ.
//
// --solver-scope campaign keeps the learned nogoods, justification cache
// and DPRELAX memo alive across the whole error population instead of
// resetting them per error (docs/SOLVER.md has the determinism argument:
// outcomes, witnesses and emitted tests stay identical to error scope;
// effort counters drop - that is the reuse). With --jobs > 1 the engine
// shards errors round-robin per worker and each worker keeps its own
// deduction state. Outcomes, witnesses and emitted tests stay the same for
// any N; the effort counters and a --store file depend on N, because N
// decides which errors each worker has seen, but repeat run over run.
//
// --store FILE persists the campaign-scope deduction state across process
// lifetimes (docs/ROBUSTNESS.md "Persisted deduction store"): loaded -
// after a design-hash/config-hash validation - before the campaign for a
// warm start, saved atomically after it. Requires --solver-scope campaign
// and --solver on: with the engine off there is nothing to persist.
// --failpoints SPEC (or HLTG_FAILPOINTS in the environment) arms the I/O
// fault-injection harness for crash-recovery testing; see
// src/util/failpoint.h for the grammar.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "errors/report.h"
#include "isa/testcase_io.h"
#include "service/service.h"
#include "solver/store.h"
#include "triage/triage.h"
#include "triage/witness_check.h"
#include "util/failpoint.h"
#include "util/table.h"

using namespace hltg;

namespace {

constexpr const char* kUsage =
    "usage: error_campaign [--stages EX,MEM,WB] [--model ssl|mse|boe|bse]\n"
    "                      [-v] [--csv out.csv] [--save-tests dir]\n"
    "                      [--deadline-ms N] [--max-backtracks N]\n"
    "                      [--max-decisions N] [--fallback [tries]]\n"
    "                      [--journal file.jsonl] [--jobs N] [--drop]\n"
    "                      [--resume | --resume=strict] [--solver on|off]\n"
    "                      [--solver-scope error|campaign] [--store file.ded]\n"
    "                      [--failpoints SPEC] [--verify-witness]\n"
    "                      [--minimize] [--quarantine-dir D]\n"
    "       error_campaign [--stages ...] [--model ...] --replay test.txt\n"
    "                      --replay-error N --expect detected|undetected\n"
    "       error_campaign -h | --help\n";

CancelToken g_cancel;
extern "C" void on_sigint(int) { g_cancel.request_stop(); }

/// A zero-length store file (e.g. just created by the writability probe)
/// is a cold start, not a load candidate.
bool nonempty_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  std::fclose(f);
  return n > 0;
}

/// Bundle repro mode: replay one saved testcase through the independent
/// oracle and compare against the expected verdict. Exit 0 iff reproduced.
int run_replay(const DlxModel& m, const std::vector<DesignError>& errors,
               const std::string& test_path, std::size_t error_index,
               bool expect_detected) {
  if (error_index >= errors.size()) {
    std::fprintf(stderr, "--replay-error %zu out of range (population has "
                 "%zu errors; same --model/--stages as the campaign?)\n",
                 error_index, errors.size());
    return 1;
  }
  const TestLoadResult loaded = load_test(test_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", test_path.c_str(),
                 loaded.error.c_str());
    return 1;
  }
  const DesignError& err = errors[error_index];
  const WitnessCheck chk =
      check_witness(m, loaded.test, err, expect_detected);
  std::printf("error %zu: %s\nexpected %s: %s (%s)\n", error_index,
              err.describe(m.dp).c_str(),
              expect_detected ? "detected" : "undetected",
              chk.verdict == WitnessVerdict::kConfirmed ? "REPRODUCED"
                                                        : "NOT reproduced",
              chk.note.c_str());
  return chk.verdict == WitnessVerdict::kConfirmed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RequestSpec spec;  // what the campaign computes
  CampaignConfig ccfg;  // how it is watched and stopped
  std::string csv_path, save_dir;
  bool verify_witness = false;
  bool minimize = false;
  std::string quarantine_dir;
  std::string store_path, failpoint_spec;
  std::string replay_path, expect;
  std::size_t replay_error = 0;
  bool have_replay_error = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag_error;
    if (parse_request_flag(argc, argv, &i, &spec, &flag_error)) {
      if (!flag_error.empty()) {
        std::fprintf(stderr, "%s\n", flag_error.c_str());
        return 1;
      }
    } else if (!std::strcmp(argv[i], "--csv") && i + 1 < argc)
      csv_path = argv[++i];
    else if (!std::strcmp(argv[i], "--save-tests") && i + 1 < argc)
      save_dir = argv[++i];
    else if (!std::strcmp(argv[i], "--journal") && i + 1 < argc)
      ccfg.journal_path = argv[++i];
    else if (!std::strcmp(argv[i], "--resume"))
      ccfg.resume = true;
    else if (!std::strcmp(argv[i], "--resume=strict")) {
      ccfg.resume = true;
      ccfg.resume_strict = true;
    }
    else if (!std::strcmp(argv[i], "--store") && i + 1 < argc)
      store_path = argv[++i];
    else if (!std::strcmp(argv[i], "--failpoints") && i + 1 < argc)
      failpoint_spec = argv[++i];
    else if (!std::strcmp(argv[i], "--verify-witness"))
      verify_witness = true;
    else if (!std::strcmp(argv[i], "--minimize"))
      minimize = true;
    else if (!std::strcmp(argv[i], "--quarantine-dir") && i + 1 < argc)
      quarantine_dir = argv[++i];
    else if (!std::strcmp(argv[i], "--replay") && i + 1 < argc)
      replay_path = argv[++i];
    else if (!std::strcmp(argv[i], "--replay-error") && i + 1 < argc) {
      replay_error = static_cast<std::size_t>(std::atoll(argv[++i]));
      have_replay_error = true;
    } else if (!std::strcmp(argv[i], "--expect") && i + 1 < argc)
      expect = argv[++i];
    else if (!std::strcmp(argv[i], "-v"))
      ccfg.verbose = true;
    else if (!std::strcmp(argv[i], "-h") || !std::strcmp(argv[i], "--help")) {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 1;
    }
  }
  if (ccfg.resume && ccfg.journal_path.empty()) {
    std::fprintf(stderr, "--resume requires --journal\n");
    return 1;
  }
  if (!store_path.empty() && spec.solver_scope != "campaign") {
    std::fprintf(stderr, "--store requires --solver-scope campaign (a "
                 "per-error-scope context has nothing to persist)\n");
    return 1;
  }
  if (!store_path.empty() && !spec.solver) {
    std::fprintf(stderr, "--store requires --solver on (with --solver off "
                 "the campaign deduces nothing to persist)\n");
    return 1;
  }
  if (!replay_path.empty() &&
      (!have_replay_error || (expect != "detected" && expect != "undetected"))) {
    std::fprintf(stderr, "--replay requires --replay-error N and "
                 "--expect detected|undetected\n");
    return 1;
  }
  // Minimization and quarantine are refinements of the cross-check.
  if (minimize || !quarantine_dir.empty()) verify_witness = true;

  // Arm the I/O fault-injection harness (zero-cost when unused).
  failpoint::configure_from_env();
  if (!failpoint_spec.empty()) {
    std::string fperr;
    if (!failpoint::configure(failpoint_spec, &fperr)) {
      std::fprintf(stderr, "--failpoints: %s\n", fperr.c_str());
      return 1;
    }
  }

  // Fail fast on unwritable output paths: a campaign that runs for an hour
  // and then cannot journal, persist, quarantine or write its results
  // wasted the hour. The store's prior size is recorded BEFORE the probe
  // (the probe leaves an empty file behind when the path was absent).
  const bool store_existed = !store_path.empty() && nonempty_file(store_path);
  std::string why;
  if (!ccfg.journal_path.empty() &&
      !probe_writable_file(ccfg.journal_path, &why)) {
    std::fprintf(stderr, "--journal %s: %s\n", ccfg.journal_path.c_str(),
                 why.c_str());
    return 1;
  }
  if (!store_path.empty() && !probe_writable_file(store_path, &why)) {
    std::fprintf(stderr, "--store %s: %s\n", store_path.c_str(), why.c_str());
    return 1;
  }
  if (!quarantine_dir.empty() && !probe_writable_dir(quarantine_dir, &why)) {
    std::fprintf(stderr, "--quarantine-dir %s: %s\n", quarantine_dir.c_str(),
                 why.c_str());
    return 1;
  }
  if (!csv_path.empty() && !probe_writable_file(csv_path, &why)) {
    std::fprintf(stderr, "--csv %s: %s\n", csv_path.c_str(), why.c_str());
    return 1;
  }
  if (!save_dir.empty() && !probe_writable_dir(save_dir, &why)) {
    std::fprintf(stderr, "--save-tests %s: %s\n", save_dir.c_str(),
                 why.c_str());
    return 1;
  }

  const DlxModel m = build_dlx();
  const RequestPlan plan = plan_request(m, spec);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.error.c_str());
    return 1;
  }
  if (!replay_path.empty())
    return run_replay(m, plan.errors, replay_path, replay_error,
                      expect == "detected");
  std::printf("error model %s, %zu errors\n", spec.model.c_str(),
              plan.errors.size());

  std::signal(SIGINT, on_sigint);
  std::signal(SIGTERM, on_sigint);  // orchestrators kill politely too
  ccfg.cancel = &g_cancel;
  ccfg.budget.cancel = &g_cancel;

  // Warm start: load the persisted deduction store, validated against the
  // plan's provenance stamps (the same ones the journal header records). A
  // missing or empty file is a cold start; a mismatched or unreadable one
  // is a hard error - silently searching cold after the user asked for a
  // warm start would hide the problem.
  DedSnapshot warm;
  if (!store_path.empty() && store_existed) {
    DedStoreLoad load =
        load_ded_store(store_path, plan.design_hash, plan.config_hash);
    if (!load.ok) {
      std::fprintf(stderr, "--store %s: %s\n", store_path.c_str(),
                   load.note.c_str());
      return 1;
    }
    warm = std::move(load.snapshot);
    std::printf("store: warm start, %zu deductions from %s%s%s\n",
                warm.entries(), store_path.c_str(),
                load.note.empty() ? "" : " - ",
                load.note.c_str());
  }

  if (verify_witness) {
    TriageOptions topt;
    topt.verify = true;
    topt.minimize = minimize;
    topt.quarantine_dir = quarantine_dir;
    topt.repro_flags = "--model " + spec.model + " --stages " + spec.stages;
    topt.cross_config = plan.tgcfg;
    topt.cross_config.ctrljust.use_engine = !spec.solver;  // the other search
    ccfg.triage = make_triage(m, topt);
  }

  const bool persist = !store_path.empty();
  DedSnapshot saved;  // merged deduction state persisted after the campaign
  const CampaignResult res = run_campaign_plan(
      m, plan, ccfg, &warm, persist ? &saved : nullptr);
  if (plan.jobs > 1) std::printf("ran on %u worker threads\n", plan.jobs);
  if (res.resume_refused) {
    std::fprintf(stderr, "journal: %s\n", res.journal_note.c_str());
    return 1;
  }
  if (persist) {
    DedStoreMeta meta;
    meta.design_hash = plan.design_hash;
    meta.config_hash = plan.config_hash;
    std::string swhy;
    if (save_ded_store(store_path, meta, saved, &swhy))
      std::printf("store: saved %zu deductions to %s\n", saved.entries(),
                  store_path.c_str());
    else
      std::fprintf(stderr, "store: save failed: %s (next run starts cold)\n",
                   swhy.c_str());
  }
  if (plan.drop)
    std::printf("dropping: kept %zu tests, dropped %zu errors (%.2f s error "
                "simulation)\n",
                res.tests_kept, res.dropped, res.dropping_seconds);
  if (!res.journal_note.empty())
    std::fprintf(stderr, "journal: %s\n", res.journal_note.c_str());
  if (res.resumed_rows > 0)
    std::printf("resumed %zu journaled errors, ran %zu\n", res.resumed_rows,
                res.stats.attempted - res.resumed_rows);
  else if (ccfg.resume)
    // --resume that replayed nothing means the checkpoint was not actually
    // used - most often a typo'd path. Loud, because the run silently
    // repeated all the work the journal was supposed to save.
    std::fprintf(stderr,
                 "WARNING: --resume replayed no journaled rows (%s); the "
                 "campaign started fresh. Use --resume=strict to make this "
                 "an error.\n",
                 res.journal_note.empty() ? "journal was empty"
                                          : res.journal_note.c_str());
  if (res.interrupted)
    std::printf("interrupted after %zu of %zu errors (journal is "
                "resumable)\n",
                res.stats.attempted, res.stats.total);
  // Verification chatter goes to stderr: the stdout summary of a
  // mismatch-free verified run is byte-identical to an unverified one.
  if (verify_witness) {
    std::fprintf(stderr,
                 "verify: %zu claims confirmed, %zu mismatches, %zu oracle "
                 "errors, %zu recovered, %zu drop claims refuted\n",
                 res.stats.verify_confirmed, res.stats.claim_mismatch,
                 res.stats.oracle_errors, res.stats.verify_recovered,
                 res.stats.drop_mismatches);
    for (const std::string& note : res.incident_notes)
      std::fprintf(stderr, "incident: %s\n", note.c_str());
  }
  std::printf("%s\n", res.stats.table1("campaign summary").c_str());

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    out << campaign_csv(m.dp, res);
    out.close();
    if (!out) {
      std::fprintf(stderr, "--csv %s: write failed\n", csv_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", csv_path.c_str());
  }
  if (!save_dir.empty()) {
    unsigned saved = 0;
    for (std::size_t i = 0; i < res.rows.size(); ++i) {
      const ErrorAttempt& a = res.rows[i].attempt;
      if (!a.detected()) continue;
      const std::string path =
          save_dir + "/test_" + std::to_string(i) + ".txt";
      if (!save_test(a.test, path)) {
        std::fprintf(stderr, "--save-tests: cannot write %s\n", path.c_str());
        return 1;
      }
      ++saved;
    }
    std::printf("saved %u tests to %s/\n", saved, save_dir.c_str());
  }

  // Post-mortem on the undetected errors: the generator's redundancy
  // screen (constant or unobservable line) already marked the provably
  // undetectable ones; the rest are generator give-ups and budget aborts.
  if (spec.model == "ssl" && !res.interrupted) {
    std::printf("undetected errors:\n");
    for (const CampaignRow& row : res.rows) {
      const ErrorAttempt& a = row.attempt;
      if (a.detected()) continue;
      std::string why = a.abort == AbortReason::kNone
                            ? "generator gave up"
                            : "aborted: " + std::string(to_string(a.abort));
      if (a.outcome() == AttemptOutcome::kClaimMismatch)
        why = "quarantined: claim mismatch";
      else if (a.outcome() == AttemptOutcome::kProvenRedundant)
        why = "provably undetectable";
      std::printf("  %-44s %s\n", row.error.describe(m.dp).c_str(),
                  why.c_str());
    }
    std::printf("%zu of %zu undetected errors are provably undetectable\n",
                res.stats.proven_redundant,
                res.stats.aborted + res.stats.proven_redundant);
  }
  if (res.interrupted) return 130;
  // A claim mismatch means the campaign's own bookkeeping disagreed with
  // the independent oracle: fail loudly so CI surfaces the quarantine.
  if (res.stats.claim_mismatch > 0) return 2;
  return 0;
}
