// Compatibility with artifacts written before batched decision probing was
// removed: configuration hashes (journal and deduction-store stamps, service
// cache keys) and the other FNV fingerprints keep their values, journal
// rows keep their byte format and those that carry the old probe_* keys
// still replay, and the removed CLI flags are rejected by the campaign CLI
// and the daemon client. The campaign CLI also reads its request flags the
// way the daemon does (service/request.h), and refuses --csv / --save-tests
// paths it cannot write instead of reporting them written.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "core/tg.h"
#include "dlx/dlx.h"
#include "errors/bus_ssl.h"
#include "errors/inject.h"
#include "errors/journal.h"
#include "service/request.h"
#include "solver/lit.h"
#include "solver/relax_cache.h"
#include "util/fnv.h"

namespace hltg {
namespace {

// ------------------------------------------------------- config hashes

// Pinned values: a change here silently orphans every journal, deduction
// store and service cache entry stamped with the old hash.
TEST(ConfigHashCompat, DefaultConfigHashIsPinned) {
  EXPECT_EQ(tg_config_hash(TgConfig{}), 0xb8e480e2905e85b7ull);
}

TEST(ConfigHashCompat, SolverOffHashIsPinned) {
  TgConfig cfg;
  cfg.ctrljust.use_engine = false;
  EXPECT_EQ(tg_config_hash(cfg), 0x99e9b9d9856f3b96ull);
}

TEST(ConfigHashCompat, CampaignScopeHashIsPinned) {
  // Scope is deliberately not mixed: outcomes are scope-invariant.
  TgConfig cfg;
  cfg.solver.scope = SolverScope::kCampaign;
  EXPECT_EQ(tg_config_hash(cfg), 0xb8e480e2905e85b7ull);
}

// ---------------------------------------------------------- FNV hashes

// Every fingerprint and index hash goes through util/fnv.h. These values
// were computed by the hand-written copies it replaced; journals, .ded
// stores and service cache file names carry them.
TEST(FnvCompat, HelperIsFnv1a) {
  Fnv1a f(kFnvOffsetBasis);
  f.bytes("a");
  EXPECT_EQ(f.h, 0xaf63dc4c8601ec8cull);  // the published FNV-1a vector
  EXPECT_EQ(kFnvOffsetBasis, 14695981039346656037ull);
  EXPECT_EQ(kFnvTruncatedBasis, kFnvOffsetBasis / 10);
}

TEST(FnvCompat, SolverIndexHashesArePinned) {
  EXPECT_EQ(hash_lits({}), kFnvOffsetBasis);
  EXPECT_EQ(hash_lits({{3, 0, true}, {17, 2, false}, {250, 9, true}}),
            0x15a96d239e596d9bull);
  RelaxCache::Key k;
  k.words = {0, 1, 0xDEADBEEFull, ~0ull, 42};
  EXPECT_EQ(RelaxCache::hash_key(k), 0xba86916dccbb1dacull);
}

TEST(FnvCompat, DesignHashAndFingerprintArePinned) {
  const DlxModel m = build_dlx();
  EXPECT_EQ(tg_design_hash(m), 0x70309c35835d6a23ull);
  const std::vector<DesignError> errors = wrap(enumerate_bus_ssl(m.dp));
  ASSERT_EQ(errors.size(), 228u);
  EXPECT_EQ(campaign_fingerprint(m.dp, errors), 0xb92005bb80a13fe8ull);
  // The cache keys mix the row format: payloads cached before rows could
  // read proven_redundant hash elsewhere and are never served.
  EXPECT_EQ(plan_request(m, RequestSpec{}).cache_key, "5c94d955b42b4e71");
  RequestSpec off;
  off.solver = false;
  off.stages = "EX";
  EXPECT_EQ(plan_request(m, off).cache_key, "eb9e404c885349c0");
}

// ------------------------------------------------------------- journal

ErrorAttempt detected_attempt() {
  ErrorAttempt a;
  a.generated = a.sim_confirmed = true;
  a.test_length = 4;
  a.backtracks = 2;
  a.decisions = 7;
  a.implications = 11;
  a.learned = 1;
  a.nogood_hits = 3;
  a.cache_hits = 1;
  a.dptrace_ns = 100;
  a.ctrljust_ns = 200;
  a.dprelax_ns = 300;
  a.seconds = 0.5;
  a.note = "n";
  a.test.imem = {0x20220007u, 0x00000000u};
  a.test.rf_init[2] = 42;
  return a;
}

TEST(ProbeJournal, RowsWithoutProbeFieldsStayByteIdenticalAndReplay) {
  // The bytes a probe-off run wrote for this row: rows keep that format and
  // replay to it.
  ErrorAttempt off;
  off.generated = off.sim_confirmed = true;
  off.test_length = 4;
  off.decisions = 7;
  const std::string line = journal_row_line(0, off);
  EXPECT_EQ(
      line,
      R"({"index":0,"generated":true,"sim_confirmed":true,"test_length":4,)"
      R"("backtracks":0,"decisions":7,"implications":0,"learned":0,)"
      R"("nogood_hits":0,"cache_hits":0,"seconds":0,"abort":"none",)"
      R"("via_fallback":false,"note":"","test":"# hltg verification test\n"})");

  const std::string path = testing::TempDir() + "hltg_probe_journal.jsonl";
  {
    std::ofstream f(path, std::ios::trunc);
    f << journal_header_line(1, 42) << "\n" << line << "\n";
  }
  const JournalReplay rep = load_journal(path);
  std::remove(path.c_str());
  ASSERT_TRUE(rep.header_ok);
  ASSERT_EQ(rep.rows.size(), 1u);
  EXPECT_EQ(journal_row_line(0, rep.rows.at(0)), line);
}

TEST(JournalCompat, RowWithLegacyProbeKeysReplaysWithOtherFieldsIntact) {
  const ErrorAttempt a = detected_attempt();
  const std::string line = journal_row_line(0, a);
  EXPECT_EQ(line.find("probe"), std::string::npos);

  // The layout a probing run wrote: four probe_* counters right after the
  // phase timings.
  std::string probe_keys;
  for (const char* k : {"ns", "batches", "lanes", "prunes"})
    probe_keys += ",\"probe_" + std::string(k) + "\":7";
  std::string legacy = line;
  const std::string anchor = "\"dprelax_ns\":300";
  const std::size_t at = legacy.find(anchor);
  ASSERT_NE(at, std::string::npos);
  legacy.insert(at + anchor.size(), probe_keys);

  const std::string path = testing::TempDir() + "hltg_compat_journal.jsonl";
  {
    std::ofstream f(path, std::ios::trunc);
    f << journal_header_line(1, 42) << "\n" << legacy << "\n";
  }
  const JournalReplay rep = load_journal(path);
  std::remove(path.c_str());
  ASSERT_TRUE(rep.header_ok);
  ASSERT_EQ(rep.rows.size(), 1u);
  const ErrorAttempt& r = rep.rows.at(0);
  EXPECT_TRUE(r.detected());
  EXPECT_EQ(r.test_length, a.test_length);
  EXPECT_EQ(r.backtracks, a.backtracks);
  EXPECT_EQ(r.decisions, a.decisions);
  EXPECT_EQ(r.implications, a.implications);
  EXPECT_EQ(r.learned, a.learned);
  EXPECT_EQ(r.nogood_hits, a.nogood_hits);
  EXPECT_EQ(r.cache_hits, a.cache_hits);
  EXPECT_EQ(r.dptrace_ns, a.dptrace_ns);
  EXPECT_EQ(r.ctrljust_ns, a.ctrljust_ns);
  EXPECT_EQ(r.dprelax_ns, a.dprelax_ns);
  EXPECT_EQ(r.test.imem, a.test.imem);
  EXPECT_EQ(r.test.rf_init, a.test.rf_init);
  // Re-encoding drops only the probe keys.
  EXPECT_EQ(journal_row_line(0, r), line);
}

TEST(JournalCompat, ProvenRedundantRowRoundTripsAndOldRowsReplayAsAborted) {
  // The screen's row carries the field; every other row keeps its bytes,
  // so the same row without it (as a journal written before the screen
  // recorded it) replays as an aborted give-up.
  ErrorAttempt red;
  red.note = "proven redundant: unobservable line";
  red.proven_redundant = true;
  const std::string line = journal_row_line(3, red);
  EXPECT_EQ(
      line,
      R"({"index":3,"generated":false,"sim_confirmed":false,"test_length":0,)"
      R"("backtracks":0,"decisions":0,"implications":0,"learned":0,)"
      R"("nogood_hits":0,"cache_hits":0,"seconds":0,"abort":"none",)"
      R"("via_fallback":false,"note":"proven redundant: unobservable line",)"
      R"("proven_redundant":true})");
  ErrorAttempt gave_up;  // the row without the screen's verdict
  gave_up.note = red.note;
  std::string old_row = line;
  old_row.erase(old_row.find(R"(,"proven_redundant":true)"));
  old_row += "}";
  EXPECT_EQ(journal_row_line(3, gave_up), old_row);

  const std::string path =
      testing::TempDir() + "hltg_redundant_journal.jsonl";
  {
    std::ofstream f(path, std::ios::trunc);
    f << journal_header_line(5, 42) << "\n" << line << "\n";
    f << R"({"index":4)" << old_row.substr(old_row.find(',')) << "\n";
  }
  const JournalReplay rep = load_journal(path);
  std::remove(path.c_str());
  ASSERT_EQ(rep.rows.size(), 2u);
  EXPECT_EQ(rep.rows.at(3).outcome(), AttemptOutcome::kProvenRedundant);
  EXPECT_EQ(journal_row_line(3, rep.rows.at(3)), line);
  EXPECT_EQ(rep.rows.at(4).outcome(), AttemptOutcome::kAborted);
}

// ----------------------------------------------------------------- CLI

/// Runs the program `tool` with `args`; returns its exit status and output.
int run_tool(const std::string& tool, const std::string& args,
             std::string* out) {
  const std::string cmd = tool + " " + args + " 2>&1";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (!p) return -1;
  char buf[256];
  while (std::fgets(buf, sizeof buf, p)) *out += buf;
  const int status = pclose(p);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs the campaign CLI with `args`.
int run_cli(const std::string& args, std::string* out) {
  return run_tool(HLTG_ERROR_CAMPAIGN, args, out);
}

TEST(CliCompat, RemovedProbeFlagsAreUnknown) {
  // The probe flags went with batched decision probing, the batch-width
  // flag with its setting; tg_client shares the request grammar.
  const std::pair<const char*, const char*> removed[] = {
      {"--probe", "on"}, {"--probe-order", "on"}, {"--lanes", "64"}};
  for (const char* tool : {HLTG_ERROR_CAMPAIGN, HLTG_TG_CLIENT})
    for (const auto& [flag, value] : removed) {
      std::string out;
      EXPECT_EQ(run_tool(tool, std::string(flag) + " " + value, &out), 1)
          << tool << " " << flag;
      EXPECT_NE(out.find("unknown flag '" + std::string(flag) + "'"),
                std::string::npos)
          << out;
    }
}

TEST(CliCompat, HelpPrintsUsageAndExitsZero) {
  for (const std::string flag : {"-h", "--help"}) {
    // The usage goes to stdout: it arrives with stderr discarded.
    const std::string cmd =
        std::string(HLTG_ERROR_CAMPAIGN) + " " + flag + " 2>/dev/null";
    std::FILE* p = popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::string out;
    char buf[256];
    while (std::fgets(buf, sizeof buf, p)) out += buf;
    const int status = pclose(p);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << flag;
    EXPECT_EQ(out.rfind("usage: error_campaign", 0), 0u) << out;
    EXPECT_NE(out.find("--solver-scope error|campaign"), std::string::npos);
  }
  // Any other unknown flag is still an error.
  std::string out;
  EXPECT_EQ(run_cli("--helpme", &out), 1);
  EXPECT_NE(out.find("unknown flag '--helpme'"), std::string::npos) << out;
}

/// The first eight (deterministic) fields of every line of a campaign CSV.
std::string csv_outcomes(const std::string& path) {
  std::ifstream in(path);
  std::string line, out;
  while (std::getline(in, line)) {
    std::size_t pos = 0;
    for (int commas = 0; commas < 8 && pos != std::string::npos; ++commas)
      pos = line.find(',', pos + 1);
    out += line.substr(0, pos) + "\n";
  }
  return out;
}

TEST(CliCompat, ZeroCapMeansNoCap) {
  // As for the daemon and --deadline-ms 0: a cap of 0 is no cap.
  const std::string ref = testing::TempDir() + "hltg_cli_nocap.csv";
  std::string out;
  ASSERT_EQ(run_cli("--stages WB --csv " + ref, &out), 0) << out;
  for (const char* flag : {"--max-backtracks", "--max-decisions"}) {
    const std::string capped = testing::TempDir() + "hltg_cli_cap0.csv";
    ASSERT_EQ(run_cli("--stages WB " + std::string(flag) + " 0 --csv " +
                          capped,
                      &out),
              0)
        << out;
    EXPECT_EQ(csv_outcomes(capped), csv_outcomes(ref)) << flag;
    std::remove(capped.c_str());
  }
  std::remove(ref.c_str());
}

TEST(CliCompat, EmptyPopulationIsAnError) {
  std::string out;
  EXPECT_EQ(run_cli("--model boe --stages WB", &out), 1);
  EXPECT_NE(out.find("error population is empty"), std::string::npos) << out;
}

TEST(CliCompat, DropWithJobsIsRejected) {
  std::string out;
  EXPECT_EQ(run_cli("--stages WB --drop --jobs 2", &out), 1) << out;
}

TEST(CliCompat, StoreWithSolverOffIsRejected) {
  // An engine-off campaign deduces nothing: its store would be empty, and
  // a later engine-on run refuses an empty store. Rejected before the
  // writability probe creates the file.
  const std::string store = testing::TempDir() + "hltg_cli_off.ded";
  std::remove(store.c_str());
  std::string out;
  EXPECT_EQ(run_cli("--stages WB --solver off --solver-scope campaign "
                    "--store " + store,
                    &out),
            1)
      << out;
  EXPECT_NE(out.find("--store"), std::string::npos) << out;
  EXPECT_NE(out.find("--solver on"), std::string::npos) << out;
  EXPECT_FALSE(std::filesystem::exists(store));
}

TEST(CliCompat, SaveTestsCreatesItsDirectory) {
  // --save-tests into a missing directory once printed "saved N tests"
  // and exited 0 having written nothing.
  const std::string root = testing::TempDir() + "hltg_cli_saved";
  const std::string dir = root + "/nested/tests";
  const std::string csv = testing::TempDir() + "hltg_cli_saved.csv";
  std::filesystem::remove_all(root);
  std::string out;
  ASSERT_EQ(run_cli("--stages WB --save-tests " + dir + " --csv " + csv, &out),
            0)
      << out;
  std::ifstream in(csv);
  std::string line;
  std::size_t row = 0, detected = 0;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.find(",detected_") != std::string::npos) {
      ++detected;
      EXPECT_TRUE(std::filesystem::exists(dir + "/test_" +
                                          std::to_string(row) + ".txt"))
          << row;
    }
    ++row;
  }
  EXPECT_GT(detected, 0u);
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    files += e.path().filename().string().rfind("test_", 0) == 0;
  EXPECT_EQ(files, detected);
  std::filesystem::remove_all(root);
  std::remove(csv.c_str());
}

TEST(CliCompat, UnwritableCsvIsAnError) {
  // The CSV's parent directory is a regular file: no CSV can be written,
  // so the run must refuse before the campaign instead of reporting
  // "wrote".
  const std::string blocker = testing::TempDir() + "hltg_cli_not_a_dir";
  std::ofstream(blocker) << "x";
  const std::string csv = blocker + "/out.csv";
  std::string out;
  EXPECT_EQ(run_cli("--stages WB --csv " + csv, &out), 1) << out;
  EXPECT_NE(out.find(csv), std::string::npos) << out;
  EXPECT_EQ(out.find("campaign summary"), std::string::npos) << out;
  EXPECT_EQ(out.find("wrote"), std::string::npos) << out;
  std::remove(blocker.c_str());
}

}  // namespace
}  // namespace hltg
