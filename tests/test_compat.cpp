// Compatibility with artifacts written before batched decision probing was
// removed: configuration hashes (journal and deduction-store stamps, service
// cache keys) keep their values, journal rows keep their byte format and
// those that carry the old probe_* keys still replay, and the removed CLI
// flags are rejected.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/tg.h"
#include "errors/journal.h"

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
  cfg.solver.enable = false;
  EXPECT_EQ(tg_config_hash(cfg), 0x99e9b9d9856f3b96ull);
}

TEST(ConfigHashCompat, CampaignScopeHashIsPinned) {
  // Scope is deliberately not mixed: outcomes are scope-invariant.
  TgConfig cfg;
  cfg.solver.scope = SolverScope::kCampaign;
  EXPECT_EQ(tg_config_hash(cfg), 0xb8e480e2905e85b7ull);
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

// ----------------------------------------------------------------- CLI

/// Runs the campaign CLI with `args`; returns its exit status and output.
int run_cli(const std::string& args, std::string* out) {
  const std::string cmd =
      std::string(HLTG_ERROR_CAMPAIGN) + " " + args + " 2>&1";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (!p) return -1;
  char buf[256];
  while (std::fgets(buf, sizeof buf, p)) *out += buf;
  const int status = pclose(p);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliCompat, RemovedProbeFlagsAreUnknown) {
  for (const char* flag : {"--probe", "--probe-order"}) {
    std::string out;
    EXPECT_EQ(run_cli(std::string(flag) + " on", &out), 1) << flag;
    EXPECT_NE(out.find("unknown flag '" + std::string(flag) + "'"),
              std::string::npos)
        << out;
  }
}

}  // namespace
}  // namespace hltg
