// Self-checking triage layer (docs/ROBUSTNESS.md "Self-checking and
// triage"): ddmin witness minimization, independent-oracle cross-checks,
// claim-mismatch quarantine bundles (deterministic across --jobs),
// cross-config recovery, journal replay of triaged rows, and batch-drop
// claim refutation.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "baseline/random_tg.h"
#include "core/tg.h"
#include "errors/journal.h"
#include "errors/parallel_campaign.h"
#include "isa/testcase_io.h"
#include "triage/bundle.h"
#include "triage/ddmin.h"
#include "triage/triage.h"
#include "triage/witness_check.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

DesignError ssl(const char* net, unsigned bit, bool v) {
  const NetId n = model().dp.find_net(net);
  EXPECT_NE(n, kNoNet) << net;
  return DesignError{BusSslError{n, bit, v}};
}

std::vector<DesignError> alu_population(std::size_t n = 3) {
  std::vector<DesignError> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(ssl("ex.alu_add", static_cast<unsigned>(i), false));
  return out;
}

/// Pure give-up generator: deterministic, zero effort, never detects.
BudgetedGenFn giveup_gen(int* calls = nullptr) {
  return [calls](const DesignError&, Budget&) {
    if (calls) ++*calls;
    ErrorAttempt a;
    a.note = "scripted give-up";
    return a;
  };
}

/// A "witness" that provably detects nothing: NOPs only, so the ALU adder
/// never produces a nonzero result and no architectural trace can diverge.
ErrorAttempt bogus_attempt() {
  ErrorAttempt a;
  a.generated = a.sim_confirmed = true;  // the lie under test
  a.test.imem.assign(6, 0x00000000u);
  a.test.rf_init[5] = 7;       // data ddmin should strip these too
  a.test.dmem_init[0x100] = 3;
  a.test_length = 6;
  return a;
}

std::string temp_path(const char* tag) {
  return testing::TempDir() + "hltg_triage_" + tag;
}

// ------------------------------------------------------------------ ddmin

TestCase words(std::initializer_list<std::uint32_t> ws) {
  TestCase tc;
  tc.imem = ws;
  return tc;
}

TEST(Ddmin, ShrinksToTheOneRelevantInstruction) {
  TestCase tc = words({1, 2, 3, 4, 0xAABBCCDD, 5, 6, 7, 8, 9, 10, 11});
  const TestPredicate has_marker = [](const TestCase& c) {
    for (std::uint32_t w : c.imem)
      if (w == 0xAABBCCDD) return true;
    return false;
  };
  Budget b;
  const DdminResult r = ddmin_test(tc, has_marker, b);
  EXPECT_TRUE(r.stats.property_held);
  EXPECT_EQ(r.stats.abort, AbortReason::kNone);
  EXPECT_EQ(r.stats.orig_instrs, 12u);
  EXPECT_EQ(r.test.imem, std::vector<std::uint32_t>{0xAABBCCDD});
  EXPECT_EQ(r.stats.min_instrs, 1u);
  EXPECT_GT(r.stats.probes, 1u);
  EXPECT_NE(r.stats.summary().find("12 -> 1"), std::string::npos);
}

TEST(Ddmin, IsIdempotent) {
  TestCase tc = words({9, 9, 0xAABBCCDD, 9});
  const TestPredicate has_marker = [](const TestCase& c) {
    for (std::uint32_t w : c.imem)
      if (w == 0xAABBCCDD) return true;
    return false;
  };
  Budget b1;
  const DdminResult once = ddmin_test(tc, has_marker, b1);
  Budget b2;
  const DdminResult twice = ddmin_test(once.test, has_marker, b2);
  EXPECT_EQ(twice.test.imem, once.test.imem);
  EXPECT_EQ(twice.stats.orig_instrs, twice.stats.min_instrs);
  EXPECT_EQ(twice.stats.data_removed, 0u);
}

TEST(Ddmin, FailingPropertyReturnsInputUnchanged) {
  const TestCase tc = words({1, 2, 3});
  Budget b;
  const DdminResult r =
      ddmin_test(tc, [](const TestCase&) { return false; }, b);
  EXPECT_FALSE(r.stats.property_held);
  EXPECT_EQ(r.test.imem, tc.imem);
  EXPECT_EQ(r.stats.probes, 1u);
}

TEST(Ddmin, BudgetCutsThePassKeepingBestSoFar) {
  TestCase tc = words({1, 2, 3, 4, 5, 6, 7, 8});
  const TestPredicate always = [](const TestCase&) { return true; };
  Budget b;
  b.set_max_decisions(2);  // fires after a couple of probes
  const DdminResult r = ddmin_test(tc, always, b);
  EXPECT_EQ(r.stats.abort, AbortReason::kDecisions);
  EXPECT_LE(r.stats.probes, 4u);
  EXPECT_LE(r.test.imem.size(), tc.imem.size());
  EXPECT_NE(r.stats.summary().find("budget"), std::string::npos);
}

TEST(Ddmin, StripsIrrelevantDataWords) {
  TestCase tc = words({0xAABBCCDD});
  tc.rf_init[3] = 11;
  tc.rf_init[7] = 22;
  tc.dmem_init[0x40] = 1;
  tc.dmem_init[0x44] = 2;
  const TestPredicate imem_only = [](const TestCase& c) {
    return !c.imem.empty() && c.imem[0] == 0xAABBCCDD;
  };
  Budget b;
  const DdminResult r = ddmin_test(tc, imem_only, b);
  EXPECT_EQ(r.stats.data_removed, 4u);
  EXPECT_EQ(r.test.rf_init[3], 0u);
  EXPECT_EQ(r.test.rf_init[7], 0u);
  EXPECT_TRUE(r.test.dmem_init.empty());
}

// ---------------------------------------------------------- witness_check

TEST(WitnessCheckTest, ClassifiesClaimsAgainstTheOracle) {
  const DesignError err = ssl("ex.alu_add", 0, false);
  const TestCase nops = bogus_attempt().test;
  // A NOP program cannot detect the stuck bit: claiming "undetected" is
  // confirmed, claiming "detected" is a mismatch.
  EXPECT_EQ(check_witness(model(), nops, err, false).verdict,
            WitnessVerdict::kConfirmed);
  const WitnessCheck bad = check_witness(model(), nops, err, true);
  EXPECT_EQ(bad.verdict, WitnessVerdict::kClaimMismatch);
  EXPECT_NE(bad.note.find("no divergence"), std::string::npos);
}

// ------------------------------------------------- quarantine (serial)

void expect_complete_bundle(const std::filesystem::path& dir,
                            const DesignError& err) {
  for (const char* f : {"witness.txt", "minimized.txt", "divergence.txt",
                        "trace.vcd", "stats.json", "repro.txt"})
    EXPECT_TRUE(std::filesystem::exists(dir / f)) << (dir / f);

  // The shipped witness reproduces the mismatch: the oracle finds no
  // divergence, exactly what the repro command's --expect undetected asks.
  const TestLoadResult witness = load_test((dir / "witness.txt").string());
  ASSERT_TRUE(witness.ok());
  EXPECT_EQ(check_witness(model(), witness.test, err, false).verdict,
            WitnessVerdict::kConfirmed);
  const TestLoadResult min = load_test((dir / "minimized.txt").string());
  ASSERT_TRUE(min.ok());
  EXPECT_LT(min.test.imem.size(), witness.test.imem.size());
  EXPECT_EQ(check_witness(model(), min.test, err, false).verdict,
            WitnessVerdict::kConfirmed);

  std::ifstream repro(dir / "repro.txt");
  std::string repro_text((std::istreambuf_iterator<char>(repro)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(repro_text.find("--replay-error 1"), std::string::npos);
  EXPECT_NE(repro_text.find("--expect undetected"), std::string::npos);

  std::ifstream stats(dir / "stats.json");
  std::string stats_text((std::istreambuf_iterator<char>(stats)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(stats_text.find("\"verify\":\"claim_mismatch\""),
            std::string::npos);
}

CampaignConfig quarantine_config(const std::string& qdir,
                                 const CampaignFaultPlan* faults) {
  TriageOptions topt;
  topt.verify = true;
  topt.minimize = true;
  topt.quarantine_dir = qdir;
  topt.repro_flags = "--model ssl --stages EX";
  topt.cross_retry = false;  // deterministic quarantine, no rescue attempt
  CampaignConfig cfg;
  cfg.triage = make_triage(model(), topt);
  cfg.faults = faults;
  return cfg;
}

TEST(Quarantine, BogusWitnessYieldsOneCompleteBundle) {
  const auto errors = alu_population();
  CampaignFaultPlan faults;
  faults[1].kind = CampaignFault::Kind::kForceAttempt;
  faults[1].attempt = bogus_attempt();

  const std::string qdir = temp_path("quar_serial");
  std::filesystem::remove_all(qdir);
  const CampaignConfig cfg = quarantine_config(qdir, &faults);
  const CampaignResult res =
      run_campaign(model().dp, errors, giveup_gen(), cfg);

  EXPECT_EQ(res.stats.claim_mismatch, 1u);
  EXPECT_EQ(res.stats.detected, 0u);
  EXPECT_EQ(res.stats.aborted, 2u);  // the give-ups; mismatch is disjoint
  EXPECT_EQ(res.incidents, 1u);
  ASSERT_EQ(res.incident_notes.size(), 1u);
  EXPECT_NE(res.incident_notes[0].find("quarantined"), std::string::npos);
  EXPECT_EQ(res.rows[1].attempt.outcome(), AttemptOutcome::kClaimMismatch);
  EXPECT_FALSE(res.rows[1].attempt.detected());
  EXPECT_NE(res.stats.table1("t").find("claim mismatches"),
            std::string::npos);

  const std::filesystem::path dir =
      std::filesystem::path(qdir) / bundle_dir_name(0, 1);
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  expect_complete_bundle(dir, errors[1]);
  // Exactly one bundle in the quarantine.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(qdir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(qdir);
}

TEST(Quarantine, BundleAndStatsIdenticalUnderJobs4) {
  const auto errors = alu_population();
  CampaignFaultPlan faults;
  faults[1].kind = CampaignFault::Kind::kForceAttempt;
  faults[1].attempt = bogus_attempt();

  const std::string qdir1 = temp_path("quar_j1");
  const std::string qdir4 = temp_path("quar_j4");
  std::filesystem::remove_all(qdir1);
  std::filesystem::remove_all(qdir4);

  const CampaignConfig base1 = quarantine_config(qdir1, &faults);
  const CampaignResult serial =
      run_campaign(model().dp, errors, giveup_gen(), base1);

  ParallelCampaignConfig pcfg;
  static_cast<CampaignConfig&>(pcfg) = quarantine_config(qdir4, &faults);
  pcfg.jobs = 4;
  const CampaignResult par =
      run_campaign_parallel(model().dp, errors, shared_gen(giveup_gen()),
                            pcfg);

  EXPECT_EQ(par.stats.claim_mismatch, serial.stats.claim_mismatch);
  EXPECT_EQ(par.incidents, serial.incidents);
  EXPECT_EQ(par.stats.table1("t"), serial.stats.table1("t"));
  // Same deterministic incident numbering: same bundle directory name.
  const std::string name = bundle_dir_name(0, 1);
  EXPECT_TRUE(std::filesystem::is_directory(
      std::filesystem::path(qdir1) / name));
  ASSERT_TRUE(std::filesystem::is_directory(
      std::filesystem::path(qdir4) / name));
  expect_complete_bundle(std::filesystem::path(qdir4) / name, errors[1]);
  std::filesystem::remove_all(qdir1);
  std::filesystem::remove_all(qdir4);
}

// ------------------------------------------------- recovery and oracle

TEST(Triage, CrossConfigRetryRecoversTheRow) {
  const std::vector<DesignError> errors = {ssl("ex.alu_add", 0, false)};
  CampaignFaultPlan faults;
  faults[0].kind = CampaignFault::Kind::kForceAttempt;
  faults[0].attempt = bogus_attempt();

  CampaignConfig cfg;
  cfg.faults = &faults;
  cfg.triage.verify = true;
  cfg.triage.oracle = scalar_oracle(model());
  RandomTgConfig rcfg;
  rcfg.max_programs_per_error = 128;
  cfg.triage.cross_gen = random_budgeted_strategy(model(), rcfg);
  int bundles = 0;
  cfg.triage.bundle = [&bundles](std::size_t, std::size_t,
                                 const DesignError&, const ErrorAttempt&) {
    ++bundles;
    return std::string("counted");
  };

  const CampaignResult res =
      run_campaign(model().dp, errors, giveup_gen(), cfg);
  ASSERT_EQ(res.rows.size(), 1u);
  const ErrorAttempt& a = res.rows[0].attempt;
  EXPECT_TRUE(a.detected());
  EXPECT_TRUE(a.recovered);
  EXPECT_EQ(a.verify, WitnessVerdict::kConfirmed);
  EXPECT_EQ(res.stats.verify_recovered, 1u);
  EXPECT_EQ(res.stats.claim_mismatch, 0u);
  // The mismatch still raised an incident: the bogus witness is evidence
  // even when a retry vindicates the row.
  EXPECT_EQ(res.incidents, 1u);
  EXPECT_EQ(bundles, 1);
  EXPECT_FALSE(a.incident_test.imem.empty());  // bogus witness preserved
  EXPECT_NE(a.note.find("claim mismatch"), std::string::npos);
}

TEST(Triage, RecoveredRowCarriesRefutedAttemptPhaseTime) {
  const std::vector<DesignError> errors = {ssl("ex.alu_add", 0, false)};
  CampaignFaultPlan faults;
  faults[0].kind = CampaignFault::Kind::kForceAttempt;
  ErrorAttempt bogus = bogus_attempt();
  bogus.backtracks = 4;
  bogus.decisions = 6;
  bogus.dptrace_ns = 1000;
  bogus.ctrljust_ns = 20000;
  bogus.dprelax_ns = 300000;
  faults[0].attempt = bogus;

  CampaignConfig cfg;
  cfg.faults = &faults;
  cfg.triage.verify = true;
  cfg.triage.oracle = scalar_oracle(model());
  TestGenerator tg(model());
  const BudgetedGenFn rescue = tg.budgeted_strategy();
  ErrorAttempt rescuer;
  cfg.triage.cross_gen = [&](const DesignError& e, Budget& b) {
    rescuer = rescue(e, b);
    return rescuer;
  };

  const CampaignResult res =
      run_campaign(model().dp, errors, giveup_gen(), cfg);
  ASSERT_EQ(res.rows.size(), 1u);
  const ErrorAttempt& a = res.rows[0].attempt;
  ASSERT_TRUE(a.recovered);
  EXPECT_EQ(a.backtracks, rescuer.backtracks + 4);
  EXPECT_EQ(a.decisions, rescuer.decisions + 6);
  EXPECT_EQ(a.dptrace_ns, rescuer.dptrace_ns + 1000);
  EXPECT_EQ(a.ctrljust_ns, rescuer.ctrljust_ns + 20000);
  EXPECT_EQ(a.dprelax_ns, rescuer.dprelax_ns + 300000);
  EXPECT_EQ(res.stats.dptrace_ns, a.dptrace_ns);
  EXPECT_EQ(res.stats.ctrljust_ns, a.ctrljust_ns);
  EXPECT_EQ(res.stats.dprelax_ns, a.dprelax_ns);
}

TEST(Triage, OracleFailureKeepsClaimStanding) {
  const std::vector<DesignError> errors = {ssl("ex.alu_add", 0, false)};
  CampaignFaultPlan faults;
  faults[0].kind = CampaignFault::Kind::kForceAttempt;
  faults[0].attempt = bogus_attempt();

  CampaignConfig cfg;
  cfg.faults = &faults;
  cfg.triage.verify = true;
  cfg.triage.oracle = [](const TestCase&, const DesignError&) -> bool {
    throw std::runtime_error("oracle broke");
  };
  const CampaignResult res =
      run_campaign(model().dp, errors, giveup_gen(), cfg);
  const ErrorAttempt& a = res.rows[0].attempt;
  EXPECT_EQ(a.verify, WitnessVerdict::kOracleError);
  EXPECT_TRUE(a.detected());  // claim stands; oracle_error is advisory
  EXPECT_EQ(res.stats.oracle_errors, 1u);
  EXPECT_EQ(res.incidents, 1u);  // but still flagged for a human
}

// ----------------------------------------------------- journal round-trip

TEST(TriageJournal, RowRoundTripsVerifyFields) {
  ErrorAttempt a = bogus_attempt();
  a.verify = WitnessVerdict::kClaimMismatch;
  a.incident_test = a.test;
  a.incident_min = words({0xAABBCCDDu});
  a.minimized = true;
  a.note = "claim mismatch: test note";

  const std::string path = temp_path("journal_roundtrip.jsonl");
  {
    std::ofstream out(path);
    out << journal_header_line(2, 9) << "\n" << journal_row_line(0, a) << "\n";
  }
  const JournalReplay jr = load_journal(path);
  ASSERT_EQ(jr.rows.count(0), 1u);
  const ErrorAttempt& b = jr.rows.at(0);
  EXPECT_EQ(b.verify, WitnessVerdict::kClaimMismatch);
  EXPECT_TRUE(b.minimized);
  EXPECT_EQ(b.incident_test.imem, a.incident_test.imem);
  EXPECT_EQ(b.incident_min.imem, a.incident_min.imem);
  EXPECT_EQ(b.outcome(), AttemptOutcome::kClaimMismatch);
  std::remove(path.c_str());

  // Rows journaled before the triage fields existed still replay, with the
  // verdict defaulting to unchecked.
  const std::string old_path = temp_path("journal_old.jsonl");
  {
    std::ofstream out(old_path);
    out << journal_header_line(1, 7) << "\n"
        << "{\"index\":0,\"generated\":true,\"sim_confirmed\":true,"
           "\"test_length\":2,\"backtracks\":1,\"decisions\":3,"
           "\"seconds\":0.5,\"abort\":\"none\",\"via_fallback\":false,"
           "\"note\":\"\"}\n";
  }
  const JournalReplay old_jr = load_journal(old_path);
  ASSERT_EQ(old_jr.rows.count(0), 1u);
  EXPECT_EQ(old_jr.rows.at(0).verify, WitnessVerdict::kUnchecked);
  EXPECT_FALSE(old_jr.rows.at(0).recovered);
  EXPECT_TRUE(old_jr.rows.at(0).detected());
  std::remove(old_path.c_str());
}

TEST(TriageJournal, ResumeReplaysQuarantineWithoutRebundling) {
  const auto errors = alu_population();
  CampaignFaultPlan faults;
  faults[1].kind = CampaignFault::Kind::kForceAttempt;
  faults[1].attempt = bogus_attempt();

  const std::string path = temp_path("journal_resume.jsonl");
  std::remove(path.c_str());
  int bundles = 0;
  auto make_cfg = [&]() {
    CampaignConfig cfg;
    cfg.faults = &faults;
    cfg.journal_path = path;
    cfg.triage.verify = true;
    cfg.triage.oracle = scalar_oracle(model());
    cfg.triage.bundle = [&bundles](std::size_t, std::size_t,
                                   const DesignError&, const ErrorAttempt&) {
      ++bundles;
      return std::string("counted");
    };
    return cfg;
  };

  const CampaignResult first =
      run_campaign(model().dp, errors, giveup_gen(), make_cfg());
  EXPECT_EQ(first.stats.claim_mismatch, 1u);
  EXPECT_EQ(first.incidents, 1u);
  EXPECT_EQ(bundles, 1);

  int calls = 0;
  CampaignConfig cfg = make_cfg();
  cfg.resume = true;
  const CampaignResult resumed =
      run_campaign(model().dp, errors, giveup_gen(&calls), cfg);
  EXPECT_EQ(calls, 0);  // everything replayed
  EXPECT_EQ(resumed.resumed_rows, errors.size());
  EXPECT_EQ(resumed.stats.claim_mismatch, 1u);  // verdict survived the disk
  EXPECT_EQ(resumed.rows[1].attempt.outcome(),
            AttemptOutcome::kClaimMismatch);
  EXPECT_EQ(resumed.incidents, 0u);  // replayed rows never re-bundle
  EXPECT_EQ(bundles, 1);
  EXPECT_EQ(resumed.stats.table1("t"), first.stats.table1("t"));
  std::remove(path.c_str());
}

// ------------------------------------------------------- batch-drop check

TEST(TriageDrop, RefutedDropClaimsKeepTheirErrors) {
  const auto errors = alu_population();
  // Generator: only error 0 produces a (fake) detecting test.
  const DesignError* base = errors.data();
  BudgetedGenFn gen = [base](const DesignError& e, Budget&) {
    ErrorAttempt a;
    if (&e - base == 0) {
      a.generated = a.sim_confirmed = true;
      a.test.imem = {0x20220007u};
      a.test_length = 1;
    }
    return a;
  };
  // Batch detector: claims the test fortuitously detects everything.
  BatchDetectFn lying_batch =
      [](const TestCase&, const std::vector<const DesignError*>& errs) {
        return std::vector<bool>(errs.size(), true);
      };
  // Scalar oracle: agrees only with error 0's own claim.
  CampaignConfig cfg;
  cfg.triage.verify = true;
  cfg.triage.oracle = [base](const TestCase&, const DesignError& err) {
    return &err == base;
  };

  const CampaignResult res = run_campaign_with_dropping(
      model().dp, errors, gen, lying_batch, cfg);
  EXPECT_EQ(res.stats.drop_mismatches, 2u);
  EXPECT_EQ(res.dropped, 0u);  // refuted claims drop nothing
  EXPECT_EQ(res.incidents, 2u);
  EXPECT_EQ(res.stats.detected, 1u);  // error 0's own confirmed claim
  EXPECT_EQ(res.stats.aborted, 2u);   // 1 and 2 ran their own attempts
  EXPECT_EQ(res.rows.size(), errors.size());
  EXPECT_NE(res.stats.table1("t").find("batch-drop claims refuted"),
            std::string::npos);
}

}  // namespace
}  // namespace hltg
