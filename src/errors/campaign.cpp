#include "errors/campaign.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "errors/journal.h"
#include "util/table.h"

namespace hltg {

std::string CampaignStats::table1(const std::string& title) const {
  TextTable t({title, "value"});
  t.add_kv("No. of errors", std::to_string(total));
  t.add_kv("No. of errors detected", std::to_string(detected));
  if (detected_fallback > 0) {
    t.add_kv("  detected by deterministic TG",
             std::to_string(detected_deterministic));
    t.add_kv("  detected by fallback generator",
             std::to_string(detected_fallback));
  }
  t.add_kv("No. of errors aborted", std::to_string(aborted));
  auto abort_row = [&](const char* label, std::size_t n) {
    if (n > 0) t.add_kv(label, std::to_string(n));
  };
  abort_row("  aborted: deadline", aborted_deadline);
  abort_row("  aborted: backtrack limit", aborted_backtracks);
  abort_row("  aborted: decision limit", aborted_decisions);
  abort_row("  aborted: cancelled", aborted_cancelled);
  abort_row("  aborted: exception", aborted_exception);
  // Proven-redundant rows are not aborts, but the paper's "aborted" count
  // holds every undetected error: show that total beside them.
  if (proven_redundant > 0) {
    t.add_kv("No. of errors proven redundant",
             std::to_string(proven_redundant));
    t.add_kv("  aborted + proven redundant (paper: aborted)",
             std::to_string(aborted + proven_redundant));
  }
  // Self-checking buckets render only when an incident actually occurred:
  // a mismatch-free verified campaign prints byte-identically to an
  // unverified one.
  abort_row("No. of claim mismatches (quarantined)", claim_mismatch);
  abort_row("No. of oracle errors", oracle_errors);
  abort_row("No. of mismatches recovered cross-config", verify_recovered);
  abort_row("No. of batch-drop claims refuted", drop_mismatches);
  if (attempted < total)
    t.add_kv("No. of errors not attempted (interrupted)",
             std::to_string(total - attempted));
  t.add_kv("Average test sequence length", fmt_double(avg_test_length, 1));
  t.add_kv("No. of backtracks (detected errors only)",
           std::to_string(backtracks));
  const Effort& e = effort;
  if (e.learned > 0 || e.cache_hits > 0 || e.nogood_hits > 0) {
    t.add_kv("Solver: nogoods learned", std::to_string(e.learned));
    t.add_kv("Solver: nogood prunes/forcings", std::to_string(e.nogood_hits));
    t.add_kv("Solver: justification cache hits", std::to_string(e.cache_hits));
  }
  // Timing values get a block of their own: one that gains a digit re-pads
  // only these lines, never the deterministic rows above. Phase attribution
  // renders only for instrumented strategies, so the summary of older
  // journals / custom generators is unchanged.
  TextTable timing({"timing", "value"});
  if (has_phase_time(e)) {
    timing.add_kv("Phase time: DPTRACE [ms]",
                  fmt_double(e.dptrace_ns / 1e6, 1));
    timing.add_kv("Phase time: CTRLJUST [ms]",
                  fmt_double(e.ctrljust_ns / 1e6, 1));
    timing.add_kv("Phase time: DPRELAX [ms]",
                  fmt_double(e.dprelax_ns / 1e6, 1));
  }
  timing.add_kv("CPU time [minutes]", fmt_double(cpu_seconds / 60.0, 2));
  return t.to_string() + timing.to_string();
}

void CampaignStats::add_attempt(const ErrorAttempt& a,
                                std::uint64_t* length_sum) {
  ++attempted;
  if (a.verify == WitnessVerdict::kConfirmed) ++verify_confirmed;
  if (a.verify == WitnessVerdict::kOracleError) ++oracle_errors;
  if (a.recovered) ++verify_recovered;
  if (a.outcome() == AttemptOutcome::kClaimMismatch) {
    ++claim_mismatch;
  } else if (a.detected()) {
    ++detected;
    if (a.via_fallback)
      ++detected_fallback;
    else
      ++detected_deterministic;
    *length_sum += a.test_length;
    backtracks += a.backtracks;
    decisions += a.decisions;
    if (length_histogram.size() <= a.test_length)
      length_histogram.resize(a.test_length + 1, 0);
    ++length_histogram[a.test_length];
  } else if (a.proven_redundant) {
    ++proven_redundant;
  } else {
    ++aborted;
    switch (a.abort) {
      case AbortReason::kDeadline: ++aborted_deadline; break;
      case AbortReason::kBacktracks: ++aborted_backtracks; break;
      case AbortReason::kDecisions: ++aborted_decisions; break;
      case AbortReason::kCancelled: ++aborted_cancelled; break;
      case AbortReason::kException: ++aborted_exception; break;
      case AbortReason::kNone: break;
    }
  }
  effort += a;
  cpu_seconds += a.seconds;
}

namespace {

void append_note(std::string* dst, const std::string& more) {
  if (more.empty()) return;
  if (!dst->empty()) *dst += "; ";
  *dst += more;
}

/// A row that a second attempt touched (a fallback or a cross-config
/// retry, rescued or not) carries the effort of both, so Table-1 cost and
/// phase time stay honest.
void add_effort(ErrorAttempt* to, const ErrorAttempt& from) {
  to->seconds += from.seconds;
  *to += from;
}

/// Self-checking cross-check (docs/ROBUSTNESS.md): re-validate a detection
/// claim through the independent oracle, minimize a refuted witness, and
/// retry once cross-config before the row is demoted to claim_mismatch.
void apply_triage(const DesignError& err, ErrorAttempt* a,
                  const CampaignConfig& cfg) {
  const TriageConfig& tri = cfg.triage;
  if (!tri.verify || !tri.oracle || !a->detected()) return;

  bool oracle_agrees = false;
  try {
    oracle_agrees = tri.oracle(a->test, err);
  } catch (const std::exception& e) {
    a->verify = WitnessVerdict::kOracleError;
    append_note(&a->note, std::string("oracle threw: ") + e.what());
    return;
  } catch (...) {
    a->verify = WitnessVerdict::kOracleError;
    append_note(&a->note, "oracle threw a non-std exception");
    return;
  }
  if (oracle_agrees) {
    a->verify = WitnessVerdict::kConfirmed;
    return;
  }

  // Claim mismatch: the witness is preserved for the quarantine bundle.
  a->verify = WitnessVerdict::kClaimMismatch;
  a->incident_test = a->test;
  append_note(&a->note,
              "claim mismatch: independent oracle found no divergence");
  if (tri.minimize && tri.minimizer) {
    std::string mnote;
    a->incident_min =
        tri.minimizer(a->incident_test, err, /*expect_detected=*/false,
                      &mnote);
    a->minimized = true;
    append_note(&a->note, mnote);
  }

  // Retry once with the cross-config generator; only an oracle-confirmed
  // re-detection vindicates the row.
  if (!tri.cross_gen) return;
  ErrorAttempt re;
  try {
    Budget budget = cfg.budget.arm();
    re = tri.cross_gen(err, budget);
  } catch (...) {
    append_note(&a->note, "cross-config retry threw");
    return;
  }
  bool re_ok = false;
  if (re.generated && re.sim_confirmed) {
    try {
      re_ok = tri.oracle(re.test, err);
    } catch (...) {
      re_ok = false;
    }
  }
  if (!re_ok) {
    add_effort(a, re);
    append_note(&a->note, "cross-config retry did not confirm");
    return;
  }
  // Vindicated: adopt the cross-config witness but keep the incident
  // payload (bogus witness + minimized form) and charge both efforts.
  re.verify = WitnessVerdict::kConfirmed;
  re.recovered = true;
  re.minimized = a->minimized;
  re.incident_test = std::move(a->incident_test);
  re.incident_min = std::move(a->incident_min);
  add_effort(&re, *a);
  std::string note = a->note;
  append_note(&note, re.note.empty() ? "recovered by cross-config retry"
                                     : re.note);
  re.note = std::move(note);
  *a = std::move(re);
}

}  // namespace

ErrorAttempt attempt_one_error(const DesignError& err, std::size_t index,
                               const BudgetedGenFn& gen,
                               const CampaignConfig& cfg) {
  const CampaignFault* fault = nullptr;
  if (cfg.faults) {
    const auto it = cfg.faults->find(index);
    if (it != cfg.faults->end()) fault = &it->second;
  }

  ErrorAttempt a;
  try {
    if (fault && fault->kind == CampaignFault::Kind::kThrow) {
      throw std::runtime_error("fault-injected generator failure");
    } else if (fault && fault->kind == CampaignFault::Kind::kBudgetExhaust) {
      a.abort = fault->abort;
      a.note = "fault: forced budget exhaustion";
    } else if (fault && fault->kind == CampaignFault::Kind::kForceAttempt) {
      a = fault->attempt;
    } else {
      Budget budget = cfg.budget.arm();
      a = gen(err, budget);
    }
  } catch (const std::exception& e) {
    a = ErrorAttempt{};
    a.abort = AbortReason::kException;
    a.note = std::string("generator threw: ") + e.what();
  } catch (...) {
    a = ErrorAttempt{};
    a.abort = AbortReason::kException;
    a.note = "generator threw a non-std exception";
  }

  // No test detects a proven-redundant error: the fallback would only
  // burn its budget.
  const bool degradable =
      !a.detected() && !a.proven_redundant &&
      a.abort != AbortReason::kCancelled &&
      (cfg.fallback || (fault && fault->force_fallback));
  if (!degradable) {
    apply_triage(err, &a, cfg);
    return a;
  }

  ErrorAttempt fb;
  try {
    if (fault && fault->force_fallback) {
      fb = fault->fallback_attempt;
    } else {
      // The fallback runs under its own budget recipe, but cancellation
      // must reach it even when the caller only wired the token into the
      // primary budget: a Ctrl-C during a fallback sweep aborts promptly.
      BudgetSpec fspec = cfg.fallback_budget;
      if (!fspec.cancel) fspec.cancel = cfg.budget.cancel;
      Budget budget = fspec.arm();
      fb = cfg.fallback(err, budget);
    }
  } catch (const std::exception& e) {
    fb = ErrorAttempt{};
    fb.abort = AbortReason::kException;
    fb.note = std::string("threw: ") + e.what();
  } catch (...) {
    fb = ErrorAttempt{};
    fb.abort = AbortReason::kException;
    fb.note = "threw a non-std exception";
  }
  if (!fb.detected()) {
    // Keep the primary attempt's record (its abort reason explains the
    // Table-1 outcome); charge the fallback's effort and note its failure.
    add_effort(&a, fb);
    append_note(&a.note,
                "fallback failed" + (fb.note.empty() ? "" : ": " + fb.note));
    apply_triage(err, &a, cfg);
    return a;
  }
  fb.via_fallback = true;
  add_effort(&fb, a);
  std::string note = a.note;
  append_note(&note, fb.note.empty() ? "detected by fallback" : fb.note);
  fb.note = std::move(note);
  apply_triage(err, &fb, cfg);
  return fb;
}

void print_row(const Netlist& nl, const DesignError& err,
               const ErrorAttempt& a) {
  const char* tag = "?";
  switch (a.outcome()) {
    case AttemptOutcome::kDetectedDeterministic: tag = "det "; break;
    case AttemptOutcome::kDetectedFallback: tag = "fbk "; break;
    case AttemptOutcome::kAborted: tag = "abrt"; break;
    case AttemptOutcome::kClaimMismatch: tag = "mism"; break;
    case AttemptOutcome::kProvenRedundant: tag = "red "; break;
  }
  std::fprintf(stderr, "  [%s] %s%s", tag, err.describe(nl).c_str(),
               a.note.empty() ? "" : ("  (" + a.note + ")").c_str());
  if (a.dptrace_ns || a.ctrljust_ns || a.dprelax_ns)
    std::fprintf(stderr, "  [trace %.2fms just %.2fms relax %.2fms]",
                 a.dptrace_ns / 1e6, a.ctrljust_ns / 1e6, a.dprelax_ns / 1e6);
  std::fprintf(stderr, "\n");
}

void record_incident(CampaignResult* res, const CampaignConfig& cfg,
                     std::size_t index, const DesignError& err,
                     const ErrorAttempt& a) {
  if (cfg.triage.bundle) {
    const std::string note = cfg.triage.bundle(res->incidents, index, err, a);
    if (!note.empty()) res->incident_notes.push_back(note);
  }
  ++res->incidents;
}

BatchDetectFn batch_from_scalar(DetectFn detect) {
  return [detect = std::move(detect)](
             const TestCase& tc, const std::vector<const DesignError*>& errs) {
    std::vector<bool> out(errs.size(), false);
    for (std::size_t i = 0; i < errs.size(); ++i)
      out[i] = detect(tc, *errs[i]);
    return out;
  };
}

CampaignResult run_campaign_with_dropping(
    const Netlist& nl, const std::vector<DesignError>& errors,
    const BudgetedGenFn& gen, const BatchDetectFn& detect,
    const CampaignConfig& cfg) {
  CampaignResult res;
  res.stats.total = errors.size();
  std::uint64_t length_sum = 0;
  std::vector<char> done(errors.size(), 0);

  JournalSession journal;
  journal.open(nl, errors, cfg.journal_path, cfg.resume,
               cfg.journal_fsync_interval, cfg.design_hash,
               cfg.solver_config_hash, cfg.resume_strict);
  res.journal_note = journal.note;
  if (journal.refused) {
    res.resume_refused = true;
    res.interrupted = true;
    return res;
  }

  // One batched detector call sweeps the new test over every remaining
  // error (dropped and journaled errors are already excluded).
  auto drop_pass = [&](std::size_t i, const TestCase& test) {
    std::vector<const DesignError*> rem;
    std::vector<std::size_t> idx;
    for (std::size_t j = i + 1; j < errors.size(); ++j)
      if (!done[j]) {
        rem.push_back(&errors[j]);
        idx.push_back(j);
      }
    if (rem.empty()) return;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<bool> det = detect(test, rem);
    res.dropping_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    for (std::size_t k = 0; k < rem.size(); ++k) {
      if (k >= det.size() || !det[k]) continue;
      // Self-check: a batch-drop claim is re-validated with one scalar
      // oracle run. A refuted claim is quarantined and the error stays in
      // the population for its own generator attempt; an oracle failure
      // leaves the claim standing but still raises an incident.
      if (cfg.triage.verify && cfg.triage.oracle) {
        ErrorAttempt claim;
        claim.generated = claim.sim_confirmed = true;
        claim.incident_test = test;
        claim.note = "batch-drop claim for test of error " +
                     std::to_string(i) + " cross-checked by scalar oracle";
        bool ok = false;
        bool oracle_failed = false;
        try {
          ok = cfg.triage.oracle(test, errors[idx[k]]);
        } catch (...) {
          oracle_failed = true;
        }
        if (oracle_failed) {
          claim.verify = WitnessVerdict::kOracleError;
          append_note(&claim.note, "oracle threw; claim left standing");
          record_incident(&res, cfg, idx[k], errors[idx[k]], claim);
        } else if (!ok) {
          ++res.stats.drop_mismatches;
          claim.verify = WitnessVerdict::kClaimMismatch;
          append_note(&claim.note, "oracle found no divergence; not dropped");
          if (cfg.triage.minimize && cfg.triage.minimizer) {
            std::string mnote;
            claim.incident_min = cfg.triage.minimizer(
                test, errors[idx[k]], /*expect_detected=*/false, &mnote);
            claim.minimized = true;
            append_note(&claim.note, mnote);
          }
          record_incident(&res, cfg, idx[k], errors[idx[k]], claim);
          if (cfg.verbose)
            std::fprintf(stderr, "  [mism] drop claim refuted for %s\n",
                         errors[idx[k]].describe(nl).c_str());
          continue;  // the error keeps its own generator attempt
        }
      }
      done[idx[k]] = 1;
      ++res.stats.detected;
      ++res.stats.detected_deterministic;
      ++res.dropped;
      if (cfg.verbose)
        std::fprintf(stderr, "  [drop] %s (covered by test for %s)\n",
                     errors[idx[k]].describe(nl).c_str(),
                     errors[i].describe(nl).c_str());
    }
  };

  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (cfg.cancel && cfg.cancel->stop_requested()) {
      res.interrupted = true;
      break;
    }
    if (done[i]) continue;  // fortuitously detected by an earlier test
    ErrorAttempt a;
    if (const auto it = journal.replay.find(i); it != journal.replay.end()) {
      // Replayed generator attempt: the dropping pass below re-derives the
      // drops its test caused, so a resumed campaign reproduces the
      // original compaction without re-running any generator.
      a = it->second;
      ++res.resumed_rows;
    } else {
      a = attempt_one_error(errors[i], i, gen, cfg);
      if (journal.writer.is_open())
        journal.writer.append_line(journal_row_line(i, a));
      if (a.incident()) record_incident(&res, cfg, i, errors[i], a);
    }
    res.stats.add_attempt(a, &length_sum);
    if (a.detected()) {
      done[i] = 1;
      ++res.tests_kept;
      drop_pass(i, a.test);
    }
    if (cfg.verbose) print_row(nl, errors[i], a);
    res.rows.push_back({errors[i], std::move(a)});
  }
  if (res.tests_kept > 0)
    res.stats.avg_test_length =
        static_cast<double>(length_sum) / res.tests_kept;
  if (!journal.writer.error().empty()) {
    if (!res.journal_note.empty()) res.journal_note += "; ";
    res.journal_note += journal.writer.error();
  }
  return res;
}

}  // namespace hltg
