// Error campaign driver: runs a test-generation strategy over a list of
// design errors, confirms each generated test by dual simulation, and
// aggregates the statistics that Table 1 of the paper reports.
//
// Resilience (docs/ROBUSTNESS.md): each error attempt runs under a
// per-error Budget (wall-clock deadline, decision/backtrack caps,
// cooperative cancellation); attempts that exhaust their budget can fall
// back to a secondary (e.g. biased-random) generator under its own budget;
// every completed attempt is journaled to an append-only JSONL file so an
// interrupted campaign can be resumed without repeating finished errors;
// and a generator that throws aborts only its own error, not the campaign.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "errors/inject.h"
#include "isa/spec_sim.h"
#include "util/budget.h"
#include "util/effort.h"

namespace hltg {

/// How one error attempt concluded (the Table-1 outcome taxonomy).
enum class AttemptOutcome : std::uint8_t {
  kDetectedDeterministic,  ///< the primary generator produced a confirmed test
  kDetectedFallback,       ///< the degradation generator produced one
  kAborted,                ///< no confirmed test (budget, give-up, exception)
  kClaimMismatch,          ///< detection claim failed the independent oracle
  kProvenRedundant,        ///< no test can detect it (errors/redundancy.h)
};

constexpr std::string_view to_string(AttemptOutcome o) {
  switch (o) {
    case AttemptOutcome::kDetectedDeterministic: return "detected_deterministic";
    case AttemptOutcome::kDetectedFallback: return "detected_fallback";
    case AttemptOutcome::kAborted: return "aborted";
    case AttemptOutcome::kClaimMismatch: return "claim_mismatch";
    case AttemptOutcome::kProvenRedundant: return "proven_redundant";
  }
  return "?";
}

/// Verdict of the self-checking cross-check (docs/ROBUSTNESS.md): after any
/// detection claim, the witness is re-validated through an independent
/// oracle; a disagreement means one of the detectors is wrong and the row
/// must not silently enter the Table-1 statistics.
enum class WitnessVerdict : std::uint8_t {
  kUnchecked,      ///< verification disabled, or the row claims no detection
  kConfirmed,      ///< independent oracle reproduced the divergence
  kClaimMismatch,  ///< oracle found NO divergence: the claim is bogus
  kOracleError,    ///< the oracle itself failed (threw); claim left standing
};

constexpr std::string_view to_string(WitnessVerdict v) {
  switch (v) {
    case WitnessVerdict::kUnchecked: return "unchecked";
    case WitnessVerdict::kConfirmed: return "confirmed";
    case WitnessVerdict::kClaimMismatch: return "claim_mismatch";
    case WitnessVerdict::kOracleError: return "oracle_error";
  }
  return "?";
}

/// Parse the strings to_string(WitnessVerdict) produces (journal round-trip).
constexpr WitnessVerdict witness_verdict_from(std::string_view s) {
  if (s == "confirmed") return WitnessVerdict::kConfirmed;
  if (s == "claim_mismatch") return WitnessVerdict::kClaimMismatch;
  if (s == "oracle_error") return WitnessVerdict::kOracleError;
  return WitnessVerdict::kUnchecked;
}

/// Result of attempting one error. The inherited Effort counters are the
/// attempt's search effort (zero for strategies that do not count; a row
/// replayed from the journal restores only the journaled ones).
struct ErrorAttempt : Effort {
  bool generated = false;       ///< a test was produced
  bool sim_confirmed = false;   ///< dual simulation shows a mismatch
  unsigned test_length = 0;     ///< instructions (excluding drain NOPs)
  std::uint64_t probe_ns = 0;  ///< always zero; kept for existing readers
  double seconds = 0.0;
  TestCase test;
  std::string note;
  AbortReason abort = AbortReason::kNone;  ///< why the attempt was cut short
  bool via_fallback = false;  ///< produced by the degradation generator
  /// The generator proved the error undetectable before searching (a
  /// constant or unobservable line, errors/redundancy.h): no test exists,
  /// so the row is neither aborted nor offered to the fallback.
  bool proven_redundant = false;

  // Self-checking triage (src/triage/, docs/ROBUSTNESS.md). `verify` is the
  // final cross-check verdict for the row; a kClaimMismatch verdict demotes
  // the detection claim out of the Table-1 detected bucket. When a mismatch
  // occurred, the offending witness (and, with minimization on, its
  // delta-debugged shrink) is preserved for the quarantine bundle even if a
  // cross-config retry later vindicated the row (`recovered`).
  WitnessVerdict verify = WitnessVerdict::kUnchecked;
  bool recovered = false;  ///< cross-config retry re-detected and confirmed
  bool minimized = false;  ///< incident_min holds a ddmin-shrunk witness
  TestCase incident_test;  ///< the witness that failed the cross-check
  TestCase incident_min;   ///< its minimized form (valid iff `minimized`)

  bool detected() const {
    return generated && sim_confirmed &&
           verify != WitnessVerdict::kClaimMismatch;
  }
  /// A claim mismatch or oracle failure happened on this row (even if a
  /// retry recovered it): the row owns a quarantine incident.
  bool incident() const {
    return verify == WitnessVerdict::kClaimMismatch ||
           verify == WitnessVerdict::kOracleError || recovered;
  }
  AttemptOutcome outcome() const {
    if (verify == WitnessVerdict::kClaimMismatch)
      return AttemptOutcome::kClaimMismatch;
    if (!detected())
      return proven_redundant ? AttemptOutcome::kProvenRedundant
                              : AttemptOutcome::kAborted;
    return via_fallback ? AttemptOutcome::kDetectedFallback
                        : AttemptOutcome::kDetectedDeterministic;
  }
};

/// Strategy callback: the campaign arms one fresh Budget per error
/// (deadline relative to the attempt's start) and passes it in; the
/// strategy polls it and reports the structured abort reason. A default
/// CampaignConfig arms an unlimited Budget, which never fires.
using BudgetedGenFn = std::function<ErrorAttempt(const DesignError&, Budget&)>;

struct CampaignRow {
  DesignError error;
  ErrorAttempt attempt;
};

struct CampaignStats {
  std::size_t total = 0;
  std::size_t attempted = 0;  ///< < total when the campaign was cancelled
  std::size_t detected = 0;   ///< generated AND confirmed by simulation
  std::size_t aborted = 0;
  /// Outcome split: detected = detected_deterministic + detected_fallback.
  std::size_t detected_deterministic = 0;
  std::size_t detected_fallback = 0;
  /// Abort-reason breakdown (sums to <= aborted; plain generator give-ups
  /// carry AbortReason::kNone and appear only in `aborted`).
  std::size_t aborted_deadline = 0;
  std::size_t aborted_backtracks = 0;
  std::size_t aborted_decisions = 0;
  std::size_t aborted_cancelled = 0;
  std::size_t aborted_exception = 0;
  /// Self-checking (quarantine) bucket: rows whose detection claim the
  /// independent oracle refuted and no cross-config retry could vindicate.
  /// Disjoint from `detected` and `aborted`.
  std::size_t claim_mismatch = 0;
  /// Rows the generator proved undetectable before searching. Disjoint
  /// from `aborted`; the paper's "aborted" count is aborted + this.
  std::size_t proven_redundant = 0;
  /// Cross-check tallies (not rendered in table1 unless nonzero, so a
  /// mismatch-free verified campaign prints byte-identically to an
  /// unverified one).
  std::size_t verify_confirmed = 0;  ///< claims the oracle reproduced
  std::size_t verify_recovered = 0;  ///< mismatches vindicated by retry
  std::size_t oracle_errors = 0;     ///< oracle itself failed on the row
  std::size_t drop_mismatches = 0;   ///< batch-drop claims the oracle refuted
  double avg_test_length = 0.0;       ///< over detected errors
  std::uint64_t backtracks = 0;       ///< over detected errors (Table 1)
  std::uint64_t decisions = 0;        ///< over detected errors
  /// Every effort counter summed over all attempted errors. Resumed rows
  /// carry only the journaled counters (util/effort.h).
  Effort effort;
  double cpu_seconds = 0.0;
  std::vector<unsigned> length_histogram;  ///< index = length

  /// Table-1 format: the deterministic rows, then a separate timing block
  /// (phase times, CPU time) whose padding cannot touch the rows above.
  std::string table1(const std::string& title) const;

  /// Fold one attempt into the tallies (shared by the sharded and dropping
  /// engines so the two can never diverge). `length_sum` accumulates
  /// detected test lengths for the avg_test_length finish-up.
  void add_attempt(const ErrorAttempt& a, std::uint64_t* length_sum);
};

struct CampaignResult {
  std::vector<CampaignRow> rows;
  CampaignStats stats;
  bool interrupted = false;      ///< cancellation stopped the sweep early
  /// --resume named a journal stamped with a DIFFERENT design or solver
  /// configuration: nothing ran (rows empty), journal_note explains.
  bool resume_refused = false;
  std::size_t resumed_rows = 0;  ///< rows replayed from the journal
  std::size_t dropped = 0;       ///< errors detected fortuitously
  std::size_t tests_kept = 0;    ///< distinct tests in the compacted set
  double dropping_seconds = 0;   ///< wall time spent error-simulating drops
  std::string journal_note;      ///< journal open/replay diagnostics
  /// Triage incidents raised by *fresh* rows this run (replayed rows were
  /// bundled by the original run). Incident numbers are assigned in
  /// error-index order, so they are deterministic for any --jobs value.
  std::size_t incidents = 0;
  std::vector<std::string> incident_notes;  ///< bundle paths / diagnostics
};

/// Fault-injection hook: deterministically forces per-error outcomes so the
/// recovery paths (exception capture, budget exhaustion, graceful
/// degradation) are directly testable without contriving real search
/// behaviour. Keyed by error index in the campaign's error list.
struct CampaignFault {
  enum class Kind {
    kThrow,          ///< the generator throws; campaign must survive
    kBudgetExhaust,  ///< primary attempt aborts with `abort` as the reason
    kForceAttempt,   ///< primary attempt is exactly `attempt`
  };
  Kind kind = Kind::kBudgetExhaust;
  AbortReason abort = AbortReason::kBacktracks;  ///< for kBudgetExhaust
  ErrorAttempt attempt;                          ///< for kForceAttempt
  /// When the primary attempt fails and a fallback generator is configured,
  /// force the fallback attempt to be `fallback_attempt` instead of calling
  /// the generator (models "fallback-succeed" deterministically).
  bool force_fallback = false;
  ErrorAttempt fallback_attempt;
};
using CampaignFaultPlan = std::map<std::size_t, CampaignFault>;

/// Detection oracle: does `test` detect `err`? Used for error dropping and
/// as the independent witness cross-check of the triage layer.
using DetectFn = std::function<bool(const TestCase&, const DesignError&)>;

/// Witness minimizer (src/triage/ddmin): shrink `test` while the oracle
/// verdict stays `expect_detected`; `note` receives a human summary of the
/// reduction. Must be thread-compatible (called from campaign workers).
using TriageMinimizeFn = std::function<TestCase(
    const TestCase&, const DesignError&, bool expect_detected,
    std::string* note)>;

/// Quarantine bundle writer (src/triage/bundle): emit one diagnostic
/// directory for incident number `incident` (index-ordered, deterministic
/// across --jobs). Returns a human note (bundle path or error). Called from
/// the aggregation thread only.
using TriageBundleFn = std::function<std::string(
    std::size_t incident, std::size_t error_index, const DesignError& err,
    const ErrorAttempt& attempt)>;

/// Self-checking configuration (docs/ROBUSTNESS.md "Self-checking and
/// triage"). With `verify` on, every detection claim - generator- or
/// fallback-produced, and every batch-drop claim - is re-validated through
/// `oracle`; a refuted claim is retried once through `cross_gen` (e.g. the
/// other --solver setting) and, failing that, lands in the
/// claim_mismatch bucket and is bundled for quarantine.
struct TriageConfig {
  bool verify = false;    ///< cross-check detection claims via `oracle`
  bool minimize = false;  ///< ddmin mismatching witnesses via `minimizer`
  DetectFn oracle;        ///< independent scalar oracle; a throw =>
                          ///< WitnessVerdict::kOracleError
  BudgetedGenFn cross_gen;     ///< one cross-config retry on claim mismatch
  TriageMinimizeFn minimizer;  ///< witness shrinker (used when `minimize`)
  TriageBundleFn bundle;       ///< quarantine writer (empty disables)
};

struct CampaignConfig {
  bool verbose = false;
  /// Armed per error for the primary (deterministic) generator.
  BudgetSpec budget;
  /// Graceful degradation: tried when the primary attempt fails for any
  /// reason other than cancellation. Empty function disables.
  BudgetedGenFn fallback;
  BudgetSpec fallback_budget;  ///< armed per fallback attempt
  /// Append-only JSONL journal ("" disables). One row per error.
  std::string journal_path;
  /// fsync the journal every N appended rows (and always on close). 1 is
  /// the old fsync-per-row behaviour; 0 defers durability entirely to
  /// close. A crash loses at most the current batch; resume replays the
  /// synced prefix correctly either way.
  unsigned journal_fsync_interval = 32;
  /// Replay journaled rows (skipping their generator runs) before
  /// attempting the rest. Requires journal_path.
  bool resume = false;
  /// Strict resume: refuse (CampaignResult::resume_refused) when the
  /// journal cannot actually be replayed - missing file, unreadable
  /// header, or a different campaign's journal - instead of silently
  /// starting fresh. Only meaningful with `resume`.
  bool resume_strict = false;
  /// Provenance stamps recorded in the journal header and checked on
  /// resume: a journal whose stamps conflict with these is REFUSED
  /// (CampaignResult::resume_refused) instead of replayed, because rows
  /// from a different design or solver configuration would silently
  /// corrupt the Table-1 statistics. Zero means "unstamped" (legacy
  /// callers, unit tests): no stamp is written and none is enforced.
  /// Campaign drivers pass tg_design_hash() / tg_config_hash().
  std::uint64_t design_hash = 0;
  std::uint64_t solver_config_hash = 0;
  /// Checked between errors: a stop request ends the sweep cleanly after
  /// the current error (its row is journaled first).
  const CancelToken* cancel = nullptr;
  const CampaignFaultPlan* faults = nullptr;  ///< test hook
  /// Self-checking: oracle cross-check, cross-config retry, witness
  /// minimization, quarantine bundling.
  TriageConfig triage;
};

/// One error through the resilient pipeline: fault hook, primary generator
/// under its budget, exception capture, graceful degradation. Shared by the
/// dropping loop and the sharded worker pool (errors/parallel_campaign);
/// thread-safe as long as `gen`, the fallback, the triage callables and the
/// fault plan are (the sharded engine builds one generator per worker; the
/// fallback and triage callables are shared).
ErrorAttempt attempt_one_error(const DesignError& err, std::size_t index,
                               const BudgetedGenFn& gen,
                               const CampaignConfig& cfg);

/// Record (and, when a writer is configured, emit) one quarantine incident.
/// Shared by the two campaign engines, which call it in error-index order
/// from the aggregation thread - incident numbering is therefore
/// deterministic for any --jobs value. Replayed (resumed) rows are never
/// re-bundled; only fresh attempts reach this.
void record_incident(CampaignResult* res, const CampaignConfig& cfg,
                     std::size_t index, const DesignError& err,
                     const ErrorAttempt& a);

/// The `-v` line of one campaign row: outcome tag, error, note and (for
/// instrumented strategies) the DPTRACE / CTRLJUST / DPRELAX phase times.
/// Both engines print through it from their aggregation loop.
void print_row(const Netlist& nl, const DesignError& err,
               const ErrorAttempt& a);

/// The sharded engine (errors/parallel_campaign) at one job, on the calling
/// thread: `gen` needs no thread safety.
CampaignResult run_campaign(const Netlist& nl,
                            const std::vector<DesignError>& errors,
                            const BudgetedGenFn& gen,
                            const CampaignConfig& cfg = {});

/// Batched detection oracle: out[i] iff `test` detects errors[i]. The
/// bit-parallel implementation (sim/batch_sim: one controller evaluation
/// for up to 64 injected errors) answers a whole remaining-error sweep in
/// one call; `batch_from_scalar` adapts a per-error DetectFn.
using BatchDetectFn = std::function<std::vector<bool>(
    const TestCase&, const std::vector<const DesignError*>&)>;

/// Adapt a scalar detection oracle to the batched interface (serial
/// reference path; the benchmark measures the batch kernel against it).
BatchDetectFn batch_from_scalar(DetectFn detect);

/// Campaign with error dropping (the re-use the paper's Sec. VI says its
/// prototype did not yet exploit): after each generated test, all remaining
/// errors are error-simulated against it in one batched detector call and
/// fortuitously detected ones are dropped without their own generator run.
/// The resulting compacted test set covers the same errors with far fewer
/// tests and generator calls.
///
/// Honors the full CampaignConfig: per-error budgets, graceful degradation,
/// cooperative cancellation, and the checkpoint journal. Only generator
/// attempts are journaled; on resume the dropping passes are re-derived by
/// re-simulating each replayed test (cheap on the batched path), so the
/// resumed campaign reproduces the original drop set deterministically.
CampaignResult run_campaign_with_dropping(
    const Netlist& nl, const std::vector<DesignError>& errors,
    const BudgetedGenFn& gen, const BatchDetectFn& detect,
    const CampaignConfig& cfg = {});

}  // namespace hltg
