// Sharded campaign engine, the one general campaign engine: a fixed-size
// worker pool runs the resilient per-error pipeline (errors/campaign.h:
// budgets, fallback, fault hooks, exception capture) over the error
// population concurrently. At one job it runs on the calling thread
// (run_campaign); only error dropping, which is sequential by nature, has
// its own loop (run_campaign_with_dropping).
//
// Determinism contract: for a deterministic generator, CampaignResult.rows
// and .stats are identical for any --jobs value. Workers only *compute*
// attempts; all aggregation (stats tallies, row order, verbose output)
// happens on the calling thread in error-index order after the pool joins.
// Work distribution is deterministic round-robin sharding: worker w runs
// the pending errors at positions p with p % jobs == w, in ascending
// order, so each worker's error sequence is a pure function of (campaign,
// jobs). Each attempt remains a pure function of (error, per-error budget,
// per-worker generator); generators are constructed per worker from a
// factory and share nothing. A generator that carries state across errors
// (campaign solver scope) therefore learns a pure function of its shard:
// its rows' effort counters and its exported deduction state repeat run
// over run for a given (population, jobs), and may differ between jobs
// values, while outcomes, witnesses and emitted tests never do.
// If a worker's factory throws, its shard is not lost: once every factory
// outcome is known, surviving workers adopt orphaned shards whole (each
// adopted by exactly one survivor). Outcomes stay identical on that path;
// only reuse-effort counters can vary with adoption order.
//
// Journal contract: rows are appended under a mutex as workers finish, so
// they may land *out of index order*. That is within the JSONL journal
// contract - resume keys rows by their "index" field, not file position -
// and tests/test_parallel_campaign verifies resume from such a journal.
//
// Cancellation: a stop request (e.g. SIGINT via CancelToken) stops workers
// from taking new errors; in-flight attempts finish (their budgets also see
// the token if cfg.budget.cancel is wired) and are journaled before the
// pool drains.
#pragma once

#include <functional>

#include "errors/campaign.h"

namespace hltg {

/// Builds one worker's private generator. Called once per worker thread
/// (worker ids 0..jobs-1) before the worker takes any error, from that
/// worker's thread. The returned generator must be deterministic per error
/// for the jobs-independence guarantee; it need not be thread-safe, only
/// thread-compatible (no shared mutable state with other workers').
using GenFactory = std::function<BudgetedGenFn(unsigned worker)>;

/// Every worker reads the one shared CampaignConfig, so with jobs > 1 its
/// callables - the fallback generator, the triage oracle, cross-config
/// generator and minimizer - must be thread-safe (a pure function of the
/// error, as random_budgeted_strategy is). The bundle writer runs on the
/// aggregation thread only.
struct ParallelCampaignConfig : CampaignConfig {
  /// Worker threads. 0 or 1 runs a single worker on the calling thread.
  unsigned jobs = 1;
};

/// Adapt a single shared generator known to be thread-safe (e.g. a pure
/// function of the error) to the factory interface.
GenFactory shared_gen(BudgetedGenFn gen);

/// Run the campaign on `cfg.jobs` workers. Aggregated result is
/// index-ordered and (for deterministic generators) identical for any
/// `jobs`. Honors the full CampaignConfig including journal resume.
CampaignResult run_campaign_parallel(const Netlist& nl,
                                     const std::vector<DesignError>& errors,
                                     const GenFactory& make_gen,
                                     const ParallelCampaignConfig& cfg);

}  // namespace hltg
