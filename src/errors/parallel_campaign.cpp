#include "errors/parallel_campaign.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "errors/journal.h"
#include "netlist/netlist.h"

namespace hltg {

GenFactory shared_gen(BudgetedGenFn gen) {
  return [gen = std::move(gen)](unsigned) { return gen; };
}

CampaignResult run_campaign(const Netlist& nl,
                            const std::vector<DesignError>& errors,
                            const BudgetedGenFn& gen,
                            const CampaignConfig& cfg) {
  return run_campaign_parallel(nl, errors, shared_gen(gen), {cfg, 1});
}

namespace {

enum : unsigned char { kPending = 0, kFresh = 1, kReplayed = 2 };

}  // namespace

CampaignResult run_campaign_parallel(const Netlist& nl,
                                     const std::vector<DesignError>& errors,
                                     const GenFactory& make_gen,
                                     const ParallelCampaignConfig& cfg) {
  const unsigned jobs = cfg.jobs < 1 ? 1 : cfg.jobs;

  CampaignResult res;
  res.stats.total = errors.size();

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

  std::vector<ErrorAttempt> attempts(errors.size());
  std::vector<unsigned char> state(errors.size(), kPending);
  std::vector<std::size_t> pending;
  pending.reserve(errors.size());
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (const auto it = journal.replay.find(i); it != journal.replay.end()) {
      attempts[i] = it->second;
      state[i] = kReplayed;
    } else {
      pending.push_back(i);
    }
  }

  // Lazy caches (Netlist topo order; the generators' own models) must be
  // materialised before threads share them. The netlist's is ours to warm;
  // callers warm their model (GateNet::warm_caches) before handing out
  // const refs.
  if (!errors.empty()) (void)nl.topo_order();

  // Deterministic sharding: worker w owns the pending positions p with
  // p % jobs == w, walked in ascending order. Unlike work stealing, the
  // error sequence each worker sees is a pure function of (campaign,
  // jobs), and so is its campaign-scope deduction state. Aggregation below
  // stays index-ordered, so rows and stats repeat for a given jobs value;
  // they are jobs-independent whenever the generator keeps no state across
  // errors (error scope).
  std::mutex journal_mu;
  std::mutex note_mu;
  // Orphan adoption: when a worker's generator factory fails, its shard
  // must not be lost. Survivors wait until every factory outcome is known,
  // then adopt orphaned shards whole (each by exactly one survivor).
  // Adoption order is racy, but attempts are pure functions of the error,
  // so only reuse counters can vary on this (abnormal) path - never
  // outcomes.
  std::mutex shard_mu;
  std::condition_variable shard_cv;
  unsigned factories_resolved = 0;
  std::vector<unsigned> orphan_shards;

  auto run_shard = [&](unsigned shard, const BudgetedGenFn& gen) {
    for (std::size_t p = shard; p < pending.size(); p += jobs) {
      if (cfg.cancel && cfg.cancel->stop_requested()) return;
      const std::size_t i = pending[p];
      ErrorAttempt a = attempt_one_error(errors[i], i, gen, cfg);
      {
        std::lock_guard<std::mutex> lk(journal_mu);
        if (journal.writer.is_open())
          journal.writer.append_line(journal_row_line(i, a));
      }
      attempts[i] = std::move(a);
      state[i] = kFresh;
    }
  };

  auto worker = [&](unsigned w) {
    BudgetedGenFn gen;
    bool available = true;
    try {
      gen = make_gen(w);
    } catch (const std::exception& e) {
      available = false;
      std::lock_guard<std::mutex> lk(note_mu);
      if (!res.journal_note.empty()) res.journal_note += "; ";
      res.journal_note +=
          "worker " + std::to_string(w) + " unavailable: " + e.what();
    }
    {
      std::lock_guard<std::mutex> lk(shard_mu);
      ++factories_resolved;
      if (!available) orphan_shards.push_back(w);
    }
    shard_cv.notify_all();
    if (!available) return;  // survivors adopt this worker's shard

    run_shard(w, gen);

    std::unique_lock<std::mutex> lk(shard_mu);
    shard_cv.wait(lk, [&] { return factories_resolved == jobs; });
    while (!orphan_shards.empty()) {
      const unsigned orphan = orphan_shards.front();
      orphan_shards.erase(orphan_shards.begin());
      lk.unlock();
      run_shard(orphan, gen);
      lk.lock();
    }
  };

  if (jobs == 1) {
    worker(0);  // no thread: same engine, zero pool overhead
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w) pool.emplace_back(worker, w);
    for (std::thread& t : pool) t.join();
  }

  // Deterministic aggregation: fold attempts in error-index order so stats,
  // row order and verbose output are identical for any jobs value.
  std::uint64_t length_sum = 0;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (state[i] == kPending) continue;  // cancelled before being taken
    ++completed;
    if (state[i] == kReplayed) ++res.resumed_rows;
    ErrorAttempt& a = attempts[i];
    // Quarantine bundles are written here, not in the workers: the
    // aggregation loop runs in error-index order, so incident numbering is
    // deterministic for any jobs value. Replayed rows were bundled by the
    // original run.
    if (state[i] == kFresh && a.incident())
      record_incident(&res, cfg, i, errors[i], a);
    res.stats.add_attempt(a, &length_sum);
    if (cfg.verbose) print_row(nl, errors[i], a);
    res.rows.push_back({errors[i], std::move(a)});
  }
  res.interrupted = completed < errors.size();
  if (res.stats.detected > 0)
    res.stats.avg_test_length =
        static_cast<double>(length_sum) / res.stats.detected;
  res.tests_kept = res.stats.detected;
  if (!journal.writer.error().empty()) {
    std::lock_guard<std::mutex> lk(note_mu);
    if (!res.journal_note.empty()) res.journal_note += "; ";
    res.journal_note += journal.writer.error();
  }
  return res;
}

}  // namespace hltg
