// Campaign service core (docs/SERVICE.md): the in-process engine behind
// the tg_server daemon, directly drivable (and unit-testable) without a
// socket.
//
// Lifecycle of a submission:
//
//   submit() -> validate (plan_request)      -> rejected: invalid request
//            -> content-addressed cache hit  -> answered synchronously
//            -> identical request in flight  -> coalesced onto that flight
//            -> bounded queue full           -> rejected: overloaded
//            -> enqueued                     -> an executor thread runs the
//                                               campaign, inserts the
//                                               result into the cache, and
//                                               fires every subscriber's
//                                               completion callback
//
// Requests carry a per-flight cooperative CancelToken (cancel());
// progress is observable by tailing the flight's spool journal (the
// campaign engine's own JSONL checkpoint file, flushed per row). drain()
// stops admissions and completes everything already admitted - the
// SIGTERM path of the daemon.
//
// With ServiceConfig::supervise set, each flight runs in a forked worker
// process under service/supervisor.h: worker crashes come back as
// structured errors and are retried with jittered backoff, a per-request
// wall-clock deadline escalates SIGTERM -> SIGKILL, and a key whose
// workers crash max_crashes times is quarantined as POISONED - a terminal
// error served synchronously to every later submission of that key.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "errors/campaign.h"
#include "service/cache.h"
#include "service/request.h"
#include "service/supervisor.h"

namespace hltg {

struct DedSnapshot;

/// Completion report delivered to every subscriber of a flight.
struct RequestOutcome {
  std::uint64_t id = 0;
  std::string key;      ///< content address (cache key)
  bool ok = false;      ///< campaign ran to completion (or cache hit)
  bool cached = false;  ///< answered from the result cache
  bool cancelled = false;
  /// Terminal: the crash-count circuit breaker quarantined this request
  /// key (docs/ROBUSTNESS.md "Poisoned requests"). Never retried.
  bool poisoned = false;
  /// The failure is retryable: an identical resubmission may succeed
  /// (worker crashed while draining, fork failure, ...). Clients with
  /// retry enabled resubmit; poisoned/invalid outcomes never set this.
  bool transient = false;
  std::string error;   ///< when !ok
  std::string csv;     ///< the result payload: campaign_csv bytes
  std::string table1;  ///< Table-1 block (fresh runs only; empty cached)
  std::size_t total = 0;
  std::size_t attempted = 0;
  std::size_t detected = 0;
};

using DoneFn = std::function<void(const RequestOutcome&)>;

/// Campaign execution hook: validated plan + how-config in, engine result
/// out (see ServiceConfig::runner_override).
using CampaignRunner =
    std::function<CampaignResult(const RequestPlan&, const CampaignConfig&)>;

struct ServiceConfig {
  unsigned executors = 2;  ///< concurrent campaigns (each may use `jobs`)
  /// Clamp on a request's own worker count, applied before the cache key
  /// is derived (campaign-scope rows depend on the count that runs).
  unsigned jobs_cap = 8;
  std::size_t queue_capacity = 16;  ///< admission bound (excludes running)
  std::string cache_dir;            ///< result-cache persistence ("" = off)
  std::size_t cache_memory_entries = 64;
  /// Disk budget for the result cache in bytes (0 = unbounded): LRU
  /// eviction keeps the cache directory under this bound.
  std::size_t cache_max_bytes = 0;
  /// Directory for per-request progress journals ("" disables progress
  /// streaming; results are unaffected).
  std::string spool_dir;
  /// Completed flights whose spool journal is kept before GC reclaims it
  /// (subscribers tail the journal briefly after completion).
  std::size_t spool_keep = 4;
  /// Run each flight in a forked, supervised worker process: a campaign
  /// crash (or OOM kill, or runaway wall clock) becomes a structured
  /// result instead of daemon death. Off = PR 8's in-process execution
  /// (unit tests; debugging).
  bool supervise = false;
  /// Worker supervision knobs: crash circuit breaker, per-request
  /// deadline, SIGTERM grace, restart backoff.
  SupervisorConfig supervisor;
  /// Quarantine-bundle directory for poisoned requests ("" keeps the
  /// breaker in memory only; poison then dies with the daemon).
  std::string poison_dir;
  /// Test hook: replaces the real campaign runner (run_campaign_plan).
  /// Receives the validated plan and a CampaignConfig holding only how the
  /// run is watched and stopped (journal path, cancel tokens);
  /// run_campaign_plan takes everything else from the plan. Under
  /// supervision the override runs inside the forked worker, so it must
  /// be fork-safe (no parent threads/locks).
  CampaignRunner runner_override;
};

struct ServiceStats {
  std::uint64_t submitted = 0;       ///< well-formed submissions received
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t completed = 0;  ///< flights run to completion
  std::uint64_t cancelled = 0;  ///< flights stopped by cancel()
  std::uint64_t coalesced = 0;  ///< submissions attached to in-flight work
  std::uint64_t worker_crashes = 0;   ///< supervised workers that died
  std::uint64_t worker_restarts = 0;  ///< crashed flights re-forked
  std::uint64_t deadline_kills = 0;   ///< flights stopped by the deadline
  std::uint64_t rejected_poisoned = 0;  ///< submissions of quarantined keys
  std::uint64_t spool_gc = 0;   ///< progress journals reclaimed
  std::size_t poisoned = 0;     ///< snapshot: quarantined request keys
  std::size_t queued = 0;       ///< snapshot: flights waiting
  std::size_t running = 0;      ///< snapshot: flights executing
  ResultCacheStats cache;
};

struct SubmitResult {
  bool ok = false;    ///< admitted, coalesced, or answered from cache
  std::string error;  ///< when !ok
  /// A rejection the client may retry (queue full, draining) as opposed
  /// to a terminal one (invalid request).
  bool transient = false;
  std::uint64_t id = 0;
  std::string key;
  bool cached = false;     ///< done callback already fired, synchronously
  /// The key is quarantined: `done` already fired, synchronously, with a
  /// terminal poisoned outcome.
  bool poisoned = false;
  bool coalesced = false;  ///< attached to an identical in-flight request
  std::string journal_path;  ///< spool journal to tail for progress ("")
};

/// Run a validated request plan: the one function that turns a request
/// into a campaign, for the daemon and the error_campaign CLI alike. It
/// picks the engine (the sharded engine at plan.jobs workers, or the
/// dropping loop) and takes every semantic setting from the plan: budget
/// caps, fallback generator and budget, and provenance stamps. `ccfg`
/// says only how the run is watched and stopped - journal, resume, cancel
/// tokens (including budget.cancel), triage, verbose, fault hooks; its
/// other fields are ignored. `warm`, when given, is imported into every
/// generator before its first error; `saved`, when given, receives the
/// generators' deduction state after the run, merged in worker-id order.
CampaignResult run_campaign_plan(const DlxModel& m, const RequestPlan& plan,
                                 const CampaignConfig& ccfg,
                                 const DedSnapshot* warm = nullptr,
                                 DedSnapshot* saved = nullptr);

class CampaignService {
 public:
  /// `m` must outlive the service. Executor threads start immediately.
  CampaignService(const DlxModel& m, ServiceConfig cfg);
  ~CampaignService();
  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Submit a request. On success `done` fires exactly once - already
  /// (synchronously) when SubmitResult::cached, later from an executor
  /// thread otherwise. For rejections (ok=false: invalid request, queue
  /// full, draining) `done` never fires; the error is in the result.
  SubmitResult submit(const RequestSpec& spec, DoneFn done);

  /// Request cooperative cancellation of a flight. Affects every
  /// subscriber coalesced onto it (they asked for identical work). False
  /// when the id is unknown or already completed.
  bool cancel(std::uint64_t id);

  /// Stop admitting, run every already-admitted flight to completion, and
  /// join the executors. Idempotent; the destructor calls it.
  void drain();

  ServiceStats stats() const;

 private:
  struct Flight {
    std::uint64_t id = 0;  ///< primary id (first submitter's)
    RequestSpec spec;
    RequestPlan plan;
    CancelToken cancel;
    std::string journal_path;
    bool running = false;
    std::vector<std::pair<std::uint64_t, DoneFn>> subscribers;
  };

  void executor_loop();
  void run_flight(const std::shared_ptr<Flight>& fl);
  void execute_inproc(const std::shared_ptr<Flight>& fl, RequestOutcome* o);
  void execute_supervised(const std::shared_ptr<Flight>& fl,
                          RequestOutcome* o);
  WorkerJob make_worker_job(const std::shared_ptr<Flight>& fl);
  void gc_spool(std::size_t keep);

  const DlxModel& model_;
  ServiceConfig cfg_;
  ResultCache cache_;
  CrashBreaker breaker_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool draining_ = false;
  std::size_t running_ = 0;  ///< flights currently on an executor
  std::uint64_t next_id_ = 1;
  std::deque<std::shared_ptr<Flight>> queue_;
  std::map<std::string, std::shared_ptr<Flight>> inflight_by_key_;
  std::map<std::uint64_t, std::shared_ptr<Flight>> inflight_by_id_;
  /// Spool journals of completed flights, oldest first; GC'd beyond
  /// cfg_.spool_keep (and entirely at drain).
  std::deque<std::string> spool_done_;
  ServiceStats stats_;
  std::vector<std::thread> executors_;
};

}  // namespace hltg
