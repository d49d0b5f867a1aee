#include "service/service.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "baseline/random_tg.h"
#include "errors/parallel_campaign.h"
#include "errors/report.h"
#include "sim/batch_sim.h"
#include "solver/store.h"
#include "util/fnv.h"
#include "util/minijson.h"

namespace hltg {

namespace {

/// Worker-process cancel plumbing: the supervisor's SIGTERM is the
/// cooperative cancel signal, translated into the flight's CancelToken
/// (an atomic bool - async-signal-safe to flip from a handler).
CancelToken* g_worker_cancel = nullptr;
extern "C" void worker_on_term(int) {
  if (g_worker_cancel) g_worker_cancel->request_stop();
}

/// Recover the attempted/detected counters from a cached CSV payload so a
/// cache-served outcome summarises like the fresh run it replays. One data
/// row per attempted error; the outcome column (third field) starts with
/// "detected" for the detected ones. Errors dropped by error simulation
/// have no row; the caller adds them to `detected`.
void count_csv_rows(const std::string& csv, std::size_t* attempted,
                    std::size_t* detected) {
  std::size_t pos = csv.find('\n');  // skip the header line
  while (pos != std::string::npos && pos + 1 < csv.size()) {
    const std::size_t eol = csv.find('\n', pos + 1);
    const std::string line =
        csv.substr(pos + 1, eol == std::string::npos ? eol : eol - pos - 1);
    pos = eol;
    if (line.empty()) continue;
    ++*attempted;
    // Walk to the third field; the error-description field may be quoted
    // with embedded commas (csv_escape), so track quoting.
    int commas = 0;
    bool quoted = false;
    std::size_t i = 0;
    for (; i < line.size() && commas < 2; ++i) {
      if (line[i] == '"')
        quoted = !quoted;
      else if (line[i] == ',' && !quoted)
        ++commas;
    }
    if (commas == 2 && line.compare(i, 8, "detected") == 0) ++*detected;
  }
}

/// What a flight hands run_campaign_plan: how the run is watched and
/// stopped. Everything the campaign computes comes from the plan.
CampaignConfig flight_config(const std::string& journal_path,
                             const CancelToken* cancel) {
  CampaignConfig ccfg;
  ccfg.journal_path = journal_path;
  ccfg.budget.cancel = cancel;
  ccfg.cancel = cancel;
  return ccfg;
}

}  // namespace

CampaignResult run_campaign_plan(const DlxModel& m, const RequestPlan& plan,
                                 const CampaignConfig& ccfg,
                                 const DedSnapshot* warm, DedSnapshot* saved) {
  ParallelCampaignConfig cfg;
  static_cast<CampaignConfig&>(cfg) = ccfg;
  cfg.jobs = plan.jobs;
  cfg.budget = plan.budget;
  cfg.budget.cancel = ccfg.budget.cancel;
  cfg.fallback = nullptr;
  if (plan.fallback) {
    // A pure function of the error, so all workers share the one instance.
    RandomTgConfig rcfg;
    rcfg.max_programs_per_error = plan.fallback_tries;
    cfg.fallback = random_budgeted_strategy(m, rcfg);
  }
  cfg.fallback_budget = cfg.budget;  // same deadline/caps per attempt
  cfg.design_hash = plan.design_hash;
  cfg.solver_config_hash = plan.config_hash;

  // Workers share the model read-only: materialise its lazy caches before
  // handing out const refs.
  m.ctrl.warm_caches();
  m.dp.topo_order();

  // One generator per worker, kept past the run so its deduction state can
  // be exported. Each worker writes only its own slot.
  std::vector<std::unique_ptr<TestGenerator>> gens(std::max(plan.jobs, 1u));
  const GenFactory make_gen = [&](unsigned w) {
    gens[w] = std::make_unique<TestGenerator>(m, plan.tgcfg);
    if (warm) import_context(*warm, &gens[w]->solver_context());
    return gens[w]->budgeted_strategy();
  };
  CampaignResult res;
  if (plan.drop) {
    res = run_campaign_with_dropping(m.dp, plan.errors, make_gen(0),
                                     batch_detector(m), cfg);
  } else {
    res = run_campaign_parallel(m.dp, plan.errors, make_gen, cfg);
  }
  if (saved)
    for (const auto& tg : gens)
      if (tg) saved->merge(export_context(tg->solver_context()));
  return res;
}

CampaignService::CampaignService(const DlxModel& m, ServiceConfig cfg)
    : model_(m),
      cfg_(std::move(cfg)),
      cache_(ResultCacheConfig{cfg_.cache_dir, cfg_.cache_memory_entries,
                               cfg_.cache_max_bytes}),
      breaker_(cfg_.supervisor.max_crashes, cfg_.poison_dir) {
  // Parallel flights hand out const refs to the model across threads:
  // materialise its lazy caches before any worker can race on them.
  model_.ctrl.warm_caches();
  model_.dp.topo_order();
  if (cfg_.executors == 0) cfg_.executors = 1;
  for (unsigned i = 0; i < cfg_.executors; ++i)
    executors_.emplace_back([this] { executor_loop(); });
}

CampaignService::~CampaignService() { drain(); }

SubmitResult CampaignService::submit(const RequestSpec& spec, DoneFn done) {
  SubmitResult out;
  // Clamp before planning: at campaign scope the worker count is part of
  // the key, which must name the count that actually runs.
  RequestSpec clamped = spec;
  clamped.jobs = std::min(spec.jobs, cfg_.jobs_cap);
  RequestPlan plan = plan_request(model_, clamped);
  if (!plan.ok()) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.rejected_invalid;
    out.error = plan.error;
    return out;
  }
  out.key = plan.cache_key;

  // Poisoned keys are terminal before anything else: the circuit breaker
  // has proven this exact computation kills workers, so it never reaches
  // the queue again. The done callback fires synchronously, like a cache
  // hit - but with the quarantine error.
  std::string poison_why;
  if (breaker_.poisoned(plan.cache_key, &poison_why)) {
    RequestOutcome o;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.submitted;
      ++stats_.rejected_poisoned;
      o.id = next_id_++;
      out.id = o.id;
    }
    o.key = plan.cache_key;
    o.poisoned = true;
    o.error = poison_why;
    out.ok = true;
    out.poisoned = true;
    if (done) done(o);
    return out;
  }

  // Cache first: an identical completed request answers without a queue
  // slot, an id, or an executor - this is the content-addressed fast path.
  std::string payload;
  if (cache_.lookup(plan.cache_key, &payload)) {
    RequestOutcome o;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.submitted;
      o.id = next_id_++;
      out.id = o.id;
    }
    o.key = plan.cache_key;
    o.ok = true;
    o.cached = true;
    o.csv = std::move(payload);
    o.total = plan.errors.size();
    count_csv_rows(o.csv, &o.attempted, &o.detected);
    // Only complete campaigns are cached, so in a drop campaign an error
    // without a row was dropped by error simulation: detected by the test
    // of an earlier error.
    if (plan.drop) o.detected += o.total - o.attempted;
    out.ok = true;
    out.cached = true;
    if (done) done(o);
    return out;
  }

  std::unique_lock<std::mutex> lk(mu_);
  ++stats_.submitted;
  if (draining_) {
    out.error = "service is draining";
    out.transient = true;  // a restarted daemon will take this request
    ++stats_.rejected_overload;
    return out;
  }
  const std::uint64_t id = next_id_++;
  out.id = id;

  // Single-flight: identical work already admitted? Ride it.
  const auto fit = inflight_by_key_.find(plan.cache_key);
  if (fit != inflight_by_key_.end()) {
    fit->second->subscribers.emplace_back(id, std::move(done));
    inflight_by_id_[id] = fit->second;
    ++stats_.coalesced;
    out.ok = true;
    out.coalesced = true;
    out.journal_path = fit->second->journal_path;
    return out;
  }

  if (queue_.size() >= cfg_.queue_capacity) {
    out.error = "admission queue full";
    out.transient = true;  // load shedding, not a verdict on the request
    ++stats_.rejected_overload;
    return out;
  }

  auto fl = std::make_shared<Flight>();
  fl->id = id;
  fl->spec = clamped;
  fl->plan = std::move(plan);
  if (!cfg_.spool_dir.empty())
    fl->journal_path =
        cfg_.spool_dir + "/req_" + std::to_string(id) + ".jsonl";
  fl->subscribers.emplace_back(id, std::move(done));
  queue_.push_back(fl);
  inflight_by_key_[fl->plan.cache_key] = fl;
  inflight_by_id_[id] = fl;
  out.ok = true;
  out.journal_path = fl->journal_path;
  lk.unlock();
  cv_.notify_one();
  return out;
}

bool CampaignService::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = inflight_by_id_.find(id);
  if (it == inflight_by_id_.end()) return false;
  // Cooperative: the campaign engine checks between errors; the current
  // error finishes (and is journaled) first. Cancels the whole flight,
  // coalesced subscribers included - they asked for the identical work.
  it->second->cancel.request_stop();
  return true;
}

void CampaignService::drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : executors_)
    if (t.joinable()) t.join();
  // Every flight has published; nobody will tail a progress journal of a
  // dead daemon. Reclaim them all.
  gc_spool(0);
}

ServiceStats CampaignService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServiceStats s = stats_;
  s.queued = queue_.size();
  s.running = running_;
  s.poisoned = breaker_.poisoned_count();
  s.cache = cache_.stats();
  return s;
}

void CampaignService::executor_loop() {
  for (;;) {
    std::shared_ptr<Flight> fl;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and nothing left
      fl = queue_.front();
      queue_.pop_front();
      fl->running = true;
      ++running_;
    }
    run_flight(fl);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --running_;
    }
  }
}

void CampaignService::run_flight(const std::shared_ptr<Flight>& fl) {
  RequestOutcome o;
  o.id = fl->id;
  o.key = fl->plan.cache_key;
  if (cfg_.supervise)
    execute_supervised(fl, &o);
  else
    execute_inproc(fl, &o);

  std::vector<std::pair<std::uint64_t, DoneFn>> subs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    subs.swap(fl->subscribers);
    inflight_by_key_.erase(fl->plan.cache_key);
    for (const auto& [sid, fn] : subs) inflight_by_id_.erase(sid);
    if (o.cancelled)
      ++stats_.cancelled;
    else
      ++stats_.completed;
    // The flight is done; its progress journal is now only of brief
    // interest to subscribers still tailing. Queue it for GC.
    if (!fl->journal_path.empty()) spool_done_.push_back(fl->journal_path);
  }
  gc_spool(cfg_.spool_keep);
  // Callbacks run outside the lock: they write sockets / take their own
  // locks and must not be able to deadlock the service.
  for (auto& [sid, fn] : subs) {
    if (!fn) continue;
    o.id = sid;
    fn(o);
  }
}

void CampaignService::execute_inproc(const std::shared_ptr<Flight>& fl,
                                     RequestOutcome* o) {
  const CampaignConfig ccfg = flight_config(fl->journal_path, &fl->cancel);
  try {
    const CampaignResult res = cfg_.runner_override
                                   ? cfg_.runner_override(fl->plan, ccfg)
                                   : run_campaign_plan(model_, fl->plan, ccfg);
    o->total = res.stats.total;
    o->attempted = res.stats.attempted;
    o->detected = res.stats.detected;
    if (res.interrupted) {
      o->cancelled = true;
      o->error = "cancelled after " + std::to_string(res.stats.attempted) +
                 " of " + std::to_string(res.stats.total) + " errors";
    } else {
      o->ok = true;
      o->csv = campaign_csv(model_.dp, res);
      o->table1 = res.stats.table1("campaign summary");
      // Only complete, uninterrupted results are content-addressable:
      // a partial sweep under this key would be served as the full
      // answer forever after.
      cache_.insert(fl->plan.cache_key, o->csv);
    }
  } catch (const std::exception& e) {
    o->error = std::string("campaign failed: ") + e.what();
  }
}

WorkerJob CampaignService::make_worker_job(const std::shared_ptr<Flight>& fl) {
  // Everything the child needs is captured by value or owned by `fl`,
  // which outlives the fork; the child must touch no service locks or
  // threads (they do not exist on its side of the fork).
  return [this, fl](int wfd) -> int {
    static CancelToken worker_cancel;
    g_worker_cancel = &worker_cancel;
    std::signal(SIGTERM, worker_on_term);
    std::signal(SIGINT, worker_on_term);

    // The worker's own token: the one its SIGTERM handler flips.
    const CampaignConfig ccfg =
        flight_config(fl->journal_path, &worker_cancel);

    JsonWriter w;
    std::string csv, table1;
    try {
      const CampaignResult res =
          cfg_.runner_override ? cfg_.runner_override(fl->plan, ccfg)
                               : run_campaign_plan(model_, fl->plan, ccfg);
      if (!res.interrupted) {
        csv = campaign_csv(model_.dp, res);
        table1 = res.stats.table1("campaign summary");
      }
      w.boolean("ok", !res.interrupted)
          .boolean("cancelled", res.interrupted)
          .str("error", "")
          .num("total", res.stats.total)
          .num("attempted", res.stats.attempted)
          .num("detected", res.stats.detected);
    } catch (const std::exception& e) {
      w.boolean("ok", false)
          .boolean("cancelled", false)
          .str("error", std::string("campaign failed: ") + e.what())
          .num("total", fl->plan.errors.size())
          .num("attempted", 0)
          .num("detected", 0);
    }
    if (!write_worker_record(wfd, kWorkerRecSummary, w.take())) return 2;
    if (!csv.empty() && !write_worker_record(wfd, kWorkerRecCsv, csv))
      return 2;
    if (!table1.empty() &&
        !write_worker_record(wfd, kWorkerRecTable1, table1))
      return 2;
    return 0;
  };
}

void CampaignService::execute_supervised(const std::shared_ptr<Flight>& fl,
                                         RequestOutcome* o) {
  // Salt the backoff jitter with the request key so concurrently crashed
  // flights desynchronise their restarts.
  Fnv1a key_hash(kFnvTruncatedBasis);
  key_hash.bytes(fl->plan.cache_key);
  const std::uint64_t salt = key_hash.h;

  for (unsigned attempt = 1;; ++attempt) {
    const WorkerExit we = run_worker(
        make_worker_job(fl), cfg_.supervisor,
        [&fl] { return fl->cancel.stop_requested(); });

    if (we.result_ok) {
      const MiniJson j(we.summary_json);
      bool ok = false, cancelled = false;
      std::uint64_t total = 0, attempted = 0, detected = 0;
      std::string err;
      j.get_bool("ok", &ok);
      j.get_bool("cancelled", &cancelled);
      j.get_string("error", &err);
      j.get_u64("total", &total);
      j.get_u64("attempted", &attempted);
      j.get_u64("detected", &detected);
      o->total = total;
      o->attempted = attempted;
      o->detected = detected;
      if (cancelled) {
        o->cancelled = true;
        o->error = "cancelled after " + std::to_string(attempted) + " of " +
                   std::to_string(total) + " errors";
      } else if (ok) {
        o->ok = true;
        o->csv = we.csv;
        o->table1 = we.table1;
        // The parent owns cache insertion: the child's payload crossed
        // the pipe CRC-checked, so what lands here is what it computed.
        cache_.insert(fl->plan.cache_key, o->csv);
      } else {
        // The campaign failed cleanly inside the worker (engine threw):
        // a structured, terminal error - not a crash.
        o->error = err.empty() ? "campaign failed" : err;
      }
      return;
    }

    if (we.timed_out) {
      // Terminal, not retried: the deadline measures the request itself;
      // an identical rerun would time out identically.
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.deadline_kills;
      }
      o->error = "deadline exceeded: worker killed after " +
                 std::to_string(cfg_.supervisor.deadline_seconds) +
                 "s (" + we.describe() + ")";
      return;
    }

    if (fl->cancel.stop_requested()) {
      // The SIGTERM that ended this worker was our own cancel; report it
      // as a cancellation, not a crash.
      o->cancelled = true;
      o->error = "cancelled (worker stopped, " + we.describe() + ")";
      return;
    }

    // A genuine crash: signal, nonzero exit, or torn result.
    const unsigned crashes = breaker_.record_crash(
        fl->plan.cache_key, we.describe(), request_fields_json(fl->spec));
    bool draining;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.worker_crashes;
      draining = draining_;
    }
    std::string why;
    if (breaker_.poisoned(fl->plan.cache_key, &why)) {
      o->poisoned = true;
      o->error = why;
      return;
    }
    if (draining) {
      // No retry while draining - report transiently so the client can
      // resubmit to the restarted daemon (idempotent under the key).
      o->transient = true;
      o->error = "worker crashed (" + we.describe() +
                 ") while service was draining; resubmit";
      return;
    }

    // Restart: reclaim the torn journal first (the campaign engine
    // truncates it anyway on a fresh run) and back off with jitter.
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.worker_restarts;
    }
    if (!fl->journal_path.empty()) std::remove(fl->journal_path.c_str());
    const double delay = backoff_delay_ms(cfg_.supervisor, attempt + 1,
                                          salt ^ crashes);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double, std::milli>(delay);
    while (std::chrono::steady_clock::now() < until) {
      if (fl->cancel.stop_requested()) {
        o->cancelled = true;
        o->error = "cancelled while restarting crashed worker";
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

void CampaignService::gc_spool(std::size_t keep) {
  std::vector<std::string> victims;
  {
    std::lock_guard<std::mutex> lk(mu_);
    while (spool_done_.size() > keep) {
      victims.push_back(std::move(spool_done_.front()));
      spool_done_.pop_front();
    }
    stats_.spool_gc += victims.size();
  }
  for (const std::string& path : victims) std::remove(path.c_str());
}

}  // namespace hltg
