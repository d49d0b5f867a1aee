// Campaign service (src/service): cache-key semantics, the two-tier
// content-addressed result cache (LRU + atomic disk store with
// quarantine-or-skip corruption handling and failpoint-provable
// crash-safety), the service core (single-flight coalescing, bounded
// admission, cancellation, byte-identical cached replies), and the
// unix-socket server end to end with concurrent clients.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "errors/report.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/request.h"
#include "service/server.h"
#include "service/service.h"
#include "service/supervisor.h"
#include "solver/store.h"
#include "util/failpoint.h"
#include "util/minijson.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

std::string temp_dir(const char* tag) {
  const std::string d = testing::TempDir() + "hltg_service_" + tag + "_" +
                        std::to_string(::getpid());
  ::mkdir(d.c_str(), 0755);
  return d;
}

/// Truncating runner: real engine, real config wiring, but only the first
/// few errors of the plan's population - service behaviour without
/// campaign-sized test times.
CampaignRunner truncating_runner(std::size_t n) {
  return [n](const RequestPlan& plan, const CampaignConfig& ccfg) {
    RequestPlan p = plan;
    if (p.errors.size() > n) p.errors.resize(n);
    return run_campaign_plan(model(), p, ccfg);
  };
}

/// The first `n` CSV fields of every line. Fields 1-8 are deterministic
/// (for any jobs value at error scope); 9-12 are wall-clock timings.
std::string csv_fields(const std::string& csv, int n) {
  std::istringstream in(csv);
  std::string line, out;
  while (std::getline(in, line)) {
    std::size_t pos = 0;
    for (int commas = 0; commas < n && pos != std::string::npos; ++commas)
      pos = line.find(',', pos + 1);
    out += line.substr(0, pos);
    out += '\n';
  }
  return out;
}

/// Synchronisation wrapper for submit(): collect the outcome and wait.
struct Waiter {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  RequestOutcome outcome;

  DoneFn fn() {
    return [this](const RequestOutcome& o) {
      std::lock_guard<std::mutex> lk(mu);
      outcome = o;
      done = true;
      cv.notify_all();
    };
  }
  const RequestOutcome& wait() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [this] { return done; });
    return outcome;
  }
};

void wait_until_running(const CampaignService& svc, std::size_t n) {
  while (svc.stats().running < n)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// ------------------------------------------------------------- cache key

TEST(CacheKey, NonSemanticFieldsShareAKey) {
  RequestSpec a;
  const RequestPlan pa = plan_request(model(), a);
  ASSERT_TRUE(pa.ok()) << pa.error;
  ASSERT_EQ(pa.cache_key.size(), 16u);

  RequestSpec b = a;
  b.jobs = 8;  // determinism contract: any worker count, same bytes
  b.subscribe = true;
  b.tag = "somebody else";
  const RequestPlan pb = plan_request(model(), b);
  ASSERT_TRUE(pb.ok()) << pb.error;
  EXPECT_EQ(pa.cache_key, pb.cache_key);

  // At campaign scope the worker count decides which errors each worker's
  // deduction state has seen, so it shapes the rows' effort counters and
  // names a different entry.
  RequestSpec ca = a, cb = b;
  ca.solver_scope = cb.solver_scope = "campaign";
  EXPECT_NE(plan_request(model(), ca).cache_key,
            plan_request(model(), cb).cache_key);

  // A submit line from a client that still sends the removed batch-width
  // field gets the key (and so the rows) of one without it.
  const std::string fields = request_fields_json(a);
  const ParsedRequest old_line =
      parse_request(MiniJson("{" + fields + ",\"lanes\":64}"));
  const ParsedRequest new_line = parse_request(MiniJson("{" + fields + "}"));
  ASSERT_TRUE(old_line.ok) << old_line.error;
  ASSERT_TRUE(new_line.ok) << new_line.error;
  EXPECT_EQ(plan_request(model(), old_line.spec).cache_key,
            plan_request(model(), new_line.spec).cache_key);
  EXPECT_EQ(plan_request(model(), old_line.spec).cache_key, pa.cache_key);
}

TEST(CacheKey, EverySemanticFieldChangesTheKey) {
  const std::string base = plan_request(model(), RequestSpec{}).cache_key;
  std::vector<std::pair<const char*, RequestSpec>> variants;
  auto add = [&](const char* what, std::function<void(RequestSpec&)> tweak) {
    RequestSpec s;
    tweak(s);
    variants.emplace_back(what, s);
  };
  add("model", [](RequestSpec& s) { s.model = "mse"; });
  add("stages", [](RequestSpec& s) { s.stages = "EX,MEM"; });
  add("window", [](RequestSpec& s) { s.window = 12; });
  add("retry_window", [](RequestSpec& s) { s.retry_window = 24; });
  add("deadline_ms", [](RequestSpec& s) { s.deadline_ms = 50; });
  add("max_backtracks", [](RequestSpec& s) { s.max_backtracks = 10; });
  add("max_decisions", [](RequestSpec& s) { s.max_decisions = 1000; });
  add("fallback", [](RequestSpec& s) { s.fallback = true; });
  add("solver", [](RequestSpec& s) { s.solver = false; });
  add("solver_scope", [](RequestSpec& s) { s.solver_scope = "campaign"; });
  add("drop", [](RequestSpec& s) { s.drop = true; });
  for (const auto& [what, spec] : variants) {
    const RequestPlan p = plan_request(model(), spec);
    ASSERT_TRUE(p.ok()) << what << ": " << p.error;
    EXPECT_NE(p.cache_key, base) << what << " must change the cache key";
  }
}

TEST(CacheKey, FallbackTriesOnlyMatterWhenFallbackIsOn) {
  RequestSpec off_a, off_b;
  off_b.fallback_tries = 7;  // dead knob while fallback is off
  EXPECT_EQ(plan_request(model(), off_a).cache_key,
            plan_request(model(), off_b).cache_key);

  RequestSpec on_a, on_b;
  on_a.fallback = on_b.fallback = true;
  on_b.fallback_tries = 7;
  EXPECT_NE(plan_request(model(), on_a).cache_key,
            plan_request(model(), on_b).cache_key);
}

TEST(CacheKey, RequestJsonRoundTripsThroughTheWireFormat) {
  RequestSpec s;
  s.model = "mse";
  s.stages = "EX,MEM";
  s.window = 11;
  s.deadline_ms = 12.5;
  s.fallback = true;
  s.solver_scope = "campaign";
  s.jobs = 4;
  s.tag = "with \"quotes\" and\nnewline";
  const MiniJson j("{" + request_fields_json(s) + "}");
  const ParsedRequest parsed = parse_request(j);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.spec.model, s.model);
  EXPECT_EQ(parsed.spec.stages, s.stages);
  EXPECT_EQ(parsed.spec.window, s.window);
  EXPECT_EQ(parsed.spec.deadline_ms, s.deadline_ms);
  EXPECT_EQ(parsed.spec.fallback, s.fallback);
  EXPECT_EQ(parsed.spec.jobs, s.jobs);
  EXPECT_EQ(parsed.spec.tag, s.tag);
  EXPECT_EQ(plan_request(model(), parsed.spec).cache_key,
            plan_request(model(), s).cache_key);
}

TEST(RequestPlan, RejectsNonsense) {
  RequestSpec bad_model;
  bad_model.model = "sse";
  EXPECT_FALSE(plan_request(model(), bad_model).ok());

  RequestSpec bad_stages;
  bad_stages.stages = "NOPE";
  EXPECT_FALSE(plan_request(model(), bad_stages).ok());

  RequestSpec bad_scope;
  bad_scope.solver_scope = "galaxy";
  EXPECT_FALSE(plan_request(model(), bad_scope).ok());

  RequestSpec drop_jobs;
  drop_jobs.drop = true;
  drop_jobs.jobs = 4;
  EXPECT_FALSE(plan_request(model(), drop_jobs).ok());
}

// ----------------------------------------------------- request flags

/// parse_request_flag over a whole command line; "" when every argument
/// was a request flag, else the error or the first foreign argument.
std::string parse_flags(std::vector<const char*> args, RequestSpec* spec) {
  args.insert(args.begin(), "prog");
  const int argc = static_cast<int>(args.size());
  for (int i = 1; i < argc; ++i) {
    std::string error;
    if (!parse_request_flag(argc, args.data(), &i, spec, &error))
      return std::string("foreign: ") + args[i];
    if (!error.empty()) return error;
  }
  return "";
}

TEST(RequestFlags, ParsesTheSharedCampaignFlags) {
  RequestSpec s;
  ASSERT_EQ(parse_flags({"--model", "bse", "--stages", "EX,WB",
                         "--deadline-ms", "2.5", "--max-backtracks", "3",
                         "--max-decisions", "40", "--fallback", "16",
                         "--solver", "off", "--solver-scope", "campaign",
                         "--drop", "--jobs", "2"},
                        &s),
            "");
  EXPECT_EQ(s.model, "bse");
  EXPECT_EQ(s.stages, "EX,WB");
  EXPECT_DOUBLE_EQ(s.deadline_ms, 2.5);
  EXPECT_EQ(s.max_backtracks, 3u);
  EXPECT_EQ(s.max_decisions, 40u);
  EXPECT_TRUE(s.fallback);
  EXPECT_EQ(s.fallback_tries, 16u);
  EXPECT_FALSE(s.solver);
  EXPECT_EQ(s.solver_scope, "campaign");
  EXPECT_TRUE(s.drop);
  EXPECT_EQ(s.jobs, 2u);

  // --fallback takes its count only when one follows; other tools' flags
  // and a value-taking flag with nothing after it are not consumed.
  RequestSpec t;
  EXPECT_EQ(parse_flags({"--fallback", "--drop"}, &t), "");
  EXPECT_TRUE(t.fallback);
  EXPECT_EQ(t.fallback_tries, RequestSpec{}.fallback_tries);
  EXPECT_EQ(parse_flags({"--csv", "x.csv"}, &t), "foreign: --csv");
  EXPECT_EQ(parse_flags({"--jobs"}, &t), "foreign: --jobs");
}

TEST(RequestFlags, RejectsAMisspelledSolverValue) {
  RequestSpec s;
  EXPECT_EQ(parse_flags({"--solver", "of"}, &s),
            "--solver takes 'on' or 'off', not 'of'");
  EXPECT_TRUE(s.solver);  // untouched: no campaign with the engine off
  EXPECT_NE(parse_flags({"--solver-scope", "galaxy"}, &s).find(
                "--solver-scope takes"),
            std::string::npos);
}

// ------------------------------------------------- run_campaign_plan

TEST(RunCampaignPlan, FallbackRowsAreTheSameAtAnyJobs) {
  // The config carries no semantic field: budget caps, the fallback and
  // its budget all come from the plan, at one job as at two.
  RequestSpec spec;
  spec.stages = "EX";
  spec.max_backtracks = 2;
  spec.fallback = true;
  spec.fallback_tries = 16;
  RequestPlan plan = plan_request(model(), spec);
  ASSERT_TRUE(plan.ok()) << plan.error;
  const CampaignResult one = run_campaign_plan(model(), plan, {});
  plan.jobs = 2;
  const CampaignResult two = run_campaign_plan(model(), plan, {});
  EXPECT_GT(one.stats.detected_fallback, 0u);
  EXPECT_EQ(one.stats.detected, two.stats.detected);
  EXPECT_EQ(csv_fields(campaign_csv(model().dp, one), 8),
            csv_fields(campaign_csv(model().dp, two), 8));
}

TEST(RunCampaignPlan, WarmStartReproducesTheColdOutcomes) {
  RequestSpec spec;
  spec.stages = "WB";
  spec.solver_scope = "campaign";
  RequestPlan plan = plan_request(model(), spec);
  ASSERT_TRUE(plan.ok()) << plan.error;
  DedSnapshot saved;
  const std::string cold = csv_fields(
      campaign_csv(model().dp,
                   run_campaign_plan(model(), plan, {}, nullptr, &saved)),
      6);
  ASSERT_FALSE(saved.empty());
  for (unsigned jobs : {1u, 2u}) {
    plan.jobs = jobs;
    const CampaignResult warm = run_campaign_plan(model(), plan, {}, &saved);
    EXPECT_EQ(csv_fields(campaign_csv(model().dp, warm), 6), cold)
        << "jobs " << jobs;
  }
}

// ---------------------------------------------------------- result cache

TEST(ResultCache, MemoryLruEvictsLeastRecentlyUsed) {
  ResultCache c(ResultCacheConfig{"", 2});
  c.insert("aa", "one");
  c.insert("bb", "two");
  std::string p;
  EXPECT_TRUE(c.lookup("aa", &p));  // aa is now most recent
  c.insert("cc", "three");          // evicts bb
  EXPECT_FALSE(c.lookup("bb", &p));
  EXPECT_TRUE(c.lookup("aa", &p));
  EXPECT_EQ(p, "one");
  EXPECT_TRUE(c.lookup("cc", &p));
  EXPECT_EQ(p, "three");
  const ResultCacheStats s = c.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.memory_hits, 3u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 3u);
}

TEST(ResultCache, DiskEntriesSurviveRestartAndPromoteIntoMemory) {
  const std::string dir = temp_dir("roundtrip");
  const std::string payload = "model,error\nssl,x\n";
  {
    ResultCache c(ResultCacheConfig{dir, 4});
    std::string why;
    ASSERT_TRUE(c.insert("deadbeef01234567", payload, &why)) << why;
  }
  ResultCache warm(ResultCacheConfig{dir, 4});
  std::string p;
  ASSERT_TRUE(warm.lookup("deadbeef01234567", &p));
  EXPECT_EQ(p, payload);
  EXPECT_EQ(warm.stats().disk_hits, 1u);
  ASSERT_TRUE(warm.lookup("deadbeef01234567", &p));
  EXPECT_EQ(warm.stats().memory_hits, 1u);  // promoted, no second disk read
}

TEST(ResultCache, CorruptDiskEntryIsQuarantinedNotServed) {
  const std::string dir = temp_dir("corrupt");
  const std::string key = "abcdef0123456789";
  {
    ResultCache c(ResultCacheConfig{dir, 4});
    ASSERT_TRUE(c.insert(key, "trustworthy payload"));
  }
  const std::string path = dir + "/" + key + ".res";
  {
    // Flip the last payload byte: magic and length still check, CRC must
    // catch it.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 12u);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ResultCache c(ResultCacheConfig{dir, 4});
  std::string p;
  EXPECT_FALSE(c.lookup(key, &p));
  EXPECT_EQ(c.stats().quarantined, 1u);
  EXPECT_FALSE(std::ifstream(path).good());  // set aside, not left behind
  EXPECT_TRUE(std::ifstream(path + ".quarantine").good());

  // The next insertion of the key repairs the entry.
  ASSERT_TRUE(c.insert(key, "fresh payload"));
  ResultCache again(ResultCacheConfig{dir, 4});
  ASSERT_TRUE(again.lookup(key, &p));
  EXPECT_EQ(p, "fresh payload");
}

TEST(ResultCache, TruncatedDiskEntryIsQuarantined) {
  const std::string dir = temp_dir("truncated");
  const std::string key = "00112233445566aa";
  {
    ResultCache c(ResultCacheConfig{dir, 4});
    ASSERT_TRUE(c.insert(key, "a payload long enough to truncate"));
  }
  const std::string path = dir + "/" + key + ".res";
  ::truncate(path.c_str(), 9);  // torn mid-header
  ResultCache c(ResultCacheConfig{dir, 4});
  std::string p;
  EXPECT_FALSE(c.lookup(key, &p));
  EXPECT_EQ(c.stats().quarantined, 1u);
}

TEST(ResultCache, PersistFailureDegradesToMemoryOnly) {
  const std::string dir = temp_dir("degrade");
  ResultCache c(ResultCacheConfig{dir, 4});
  failpoint::configure("cache.write=eio@1");
  std::string why;
  EXPECT_FALSE(c.insert("feedfacefeedface", "payload", &why));
  EXPECT_NE(why.find("feedfacefeedface"), std::string::npos);
  EXPECT_EQ(c.stats().persist_failures, 1u);
  // The memory tier still answers...
  std::string p;
  EXPECT_TRUE(c.lookup("feedfacefeedface", &p));
  EXPECT_EQ(p, "payload");
  // ...but a restarted cache finds nothing on disk (and no torn file).
  ResultCache cold(ResultCacheConfig{dir, 4});
  EXPECT_FALSE(cold.lookup("feedfacefeedface", &p));
  EXPECT_EQ(cold.stats().quarantined, 0u);
}

// ------------------------------------------- cache crash-safety (fork'ed)

/// Run `body` in a fork'ed child and expect the armed failpoint to kill it.
void expect_killed(const std::function<void()>& body) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    body();
    _exit(0);  // survived: the failpoint did not fire
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), failpoint::kKillExitCode);
}

TEST(ResultCacheCrash, KillBeforePublishLeavesTheOldEntryIntact) {
  const std::string key = "0123456789abcdef";
  for (const char* spec : {"cache.write=kill@1", "cache.fsync=kill@1",
                           "cache.rename=kill@1"}) {
    const std::string dir = temp_dir("kill_before");
    {
      ResultCache c(ResultCacheConfig{dir, 4});
      ASSERT_TRUE(c.insert(key, "old complete payload"));
    }
    expect_killed([&] {
      failpoint::configure(spec);
      ResultCache c(ResultCacheConfig{dir, 4});
      c.insert(key, "new payload the crash must not tear");
    });
    // The kill struck before the rename published the new entry: a
    // restarted cache serves the complete old payload, never a torn mix.
    ResultCache c(ResultCacheConfig{dir, 4});
    std::string p;
    ASSERT_TRUE(c.lookup(key, &p)) << spec;
    EXPECT_EQ(p, "old complete payload") << spec;
    EXPECT_EQ(c.stats().quarantined, 0u) << spec;
    std::remove((dir + "/" + key + ".res").c_str());
    std::remove((dir + "/" + key + ".res.tmp").c_str());
  }
}

TEST(ResultCacheCrash, KillAfterPublishLeavesTheNewEntryIntact) {
  const std::string dir = temp_dir("kill_after");
  const std::string key = "fedcba9876543210";
  {
    ResultCache c(ResultCacheConfig{dir, 4});
    ASSERT_TRUE(c.insert(key, "old"));
  }
  expect_killed([&] {
    failpoint::configure("cache.rename=kill-after@1");
    ResultCache c(ResultCacheConfig{dir, 4});
    c.insert(key, "new payload, fully published");
  });
  ResultCache c(ResultCacheConfig{dir, 4});
  std::string p;
  ASSERT_TRUE(c.lookup(key, &p));
  EXPECT_EQ(p, "new payload, fully published");
  EXPECT_EQ(c.stats().quarantined, 0u);
}

// -------------------------------------------------------- service core

TEST(Service, CompletesARequestAndAnswersTheRepeatFromTheCache) {
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.runner_override = truncating_runner(2);
  CampaignService svc(model(), scfg);

  RequestSpec spec;
  Waiter w1;
  const SubmitResult r1 = svc.submit(spec, w1.fn());
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_FALSE(r1.cached);
  const RequestOutcome first = w1.wait();
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.id, r1.id);
  EXPECT_EQ(first.key, r1.key);
  EXPECT_FALSE(first.csv.empty());
  EXPECT_EQ(first.attempted, 2u);

  // The repeat is answered synchronously with the identical bytes.
  Waiter w2;
  const SubmitResult r2 = svc.submit(spec, w2.fn());
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_TRUE(r2.cached);
  const RequestOutcome second = w2.wait();
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.csv, first.csv);
  EXPECT_NE(second.id, first.id);
  // Counters are recovered from the cached payload, not zeroed.
  EXPECT_EQ(second.attempted, first.attempted);
  EXPECT_EQ(second.detected, first.detected);

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.cache.hits, 1u);
  EXPECT_EQ(s.cache.insertions, 1u);
}

TEST(Service, CsvMatchesTheOfflineEngineOnTheStableColumns) {
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.runner_override = truncating_runner(3);
  CampaignService svc(model(), scfg);

  RequestSpec spec;
  Waiter w;
  ASSERT_TRUE(svc.submit(spec, w.fn()).ok);
  const RequestOutcome got = w.wait();
  ASSERT_TRUE(got.ok) << got.error;

  // Offline reference: same plan, same engine wiring, no service.
  RequestPlan plan = plan_request(model(), spec);
  ASSERT_TRUE(plan.ok());
  plan.errors.resize(3);
  const std::string offline =
      campaign_csv(model().dp, run_campaign_plan(model(), plan, {}));

  EXPECT_EQ(csv_fields(got.csv, 8), csv_fields(offline, 8));
}

TEST(Service, CachedDropAnswerCountsDroppedErrorsAsDetected) {
  // Errors dropped by error simulation have no CSV row; the cached answer
  // must still count them the way the fresh run did.
  ServiceConfig scfg;
  scfg.executors = 1;
  CampaignService svc(model(), scfg);
  RequestSpec spec;
  spec.stages = "WB";
  spec.drop = true;
  spec.max_backtracks = 8;
  spec.max_decisions = 200;

  Waiter w1;
  ASSERT_TRUE(svc.submit(spec, w1.fn()).ok);
  const RequestOutcome fresh = w1.wait();
  ASSERT_TRUE(fresh.ok) << fresh.error;
  ASSERT_FALSE(fresh.cached);
  Waiter w2;
  ASSERT_TRUE(svc.submit(spec, w2.fn()).cached);
  const RequestOutcome cached = w2.wait();
  EXPECT_EQ(cached.attempted, fresh.attempted);
  EXPECT_EQ(cached.detected, fresh.detected);
  EXPECT_LT(fresh.attempted, fresh.total);  // something was dropped
}

TEST(Service, CoalescesIdenticalInFlightRequests) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> runs{0};

  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.runner_override = [&](const RequestPlan& plan,
                             const CampaignConfig& ccfg) {
    ++runs;
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return release; });
    }
    return truncating_runner(1)(plan, ccfg);
  };
  CampaignService svc(model(), scfg);

  RequestSpec spec;
  Waiter w1, w2;
  const SubmitResult r1 = svc.submit(spec, w1.fn());
  ASSERT_TRUE(r1.ok) << r1.error;
  const SubmitResult r2 = svc.submit(spec, w2.fn());
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_TRUE(r2.coalesced);
  EXPECT_EQ(r1.key, r2.key);
  EXPECT_NE(r1.id, r2.id);

  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  const RequestOutcome o1 = w1.wait();
  const RequestOutcome o2 = w2.wait();
  EXPECT_TRUE(o1.ok && o2.ok);
  EXPECT_EQ(o1.csv, o2.csv);
  EXPECT_EQ(o1.id, r1.id);  // each subscriber sees its own id
  EXPECT_EQ(o2.id, r2.id);
  EXPECT_EQ(runs.load(), 1);  // the campaign ran once for both

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.coalesced, 1u);
  EXPECT_EQ(s.completed, 1u);
}

TEST(Service, BoundedQueueRejectsOverload) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.queue_capacity = 1;
  scfg.runner_override = [&](const RequestPlan& plan,
                             const CampaignConfig& ccfg) {
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return release; });
    }
    return truncating_runner(1)(plan, ccfg);
  };
  CampaignService svc(model(), scfg);

  // Three distinct requests: one running, one queued, one over the bound.
  RequestSpec a, b, c;
  a.window = 10;
  b.window = 11;
  c.window = 12;
  Waiter wa, wb;
  ASSERT_TRUE(svc.submit(a, wa.fn()).ok);
  wait_until_running(svc, 1);  // a is on the executor, the queue is empty
  ASSERT_TRUE(svc.submit(b, wb.fn()).ok);
  const SubmitResult rc = svc.submit(c, nullptr);
  EXPECT_FALSE(rc.ok);
  EXPECT_NE(rc.error.find("queue full"), std::string::npos);
  EXPECT_EQ(svc.stats().rejected_overload, 1u);

  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(wa.wait().ok);
  EXPECT_TRUE(wb.wait().ok);
}

TEST(Service, CancelStopsAFlightCooperatively) {
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.runner_override = [](const RequestPlan& plan,
                            const CampaignConfig& ccfg) {
    // Stand-in for the engine's between-errors cancel check.
    while (!ccfg.cancel->stop_requested())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    CampaignResult r;
    r.interrupted = true;
    r.stats.total = plan.errors.size();
    return r;
  };
  CampaignService svc(model(), scfg);

  Waiter w;
  const SubmitResult r = svc.submit(RequestSpec{}, w.fn());
  ASSERT_TRUE(r.ok) << r.error;
  wait_until_running(svc, 1);
  EXPECT_TRUE(svc.cancel(r.id));
  const RequestOutcome o = w.wait();
  EXPECT_FALSE(o.ok);
  EXPECT_TRUE(o.cancelled);
  EXPECT_NE(o.error.find("cancelled"), std::string::npos);
  EXPECT_FALSE(svc.cancel(r.id));  // already completed: unknown id
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.completed, 0u);
  // An interrupted sweep is never cached: the repeat runs fresh.
  EXPECT_EQ(s.cache.insertions, 0u);
}

TEST(Service, CampaignScopeKeyNamesTheClampedWorkerCount) {
  // An over-cap campaign-scope request runs at the cap, so it must get the
  // key (and so the rows) of a request that asked for the cap.
  std::atomic<unsigned> ran_jobs{0};
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.jobs_cap = 2;
  scfg.runner_override = [&](const RequestPlan& plan,
                             const CampaignConfig& ccfg) {
    ran_jobs = plan.jobs;
    return truncating_runner(1)(plan, ccfg);
  };
  CampaignService svc(model(), scfg);

  RequestSpec spec;
  spec.solver_scope = "campaign";
  spec.jobs = 8;
  Waiter w;
  const SubmitResult r = svc.submit(spec, w.fn());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(w.wait().ok);
  EXPECT_EQ(ran_jobs.load(), 2u);
  RequestSpec at_cap = spec;
  at_cap.jobs = 2;
  EXPECT_EQ(r.key, plan_request(model(), at_cap).cache_key);
  EXPECT_NE(r.key, plan_request(model(), spec).cache_key);
}

TEST(Service, RejectsInvalidRequestsWithoutAnId) {
  CampaignService svc(model(), ServiceConfig{});
  RequestSpec bad;
  bad.model = "nope";
  const SubmitResult r = svc.submit(bad, nullptr);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(svc.stats().rejected_invalid, 1u);
}

TEST(Probe, DirectoryNestedUnderARegularFileIsRejected) {
  // Works even as root: mkdir under a regular file fails for any uid.
  const std::string file = testing::TempDir() + "hltg_service_plain_file";
  std::ofstream(file) << "x";
  std::string why;
  EXPECT_FALSE(probe_writable_dir(file + "/nested", &why));
  EXPECT_FALSE(why.empty());
  std::remove(file.c_str());
}

// ----------------------------------------------------- socket end to end

struct ClientResult {
  bool ok = false;
  bool cached = false;
  std::string key;
  std::string csv;
  std::string error;
  int progress = 0;
};

/// One full client conversation: connect, submit, collect events until the
/// result.
ClientResult run_client(const std::string& socket_path,
                        const RequestSpec& spec) {
  ClientResult out;
  ServiceClient c;
  std::string why;
  if (!c.connect(socket_path, &why)) {
    out.error = why;
    return out;
  }
  if (!c.send_line("{\"op\":\"submit\"," + request_fields_json(spec) + "}")) {
    out.error = "send failed";
    return out;
  }
  std::string line;
  while (c.read_line(&line)) {
    const MiniJson j(line);
    std::string event;
    if (!j.ok() || !j.get_string("event", &event)) {
      out.error = "unparseable: " + line;
      return out;
    }
    if (event == "error") {
      j.get_string("error", &out.error);
      return out;
    }
    if (event == "progress") {
      ++out.progress;
      continue;
    }
    if (event == "ack") continue;
    if (event == "result") {
      j.get_bool("ok", &out.ok);
      j.get_bool("cached", &out.cached);
      j.get_string("key", &out.key);
      j.get_string("csv", &out.csv);
      if (!out.ok) j.get_string("error", &out.error);
      return out;
    }
    out.error = "unexpected event: " + event;
    return out;
  }
  out.error = "connection closed without a result";
  return out;
}

TEST(ServiceServer, EightConcurrentClientsHalfDuplicatesAllByteIdentical) {
  ServiceConfig scfg;
  scfg.executors = 2;
  scfg.cache_dir = temp_dir("e2e_cache");
  scfg.runner_override = truncating_runner(2);
  CampaignService svc(model(), scfg);
  ServerConfig srvcfg;
  srvcfg.socket_path = testing::TempDir() + "hltg_service_e2e.sock";
  ServiceServer server(svc, srvcfg);
  std::string why;
  ASSERT_TRUE(server.start(&why)) << why;

  // 8 clients, 4 distinct requests, each submitted twice concurrently.
  std::vector<ClientResult> results(8);
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i)
    clients.emplace_back([&, i] {
      RequestSpec spec;
      spec.window = 10 + static_cast<unsigned>(i % 4);
      results[static_cast<std::size_t>(i)] =
          run_client(srvcfg.socket_path, spec);
    });
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(results[static_cast<std::size_t>(i)].ok)
        << "client " << i << ": " << results[static_cast<std::size_t>(i)].error;
    ASSERT_FALSE(results[static_cast<std::size_t>(i)].csv.empty());
  }
  // Duplicates got the identical bytes, whether coalesced or cache-served.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].key,
              results[static_cast<std::size_t>(i + 4)].key);
    EXPECT_EQ(results[static_cast<std::size_t>(i)].csv,
              results[static_cast<std::size_t>(i + 4)].csv);
  }
  // Exactly 4 campaigns ran; every duplicate rode a flight or hit the cache.
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.cache.hits + s.coalesced, 4u);

  // A latecomer is answered from the cache with the same bytes.
  RequestSpec again;
  again.window = 10;
  const ClientResult late = run_client(srvcfg.socket_path, again);
  ASSERT_TRUE(late.ok) << late.error;
  EXPECT_TRUE(late.cached);
  EXPECT_EQ(late.csv, results[0].csv);

  server.stop();
  EXPECT_FALSE(std::ifstream(srvcfg.socket_path).good());  // unlinked
}

TEST(ServiceServer, SubscribedClientStreamsProgressRows) {
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.spool_dir = temp_dir("e2e_spool");
  scfg.runner_override = truncating_runner(2);
  CampaignService svc(model(), scfg);
  ServerConfig srvcfg;
  srvcfg.socket_path = testing::TempDir() + "hltg_service_progress.sock";
  ServiceServer server(svc, srvcfg);
  std::string why;
  ASSERT_TRUE(server.start(&why)) << why;

  RequestSpec spec;
  spec.subscribe = true;
  const ClientResult r = run_client(srvcfg.socket_path, spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GE(r.progress, 2);  // one journal row per attempted error
  server.stop();
}

TEST(ServiceServer, ControlOpsAnswer) {
  CampaignService svc(model(), ServiceConfig{});
  ServerConfig srvcfg;
  srvcfg.socket_path = testing::TempDir() + "hltg_service_ops.sock";
  ServiceServer server(svc, srvcfg);
  std::string why;
  ASSERT_TRUE(server.start(&why)) << why;

  ServiceClient c;
  ASSERT_TRUE(c.connect(srvcfg.socket_path, &why)) << why;
  std::string line;

  ASSERT_TRUE(c.send_line("{\"op\":\"ping\"}"));
  ASSERT_TRUE(c.read_line(&line, 5000));
  EXPECT_EQ(line, "{\"event\":\"pong\"}");

  ASSERT_TRUE(c.send_line("{\"op\":\"stats\"}"));
  ASSERT_TRUE(c.read_line(&line, 5000));
  {
    const MiniJson j(line);
    std::string event;
    std::uint64_t submitted = 99;
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j.get_string("event", &event));
    EXPECT_EQ(event, "stats");
    EXPECT_TRUE(j.get_u64("submitted", &submitted));
    EXPECT_EQ(submitted, 0u);
  }

  ASSERT_TRUE(c.send_line("{\"op\":\"cancel\",\"id\":12345}"));
  ASSERT_TRUE(c.read_line(&line, 5000));
  {
    const MiniJson j(line);
    bool ok = true;
    ASSERT_TRUE(j.ok());
    EXPECT_TRUE(j.get_bool("ok", &ok));
    EXPECT_FALSE(ok);  // unknown id
  }

  EXPECT_FALSE(server.shutdown_requested());
  ASSERT_TRUE(c.send_line("{\"op\":\"shutdown\"}"));
  ASSERT_TRUE(c.read_line(&line, 5000));
  EXPECT_EQ(line, "{\"event\":\"shutdown\"}");
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();
}

// ------------------------------------------------------ worker supervision

TEST(Supervisor, WorkerRecordsCrossThePipeCrcFramed) {
  const WorkerExit we = run_worker(
      [](int wfd) {
        if (!write_worker_record(wfd, kWorkerRecSummary, "{\"ok\":true}"))
          return 2;
        if (!write_worker_record(wfd, kWorkerRecCsv, "a,b\n1,2\n")) return 2;
        if (!write_worker_record(wfd, kWorkerRecTable1, "Table 1")) return 2;
        return 0;
      },
      SupervisorConfig{}, {});
  ASSERT_TRUE(we.ran);
  EXPECT_TRUE(we.result_ok) << we.describe();
  EXPECT_EQ(we.summary_json, "{\"ok\":true}");
  EXPECT_EQ(we.csv, "a,b\n1,2\n");
  EXPECT_EQ(we.table1, "Table 1");
}

TEST(Supervisor, NonzeroExitIsACrashEvenWithASummary) {
  const WorkerExit we = run_worker(
      [](int wfd) {
        write_worker_record(wfd, kWorkerRecSummary, "{\"ok\":true}");
        return 7;
      },
      SupervisorConfig{}, {});
  ASSERT_TRUE(we.ran);
  EXPECT_FALSE(we.result_ok);
  EXPECT_EQ(we.exit_code, 7);
  EXPECT_EQ(we.describe(), "exit 7");
}

TEST(Supervisor, SignalDeathIsAStructuredCrashNotSupervisorDeath) {
  const WorkerExit we =
      run_worker([](int) -> int { std::abort(); }, SupervisorConfig{}, {});
  ASSERT_TRUE(we.ran);
  EXPECT_FALSE(we.result_ok);
  EXPECT_EQ(we.term_signal, SIGABRT);
  EXPECT_NE(we.describe().find("signal 6"), std::string::npos);
}

TEST(Supervisor, TornRecordIsDiscardedAndNotAResult) {
  const WorkerExit we = run_worker(
      [](int wfd) {
        // Valid frame start, then death mid-payload: the CRC check must
        // reject the tail and the missing summary makes this a crash.
        const char partial[] = "WREC\x01\x00\x00\x00\xff\x00\x00\x00";
        (void)!::write(wfd, partial, sizeof partial - 1);
        return 0;
      },
      SupervisorConfig{}, {});
  ASSERT_TRUE(we.ran);
  EXPECT_FALSE(we.result_ok);
  EXPECT_TRUE(we.summary_json.empty());
}

TEST(Supervisor, DeadlineEscalatesSigtermToSigkill) {
  SupervisorConfig cfg;
  cfg.deadline_seconds = 0.2;
  cfg.term_grace_seconds = 0.15;
  const WorkerExit we = run_worker(
      [](int) {
        std::signal(SIGTERM, SIG_IGN);  // worst case: ignores the grace
        for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return 0;
      },
      cfg, {});
  ASSERT_TRUE(we.ran);
  EXPECT_TRUE(we.timed_out);
  EXPECT_FALSE(we.result_ok);
  EXPECT_EQ(we.term_signal, SIGKILL);
}

TEST(Supervisor, DeadlineAppliesAfterThePipeCloses) {
  // The supervisor stops reading at the pipe's EOF and only waits for the
  // exit; a worker that closes its end and then hangs must still be held
  // to the deadline and the SIGTERM -> SIGKILL escalation.
  SupervisorConfig cfg;
  cfg.deadline_seconds = 0.2;
  cfg.term_grace_seconds = 0.15;
  const WorkerExit we = run_worker(
      [](int fd) {
        ::close(fd);
        std::signal(SIGTERM, SIG_IGN);
        for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return 0;
      },
      cfg, {});
  ASSERT_TRUE(we.ran);
  EXPECT_TRUE(we.timed_out);
  EXPECT_FALSE(we.result_ok);
  EXPECT_EQ(we.term_signal, SIGKILL);
}

TEST(Supervisor, BackoffIsZeroThenJitteredExponentialCapped) {
  SupervisorConfig cfg;
  cfg.backoff_base_ms = 100;
  cfg.backoff_max_ms = 2000;
  EXPECT_EQ(backoff_delay_ms(cfg, 1, 42), 0);  // first attempt never waits
  const double d2 = backoff_delay_ms(cfg, 2, 42);
  EXPECT_GE(d2, 50.0);
  EXPECT_LT(d2, 150.0);
  const double d3 = backoff_delay_ms(cfg, 3, 42);
  EXPECT_GE(d3, 100.0);
  EXPECT_LT(d3, 300.0);
  const double big = backoff_delay_ms(cfg, 30, 42);
  EXPECT_GE(big, 1000.0);
  EXPECT_LE(big, 3000.0);  // capped nominal, jitter < 1.5
  // Deterministic per (seed, salt, attempt); salted flights decorrelate.
  EXPECT_EQ(backoff_delay_ms(cfg, 2, 42), d2);
  EXPECT_NE(backoff_delay_ms(cfg, 2, 43), d2);
}

TEST(CrashBreaker, PoisonsAtMaxCrashesAndReloadsFromBundles) {
  const std::string dir = temp_dir("breaker");
  const std::string key = "00112233445566aa";
  CrashBreaker b(2, dir);
  EXPECT_FALSE(b.poisoned(key));
  EXPECT_EQ(b.record_crash(key, "signal 6 (Aborted)", "{}"), 1u);
  EXPECT_FALSE(b.poisoned(key));
  EXPECT_EQ(b.record_crash(key, "signal 9 (Killed)", "{}"), 2u);
  std::string why;
  ASSERT_TRUE(b.poisoned(key, &why));
  EXPECT_NE(why.find("poisoned"), std::string::npos);
  EXPECT_EQ(b.poisoned_count(), 1u);

  // The bundle is durable: a fresh breaker (daemon restart) reloads it.
  ASSERT_TRUE(
      std::ifstream(dir + "/poisoned_" + key + ".json").good());
  CrashBreaker b2(2, dir);
  std::string why2;
  ASSERT_TRUE(b2.poisoned(key, &why2));
  EXPECT_NE(why2.find("reloaded"), std::string::npos);
}

// ---------------------------------------------------- supervised service

TEST(ServiceSupervised, WorkerResultMatchesInprocBytes) {
  RequestSpec spec;
  std::string inproc_csv;
  {
    ServiceConfig scfg;
    scfg.executors = 1;
    scfg.runner_override = truncating_runner(2);
    CampaignService svc(model(), scfg);
    Waiter w;
    ASSERT_TRUE(svc.submit(spec, w.fn()).ok);
    const RequestOutcome& o = w.wait();
    ASSERT_TRUE(o.ok) << o.error;
    inproc_csv = o.csv;
  }
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.supervise = true;
  scfg.runner_override = truncating_runner(2);
  CampaignService svc(model(), scfg);
  Waiter w;
  ASSERT_TRUE(svc.submit(spec, w.fn()).ok);
  const RequestOutcome& o = w.wait();
  ASSERT_TRUE(o.ok) << o.error;
  // The fork boundary must not change results. Columns 1-8 are the
  // deterministic ones; 9-12 are wall-clock timings that differ per run.
  auto stable = [](const std::string& csv) {
    std::istringstream in(csv);
    std::string line, out;
    while (std::getline(in, line)) {
      std::size_t pos = 0;
      for (int commas = 0; commas < 8 && pos != std::string::npos; ++commas)
        pos = line.find(',', pos + 1);
      out += line.substr(0, pos);
      out += '\n';
    }
    return out;
  };
  EXPECT_EQ(stable(o.csv), stable(inproc_csv));
  EXPECT_EQ(o.attempted, 2u);
  EXPECT_FALSE(o.table1.empty());

  // The parent inserted the worker's payload: the repeat is a cache hit
  // answered with the identical bytes the worker piped back.
  Waiter w2;
  const SubmitResult r2 = svc.submit(spec, w2.fn());
  EXPECT_TRUE(r2.cached);
  EXPECT_EQ(w2.wait().csv, o.csv);
}

TEST(ServiceSupervised, CrashedWorkerIsRetriedAndSucceeds) {
  const std::string marker = temp_dir("crash_once") + "/crashed";
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.supervise = true;
  scfg.supervisor.max_crashes = 3;
  scfg.supervisor.backoff_base_ms = 1;
  scfg.supervisor.backoff_max_ms = 2;
  // First worker attempt crashes (leaving the marker); the re-forked one
  // finds the marker and completes. Disk state is the only channel that
  // survives the worker process boundary.
  scfg.runner_override = [marker](const RequestPlan& plan,
                                  const CampaignConfig& ccfg) {
    if (!std::ifstream(marker).good()) {
      std::ofstream(marker) << "1";
      std::abort();
    }
    return truncating_runner(1)(plan, ccfg);
  };
  CampaignService svc(model(), scfg);
  Waiter w;
  RequestSpec spec;
  ASSERT_TRUE(svc.submit(spec, w.fn()).ok);
  const RequestOutcome& o = w.wait();
  EXPECT_TRUE(o.ok) << o.error;
  EXPECT_FALSE(o.csv.empty());
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.worker_crashes, 1u);
  EXPECT_EQ(s.worker_restarts, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.poisoned, 0u);
}

TEST(ServiceSupervised, RepeatCrashesPoisonTheKeyTerminally) {
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.supervise = true;
  scfg.supervisor.max_crashes = 2;
  scfg.supervisor.backoff_base_ms = 1;
  scfg.supervisor.backoff_max_ms = 2;
  scfg.poison_dir = temp_dir("poison");
  scfg.runner_override = [](const RequestPlan&,
                            const CampaignConfig&) -> CampaignResult {
    std::abort();
  };
  CampaignService svc(model(), scfg);
  RequestSpec spec;
  Waiter w;
  const SubmitResult r = svc.submit(spec, w.fn());
  ASSERT_TRUE(r.ok);
  const RequestOutcome& o = w.wait();
  EXPECT_FALSE(o.ok);
  EXPECT_TRUE(o.poisoned);
  EXPECT_FALSE(o.transient);  // terminal: clients must not retry this
  EXPECT_NE(o.error.find("poisoned"), std::string::npos);
  {
    const ServiceStats s = svc.stats();
    EXPECT_EQ(s.worker_crashes, 2u);
    EXPECT_EQ(s.worker_restarts, 1u);
    EXPECT_EQ(s.poisoned, 1u);
  }

  // A resubmission of the same key is rejected synchronously - no queue
  // slot, no fork, the done callback fires inline with the terminal error.
  Waiter w2;
  const SubmitResult r2 = svc.submit(spec, w2.fn());
  EXPECT_TRUE(r2.ok);
  EXPECT_TRUE(r2.poisoned);
  const RequestOutcome& o2 = w2.wait();
  EXPECT_TRUE(o2.poisoned);
  EXPECT_EQ(svc.stats().rejected_poisoned, 1u);

  // The quarantine bundle is durable: a restarted service (same poison
  // dir, now with a runner that WOULD succeed) still refuses the key.
  ASSERT_TRUE(
      std::ifstream(scfg.poison_dir + "/poisoned_" + r.key + ".json").good());
  svc.drain();
  ServiceConfig scfg2 = scfg;
  scfg2.runner_override = truncating_runner(1);
  CampaignService svc2(model(), scfg2);
  Waiter w3;
  const SubmitResult r3 = svc2.submit(spec, w3.fn());
  EXPECT_TRUE(r3.poisoned);
  EXPECT_TRUE(w3.wait().poisoned);
}

TEST(ServiceSupervised, DeadlineKillIsTerminalNotRetried) {
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.supervise = true;
  scfg.supervisor.deadline_seconds = 0.2;
  scfg.supervisor.term_grace_seconds = 0.15;
  scfg.runner_override = [](const RequestPlan&,
                            const CampaignConfig&) -> CampaignResult {
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  CampaignService svc(model(), scfg);
  Waiter w;
  ASSERT_TRUE(svc.submit(RequestSpec{}, w.fn()).ok);
  const RequestOutcome& o = w.wait();
  EXPECT_FALSE(o.ok);
  EXPECT_FALSE(o.poisoned);
  EXPECT_NE(o.error.find("deadline"), std::string::npos);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.deadline_kills, 1u);
  EXPECT_EQ(s.worker_restarts, 0u);  // rerunning would time out identically
}

TEST(ServiceSupervised, CancelCrossesTheProcessBoundary) {
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.supervise = true;
  // The runner honours the cancel token the worker's SIGTERM handler
  // flips - the cooperative path, no SIGKILL involved.
  scfg.runner_override = [](const RequestPlan& plan,
                            const CampaignConfig& ccfg) {
    CampaignResult res;
    res.stats.total = plan.errors.size();
    while (!ccfg.cancel->stop_requested())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    res.interrupted = true;
    return res;
  };
  CampaignService svc(model(), scfg);
  Waiter w;
  const SubmitResult r = svc.submit(RequestSpec{}, w.fn());
  ASSERT_TRUE(r.ok);
  wait_until_running(svc, 1);
  ASSERT_TRUE(svc.cancel(r.id));
  const RequestOutcome& o = w.wait();
  EXPECT_TRUE(o.cancelled) << o.error;
  EXPECT_FALSE(o.ok);
  EXPECT_EQ(svc.stats().cancelled, 1u);
  EXPECT_EQ(svc.stats().worker_crashes, 0u);  // a cancel is not a crash
}

TEST(Service, SpoolJournalsAreGarbageCollected) {
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.spool_dir = temp_dir("spool_gc");
  scfg.spool_keep = 1;
  scfg.runner_override = truncating_runner(1);
  CampaignService svc(model(), scfg);
  std::vector<std::string> journals;
  for (unsigned win : {10u, 11u, 12u}) {
    RequestSpec spec;
    spec.window = win;
    Waiter w;
    const SubmitResult r = svc.submit(spec, w.fn());
    ASSERT_TRUE(r.ok) << r.error;
    journals.push_back(r.journal_path);
    ASSERT_TRUE(w.wait().ok);
  }
  EXPECT_EQ(svc.stats().spool_gc, 2u);  // keep=1: two of three reclaimed
  EXPECT_FALSE(std::ifstream(journals[0]).good());
  EXPECT_FALSE(std::ifstream(journals[1]).good());
  EXPECT_TRUE(std::ifstream(journals[2]).good());
  svc.drain();  // drain reclaims the rest: nobody will tail them again
  EXPECT_FALSE(std::ifstream(journals[2]).good());
}

TEST(Service, DrainingRejectionIsFlaggedTransient) {
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.runner_override = truncating_runner(1);
  CampaignService svc(model(), scfg);
  svc.drain();
  const SubmitResult r = svc.submit(RequestSpec{}, {});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.transient);  // a restarted daemon can serve this request
}

// ---------------------------------------------------- bounded disk cache

std::string hexkey(char c) { return std::string(16, c); }

TEST(ResultCacheBound, InsertEvictsLeastRecentlyUsedToFit) {
  const std::string dir = temp_dir("bound_insert");
  const std::string payload(100, 'x');  // 112 bytes per entry with header
  ResultCacheConfig cfg{dir, 8, 250};
  {
    ResultCache c(cfg);
    ASSERT_TRUE(c.insert(hexkey('1'), payload));
    ASSERT_TRUE(c.insert(hexkey('2'), payload));
    EXPECT_EQ(c.stats().disk_bytes, 224u);
    EXPECT_EQ(c.stats().evictions, 0u);
    ASSERT_TRUE(c.insert(hexkey('3'), payload));  // 336 > 250: evict '1'
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_EQ(c.stats().disk_bytes, 224u);
    EXPECT_EQ(c.stats().disk_entries, 2u);
  }
  EXPECT_FALSE(std::ifstream(dir + "/" + hexkey('1') + ".res").good());

  // The restart sees only the survivors, and a disk hit promotes its
  // entry to MRU: after touching '2', overflow evicts '3', not '2'.
  ResultCache c(cfg);
  std::string p;
  EXPECT_FALSE(c.lookup(hexkey('1'), &p));
  ASSERT_TRUE(c.lookup(hexkey('2'), &p));
  EXPECT_EQ(p, payload);
  ASSERT_TRUE(c.insert(hexkey('4'), payload));
  EXPECT_FALSE(std::ifstream(dir + "/" + hexkey('3') + ".res").good());
  ASSERT_TRUE(std::ifstream(dir + "/" + hexkey('2') + ".res").good());
}

TEST(ResultCacheBound, StartupEnforcesATightenedBudget) {
  const std::string dir = temp_dir("bound_startup");
  const std::string payload(100, 'y');
  {
    ResultCache c(ResultCacheConfig{dir, 8, 0});  // unbounded first life
    ASSERT_TRUE(c.insert(hexkey('a'), payload));
    ASSERT_TRUE(c.insert(hexkey('b'), payload));
    ASSERT_TRUE(c.insert(hexkey('c'), payload));
    EXPECT_EQ(c.stats().disk_bytes, 336u);
  }
  // The operator lowers --cache-max-bytes: startup evicts oldest-first
  // (the persisted index order) down to the new budget.
  ResultCache c(ResultCacheConfig{dir, 8, 250});
  EXPECT_EQ(c.stats().disk_entries, 2u);
  EXPECT_LE(c.stats().disk_bytes, 250u);
  std::string p;
  EXPECT_FALSE(c.lookup(hexkey('a'), &p));
  EXPECT_TRUE(c.lookup(hexkey('b'), &p));
  EXPECT_TRUE(c.lookup(hexkey('c'), &p));
}

TEST(ResultCacheBoundCrash, KillMidEvictionLeavesEveryEntryServable) {
  const std::string dir = temp_dir("bound_kill_evict");
  const std::string payload(100, 'z');
  {
    ResultCache c(ResultCacheConfig{dir, 8, 0});
    ASSERT_TRUE(c.insert(hexkey('d'), payload));
    ASSERT_TRUE(c.insert(hexkey('e'), payload));
  }
  expect_killed([&] {
    failpoint::configure("cache.evict=kill@1");
    ResultCache c(ResultCacheConfig{dir, 8, 150});  // startup must evict
  });
  // The kill struck before (or at) the unlink: whatever survived on disk
  // must be complete and servable, and a clean restart converges to the
  // budget - eviction is idempotent.
  ResultCache c(ResultCacheConfig{dir, 8, 150});
  EXPECT_LE(c.stats().disk_bytes, 150u);
  EXPECT_EQ(c.stats().quarantined, 0u);
  std::string p;
  std::size_t served = 0;
  for (const char k : {'d', 'e'})
    if (c.lookup(hexkey(k), &p)) {
      EXPECT_EQ(p, payload);
      ++served;
    }
  EXPECT_EQ(served, 1u);
}

TEST(ResultCacheBoundCrash, KillAtIndexPublishIsReconciledAtRestart) {
  const std::string dir = temp_dir("bound_kill_index");
  const std::string payload(100, 'w');
  expect_killed([&] {
    // Hit 1 of cache.rename publishes the entry; hit 2 is the index
    // sidecar. Killing there leaves a published entry the index missed.
    failpoint::configure("cache.rename=kill@2");
    ResultCache c(ResultCacheConfig{dir, 8, 1000});
    c.insert(hexkey('f'), payload);
  });
  ResultCache c(ResultCacheConfig{dir, 8, 1000});
  std::string p;
  ASSERT_TRUE(c.lookup(hexkey('f'), &p));  // adopted despite the stale index
  EXPECT_EQ(p, payload);
  EXPECT_EQ(c.stats().disk_entries, 1u);
  EXPECT_EQ(c.stats().disk_bytes, 112u);
}

// --------------------------------------------- server/client robustness

TEST(ServiceServer, RefusesToStartOverALiveDaemon) {
  CampaignService svc(model(), ServiceConfig{});
  ServerConfig srvcfg;
  srvcfg.socket_path = testing::TempDir() + "hltg_service_live.sock";
  ServiceServer server(svc, srvcfg);
  std::string why;
  ASSERT_TRUE(server.start(&why)) << why;

  // A second daemon on the same path must probe, get a pong, and refuse -
  // unlinking a live daemon's socket would orphan it silently.
  ServiceServer usurper(svc, srvcfg);
  std::string why2;
  EXPECT_FALSE(usurper.start(&why2));
  EXPECT_NE(why2.find("refusing"), std::string::npos) << why2;

  // The incumbent is unharmed.
  ServiceClient c;
  ASSERT_TRUE(c.connect(srvcfg.socket_path, &why)) << why;
  ASSERT_TRUE(c.send_line("{\"op\":\"ping\"}"));
  std::string line;
  ASSERT_TRUE(c.read_line(&line, 5000));
  EXPECT_EQ(line, "{\"event\":\"pong\"}");
  c.close();
  server.stop();

  // A STALE socket file (bound once, no listener behind it) is replaced:
  // the probe's connect fails, so startup proceeds.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, srvcfg.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            0);
  ::close(fd);  // leaves the file, kills the listener: a crashed daemon
  ServiceServer revived(svc, srvcfg);
  ASSERT_TRUE(revived.start(&why)) << why;
  revived.stop();
}

TEST(ServiceClient, ReadStatusDistinguishesOkTimeoutEof) {
  CampaignService svc(model(), ServiceConfig{});
  ServerConfig srvcfg;
  srvcfg.socket_path = testing::TempDir() + "hltg_service_rs.sock";
  ServiceServer server(svc, srvcfg);
  std::string why;
  ASSERT_TRUE(server.start(&why)) << why;

  ServiceClient c;
  ASSERT_TRUE(c.connect(srvcfg.socket_path, &why)) << why;
  ASSERT_TRUE(c.send_line("{\"op\":\"ping\"}"));
  std::string line;
  EXPECT_EQ(c.read_line_status(&line, 5000), ReadStatus::kOk);
  EXPECT_EQ(line, "{\"event\":\"pong\"}");
  // Nothing further is coming: a bounded read times out (and the daemon
  // being merely quiet must NOT read as EOF - retry logic hangs on the
  // difference).
  EXPECT_EQ(c.read_line_status(&line, 80), ReadStatus::kTimeout);
  // The daemon goes away: now it IS EOF.
  server.stop();
  EXPECT_EQ(c.read_line_status(&line, 5000), ReadStatus::kEof);
}

TEST(ServiceServer, HalfClosedSubscriberDropsWithoutStallingTheFlight) {
  std::atomic<bool> release{false};
  ServiceConfig scfg;
  scfg.executors = 1;
  scfg.spool_dir = temp_dir("halfclose_spool");
  scfg.runner_override = [&release](const RequestPlan& plan,
                                    const CampaignConfig& ccfg) {
    while (!release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return truncating_runner(2)(plan, ccfg);
  };
  CampaignService svc(model(), scfg);
  ServerConfig srvcfg;
  srvcfg.socket_path = testing::TempDir() + "hltg_service_halfclose.sock";
  ServiceServer server(svc, srvcfg);
  std::string why;
  ASSERT_TRUE(server.start(&why)) << why;

  // Subscribe, read the ack, then hang up while the flight is still
  // running - the progress rows the engine writes afterwards hit a dead
  // socket (MSG_NOSIGNAL path).
  {
    ServiceClient c;
    ASSERT_TRUE(c.connect(srvcfg.socket_path, &why)) << why;
    RequestSpec spec;
    spec.subscribe = true;
    ASSERT_TRUE(
        c.send_line("{\"op\":\"submit\"," + request_fields_json(spec) + "}"));
    std::string line;
    ASSERT_TRUE(c.read_line(&line, 5000));
    EXPECT_NE(line.find("\"event\":\"ack\""), std::string::npos);
    c.close();
  }
  release.store(true);
  // The executor must complete the flight despite the dead subscriber.
  for (int i = 0; i < 500 && svc.stats().completed < 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(svc.stats().completed, 1u);

  // And the service is fully healthy: a new client gets the cached bytes.
  const ClientResult again = run_client(srvcfg.socket_path, RequestSpec{});
  EXPECT_TRUE(again.ok) << again.error;
  EXPECT_FALSE(again.csv.empty());
  server.stop();  // must not hang on the leaked subscription
}

}  // namespace
}  // namespace hltg
