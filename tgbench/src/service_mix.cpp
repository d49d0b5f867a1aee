// Workload service_mix: the campaign daemon under a closed loop. Each pass
// starts a CampaignService (supervised forked workers, two executors, a
// disk cache in a fresh directory) behind a ServiceServer on a unix
// socket, then three ServiceClient connections work through a seeded,
// skewed request stream, each waiting for its result before sending the
// next request. Every pass replays one of four seeded streams, each of
// which requests every spec of the pool at least once: first sightings run
// cold (fork + campaign + cache persist), repeats are cache hits,
// concurrent duplicates coalesce.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "dlx/dlx.h"
#include "errors/report.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "trace.h"
#include "util/minijson.h"
#include "util/rng.h"

namespace tgbench {

namespace {

using namespace hltg;

constexpr unsigned kClients = 3;
/// The stream's size and skew are assumptions, not measured daemon traffic
/// (README.md, "service_mix request stream"). The skew is YCSB's default
/// Zipf constant, 0.99 (Cooper et al., "Benchmarking Cloud Serving Systems
/// with YCSB", SoCC 2010).
constexpr unsigned kRequestsPerPass = 200;
constexpr double kZipfExponent = 0.99;
/// Streams a run cycles through, each for two consecutive passes (a traced
/// run thus traces and leaves untraced every stream). Which requests
/// coalesce, and so the tail, depends on the stream.
constexpr unsigned kStreams = 4;
constexpr int kTimeoutMs = 120000;

/// The pool: model x stage set x window x solver x drop, with effort caps
/// (never a deadline: a deadline would make cached payloads depend on
/// timing). The caps keep every cold flight between a few and ~150 ms, so
/// service overhead stays a visible share of miss latency. plan_request
/// rejects some combinations (an empty population: boe on MEM, mse and bse
/// on WB); only admitted specs enter the pool.
struct Candidate {
  const char* model;
  const char* stages;
  unsigned window;
  bool solver;
  bool drop;
};
constexpr Candidate kCandidates[] = {
    {"ssl", "WB", 14, true, false},    {"ssl", "WB", 14, true, true},
    {"ssl", "WB", 10, false, false},   {"ssl", "MEM", 10, false, true},
    {"ssl", "MEM", 14, false, true},   {"mse", "EX", 14, true, true},
    {"mse", "EX", 10, false, false},   {"mse", "MEM", 14, true, false},
    {"mse", "MEM,WB", 10, false, false}, {"mse", "WB", 14, true, false},
    {"boe", "EX", 14, true, false},    {"boe", "EX,MEM", 10, false, true},
    {"boe", "MEM", 14, true, false},   {"bse", "MEM", 14, true, true},
    {"bse", "MEM", 10, false, false},  {"bse", "EX", 10, false, true},
    {"bse", "WB", 14, true, false},
};
constexpr std::uint64_t kMaxBacktracks = 8;
constexpr std::uint64_t kMaxDecisions = 200;

struct PoolEntry {
  RequestSpec spec;
  RequestPlan plan;
};

struct Setup {
  std::unique_ptr<DlxModel> m;
  std::vector<PoolEntry> pool;
};

Setup set_up() {
  Setup s;
  s.m = std::make_unique<DlxModel>(build_dlx());
  s.m->ctrl.warm_caches();
  s.m->dp.topo_order();
  for (const Candidate& c : kCandidates) {
    PoolEntry e;
    e.spec.model = c.model;
    e.spec.stages = c.stages;
    e.spec.window = c.window;
    e.spec.solver = c.solver;
    e.spec.drop = c.drop;
    e.spec.max_backtracks = kMaxBacktracks;
    e.spec.max_decisions = kMaxDecisions;
    e.plan = plan_request(*s.m, e.spec);
    if (e.plan.ok()) s.pool.push_back(std::move(e));
  }
  return s;
}

/// The request stream. Spec j of the pool is first requested at position
/// j * gap, so the cold flights - and how they queue on the two executors -
/// come in the same order for every seed. Every other position draws, from
/// a Zipf law over a seeded ranking of the pool, a spec already introduced:
/// a cache hit, or a coalesced duplicate while its flight still runs.
std::vector<std::size_t> make_stream(std::size_t pool, Rng& rng) {
  std::vector<std::size_t> rank(pool);
  for (std::size_t i = 0; i < pool; ++i) rank[i] = i;
  seeded_shuffle(rank, rng);
  std::vector<double> cdf(pool);
  double sum = 0;
  for (std::size_t k = 0; k < pool; ++k)
    cdf[k] = sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
  const std::size_t gap = kRequestsPerPass / pool;
  std::vector<std::size_t> out;
  for (std::size_t q = 0; q < kRequestsPerPass; ++q) {
    if (q % gap == 0 && q / gap < pool) {
      out.push_back(q / gap);
      continue;
    }
    const std::size_t introduced = std::min(pool, q / gap + 1);
    std::size_t spec = pool;
    while (spec >= introduced) {
      const double u = static_cast<double>(rng.below(1u << 30)) / (1u << 30) * sum;
      const std::size_t k = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      spec = rank[std::min(k, pool - 1)];
    }
    out.push_back(spec);
  }
  return out;
}

/// The deterministic part of a campaign CSV: fields 1-8 of every line
/// (model .. decisions; fields 9+ are wall-clock timings), and the number
/// of rows whose outcome (field 3) is a detection.
struct Columns {
  std::string text;
  std::uint64_t detected = 0;
};
Columns outcome_columns(const std::string& csv) {
  Columns out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t eol = csv.find('\n', pos);
    if (eol == std::string::npos) eol = csv.size();
    int fields = 0;
    bool quoted = false;
    std::size_t i = pos;
    for (; i < eol; ++i) {
      if (csv[i] == '"') quoted = !quoted;
      if (csv[i] != ',' || quoted) continue;
      if (++fields == 2 && csv.compare(i + 1, 8, "detected") == 0)
        ++out.detected;
      if (fields == 8) break;
    }
    out.text.append(csv, pos, i - pos);
    out.text += '\n';
    pos = eol + 1;
  }
  return out;
}

enum class Kind { kMiss, kHit, kCoalesced };
const char* const kKind[] = {"miss", "hit", "coalesced"};

struct Response {
  double ms = 0;
  Kind kind = Kind::kMiss;
};

/// One client connection working through the shared stream. `first` gets
/// the first answer this client saw per pool spec; later answers must
/// equal it.
void client_loop(const std::string& socket, const std::vector<PoolEntry>& pool,
                 const std::vector<std::size_t>& stream,
                 std::atomic<std::size_t>* next, std::uint64_t pass_span,
                 std::vector<Response>* out, std::vector<Columns>* first,
                 std::vector<std::string>* errors) {
  Tracer& tr = Tracer::get();
  ServiceClient c;
  std::string why;
  if (!c.connect(socket, &why)) {
    errors->push_back("connect: " + why);
    return;
  }
  for (std::size_t i; (i = next->fetch_add(1)) < stream.size();) {
    const PoolEntry& e = pool[stream[i]];
    const std::uint64_t req_span = tr.next_id();
    const std::int64_t t0 = now_ns();
    std::string line;
    if (!c.send_line("{\"op\":\"submit\"," + request_fields_json(e.spec) + "}") ||
        !c.read_line(&line, kTimeoutMs)) {
      errors->push_back("request " + std::to_string(i) + ": no ack");
      return;  // the connection is out of step; its remaining requests
               // go to the other clients
    }
    MiniJson ack(line);
    std::string event;
    ack.get_string("event", &event);
    if (event != "ack") {
      errors->push_back("request " + std::to_string(i) + " rejected: " + line);
      continue;
    }
    bool coalesced = false;
    ack.get_bool("coalesced", &coalesced);
    tr.record("service.ack", tr.next_id(), req_span, t0);

    if (!c.read_line(&line, kTimeoutMs)) {
      errors->push_back("request " + std::to_string(i) + ": no result");
      return;
    }
    const std::int64_t t1 = now_ns();
    MiniJson res(line);
    bool ok = false, cached = false;
    std::string csv, error;
    res.get_bool("ok", &ok);
    res.get_bool("cached", &cached);
    res.get_string("csv", &csv);
    if (!ok) {
      res.get_string("error", &error);
      errors->push_back("request " + std::to_string(i) + " failed: " + error);
      continue;
    }
    Response r;
    r.ms = ms_between(t0, t1);
    r.kind = cached ? Kind::kHit : coalesced ? Kind::kCoalesced : Kind::kMiss;
    Columns cols = outcome_columns(csv);
    Columns& seen = (*first)[stream[i]];
    if (seen.text.empty())
      seen = std::move(cols);
    else if (cols.text != seen.text)
      errors->push_back("payload of " + e.plan.cache_key + " differs between responses");
    tr.record("service.request", req_span, pass_span, t0,
              JsonWriter().str("kind", kKind[static_cast<int>(r.kind)]).take());
    out->push_back(std::move(r));
  }
}

}  // namespace

Outcome run_service_mix(const Options& o) {
  Outcome r;
  SetupClock setup;
  const Setup su = setup.burst(set_up);
  std::vector<double> start_s;
  const DlxModel& m = *su.m;
  const std::vector<PoolEntry>& pool = su.pool;
  if (pool.empty()) throw std::runtime_error("no admissible service specs");

  Tracer& tr = Tracer::get();
  std::uint64_t pass_span = 0;
  ServiceConfig scfg;
  scfg.executors = 2;
  scfg.supervise = true;
  if (o.trace) {
    // Runs inside the forked worker, whose spans go to the side file.
    scfg.runner_override = [&m, &pass_span](const RequestPlan& plan,
                                            const CampaignConfig& ccfg) {
      Tracer& t = Tracer::get();
      const std::int64_t t0 = now_ns();
      CampaignResult res = run_campaign_plan(m, plan, ccfg);
      t.record("service.run", t.next_id(), pass_span, t0,
               JsonWriter().num("errors", std::uint64_t{plan.errors.size()}).take());
      return res;
    };
  }

  std::vector<std::vector<std::size_t>> streams;
  for (unsigned k = 0; k < kStreams; ++k) {
    Rng rng(o.seed * 1000003u + k);
    streams.push_back(make_stream(pool.size(), rng));
  }
  // The first answer per pool entry; every later answer must equal it, and
  // it must equal the offline run of the same plan.
  std::vector<Columns> first(pool.size());
  // The fast figures - pass wall, p50 and hit p50 over a pass's requests,
  // set by ~0.1 ms hits that host contention decides - keep each stream's
  // best pass and average the streams. The slow ones - p95, p99 and the
  // cold flights' p50, 100+ ms set by how flights queue on the executors -
  // pool every sampled request of the run, across the streams.
  enum Figure { kWall, kP50, kHitP50, kFigures };
  std::vector<BestTimes> best(kFigures, BestTimes(kStreams));
  std::vector<double> pooled, pooled_miss;
  std::uint64_t kinds[3] = {};  // sampled responses per Kind
  const std::string base = o.work_dir + "/svc_" + std::to_string(::getpid());
  for (Passes pass(o); pass.next();) {
    if (!pass.warmup()) setup.burst(set_up);
    const unsigned k = pass.warmup() ? 0 : (pass.index() - 1) / 2 % kStreams;
    const std::vector<std::size_t>& stream = streams[k];
    tr.set_on(pass.traced());
    pass_span = tr.next_id();
    const std::string dir = base + "_" + std::to_string(pass.index());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/cache");

    std::vector<std::vector<Response>> responses(kClients);
    std::vector<std::vector<Columns>> firsts(kClients,
                                             std::vector<Columns>(pool.size()));
    std::vector<std::vector<std::string>> errors(kClients);
    ServiceStats stats;
    double wall_ms = 0;
    {
      const std::int64_t s0 = now_ns();
      ServiceConfig cfg = scfg;
      cfg.cache_dir = dir + "/cache";
      CampaignService service(m, cfg);
      ServiceServer server(service, ServerConfig{dir + "/tg.sock"});
      std::string why;
      if (!server.start(&why)) throw std::runtime_error("service start: " + why);
      if (!pass.warmup()) start_s.push_back(ms_between(s0, now_ns()) / 1e3);

      std::atomic<std::size_t> next{0};
      const std::int64_t t0 = now_ns();
      std::vector<std::thread> clients;
      for (unsigned c = 0; c < kClients; ++c)
        clients.emplace_back(client_loop, dir + "/tg.sock", std::cref(pool),
                             std::cref(stream), &next, pass_span,
                             &responses[c], &firsts[c], &errors[c]);
      for (std::thread& t : clients) t.join();
      wall_ms = ms_between(t0, now_ns());
      stats = service.stats();
      server.stop();
      tr.record("bench.pass", pass_span, 0, t0,
                JsonWriter()
                    .num("pass", pass.index())
                    .str("workload", o.workload)
                    .num("cache_hits", stats.cache.hits)
                    .num("cache_misses", stats.cache.misses)
                    .num("cache_insertions", stats.cache.insertions)
                    .num("coalesced", stats.coalesced)
                    .num("worker_restarts", stats.worker_restarts)
                    .take());
    }
    std::filesystem::remove_all(dir);

    r.attempted += stream.size();
    std::size_t answered = 0, failed = 0;
    std::vector<double> lat, lat_hit;
    for (unsigned c = 0; c < kClients; ++c) {
      for (const std::string& e : errors[c]) r.fail(e);
      failed += errors[c].size();
      for (const Response& x : responses[c]) {
        ++answered;
        if (!pass.sampled()) continue;
        lat.push_back(x.ms);
        pooled.push_back(x.ms);
        ++kinds[static_cast<int>(x.kind)];
        if (x.kind == Kind::kMiss) pooled_miss.push_back(x.ms);
        if (x.kind == Kind::kHit) lat_hit.push_back(x.ms);
      }
      for (std::size_t e = 0; e < pool.size(); ++e) {
        const Columns& mine = firsts[c][e];
        if (first[e].text.empty()) first[e] = mine;
        if (!mine.text.empty() && mine.text != first[e].text)
          r.fail("payload of " + pool[e].plan.cache_key +
                 " differs between responses");
      }
    }
    if (answered + failed < stream.size())
      r.fail("unanswered requests", stream.size() - answered - failed);
    if (pass.warmup()) continue;
    (pass.traced() ? r.traced_pass_ms : r.plain_pass_ms).push_back(wall_ms);
    if (!pass.sampled() || answered != stream.size()) continue;
    const double figure[kFigures] = {wall_ms, quantile(lat, 0.5), quantile(lat_hit, 0.5)};
    for (int f = 0; f < kFigures; ++f) best[f].add(k, figure[f]);
  }
  tr.set_on(false);

  // Every cached or coalesced answer must equal an offline campaign run of
  // the same plan (outcome columns; timings excluded).
  for (std::size_t i = 0; i < pool.size(); ++i) {
    CampaignConfig ccfg;
    ccfg.budget = pool[i].plan.budget;
    ccfg.design_hash = pool[i].plan.design_hash;
    ccfg.solver_config_hash = pool[i].plan.config_hash;
    const CampaignResult res = run_campaign_plan(m, pool[i].plan, ccfg);
    if (outcome_columns(campaign_csv(m.dp, res)).text != first[i].text)
      r.fail("spec " + pool[i].plan.cache_key + " (" + pool[i].spec.model +
             " " + pool[i].spec.stages + ") differs from the offline run");
  }

  const double answered = static_cast<double>(kinds[0] + kinds[1] + kinds[2]);
  std::printf("request mix: %zu specs, %u requests per pass, miss %.3f hit %.3f coalesced %.3f\n",
              pool.size(), kRequestsPerPass, kinds[0] / answered, kinds[1] / answered,
              kinds[2] / answered);
  double detected = 0;
  for (const Columns& c : first) detected += static_cast<double>(c.detected);
  const double rate = best[kWall].rate(kRequestsPerPass);
  const double p50 = best[kP50].mean();
  const double p95 = quantile(pooled, 0.95);
  r.metrics = {
      {"setup_s", setup.seconds() + *std::min_element(start_s.begin(), start_s.end())},
      {"req_per_s", rate},
      {"req_p50_ms", p50},
      {"req_p99_ms", quantile(pooled, 0.99)},
      {"req_miss_p50_ms", quantile(pooled_miss, 0.5)},
      {"req_hit_p50_ms", best[kHitP50].mean()},
      // Metrics named for the other workloads report this workload's own
      // requests (README.md, "Every metric on every workload").
      {"errors_per_s", rate},
      {"error_p50_ms", p50},
      {"error_p95_ms", p95},
      {"detected", detected},
      {"grade_pairs_per_s", rate},
      {"grade_p50_ms", p50},
      {"grade_p95_ms", p95},
  };
  return r;
}

}  // namespace tgbench
