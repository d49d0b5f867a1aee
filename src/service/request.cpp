#include "service/request.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "errors/boe.h"
#include "errors/bse.h"
#include "errors/bus_ssl.h"
#include "errors/journal.h"
#include "errors/mse.h"
#include "util/fnv.h"
#include "util/minijson.h"

namespace hltg {

namespace {

std::vector<Stage> parse_stages(const std::string& s) {
  std::vector<Stage> out;
  if (s.find("IF") != std::string::npos) out.push_back(Stage::kIF);
  if (s.find("ID") != std::string::npos) out.push_back(Stage::kID);
  if (s.find("EX") != std::string::npos) out.push_back(Stage::kEX);
  if (s.find("MEM") != std::string::npos) out.push_back(Stage::kMEM);
  if (s.find("WB") != std::string::npos) out.push_back(Stage::kWB);
  return out;
}

std::string hex16(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

ParsedRequest parse_request(const MiniJson& j) {
  ParsedRequest out;
  if (!j.ok()) {
    out.error = "malformed request line";
    return out;
  }
  RequestSpec& s = out.spec;
  j.get_string("model", &s.model);
  j.get_string("stages", &s.stages);
  std::uint64_t u = 0;
  if (j.get_u64("window", &u)) s.window = static_cast<unsigned>(u);
  if (j.get_u64("retry_window", &u)) s.retry_window = static_cast<unsigned>(u);
  j.get_double("deadline_ms", &s.deadline_ms);
  j.get_u64("max_backtracks", &s.max_backtracks);
  j.get_u64("max_decisions", &s.max_decisions);
  j.get_bool("fallback", &s.fallback);
  if (j.get_u64("fallback_tries", &u)) s.fallback_tries =
      static_cast<unsigned>(u);
  j.get_bool("solver", &s.solver);
  j.get_string("solver_scope", &s.solver_scope);
  j.get_bool("drop", &s.drop);
  if (j.get_u64("jobs", &u)) s.jobs = static_cast<unsigned>(u);
  j.get_bool("subscribe", &s.subscribe);
  j.get_string("tag", &s.tag);
  out.ok = true;
  return out;
}

bool parse_request_flag(int argc, const char* const* argv, int* i,
                        RequestSpec* spec, std::string* error) {
  const std::string flag = argv[*i];
  if (flag == "--drop") {
    spec->drop = true;
    return true;
  }
  if (flag == "--fallback") {
    spec->fallback = true;
    if (*i + 1 < argc && argv[*i + 1][0] != '-')
      spec->fallback_tries = static_cast<unsigned>(std::atoi(argv[++*i]));
    return true;
  }
  if (*i + 1 >= argc) return false;
  const std::string v = argv[*i + 1];
  if (flag == "--model") {
    spec->model = v;
  } else if (flag == "--stages") {
    spec->stages = v;
  } else if (flag == "--deadline-ms") {
    spec->deadline_ms = std::atof(v.c_str());
  } else if (flag == "--max-backtracks") {
    spec->max_backtracks = std::strtoull(v.c_str(), nullptr, 10);
  } else if (flag == "--max-decisions") {
    spec->max_decisions = std::strtoull(v.c_str(), nullptr, 10);
  } else if (flag == "--solver") {
    if (v == "on" || v == "off")
      spec->solver = v == "on";
    else
      *error = "--solver takes 'on' or 'off', not '" + v + "'";
  } else if (flag == "--solver-scope") {
    if (v == "error" || v == "campaign")
      spec->solver_scope = v;
    else
      *error = "--solver-scope takes 'error' or 'campaign', not '" + v + "'";
  } else if (flag == "--jobs") {
    spec->jobs = static_cast<unsigned>(std::atoi(v.c_str()));
  } else {
    return false;
  }
  ++*i;
  return true;
}

std::string request_fields_json(const RequestSpec& s) {
  JsonWriter w;
  w.str("model", s.model)
      .str("stages", s.stages)
      .num("window", s.window)
      .num("retry_window", s.retry_window);
  char dbuf[64];
  std::snprintf(dbuf, sizeof dbuf, "%.17g", s.deadline_ms);
  w.raw("deadline_ms", dbuf)
      .num("max_backtracks", s.max_backtracks)
      .num("max_decisions", s.max_decisions)
      .boolean("fallback", s.fallback)
      .num("fallback_tries", s.fallback_tries)
      .boolean("solver", s.solver)
      .str("solver_scope", s.solver_scope)
      .boolean("drop", s.drop)
      .num("jobs", s.jobs)
      .boolean("subscribe", s.subscribe);
  if (!s.tag.empty()) w.str("tag", s.tag);
  std::string line = w.take();
  // Strip the braces: callers splice these fields into a larger object.
  return line.substr(1, line.size() - 2);
}

RequestPlan plan_request(const DlxModel& m, const RequestSpec& spec) {
  RequestPlan plan;

  const std::vector<Stage> stages = parse_stages(spec.stages);
  if (stages.empty()) {
    plan.error = "no valid stages in '" + spec.stages + "'";
    return plan;
  }
  if (spec.model == "ssl") {
    BusSslConfig cfg;
    cfg.stages = stages;
    plan.errors = wrap(enumerate_bus_ssl(m.dp, cfg));
  } else if (spec.model == "mse") {
    plan.errors = wrap(enumerate_mse(m.dp, stages));
  } else if (spec.model == "boe") {
    plan.errors = wrap(enumerate_boe(m.dp, stages));
  } else if (spec.model == "bse") {
    BseConfig cfg;
    cfg.stages = stages;
    plan.errors = wrap(enumerate_bse(m.dp, cfg));
  } else {
    plan.error = "unknown error model '" + spec.model + "'";
    return plan;
  }
  if (plan.errors.empty()) {
    plan.error = "error population is empty for model '" + spec.model +
                 "' stages '" + spec.stages + "'";
    return plan;
  }
  if (spec.solver_scope != "error" && spec.solver_scope != "campaign") {
    plan.error = "solver_scope takes 'error' or 'campaign', not '" +
                 spec.solver_scope + "'";
    return plan;
  }
  if (spec.drop && spec.jobs > 1) {
    // Same engine-level exclusion the CLI enforces: each drop pass depends
    // on the tests kept so far, so dropping is inherently sequential.
    plan.error = "drop and jobs > 1 are mutually exclusive";
    return plan;
  }

  plan.tgcfg.window = spec.window;
  plan.tgcfg.trace.window = spec.window;
  plan.tgcfg.retry_window = spec.retry_window;
  plan.tgcfg.ctrljust.use_engine = spec.solver;
  plan.tgcfg.solver.scope = spec.solver_scope == "campaign"
                                ? SolverScope::kCampaign
                                : SolverScope::kError;
  plan.budget.deadline_seconds = spec.deadline_ms / 1000.0;
  if (spec.max_backtracks) plan.budget.max_backtracks = spec.max_backtracks;
  if (spec.max_decisions) plan.budget.max_decisions = spec.max_decisions;
  plan.fallback = spec.fallback;
  plan.fallback_tries = spec.fallback_tries;
  plan.drop = spec.drop;
  plan.jobs = spec.jobs < 1 ? 1 : spec.jobs;

  plan.design_hash = tg_design_hash(m);
  plan.config_hash = tg_config_hash(plan.tgcfg);

  // The content address. tg_config_hash covers the generator-level
  // semantics (window, solver toggles, search caps); everything campaign-
  // level that changes result rows is mixed in here - including
  // SolverScope, which tg_config_hash deliberately omits (scope is
  // outcome-neutral but changes the effort counters the CSV reports).
  Fnv1a f(kFnvTruncatedBasis);
  f.u64(plan.design_hash);
  f.u64(plan.config_hash);
  f.u64(campaign_fingerprint(m.dp, plan.errors));
  f.u64(plan.tgcfg.solver.scope == SolverScope::kCampaign ? 1u : 0u);
  // A campaign-scope worker's context spans its shard, so the shard count
  // shapes the rows' effort counters. Error-scope keys leave it out.
  if (plan.tgcfg.solver.scope == SolverScope::kCampaign) f.u64(plan.jobs);
  f.u64(plan.drop ? 1u : 0u);
  std::uint64_t deadline_bits = 0;
  static_assert(sizeof deadline_bits == sizeof spec.deadline_ms);
  std::memcpy(&deadline_bits, &spec.deadline_ms, sizeof deadline_bits);
  f.u64(deadline_bits);
  f.u64(spec.max_backtracks);
  f.u64(spec.max_decisions);
  f.u64(spec.fallback ? 1u : 0u);
  f.u64(spec.fallback ? spec.fallback_tries : 0u);
  // The row format: bumped when the same request yields different rows,
  // so no payload cached under the old rows is served. 1: provably
  // redundant errors read proven_redundant, not aborted.
  f.u64(1u);
  plan.cache_key = hex16(f.h);
  return plan;
}

}  // namespace hltg
