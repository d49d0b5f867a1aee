// Campaign service requests (docs/SERVICE.md).
//
// A request names an error population (model + stages) and a generation
// configuration over the daemon's design. The fields split into two
// classes, and the split is the heart of the result cache:
//
//   semantic      change what the campaign computes: error model, stages,
//                 window/retry window, solver on/off, solver scope,
//                 per-error budget caps, fallback, dropping. They feed the
//                 content-addressed cache key.
//   non-semantic  change only how (or how chattily) it is computed: jobs
//                 at error scope (the engine's determinism contract makes
//                 those results byte-identical for any worker count),
//                 verbose, subscribe, tag. They are EXCLUDED from the key,
//                 so e.g. an error-scope --jobs 8 submission hits the cache
//                 entry a --jobs 1 run filled.
//
// The key mixes tg_design_hash (the daemon's design), tg_config_hash (the
// generator configuration), campaign_fingerprint (the exact error
// population) and the campaign-level semantic fields tg_config_hash does
// not cover (scope, budgets, fallback, dropping, and jobs at campaign
// scope, where each worker's deduction state spans its shard of errors and
// so the rows' effort counters depend on the worker count). Two requests
// share a key iff an offline error_campaign run would produce identical
// result rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/tg.h"
#include "errors/inject.h"

namespace hltg {

class MiniJson;

/// Wire-level request fields (defaults match error_campaign's).
struct RequestSpec {
  // -- semantic: part of the cache key ------------------------------------
  std::string model = "ssl";         ///< ssl | mse | boe | bse
  std::string stages = "EX,MEM,WB";  ///< subset of IF,ID,EX,MEM,WB
  unsigned window = 14;
  unsigned retry_window = 20;
  double deadline_ms = 0;  ///< per-error budget (0 = unlimited)
  std::uint64_t max_backtracks = 0;
  std::uint64_t max_decisions = 0;
  bool fallback = false;  ///< biased-random degradation generator
  unsigned fallback_tries = 64;
  bool solver = true;                 ///< deduction engine on/off
  std::string solver_scope = "error";  ///< error | campaign
  bool drop = false;                  ///< batched error dropping

  // -- non-semantic: excluded from the key --------------------------------
  /// Worker threads: results identical for any N at error scope; part of
  /// the key at campaign scope.
  unsigned jobs = 1;
  bool subscribe = false;  ///< stream per-error progress rows
  std::string tag;         ///< free-form client label (logging only)
};

struct ParsedRequest {
  bool ok = false;
  std::string error;
  RequestSpec spec;
};

/// Decode a submit line's request fields (all optional; defaults above).
/// Validation here is shape-level only; plan_request does the semantic
/// checks that need the design.
ParsedRequest parse_request(const MiniJson& j);

/// The command-line grammar of the request flags error_campaign and
/// tg_client share: --model M, --stages S, --deadline-ms N,
/// --max-backtracks N, --max-decisions N (0 = no cap, as for the
/// deadline), --fallback [tries], --solver on|off,
/// --solver-scope error|campaign, --drop, --jobs N. When
/// argv[*i] is one of them, stores it in `spec`, advances *i past its
/// value and returns true; a malformed value sets `*error`. Returns false,
/// touching nothing, for any other argument (or a value-taking flag with no
/// value left).
bool parse_request_flag(int argc, const char* const* argv, int* i,
                        RequestSpec* spec, std::string* error);

/// Serialize `spec` as the JSON fields of a submit line (client side).
/// Deterministic field order; defaults are emitted explicitly so a logged
/// request line is self-contained.
std::string request_fields_json(const RequestSpec& spec);

/// A validated request bound to the daemon's design: the concrete error
/// population, generator/campaign configuration, and the content-addressed
/// cache key. `error` non-empty means the request was rejected (unknown
/// model, empty stages, drop+jobs conflict, ...).
struct RequestPlan {
  std::string error;
  std::vector<DesignError> errors;
  TgConfig tgcfg;
  BudgetSpec budget;
  bool fallback = false;
  unsigned fallback_tries = 64;
  bool drop = false;
  unsigned jobs = 1;
  std::uint64_t design_hash = 0;
  std::uint64_t config_hash = 0;  ///< tg_config_hash(tgcfg)
  std::string cache_key;          ///< 16-hex-digit content address

  bool ok() const { return error.empty(); }
};

/// Bind `spec` to `m`: enumerate the error population, build the
/// generator/campaign configuration, and derive the cache key.
RequestPlan plan_request(const DlxModel& m, const RequestSpec& spec);

}  // namespace hltg
