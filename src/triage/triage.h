// Campaign wiring for the self-checking triage layer: build the
// TriageConfig the campaign engines consume from the concrete model-level
// pieces - the independent scalar oracle (witness_check), the ddmin witness
// minimizer, the cross-config retry generator (the --solver escape hatch in
// the opposite position), and the quarantine bundle writer.
//
// src/errors cannot depend on src/sim or src/core (layering), so the
// campaign sees only std::functions; this module, which may see everything,
// is where they are bound to the DLX model.
#pragma once

#include "core/tg.h"
#include "dlx/dlx.h"
#include "errors/campaign.h"
#include "triage/bundle.h"

namespace hltg {

struct TriageOptions {
  bool verify = false;    ///< cross-check every detection claim
  bool minimize = false;  ///< ddmin mismatching witnesses
  /// Quarantine root ("" disables bundle writing; incidents are still
  /// counted and noted).
  std::string quarantine_dir;
  /// Campaign-identifying flags for the bundles' repro.txt (see
  /// BundleOptions::repro_flags).
  std::string repro_flags;
  /// Bounds one ddmin pass; every candidate probe is one decision. The
  /// default caps probes so a pathological predicate cannot stall the
  /// campaign.
  BudgetSpec minimize_budget{/*deadline_seconds=*/10.0,
                             /*max_decisions=*/2048};
  /// Generator config for the one cross-config retry on claim mismatch;
  /// the caller passes the campaign's config with `ctrljust.use_engine`
  /// flipped.
  /// `cross_retry = false` disables the retry entirely.
  bool cross_retry = true;
  TgConfig cross_config;
};

/// Bind the triage layer to a model. The returned config's callbacks are
/// thread-compatible: oracle and minimizer run scalar simulations against
/// the shared read-only model, and the cross-config retry constructs its
/// own TestGenerator per call (campaign workers never share one).
TriageConfig make_triage(const DlxModel& m, const TriageOptions& opt);

}  // namespace hltg
