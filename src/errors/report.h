// Campaign report writers: CSV (machine-readable) and Markdown summaries of
// per-error outcomes, for downstream triage tooling.
#pragma once

#include <string>

#include "errors/campaign.h"

namespace hltg {

/// One row per error, columns model, error, outcome, abort, verify,
/// test_length, backtracks, decisions, seconds, dptrace_ns, ctrljust_ns,
/// dprelax_ns. Columns 9-12 are wall-clock timings.
std::string campaign_csv(const Netlist& nl, const CampaignResult& res);

/// Markdown: the Table-1 block plus a per-error outcome table.
std::string campaign_markdown(const Netlist& nl, const CampaignResult& res,
                              const std::string& title);

}  // namespace hltg
