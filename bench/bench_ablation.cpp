// Ablation of the test generator's own design choices (DESIGN.md §5):
//   - plan-shape deduplication (skip confirm-failed path shapes),
//   - reset-trajectory pre-check (skip plans the reset state already
//     violates),
//   - control-flow divergence macros (branch-path error templates),
//   - observation-route diversity (plans per activation cycle),
// measured on the full Table-1 SSL population.
#include <cstdio>

#include "core/tg.h"
#include "util/table.h"

using namespace hltg;

namespace {

struct Row {
  const char* name;
  TgConfig cfg;
};

}  // namespace

int main() {
  std::printf("== ablation: TG design choices on the Table-1 population ==\n\n");
  const DlxModel m = build_dlx();
  const auto errors = wrap(enumerate_bus_ssl(m.dp));

  std::vector<Row> rows;
  rows.push_back({"full system", {}});
  {
    TgConfig c;
    c.shape_dedup = false;
    rows.push_back({"- shape dedup", c});
  }
  {
    TgConfig c;
    c.reset_precheck = false;
    rows.push_back({"- reset pre-check", c});
  }
  {
    TgConfig c;
    c.control_flow_macros = false;
    rows.push_back({"- control-flow macros", c});
  }
  {
    TgConfig c;
    c.trace.plans_per_activation = 1;
    rows.push_back({"- observation diversity (1 plan/cycle)", c});
  }
  {
    TgConfig c;
    c.retry_window = 0;
    rows.push_back({"- window retry", c});
  }

  TextTable t({"configuration", "detected", "aborted", "proven red.",
               "avg len", "backtracks", "seconds"});
  for (const Row& row : rows) {
    TestGenerator tg(m, row.cfg);
    const CampaignResult res =
        run_campaign(m.dp, errors, tg.budgeted_strategy());
    t.add_row({row.name, std::to_string(res.stats.detected),
               std::to_string(res.stats.aborted),
               std::to_string(res.stats.proven_redundant),
               fmt_double(res.stats.avg_test_length, 1),
               std::to_string(res.stats.backtracks),
               fmt_double(res.stats.cpu_seconds, 2)});
  }
  t.print();
  std::printf(
      "\nreading: each removed mechanism costs detections (macros), wastes\n"
      "search effort (dedup / pre-check), or narrows escape routes around\n"
      "structurally lossy observation points (diversity).\n");
  return 0;
}
