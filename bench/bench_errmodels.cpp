// E6 - Extension: other error models of Van Campenhout et al. [28].
//
// Sec. VI: "our test generation algorithm can be used in conjunction with
// other error models proposed in [28]". This bench runs the generator on
// module substitution errors (MSE) and bus order errors (BOE) in the same
// EX/MEM/WB stages.
#include <cstdio>

#include "core/tg.h"
#include "util/table.h"

using namespace hltg;

int main() {
  std::printf("== E6: extension error models (MSE / BOE) ==\n\n");
  const DlxModel m = build_dlx();
  const std::vector<Stage> stages = {Stage::kEX, Stage::kMEM, Stage::kWB};

  TestGenerator tg(m);

  const auto mse = wrap(enumerate_mse(m.dp, stages));
  const CampaignResult rm = run_campaign(m.dp, mse, tg.budgeted_strategy());
  std::printf("%s\n",
              rm.stats.table1("Module substitution errors (MSE)").c_str());

  const auto boe = wrap(enumerate_boe(m.dp, stages));
  const CampaignResult rb = run_campaign(m.dp, boe, tg.budgeted_strategy());
  std::printf("%s\n", rb.stats.table1("Bus order errors (BOE)").c_str());

  BseConfig bse_cfg;
  bse_cfg.stages = stages;
  const auto bse = wrap(enumerate_bse(m.dp, bse_cfg));
  const CampaignResult rs = run_campaign(m.dp, bse, tg.budgeted_strategy());
  std::printf("%s\n", rs.stats.table1("Bus source errors (BSE)").c_str());

  TextTable t({"error model", "errors", "detected", "coverage %"});
  auto row = [&](const char* name, const CampaignStats& s) {
    t.add_row({name, std::to_string(s.total), std::to_string(s.detected),
               fmt_double(100.0 * s.detected / std::max<std::size_t>(1, s.total), 1)});
  };
  row("bus SSL (Table 1 model)", [&] {
    const auto ssl = wrap(enumerate_bus_ssl(m.dp));
    return run_campaign(m.dp, ssl, tg.budgeted_strategy()).stats;
  }());
  row("MSE", rm.stats);
  row("BOE", rb.stats);
  row("BSE", rs.stats);
  t.print();
  std::printf(
      "\nshape check: the same three-part algorithm covers the [28] models;\n"
      "MSE/BOE activate more easily than single stuck lines (any operand\n"
      "pair with differing results activates them), so coverage is >= SSL's.\n");
  return 0;
}
