#include "errors/report.h"

#include <sstream>

namespace hltg {

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string campaign_csv(const Netlist& nl, const CampaignResult& res) {
  std::ostringstream os;
  os << "model,error,outcome,abort,verify,test_length,backtracks,decisions,"
        "seconds,dptrace_ns,ctrljust_ns,dprelax_ns\n";
  for (const CampaignRow& row : res.rows) {
    const ErrorAttempt& a = row.attempt;
    os << row.error.model_name() << ','
       << csv_escape(row.error.describe(nl)) << ','
       << to_string(a.outcome()) << ',' << to_string(a.abort) << ','
       << to_string(a.verify) << ',' << a.test_length << ',' << a.backtracks
       << ',' << a.decisions << ',' << a.seconds << ',' << a.dptrace_ns << ','
       << a.ctrljust_ns << ',' << a.dprelax_ns << '\n';
  }
  return os.str();
}

std::string campaign_markdown(const Netlist& nl, const CampaignResult& res,
                              const std::string& title) {
  std::ostringstream os;
  os << "# " << title << "\n\n";
  os << "| metric | value |\n|---|---|\n";
  os << "| errors | " << res.stats.total << " |\n";
  os << "| detected | " << res.stats.detected << " |\n";
  os << "| aborted | " << res.stats.aborted << " |\n";
  if (res.stats.proven_redundant > 0)
    os << "| proven redundant | " << res.stats.proven_redundant << " |\n";
  if (res.stats.claim_mismatch > 0)
    os << "| claim mismatches (quarantined) | " << res.stats.claim_mismatch
       << " |\n";
  os << "| avg test length | " << res.stats.avg_test_length << " |\n";
  os << "| backtracks (detected) | " << res.stats.backtracks << " |\n";
  os << "| CPU seconds | " << res.stats.cpu_seconds << " |\n\n";
  os << "| error | outcome | len | backtracks |\n|---|---|---|---|\n";
  for (const CampaignRow& row : res.rows) {
    const ErrorAttempt& a = row.attempt;
    os << "| " << row.error.describe(nl) << " | " << to_string(a.outcome())
       << " | " << a.test_length << " | " << a.backtracks << " |\n";
  }
  return os.str();
}

}  // namespace hltg
