#include "errors/journal.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "isa/testcase_io.h"
#include "util/failpoint.h"
#include "util/minijson.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace hltg {

namespace {

std::string fmt_seconds(double s) {
  // 17 significant digits round-trip any double exactly, which the
  // resume-equality guarantee depends on.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", s);
  return buf;
}

}  // namespace

std::uint64_t campaign_fingerprint(const Netlist& nl,
                                   const std::vector<DesignError>& errors) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0xFF;
    h *= 0x100000001b3ull;
  };
  mix(std::to_string(errors.size()));
  for (const DesignError& e : errors) {
    mix(e.model_name());
    mix(e.describe(nl));
  }
  return h;
}

std::string journal_header_line(std::size_t total, std::uint64_t fingerprint,
                                std::uint64_t design_hash,
                                std::uint64_t solver_hash) {
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  std::ostringstream os;
  os << "{\"kind\":\"hltg-campaign\",\"version\":1,\"total\":" << total
     << ",\"fingerprint\":\"" << fp << "\"";
  // Provenance stamps are emitted only when the campaign supplies them, so
  // unstamped headers keep the pre-stamp byte layout.
  if (design_hash) {
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(design_hash));
    os << ",\"design\":\"" << fp << "\"";
  }
  if (solver_hash) {
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(solver_hash));
    os << ",\"solver\":\"" << fp << "\"";
  }
  os << "}";
  return os.str();
}

std::string journal_row_line(std::size_t index, const ErrorAttempt& a) {
  std::ostringstream os;
  os << "{\"index\":" << index
     << ",\"generated\":" << (a.generated ? "true" : "false")
     << ",\"sim_confirmed\":" << (a.sim_confirmed ? "true" : "false")
     << ",\"test_length\":" << a.test_length
     << ",\"backtracks\":" << a.backtracks << ",\"decisions\":" << a.decisions
     << ",\"implications\":" << a.implications << ",\"learned\":" << a.learned
     << ",\"nogood_hits\":" << a.nogood_hits
     << ",\"cache_hits\":" << a.cache_hits;
  // Phase timings are emitted only when present, so journals from
  // uninstrumented strategies keep their old byte layout.
  if (a.dptrace_ns || a.ctrljust_ns || a.dprelax_ns)
    os << ",\"dptrace_ns\":" << a.dptrace_ns
       << ",\"ctrljust_ns\":" << a.ctrljust_ns
       << ",\"dprelax_ns\":" << a.dprelax_ns;
  os << ",\"seconds\":" << fmt_seconds(a.seconds) << ",\"abort\":\""
     << to_string(a.abort) << "\",\"via_fallback\":"
     << (a.via_fallback ? "true" : "false") << ",\"note\":\""
     << json_escape(a.note) << "\"";
  // Triage fields are emitted only when set, so journals from unverified
  // campaigns keep their pre-triage byte layout (and old journals replay
  // with the kUnchecked default).
  if (a.verify != WitnessVerdict::kUnchecked)
    os << ",\"verify\":\"" << to_string(a.verify) << "\"";
  if (a.recovered) os << ",\"recovered\":true";
  if (a.incident()) {
    os << ",\"bad_witness\":\"" << json_escape(serialize_test(a.incident_test))
       << "\"";
    if (a.minimized)
      os << ",\"minimized\":\"" << json_escape(serialize_test(a.incident_min))
         << "\"";
  }
  if (a.detected())
    os << ",\"test\":\"" << json_escape(serialize_test(a.test)) << "\"";
  os << "}";
  return os.str();
}

JournalReplay load_journal(const std::string& path) {
  JournalReplay out;
  std::ifstream in(path);
  if (!in) {
    out.note = "journal not found: " + path;
    out.file_missing = true;
    return out;
  }
  std::string line;
  std::size_t lineno = 0;
  std::size_t dropped = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    MiniJson j(line);
    if (lineno == 1) {
      std::string kind, fp;
      std::uint64_t total = 0;
      if (!j.ok() || !j.get_string("kind", &kind) ||
          kind != "hltg-campaign" || !j.get_u64("total", &total) ||
          !j.get_string("fingerprint", &fp)) {
        out.note = "journal header unreadable";
        return out;
      }
      out.header_ok = true;
      out.total = static_cast<std::size_t>(total);
      out.fingerprint = std::strtoull(fp.c_str(), nullptr, 16);
      std::string stamp;
      if (j.get_string("design", &stamp))
        out.design_hash = std::strtoull(stamp.c_str(), nullptr, 16);
      if (j.get_string("solver", &stamp))
        out.solver_hash = std::strtoull(stamp.c_str(), nullptr, 16);
      continue;
    }
    std::uint64_t index = 0;
    ErrorAttempt a;
    std::string abort_s, test_s;
    if (!j.ok() || !j.get_u64("index", &index) ||
        !j.get_bool("generated", &a.generated) ||
        !j.get_bool("sim_confirmed", &a.sim_confirmed)) {
      ++dropped;  // torn or foreign row: drop it (and any that follow it)
      break;
    }
    std::uint64_t len = 0;
    j.get_u64("test_length", &len);
    a.test_length = static_cast<unsigned>(len);
    j.get_u64("backtracks", &a.backtracks);
    j.get_u64("decisions", &a.decisions);
    // Solver fields are absent in pre-solver journals; the zero defaults
    // keep those journals replayable.
    j.get_u64("implications", &a.implications);
    j.get_u64("learned", &a.learned);
    j.get_u64("nogood_hits", &a.nogood_hits);
    j.get_u64("cache_hits", &a.cache_hits);
    j.get_u64("dptrace_ns", &a.dptrace_ns);
    j.get_u64("ctrljust_ns", &a.ctrljust_ns);
    j.get_u64("dprelax_ns", &a.dprelax_ns);
    j.get_double("seconds", &a.seconds);
    if (j.get_string("abort", &abort_s)) a.abort = abort_reason_from(abort_s);
    j.get_bool("via_fallback", &a.via_fallback);
    j.get_string("note", &a.note);
    // Triage fields: absent in pre-triage and unverified journals; the
    // kUnchecked / false defaults keep those replayable.
    std::string verify_s, witness_s;
    if (j.get_string("verify", &verify_s))
      a.verify = witness_verdict_from(verify_s);
    j.get_bool("recovered", &a.recovered);
    if (j.get_string("bad_witness", &witness_s)) {
      TestLoadResult t = parse_test(witness_s);
      if (t.ok()) a.incident_test = std::move(t.test);
    }
    if (j.get_string("minimized", &witness_s)) {
      TestLoadResult t = parse_test(witness_s);
      if (t.ok()) {
        a.incident_min = std::move(t.test);
        a.minimized = true;
      }
    }
    if (j.get_string("test", &test_s)) {
      TestLoadResult t = parse_test(test_s);
      if (t.ok()) a.test = std::move(t.test);
    }
    out.rows[static_cast<std::size_t>(index)] = std::move(a);
  }
  if (!out.header_ok) {
    // The CLI's writability probe creates the journal file before the
    // session opens it, so a checkpoint that was never written shows up
    // here as an existing zero-row file rather than a missing one.
    out.note = "journal " + path + " is empty (no header was ever written)";
    out.file_missing = true;
    return out;
  }
  if (dropped)
    out.note = "dropped a torn trailing journal row (line " +
               std::to_string(lineno) + ")";
  return out;
}

bool CampaignJournal::open(const std::string& path, bool append,
                           std::string* error) {
  close();
  f_ = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (!f_) {
    if (error) *error = "cannot open journal " + path;
    return false;
  }
  rows_since_sync_ = 0;
  return true;
}

bool CampaignJournal::append_line(const std::string& line) {
  if (!f_) return false;
  // One write per row (payload + newline together): an injected short
  // write or crash leaves at most one torn trailing row, which the loader
  // drops.
  const std::string row = line + '\n';
  if (failpoint::checked_fwrite(row.data(), row.size(), f_,
                                "journal.write") != row.size()) {
    disable("journal write failed: " + std::string(std::strerror(errno)));
    return false;
  }
  if (std::fflush(f_) != 0) {
    disable("journal flush failed: " + std::string(std::strerror(errno)));
    return false;
  }
  // Durability in batches: fsync every fsync_interval_ rows (plus on
  // close/sync). A crash mid-batch loses only unsynced rows; the loader
  // drops a torn trailing row, so the synced prefix always replays.
  if (fsync_interval_ > 0 && ++rows_since_sync_ >= fsync_interval_) sync();
  return true;
}

void CampaignJournal::sync() {
  if (!f_) return;
  std::fflush(f_);
#ifndef _WIN32
  if (failpoint::checked_fsync(fileno(f_), "journal.fsync") != 0) {
    disable("journal fsync failed: " + std::string(std::strerror(errno)));
    return;
  }
#endif
  rows_since_sync_ = 0;
}

void CampaignJournal::disable(const std::string& why) {
  if (error_.empty()) error_ = why + " (journaling disabled)";
  if (f_) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

void CampaignJournal::close() {
  if (f_) {
    sync();
    std::fclose(f_);
    f_ = nullptr;
  }
}

void JournalSession::open(const Netlist& nl,
                          const std::vector<DesignError>& errors,
                          const std::string& path, bool resume,
                          unsigned fsync_interval, std::uint64_t design_hash,
                          std::uint64_t solver_hash, bool strict) {
  if (path.empty()) return;
  writer.set_fsync_interval(fsync_interval);
  const std::uint64_t fp = campaign_fingerprint(nl, errors);
  bool append = false;
  if (resume) {
    JournalReplay jr = load_journal(path);
    // Stamped conflicts refuse outright: those rows were produced against
    // a different design or solver configuration, and replaying them would
    // silently corrupt the campaign statistics. Unstamped journals (hash
    // 0, pre-stamp format) cannot be validated and keep the tolerant
    // behavior below.
    if (jr.header_ok && design_hash && jr.design_hash &&
        jr.design_hash != design_hash) {
      refused = true;
      note = "refusing to resume: journal '" + path +
             "' was recorded against a different design (design hash "
             "mismatch); use a fresh --journal path or drop --resume";
      return;
    }
    if (jr.header_ok && solver_hash && jr.solver_hash &&
        jr.solver_hash != solver_hash) {
      refused = true;
      note = "refusing to resume: journal '" + path +
             "' was recorded under a different solver configuration; use a "
             "fresh --journal path or drop --resume";
      return;
    }
    if (jr.header_ok && jr.fingerprint == fp && jr.total == errors.size()) {
      replay = std::move(jr.rows);
      append = true;
      note = jr.note;
    } else if (strict) {
      // Strict resume: anything short of an actually replayable journal is
      // an error, not a silent fresh start. A missing file usually means a
      // typo'd path or a checkpoint that was never written - restarting
      // from scratch would quietly discard the operator's intent.
      refused = true;
      note = "refusing to resume (strict): " +
             (jr.header_ok ? std::string(
                                 "journal '" + path +
                                 "' belongs to a different campaign")
                           : jr.note) +
             "; use --resume to degrade to a fresh start instead";
      return;
    } else if (jr.header_ok) {
      note = "journal belongs to a different campaign; starting fresh";
    } else {
      note = jr.note + "; starting fresh";
    }
  }
  std::string jerr;
  if (!writer.open(path, append, &jerr)) {
    // Journaling is best-effort: a bad path degrades to an unjournaled
    // campaign rather than forfeiting the run.
    if (!note.empty()) note += "; ";
    note += jerr + " (journaling disabled)";
  } else if (!append) {
    writer.append_line(
        journal_header_line(errors.size(), fp, design_hash, solver_hash));
  }
}

}  // namespace hltg
