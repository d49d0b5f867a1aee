// Campaign checkpoint journal: an append-only JSONL file, one record per
// completed error attempt, fsync'd every N rows (and on close). An
// interrupted campaign restarted with resume enabled replays the journaled
// rows (skipping their generator runs) and reproduces the identical
// CampaignStats an uninterrupted run would have produced; a crash loses at
// most the rows of the current fsync batch, and the loader drops any torn
// trailing row.
//
// Format:
//   line 1  header  {"kind":"hltg-campaign","version":1,"total":N,
//                    "fingerprint":"<hex64>"}
//                   plus, when the campaign stamps them (nonzero),
//                   "design":"<hex64>","solver":"<hex64>" - the
//                   tg_design_hash / tg_config_hash of the run. A resume
//                   whose stamps conflict with the journal's is REFUSED
//                   (JournalSession::refused): replaying rows searched
//                   against a different design or solver configuration
//                   would silently corrupt the campaign statistics.
//   line 2+ rows    {"index":I,"generated":b,"sim_confirmed":b,
//                    "test_length":N,<effort counters>,
//                    "seconds":F,"abort":"<reason>","via_fallback":b,
//                    "note":"...","test":"<testcase_io text>"}
//                   plus "proven_redundant":true after "note" on a row
//                   the generator proved undetectable (omitted when
//                   false, so journals written before the field replay).
//                   The effort counters are "key":N pairs in the order
//                   and under the journal rule of kEffortFields
//                   (util/effort.h): six on every row, the three phase
//                   times only when one of them is nonzero.
// Self-checking campaigns append optional triage fields per row (omitted
// when at their defaults, so unverified journals keep the old layout):
// "verify":"confirmed|claim_mismatch|oracle_error", "recovered":b,
// "bad_witness":"<testcase_io text>", "minimized":"<testcase_io text>".
// The fingerprint hashes the error population (model + description per
// error), so a journal is only replayed against the same campaign. A torn
// final row (crash mid-write) is detected and dropped on load.
#pragma once

#include <cstdio>
#include <map>
#include <string>

#include "errors/campaign.h"

namespace hltg {

/// FNV-1a over the error population; guards resume against a different
/// campaign's journal.
std::uint64_t campaign_fingerprint(const Netlist& nl,
                                   const std::vector<DesignError>& errors);

/// `design_hash` / `solver_hash` are emitted only when nonzero, keeping
/// unstamped headers byte-identical to the pre-stamp format.
std::string journal_header_line(std::size_t total, std::uint64_t fingerprint,
                                std::uint64_t design_hash = 0,
                                std::uint64_t solver_hash = 0);
std::string journal_row_line(std::size_t index, const ErrorAttempt& a);

struct JournalReplay {
  bool header_ok = false;
  std::size_t total = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t design_hash = 0;  ///< 0: header predates the stamps
  std::uint64_t solver_hash = 0;
  std::map<std::size_t, ErrorAttempt> rows;
  std::string note;  ///< diagnostics (missing file, torn rows dropped, ...)
  /// The journal file could not be opened, or existed but carried no data
  /// (the CLI's writability probe pre-creates an empty file). Strict
  /// resume turns this into a refusal instead of a silent fresh start.
  bool file_missing = false;
};

/// Load and decode a journal; malformed trailing rows are dropped with a
/// note, never an abort.
JournalReplay load_journal(const std::string& path);

/// Append-only writer. Every append is flushed to the OS; fsync runs every
/// `fsync_interval` rows and on close/sync(), so journaling stops
/// dominating short campaigns while a crash still loses at most the
/// current batch. Interval 1 restores fsync-per-row; 0 defers durability
/// entirely to close()/sync().
class CampaignJournal {
 public:
  CampaignJournal() = default;
  ~CampaignJournal() { close(); }
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  bool open(const std::string& path, bool append, std::string* error);
  bool append_line(const std::string& line);
  bool is_open() const { return f_ != nullptr; }
  /// Force the pending batch to disk (close does this too; exposed for
  /// cancellation paths that keep the journal open).
  void sync();
  void close();

  void set_fsync_interval(unsigned n) { fsync_interval_ = n; }
  unsigned fsync_interval() const { return fsync_interval_; }

  /// Diagnostic from a write/fsync failure that disabled the journal
  /// mid-campaign (I/O errors degrade to an unjournaled campaign; the
  /// append goes through the failpoint hooks "journal.write" /
  /// "journal.fsync"). Empty while healthy.
  const std::string& error() const { return error_; }

 private:
  /// An append or fsync failed: stop journaling. The file is closed
  /// WITHOUT another sync attempt, so whatever prefix reached the OS
  /// stays; the loader's torn-row handling covers any partial final row.
  void disable(const std::string& why);

  std::FILE* f_ = nullptr;
  unsigned fsync_interval_ = 32;
  unsigned rows_since_sync_ = 0;
  std::string error_;
};

/// One campaign's journal lifecycle, shared by the serial, dropping and
/// parallel engines: load the replay map when resuming (fingerprint-checked
/// against this campaign's error population), then (re)open the writer -
/// appending to a matching journal, starting fresh (with a new header)
/// otherwise. A bad path degrades to an unjournaled campaign; the
/// diagnostics land in `note`. Non-copyable (owns the open file).
struct JournalSession {
  CampaignJournal writer;
  std::map<std::size_t, ErrorAttempt> replay;
  std::string note;
  /// The resume target carries provenance stamps that CONFLICT with this
  /// campaign's (different design or solver configuration). The writer is
  /// not opened; the campaign engines return without attempting anything.
  /// A plain fingerprint mismatch (different error population) keeps the
  /// old degrade-to-fresh behavior - only stamped conflicts refuse, unless
  /// `strict` is set, in which case ANY resume that cannot replay the
  /// journal (missing file, unreadable header, foreign campaign) refuses
  /// too instead of silently starting fresh.
  bool refused = false;
  std::size_t resumed() const { return replay.size(); }

  void open(const Netlist& nl, const std::vector<DesignError>& errors,
            const std::string& path, bool resume, unsigned fsync_interval = 32,
            std::uint64_t design_hash = 0, std::uint64_t solver_hash = 0,
            bool strict = false);
};

}  // namespace hltg
