// The test generator's search-effort counters, declared once.
//
// `Effort` is the one counter struct of every layer: CTRLJUST and DPTRACE
// count into it, TG sums plans and windows with `+=`, every campaign row
// carries it (ErrorAttempt derives from it), CampaignStats totals it, and
// bench_solver reports it per configuration. `kEffortFields` names each
// member once: its key in the campaign journal and in BENCH_tg.json, and
// which journal rows carry it. A new counter is two lines: the member and
// its row.
//
// The journal carries only the counters whose rule is not kNever, so a
// resumed campaign (--resume) replays the others as 0 for its journaled
// rows. No campaign-level report may print a kNever counter: a resumed run
// must print what the uninterrupted run printed.
#pragma once

#include <cstdint>
#include <iterator>

namespace hltg {

struct Effort {
  /// CTRLJUST search backtracks (flips + pops), plus one for every path
  /// plan TG tries after the first: the path-level backtrack of Fig. 3.
  std::uint64_t backtracks = 0;
  std::uint64_t decisions = 0;     ///< CTRLJUST branch points
  std::uint64_t implications = 0;  ///< imply() calls + engine propagations
  std::uint64_t learned = 0;       ///< nogoods recorded by conflict analysis
  std::uint64_t nogood_hits = 0;   ///< learned nogoods that pruned or forced
  std::uint64_t cache_hits = 0;    ///< CTRLJUST solves answered from cache
  // Per-phase wall time (monotonic clock).
  std::uint64_t dptrace_ns = 0;
  std::uint64_t ctrljust_ns = 0;
  std::uint64_t dprelax_ns = 0;
  std::uint64_t plans_tried = 0;       ///< path plans handed to CTRLJUST
  std::uint64_t relax_iterations = 0;  ///< DPRELAX relaxation iterations
  /// Literal probes spent applying nogoods (rescan or watch scheme).
  std::uint64_t nogood_comparisons = 0;
  std::uint64_t cache_lookups = 0;       ///< cache probes (hits + misses)
  std::uint64_t dptrace_expansions = 0;  ///< best-first nodes expanded
  std::uint64_t dptrace_searches = 0;    ///< per-activation searches run
  std::uint64_t dptrace_reused = 0;      ///< searches answered by the memo
  std::uint64_t relax_hits = 0;     ///< DPRELAX solves replayed from the memo
  std::uint64_t relax_lookups = 0;  ///< DPRELAX memo probes
  /// DPRELAX iterations that also updated the erroneous machine.
  std::uint64_t relax_pair_captures = 0;
  /// Schedule steps DPRELAX's windows evaluated (core/relax_window.h), in
  /// solves actually run: a memo replay charges none. The generator reuses
  /// its windows across solves, so a solve is charged the diff from the
  /// previous solve's variables, and the count depends on which errors the
  /// generator ran before (never more than with fresh windows).
  std::uint64_t relax_evals = 0;

  Effort& operator+=(const Effort& o);
};

/// Which campaign journal rows carry a counter.
enum class EffortJournal : std::uint8_t {
  kEveryRow,
  /// Only rows with a nonzero phase time, so rows of uninstrumented
  /// strategies keep their old layout.
  kPhaseTime,
  kNever,
};

struct EffortField {
  const char* key;  ///< journal and BENCH_tg.json key
  std::uint64_t Effort::*member;
  EffortJournal journal;
};

/// One row per Effort member, in journal key order.
inline constexpr EffortField kEffortFields[] = {
    {"backtracks", &Effort::backtracks, EffortJournal::kEveryRow},
    {"decisions", &Effort::decisions, EffortJournal::kEveryRow},
    {"implications", &Effort::implications, EffortJournal::kEveryRow},
    {"learned", &Effort::learned, EffortJournal::kEveryRow},
    {"nogood_hits", &Effort::nogood_hits, EffortJournal::kEveryRow},
    {"cache_hits", &Effort::cache_hits, EffortJournal::kEveryRow},
    {"dptrace_ns", &Effort::dptrace_ns, EffortJournal::kPhaseTime},
    {"ctrljust_ns", &Effort::ctrljust_ns, EffortJournal::kPhaseTime},
    {"dprelax_ns", &Effort::dprelax_ns, EffortJournal::kPhaseTime},
    {"plans_tried", &Effort::plans_tried, EffortJournal::kNever},
    {"relax_iterations", &Effort::relax_iterations, EffortJournal::kNever},
    {"nogood_comparisons", &Effort::nogood_comparisons, EffortJournal::kNever},
    {"cache_lookups", &Effort::cache_lookups, EffortJournal::kNever},
    {"dptrace_expansions", &Effort::dptrace_expansions, EffortJournal::kNever},
    {"dptrace_searches", &Effort::dptrace_searches, EffortJournal::kNever},
    {"dptrace_reused", &Effort::dptrace_reused, EffortJournal::kNever},
    {"relax_hits", &Effort::relax_hits, EffortJournal::kNever},
    {"relax_lookups", &Effort::relax_lookups, EffortJournal::kNever},
    {"relax_pair_captures", &Effort::relax_pair_captures,
     EffortJournal::kNever},
    {"relax_evals", &Effort::relax_evals, EffortJournal::kNever},
};
static_assert(std::size(kEffortFields) ==
                  sizeof(Effort) / sizeof(std::uint64_t),
              "every Effort member needs its kEffortFields row");

inline Effort& Effort::operator+=(const Effort& o) {
  for (const EffortField& f : kEffortFields) this->*f.member += o.*f.member;
  return *this;
}

/// Some phase time is nonzero: journal rows then carry the kPhaseTime group.
inline bool has_phase_time(const Effort& e) {
  for (const EffortField& f : kEffortFields)
    if (f.journal == EffortJournal::kPhaseTime && e.*f.member) return true;
  return false;
}

}  // namespace hltg
