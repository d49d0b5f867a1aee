// Justification cache: canonical objective-set signature -> CTRLJUST result.
//
// DPTRACE enumerates many candidate paths per error, and the CTRL objective
// sets it emits across those paths are near-identical (same decoder bits,
// same cycles, reshuffled order). The cache canonicalizes an objective set
// to a sorted (gate, cycle, value) signature and keys SUCCESS/FAILURE
// results - with the CPI/STS witness on success - on that signature alone,
// so repeat sets are answered without a search.
//
// The unrolled-window length is deliberately NOT part of the key. The
// CTRLJUST search only ever reads and assigns cycles <= the latest
// objective cycle: forward implication moves strictly forward in time (a
// DFF couples q(t) to D(t-1)), backtrace walks backward from an objective,
// and the violated/open classification reads objective cycles only. A
// longer window appends cycles the search never consults, so a definitive
// result for an objective set holds in every window that admits the set -
// which is what makes the window-retry re-solves of TG (same plans, longer
// unrolling) cache hits instead of repeat searches.
//
// Only *definitive* results are cacheable: a search that stopped on a
// backtrack/decision cap or deadline proves nothing about the objective
// set, and caching it would make detection outcomes depend on budget
// history. Callers must pass abort == kNone results only.
//
// The cache has no capacity and never evicts: entries live in insertion
// order behind a hash index, as in the DPRELAX memo (relax_cache.h), for as
// long as the SolverContext does - one error at error scope, one worker's
// share of the population at campaign scope. A full Table-1 campaign peaks
// at a few hundred entries.
#pragma once

#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/objectives.h"
#include "solver/lit.h"

namespace hltg {

enum class CanonStatus {
  kOk,
  kContradiction,  ///< same (gate, cycle) demanded both 0 and 1
};

/// Sort objectives into (cycle, gate, value) order and drop duplicates.
/// Returns kContradiction when the set demands both values of one point -
/// such a set is unsatisfiable without any search.
CanonStatus canonicalize_objectives(const std::vector<CtrlObjective>& in,
                                    std::vector<Lit>* out);

struct JustCacheEntry {
  bool success = false;
  std::vector<std::tuple<GateId, unsigned, bool>> sts_assignments;
  std::vector<std::tuple<GateId, unsigned, bool>> cpi_assignments;
};

class JustCache {
 public:
  /// nullptr on miss. The pointer is invalidated by the next insert().
  const JustCacheEntry* lookup(const std::vector<Lit>& key) const;
  /// Record a result; a key already present has its entry replaced in place.
  void insert(const std::vector<Lit>& key, JustCacheEntry entry);

  std::size_t size() const { return entries_.size(); }

  /// Every entry in insertion order, for persistence (src/solver/store.h).
  struct Exported {
    std::vector<Lit> key;
    JustCacheEntry entry;
  };
  const std::vector<Exported>& export_entries() const { return entries_; }

  void clear() {
    entries_.clear();
    index_.clear();
  }

 private:
  /// Position of `key` in entries_, or size() when absent.
  std::size_t position(const std::vector<Lit>& key, std::uint64_t h) const;

  std::vector<Exported> entries_;
  /// hash_lits -> position in entries_; equal hashes are told apart by key.
  std::unordered_multimap<std::uint64_t, std::size_t> index_;
};

}  // namespace hltg
