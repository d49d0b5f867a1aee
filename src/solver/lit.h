// Literal vocabulary of the deduction subsystem.
//
// A Lit names one (gate, cycle, value) point of the unrolled controller
// window - the shared currency of the implication engine (conflict cuts),
// the learned-conflict store (nogoods are sets of Lits that cannot all
// hold) and the justification cache (canonical objective signatures are
// sorted Lit vectors).
#pragma once

#include <cstdint>
#include <vector>

#include "gatenet/gatenet.h"
#include "util/fnv.h"

namespace hltg {

struct Lit {
  GateId gate = kNoGate;
  unsigned cycle = 0;
  bool value = false;

  bool operator==(const Lit&) const = default;
  /// (cycle, gate, value) order: canonical signatures sort cycle-major so a
  /// signature reads chronologically.
  friend bool operator<(const Lit& a, const Lit& b) {
    if (a.cycle != b.cycle) return a.cycle < b.cycle;
    if (a.gate != b.gate) return a.gate < b.gate;
    return a.value < b.value;
  }
};

/// FNV-1a over a literal vector (order-sensitive; hash canonical = sorted
/// vectors only).
inline std::uint64_t hash_lits(const std::vector<Lit>& lits) {
  Fnv1a f(kFnvOffsetBasis);
  for (const Lit& l : lits) {
    f.u64(l.gate);
    f.u64((static_cast<std::uint64_t>(l.cycle) << 1) | (l.value ? 1 : 0));
  }
  return f.h;
}

}  // namespace hltg
