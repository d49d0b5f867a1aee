// Shared test fixture: seeded random controller gate networks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gatenet/gatenet.h"
#include "util/rng.h"

namespace hltg {

/// A random acyclic netlist covering every gate kind, with DFF state fed
/// from arbitrary combinational gates. Names are appended, not built as
/// "v" + std::to_string(i): GCC 12 reports a false -Wrestrict overlap for
/// operator+(const char*, std::string&&).
inline GateNet random_net(std::uint64_t seed, unsigned nvars,
                          unsigned ngates, unsigned ndffs) {
  Rng rng(seed);
  GateNet gn;
  std::vector<GateId> pool;
  for (unsigned i = 0; i < nvars; ++i) {
    Gate g;
    g.kind = GateKind::kVar;
    g.name = "v";
    g.name += std::to_string(i);
    pool.push_back(gn.add_gate(g));
  }
  for (unsigned i = 0; i < ndffs; ++i) {
    Gate g;
    g.kind = GateKind::kDff;
    g.name = "q";
    g.name += std::to_string(i);
    g.reset_value = rng.flip();
    g.fanin = {0};  // patched below once combinational gates exist
    pool.push_back(gn.add_gate(g));
  }
  const GateKind kinds[] = {GateKind::kAnd, GateKind::kOr,   GateKind::kNot,
                            GateKind::kXor, GateKind::kBuf,  GateKind::kConst0,
                            GateKind::kConst1};
  for (unsigned i = 0; i < ngates; ++i) {
    Gate g;
    g.kind = kinds[rng.below(i < 7 ? 7 : sizeof(kinds) / sizeof(kinds[0]))];
    g.name = "g";
    g.name += std::to_string(i);
    unsigned nf = 0;
    if (g.kind == GateKind::kNot || g.kind == GateKind::kBuf) nf = 1;
    if (g.kind == GateKind::kAnd || g.kind == GateKind::kOr ||
        g.kind == GateKind::kXor)
      nf = 2 + static_cast<unsigned>(rng.below(3));  // up to 4-input gates
    for (unsigned j = 0; j < nf; ++j)
      g.fanin.push_back(pool[rng.below(pool.size())]);
    pool.push_back(gn.add_gate(g));
  }
  // D inputs may come from anywhere - DFF edges are not combinational.
  for (GateId g = 0; g < gn.num_gates(); ++g)
    if (gn.gate(g).kind == GateKind::kDff)
      gn.gate(g).fanin = {pool[rng.below(pool.size())]};
  gn.invalidate();
  return gn;
}

}  // namespace hltg
