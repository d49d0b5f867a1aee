// Unrolled three-valued controller model (the iterative-array of Fig. 2,
// organized for the pipeframe search of Sec. IV).
//
// The window holds T copies of the controller's combinational logic. DFFs
// carry values across copies; cycle 0 starts from the reset state, as the
// paper's justification problem demands ("an input sequence ... that starts
// from the controller's reset state"). Free variables are the CPI and STS
// bits of every cycle - precisely the pipeframe decision variables
// (n1 + p*n3 flavored), never the CSI state bits.
//
// Implication is event-driven. The constructor sweeps the whole window
// once (reset state, constants, everything else X); after that imply()
// re-evaluates only the forward cone of the assignments changed since the
// previous call, cycle by cycle in increasing order and, within a cycle,
// in topological rank. A gate is re-evaluated only after every fanin that
// changed has settled, so by induction over (cycle, rank) the values equal
// a full sweep's.
//
// Values are stored the way the lane engine (gatenet/evalw) stores lanes,
// with cycles as lanes: 01X bit-pair planes, gate-major, bit t of a gate's
// words is cycle t. Gates are evaluated by the engine's shared 01X kernel,
// so the window cannot drift from the lane engine's semantics.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "gatenet/gatenet.h"
#include "util/logic3.h"

namespace hltg {

class ControllerWindow {
 public:
  ControllerWindow(const GateNet& gn, unsigned cycles);

  unsigned cycles() const { return T_; }
  const GateNet& net() const { return gn_; }

  /// Assign a free variable (kVar gate) for a cycle; L3::X clears it.
  /// Takes effect at the next imply().
  void assign(GateId g, unsigned cycle, L3 v);
  L3 assignment(GateId g, unsigned cycle) const {
    return decode(aones_, azeros_, g, cycle);
  }
  /// All currently assigned (gate, cycle, value) triples, cycle-major in
  /// ascending gate order.
  std::vector<std::tuple<GateId, unsigned, bool>> assignments() const;

  /// Bring every value up to date with the assignments: re-evaluates the
  /// forward cone of the assignments changed since the last call.
  void imply();

  /// Value of a gate in a cycle after imply().
  L3 value(GateId g, unsigned cycle) const {
    return decode(ones_, zeros_, g, cycle);
  }

  /// Unassign every variable and imply.
  void clear();

 private:
  std::size_t at(GateId g, unsigned cycle) const {
    return std::size_t{g} * words_ + (cycle >> 6);
  }
  /// Bit of index `i` (a cycle, or an op rank) within its 64-bit word.
  static std::uint64_t bit(unsigned i) { return std::uint64_t{1} << (i & 63); }
  L3 decode(const std::vector<std::uint64_t>& ones,
            const std::vector<std::uint64_t>& zeros, GateId g,
            unsigned cycle) const {
    const std::size_t i = at(g, cycle);
    const std::uint64_t b = bit(cycle);
    return ones[i] & b ? L3::T : zeros[i] & b ? L3::F : L3::X;
  }

  /// Evaluate op `rank` at `cycle`; true iff its value changed.
  bool eval(std::uint32_t rank, unsigned cycle);
  /// Set the value of (g, cycle) from bit `cycle` of `one` and `zero`;
  /// true iff it changed.
  bool store(GateId g, unsigned cycle, std::uint64_t one, std::uint64_t zero);
  bool set(GateId g, unsigned cycle, L3 v);
  /// (g, cycle) changed: queue its combinational fanouts in `cycle` and
  /// carry it through DFFs it feeds into `cycle + 1`.
  void changed(GateId g, unsigned cycle);

  const GateNet& gn_;
  const PackedLayout& pl_;
  const std::vector<std::vector<GateId>>& fanouts_;
  unsigned T_;
  /// 64-bit words per gate, one bit per cycle.
  unsigned words_;
  /// 64-bit words per cycle of the rank queue, one bit per op rank.
  unsigned qwords_;
  /// kVar gates, ascending.
  std::vector<GateId> vars_;
  /// Values and assignments as 01X bit-pair planes, [gate * words_ + w].
  std::vector<std::uint64_t> ones_, zeros_, aones_, azeros_;
  /// Ops queued for re-evaluation, [cycle * qwords_ + w].
  std::vector<std::uint64_t> queue_;
  /// Assignments changed since the last imply().
  std::vector<std::pair<GateId, unsigned>> pending_;
  /// Last cycle with queued work during imply().
  unsigned hi_ = 0;
};

}  // namespace hltg
