// Whole-window capture: every net and gate value of the implementation at
// every cycle, from one ProcSim run.
//
// This is the independent reference for DPRELAX's event-driven window
// (core/relax_window.h), which must equal a fresh capture bit for bit after
// every update (tests/test_relax_window.cpp), and the value source of
// sim/diff_debug's good-versus-erroneous report.
#pragma once

#include <cstdint>
#include <vector>

#include "dlx/dlx.h"
#include "sim/proc_sim.h"

namespace hltg {

struct WindowCapture {
  /// nets[t][n]: combinationally settled value of net n during cycle t.
  std::vector<std::vector<std::uint64_t>> nets;
  /// gates[t][g]: controller gate value during cycle t.
  std::vector<std::vector<std::uint8_t>> gates;

  std::uint64_t net(unsigned t, NetId n) const { return nets[t][n]; }
  bool gate(unsigned t, GateId g) const { return gates[t][g] != 0; }
  unsigned cycles() const { return static_cast<unsigned>(nets.size()); }
};

/// Simulate `cycles` cycles of the (optionally erroneous) implementation and
/// capture all values.
WindowCapture capture_window(const DlxModel& m, const TestCase& tc,
                             unsigned cycles,
                             const ErrorInjection& inj = {});

}  // namespace hltg
