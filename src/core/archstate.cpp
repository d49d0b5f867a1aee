#include "core/archstate.h"

namespace hltg {

WindowCapture capture_window(const DlxModel& m, const TestCase& tc,
                             unsigned cycles, const ErrorInjection& inj) {
  WindowCapture cap;
  cap.nets.reserve(cycles);
  cap.gates.reserve(cycles);
  ProcSim sim(m, tc, inj);
  for (unsigned t = 0; t < cycles; ++t) {
    sim.begin_cycle();
    std::vector<std::uint64_t> nv(m.dp.num_nets());
    for (NetId n = 0; n < m.dp.num_nets(); ++n) nv[n] = sim.net_value(n);
    std::vector<std::uint8_t> gv(m.ctrl.num_gates());
    for (GateId g = 0; g < m.ctrl.num_gates(); ++g)
      gv[g] = sim.gate_value(g) ? 1 : 0;
    cap.nets.push_back(std::move(nv));
    cap.gates.push_back(std::move(gv));
    sim.end_cycle();
  }
  return cap;
}

}  // namespace hltg
