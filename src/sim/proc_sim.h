// Cycle-accurate simulator of the two-level DLX implementation model.
//
// Simulates the word-level datapath netlist and the bit-level controller
// gate network together, cycle by cycle. The combinational interaction
// between the two (STS -> controller -> CTRL -> datapath -> STS ...) is
// resolved by fixpoint iteration; the combined graph is acyclic, so a few
// rounds converge exactly.
//
// Design errors are injected through `ErrorInjection`:
//   - bus SSL: a single line (bit) of a datapath bus permanently stuck at
//     0 or 1 (the paper's error model, from Bhattacharya & Hayes [7]);
//   - module substitution (MSE): a module evaluated as a different kind;
//   - bus order error (BOE): a module's first two data inputs swapped.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "dlx/dlx.h"
#include "isa/spec_sim.h"

namespace hltg {

struct StuckLine {
  NetId net = kNoNet;
  unsigned bit = 0;
  bool stuck_value = false;
};

struct ErrorInjection {
  std::vector<StuckLine> stuck;
  std::map<ModId, ModuleKind> substitute;
  std::set<ModId> swap_inputs;
  /// Bus source errors: (module, data-input slot) reads this net instead of
  /// its real driver.
  std::map<std::pair<ModId, unsigned>, NetId> rewire;
  bool empty() const {
    return stuck.empty() && substitute.empty() && swap_inputs.empty() &&
           rewire.empty();
  }
};

class ProcSim {
 public:
  ProcSim(const DlxModel& m, const TestCase& tc, ErrorInjection inj = {});

  /// Advance one clock cycle.
  void step();
  /// Split-phase stepping for observers that need to inspect combinational
  /// values mid-cycle: begin_cycle() fetches and settles the combinational
  /// logic; end_cycle() commits the clock edge. step() == both.
  void begin_cycle();
  void end_cycle();
  /// Run for `cycles` and return the architectural trace.
  ArchTrace run(unsigned cycles);

  // Observability for tests / visualization.
  std::uint64_t net_value(NetId n) const { return dpv_[n]; }
  bool gate_value(GateId g) const { return gv_[g]; }
  std::uint32_t pc() const;
  std::uint32_t reg(unsigned r) const { return r == 0 ? 0 : rf_[r]; }
  const SparseMemory& dmem() const { return dmem_; }
  const std::vector<MemWrite>& writes() const { return writes_; }
  std::uint64_t cycle() const { return cycle_; }
  std::uint64_t instructions_committed() const { return committed_; }
  std::uint64_t stall_cycles() const { return stalls_; }
  std::uint64_t squashes() const { return squashes_; }
  ArchTrace arch_trace() const;
  /// The evaluation schedule this simulator steps through: the model's.
  const std::vector<EvalStep>& schedule() const { return sched_; }

 private:
  void fetch();
  void eval_fixpoint();
  void clock_edge();
  std::uint64_t eval_module(const Module& m) const;
  void set_net(NetId n, std::uint64_t v, bool* changed);

  const DlxModel& m_;
  const std::vector<EvalStep>& sched_;
  ErrorInjection inj_;
  mutable std::vector<std::uint64_t> scratch_in_, scratch_ctrl_;
  std::vector<std::uint64_t> stuck_or_;   ///< per-net OR mask
  std::vector<std::uint64_t> stuck_and_;  ///< per-net AND mask
  std::vector<std::uint64_t> dpv_;        ///< datapath net values
  std::vector<bool> gv_;                  ///< controller gate values
  std::array<std::uint32_t, 32> rf_{};
  SparseMemory dmem_;
  std::vector<std::uint32_t> imem_;
  std::vector<MemWrite> writes_;
  std::uint64_t cycle_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t squashes_ = 0;
  GateId stall_gate_ = kNoGate;
  GateId redirect_gate_ = kNoGate;
  std::vector<NetId> sts_net_of_gate_;
};

/// Run the implementation (optionally with an injected error) and return
/// its architectural trace after `cycles`.
ArchTrace impl_run(const DlxModel& m, const TestCase& tc, unsigned cycles,
                   const ErrorInjection& inj = {});

}  // namespace hltg
