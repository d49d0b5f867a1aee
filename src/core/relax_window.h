// Event-driven relaxation window: DPRELAX's view of one machine over the
// test window (Sec. V.B, "event-driven discrete relaxation").
//
// A RelaxWindow holds every datapath net and controller gate value of one
// machine - the good one, or one erroneous machine - at every cycle of the
// window, for the free variables of its last update(). The first update()
// sweeps the window in schedule order, as does the next update() after one
// that unwound by exception. Each later update() diffs the free variables
// (instruction words, initial registers, initial memory words) against the
// previous one, whatever program that was, and re-evaluates, cycle by
// cycle in schedule rank, only
//   - the fetches at PCs holding an edited word,
//   - the register-file reads after a changed initial value or write,
//   - the memory reads after a changed initial word or store,
//   - the forward cone of every changed value.
// Register, DFF, register-file and memory-write changes carry through the
// clock edge into the next cycle.
//
// The window reproduces ProcSim's single pass per cycle exactly. A step
// that reads a value produced at the same or a later schedule rank sees
// the previous cycle's value (0 at cycle 0). In the DLX model only a BSE
// rewired to a later bus, or to its module's own output, reads so, but the
// window applies the rule to every read: a change to such a value
// re-evaluates its reader one cycle later. The reader tables are
// the model's (DlxModel::fanout()); a window adds only its injection's
// rewire edges. By induction over (cycle, rank), every value equals a
// fresh capture_window() (core/archstate.h) bit for bit, so the seeded
// search that reads them takes the same path; tests/test_relax_window.cpp
// checks that after every edit of seeded random edit sequences.
//
// The values depend on the last update's variables alone, never on the
// updates before it, so a window may outlive any one DPRELAX solve (TG
// keeps its windows across solves, core/tg.h): a solve's first update
// re-evaluates only what differs from the previous solve's last. An update
// evaluates each producing step at most once per cycle, so it never costs
// more than the sweep it replaces.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "dlx/dlx.h"
#include "sim/proc_sim.h"

namespace hltg {

/// DPRELAX's free value variables (the paper's DPI set), with the fixed-bit
/// discipline CTRLJUST's CPI assignments impose on instruction words.
struct RelaxVars {
  std::vector<std::uint32_t> imem;        ///< program words
  std::vector<std::uint32_t> imem_fixed;  ///< per-word fixed-bit mask
  std::array<std::uint32_t, 32> rf_init{};
  std::map<std::uint32_t, std::uint32_t> mem_init;

  TestCase to_test() const;
  void ensure_size(std::size_t words);
};

class RelaxWindow {
 public:
  RelaxWindow(const DlxModel& m, unsigned cycles,
              const ErrorInjection& inj = {});

  /// Bring every value up to date with `vars` (imem_fixed is not read).
  void update(const RelaxVars& vars);

  unsigned cycles() const { return T_; }
  /// Settled value of net `n` during cycle `t`, as capture_window records it.
  std::uint64_t net(unsigned t, NetId n) const { return nets_[t * N_ + n]; }
  bool gate(unsigned t, GateId g) const { return gates_[t * G_ + g] != 0; }
  /// Schedule steps evaluated by every update() so far.
  std::uint64_t evals() const { return evals_; }

  /// Latest cycle t' <= t whose register-file write targets `reg` (write-
  /// through makes a same-cycle write visible). -1 if none: the read sees
  /// the initial register file.
  int last_rf_write(unsigned reg, unsigned t) const;
  /// Latest cycle t' < t whose memory write hits the aligned address, and
  /// in `full_word` whether all four byte lanes were written (partial
  /// writes cannot be backsolved through). -1 if none.
  int last_mem_write(std::uint32_t aligned_addr, unsigned t,
                     bool* full_word) const;

 private:
  struct RfWrite {
    bool we = false;
    unsigned addr = 0;
    std::uint32_t data = 0;
  };
  struct Store {
    bool we = false;
    std::uint32_t addr = 0;  ///< aligned
    std::uint32_t data = 0;
    unsigned mask = 0;
    bool operator==(const Store&) const = default;
  };

  void sweep();
  /// Record `vars` and what moved since the last update; `reload` records
  /// every input, for a sweep.
  void diff_inputs(const RelaxVars& vars, bool reload);
  void run_cycle(unsigned t);

  /// Value `v` (net, or num_nets() + gate) as the step at `rank` reads it
  /// during cycle `t`.
  std::uint64_t read(std::size_t v, std::uint32_t rank, unsigned t) const;
  bool store_net(unsigned t, NetId n, std::uint64_t v);
  bool store_gate(unsigned t, GateId g, bool v);
  /// Value `v` changed during cycle `t`: queue what reads it.
  void changed(std::size_t v, unsigned t);

  void fetch(unsigned t);
  void eval(std::uint32_t rank, unsigned t);
  std::uint64_t eval_module(ModId id, const Module& mod, std::uint32_t rank,
                            unsigned t);
  std::uint32_t mem_word(std::uint32_t aligned_addr, unsigned t) const;
  /// Clock-edge op `op` at the end of cycle `t` (t + 1 < T_).
  void edge(std::uint32_t op, unsigned t);
  /// Register file of cycle t + 1 for the registers in `regs`.
  void edge_rf(unsigned t, std::uint32_t regs);

  const DlxModel& m_;
  const std::vector<EvalStep>& sched_;
  const ScheduleFanout& fan_;
  unsigned T_;
  std::size_t N_, G_;
  unsigned qwords_, ewords_;

  // The injection, resolved per module.
  std::vector<std::uint64_t> stuck_or_, stuck_and_;  ///< empty: none stuck
  std::vector<std::uint8_t> mod_inj_;  ///< kRewired|kSwapped|kSubstituted
  std::vector<std::pair<std::pair<ModId, unsigned>, NetId>> rewire_;
  std::map<ModId, Module> substitute_;
  /// Rewire edges the model's tables lack: (value, reader rank).
  std::vector<std::pair<std::size_t, std::uint32_t>> extra_readers_;
  std::vector<std::uint64_t> in_, ctrl_;

  // Values, [t * N_ + n] and [t * G_ + g].
  std::vector<std::uint64_t> nets_;
  std::vector<std::uint8_t> gates_;
  /// Register file during each cycle, [t * 32 + r].
  std::vector<std::uint32_t> rf_;
  /// The register-file write and the store each cycle's clock edge made.
  std::vector<RfWrite> rf_writes_;
  std::vector<Store> stores_;
  SparseMemory mem_init_;

  // The previous update's free variables.
  std::vector<std::uint32_t> imem_;
  std::map<std::uint32_t, std::uint32_t> mem_init_in_;
  bool swept_ = false;  ///< the last update completed

  // Work of the running update.
  std::vector<std::uint64_t> queue_;  ///< [t * qwords_ + w], bit per rank
  std::vector<std::uint64_t> edges_;  ///< [t * ewords_ + w], bit per edge op
  std::vector<std::uint8_t> fetch_due_;
  std::vector<std::uint32_t> edited_;  ///< instruction word indices
  std::uint32_t rf_diff_ = 0;  ///< registers whose value at the cycle moved
  std::uint32_t rf_cand_ = 0;  ///< registers the cycle's write port moved
  /// Aligned addresses whose memory word may have moved, from a cycle on.
  std::vector<std::pair<std::uint32_t, unsigned>> mem_dirty_;
  bool sweeping_ = false;
  std::uint64_t evals_ = 0;
};

}  // namespace hltg
