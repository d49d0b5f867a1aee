#include "sim/batch_sim.h"

#include <array>

#include "netlist/eval.h"
#include "sim/cosim.h"
#include "util/word.h"

namespace hltg {

namespace {

/// Lane-indexed mirror of ProcSim: shared wide controller words per gate
/// (gatenet/evalw), per-lane scalar datapath state. Kept cycle-for-cycle
/// equivalent to ProcSim; any behavioural change there must land here too.
class BatchSim {
 public:
  BatchSim(const DlxModel& m, const TestCase& tc,
           const std::vector<const ErrorInjection*>& lanes)
      : m_(m),
        sched_(m.schedule()),
        lanes_(lanes),
        nets_(m.dp.num_nets()),
        words_(lane_words(static_cast<unsigned>(lanes.size()))),
        imem_(tc.imem) {
    const std::size_t n = lanes_.size();
    dpv_.assign(n * nets_, 0);
    stuck_or_.assign(n * nets_, 0);
    stuck_and_.assign(n * nets_, ~std::uint64_t{0});
    rf_.assign(n, tc.rf_init);
    dmem_.resize(n);
    matched_writes_.assign(n, 0);
    load_resetw(m_.ctrl, gv_, words_);
    for (std::size_t lane = 0; lane < n; ++lane) {
      rf_[lane][0] = 0;
      dmem_[lane].load(tc.dmem_init);
      for (const StuckLine& sl : lanes_[lane]->stuck) {
        if (sl.stuck_value)
          stuck_or_[lane * nets_ + sl.net] |= std::uint64_t{1} << sl.bit;
        else
          stuck_and_[lane * nets_ + sl.net] &= ~(std::uint64_t{1} << sl.bit);
      }
    }
    sts_net_of_gate_.assign(m_.ctrl.num_gates(), kNoNet);
    for (const StsBind& sb : m_.sts_binds) sts_net_of_gate_[sb.gate] = sb.dp_net;
    for (ModId i = 0; i < m_.dp.num_modules(); ++i)
      if (m_.dp.module(i).kind == ModuleKind::kReg) reg_mods_.push_back(i);

    // Live mask: the low `n` lanes across the mask words.
    live_.assign(words_, 0);
    detected_.assign(words_, 0);
    for (std::size_t lane = 0; lane < n; ++lane)
      live_[lane >> 6] |= std::uint64_t{1} << (lane & 63);

    backend_ = backend_for(words_);

    // Initialize register outputs to their reset values (with injection).
    for (std::size_t lane = 0; lane < n; ++lane)
      for (ModId i : reg_mods_) {
        const Module& mod = m_.dp.module(i);
        set_net(lane, mod.out, mod.param);
      }
  }

  /// Run `cycles` cycles against `spec`; returns the detection mask words.
  std::vector<std::uint64_t> run_detect(const ArchTrace& spec,
                                        unsigned cycles) {
    for (unsigned c = 0; c < cycles && any_live(); ++c) {
      fetch();
      eval_pass();
      clock_edge(spec);
    }
    // Lanes that survived the run undetected: their store sequence matched
    // the spec prefix; they mismatch iff they stored too few words or ended
    // with a different register file.
    std::vector<std::uint64_t> mask = detected_;
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      if (!lane_live(lane)) continue;
      if (matched_writes_[lane] != spec.writes.size()) {
        mask[lane >> 6] |= std::uint64_t{1} << (lane & 63);
        continue;
      }
      for (unsigned r = 0; r < 32; ++r)
        if (reg(lane, r) != spec.rf_final[r]) {
          mask[lane >> 6] |= std::uint64_t{1} << (lane & 63);
          break;
        }
    }
    return mask;
  }

  std::uint64_t controller_passes() const { return controller_passes_; }
  std::uint64_t gate_evals() const { return gate_evals_; }
  LaneBackend backend() const { return backend_; }
  const std::vector<EvalStep>& schedule() const { return sched_; }

 private:
  std::uint64_t dpv(std::size_t lane, NetId n) const {
    return dpv_[lane * nets_ + n];
  }
  std::uint32_t reg(std::size_t lane, unsigned r) const {
    return r == 0 ? 0 : rf_[lane][r];
  }
  bool lane_live(std::size_t lane) const {
    return (live_[lane >> 6] >> (lane & 63)) & 1;
  }
  bool any_live() const {
    for (std::uint64_t w : live_)
      if (w) return true;
    return false;
  }

  void set_net(std::size_t lane, NetId n, std::uint64_t v) {
    const std::size_t at = lane * nets_ + n;
    v = trunc(v, m_.dp.net(n).width);
    v = (v | stuck_or_[at]) & stuck_and_[at];
    dpv_[at] = trunc(v, m_.dp.net(n).width);
  }

  bool gate_bit(GateId g, std::size_t lane) const {
    return (gv_[std::size_t{g} * words_ + (lane >> 6)] >> (lane & 63)) & 1;
  }

  void set_gate_bit(GateId g, std::size_t lane, bool v) {
    std::uint64_t& w = gv_[std::size_t{g} * words_ + (lane >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (lane & 63);
    w = v ? (w | bit) : (w & ~bit);
  }

  void fetch() {
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      if (!lane_live(lane)) continue;
      const std::uint32_t pc =
          static_cast<std::uint32_t>(dpv(lane, m_.sig.pc_q));
      const std::size_t idx = pc / 4;
      const std::uint32_t word =
          (pc % 4 == 0 && idx < imem_.size()) ? imem_[idx] : 0;
      set_net(lane, m_.sig.instr, word);
      for (int i = 0; i < 6; ++i) {
        set_gate_bit(m_.cpi[i], lane, get_bit(word, 26 + i));
        set_gate_bit(m_.cpi[6 + i], lane, get_bit(word, i));
      }
    }
  }

  std::uint64_t eval_module(std::size_t lane, const Module& mod) const {
    const ModId id = static_cast<ModId>(&mod - &m_.dp.module(0));
    const ErrorInjection& inj = *lanes_[lane];
    std::vector<std::uint64_t>& in = scratch_in_;
    std::vector<std::uint64_t>& ctrl = scratch_ctrl_;
    in.clear();
    ctrl.clear();
    for (unsigned i = 0; i < mod.data_in.size(); ++i) {
      NetId src = mod.data_in[i];
      if (!inj.rewire.empty()) {
        if (const auto it = inj.rewire.find({id, i}); it != inj.rewire.end())
          src = it->second;
      }
      in.push_back(dpv(lane, src));
    }
    for (NetId n : mod.ctrl_in) ctrl.push_back(dpv(lane, n));
    if (!inj.swap_inputs.empty() && inj.swap_inputs.count(id) && in.size() >= 2)
      std::swap(in[0], in[1]);
    if (!inj.substitute.empty()) {
      if (const auto it = inj.substitute.find(id); it != inj.substitute.end()) {
        Module local = mod;
        local.kind = it->second;
        return eval_comb(m_.dp, local, in, ctrl);
      }
    }
    return eval_comb(m_.dp, mod, in, ctrl);
  }

  void eval_pass() {
    ++controller_passes_;
    const Module& rfw = m_.dp.module(m_.rf_write_mod);
    for (const EvalStep& st : sched_) {
      switch (st.kind) {
        case EvalStep::kGate: {
          const GateId g = st.index;
          const Gate& gate = m_.ctrl.gate(g);
          if (gate.kind == GateKind::kDff) break;  // state
          if (gate.kind == GateKind::kVar) {
            // STS-bound vars sample each lane's datapath; CPI vars were set
            // by fetch.
            const NetId sn = sts_net_of_gate_[g];
            if (sn != kNoNet)
              for (std::size_t lane = 0; lane < lanes_.size(); ++lane)
                set_gate_bit(g, lane, dpv(lane, sn) & 1);
            break;
          }
          eval_gatew(m_.ctrl, g, gv_.data(), words_, backend_);
          ++gate_evals_;
          break;
        }
        case EvalStep::kCtrlBind: {
          const CtrlBind& cb = m_.ctrl_binds[st.index];
          for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
            if (!lane_live(lane)) continue;
            std::uint64_t v = 0;
            for (std::size_t i = 0; i < cb.bits.size(); ++i)
              if (gate_bit(cb.bits[i], lane)) v |= std::uint64_t{1} << i;
            set_net(lane, cb.dp_net, v);
          }
          break;
        }
        case EvalStep::kModule: {
          const Module& mod = m_.dp.module(st.index);
          switch (mod.kind) {
            case ModuleKind::kReg:
            case ModuleKind::kInput:
            case ModuleKind::kOutput:
            case ModuleKind::kRfWrite:
            case ModuleKind::kMemWrite:
              break;  // state / externally driven / sinks
            case ModuleKind::kRfRead:
              for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
                if (!lane_live(lane)) continue;
                const unsigned addr =
                    static_cast<unsigned>(dpv(lane, mod.data_in[0]) & 31);
                const unsigned waddr =
                    static_cast<unsigned>(dpv(lane, rfw.data_in[0]) & 31);
                const bool we = dpv(lane, rfw.ctrl_in[0]) & 1;
                std::uint32_t v;
                if (addr == 0)
                  v = 0;
                else if (we && waddr == addr)  // write-through
                  v = static_cast<std::uint32_t>(dpv(lane, rfw.data_in[1]));
                else
                  v = rf_[lane][addr];
                set_net(lane, mod.out, v);
              }
              break;
            case ModuleKind::kMemRead:
              for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
                if (!lane_live(lane)) continue;
                const bool re = dpv(lane, mod.ctrl_in[0]) & 1;
                const std::uint32_t addr =
                    static_cast<std::uint32_t>(dpv(lane, mod.data_in[0]));
                set_net(lane, mod.out,
                        re ? dmem_[lane].read_word(addr) : 0);
              }
              break;
            default:
              for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
                if (!lane_live(lane)) continue;
                set_net(lane, mod.out, eval_module(lane, mod));
              }
              break;
          }
          break;
        }
      }
    }
  }

  /// Clock edge; the incremental store-trace comparison against `spec`
  /// detects and freezes diverging lanes.
  void clock_edge(const ArchTrace& spec) {
    const Module& rfw = m_.dp.module(m_.rf_write_mod);
    const Module& mw = m_.dp.module(m_.mem_write_mod);
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      if (!lane_live(lane)) continue;
      const std::uint64_t bit = std::uint64_t{1} << (lane & 63);

      // Register next-state values: q' = clr ? 0 : (en ? d : q).
      next_.clear();
      for (ModId mi : reg_mods_) {
        const Module& mod = m_.dp.module(mi);
        const bool has_en = mod.tag & 1, has_clr = mod.tag & 2;
        unsigned slot = 0;
        const bool en = has_en ? (dpv(lane, mod.ctrl_in[slot++]) & 1) : true;
        const bool clr = has_clr ? (dpv(lane, mod.ctrl_in[slot]) & 1) : false;
        std::uint64_t q = dpv(lane, mod.out);
        if (clr)
          q = 0;
        else if (en)
          q = dpv(lane, mod.data_in[0]);
        next_.emplace_back(mod.out, q);
      }

      // Architectural state updates.
      if (dpv(lane, rfw.ctrl_in[0]) & 1) {
        const unsigned addr =
            static_cast<unsigned>(dpv(lane, rfw.data_in[0]) & 31);
        if (addr != 0)
          rf_[lane][addr] =
              static_cast<std::uint32_t>(dpv(lane, rfw.data_in[1]));
      }
      if (dpv(lane, mw.ctrl_in[0]) & 1) {
        const std::uint32_t addr =
            static_cast<std::uint32_t>(dpv(lane, mw.data_in[0]));
        std::uint32_t data =
            static_cast<std::uint32_t>(dpv(lane, mw.data_in[1]));
        const unsigned mask =
            static_cast<unsigned>(dpv(lane, mw.data_in[2]) & 0xF);
        for (unsigned b = 0; b < 4; ++b)
          if (!(mask & (1u << b)))
            data = static_cast<std::uint32_t>(set_field(data, 8 * b, 8, 0));
        dmem_[lane].write_word(addr, data, mask);
        // Incremental trace comparison: a store that differs from the
        // specification's store at the same position - or overflows the
        // specification's store count - is a permanent mismatch, so the
        // lane is detected and frozen.
        const MemWrite w{addr & ~3u, data, mask};
        const std::size_t k = matched_writes_[lane]++;
        if (k >= spec.writes.size() || !(spec.writes[k] == w)) {
          detected_[lane >> 6] |= bit;
          live_[lane >> 6] &= ~bit;
          continue;  // skip the register latch: the lane is frozen
        }
      }

      // Latch the new register values (with injection applied).
      for (auto [net, v] : next_) set_net(lane, net, v);
    }
    // Controller pipe registers: all lanes in one pass.
    clock_dffsw(m_.ctrl, gv_.data(), words_, dff_scratch_);
  }

  const DlxModel& m_;
  const std::vector<EvalStep>& sched_;  ///< the model's shared schedule
  const std::vector<const ErrorInjection*>& lanes_;
  const std::size_t nets_;
  const unsigned words_;  ///< 64-bit words per gate (lanes / 64 rounded up)
  std::vector<std::uint32_t> imem_;
  std::vector<std::uint64_t> dpv_;  ///< [lane * nets_ + net]
  std::vector<std::uint64_t> stuck_or_, stuck_and_;
  std::vector<std::uint64_t> gv_;   ///< [gate * words_ + w], bit k = lane
                                    ///< 64*w + k
  std::vector<std::array<std::uint32_t, 32>> rf_;
  std::vector<SparseMemory> dmem_;
  std::vector<std::size_t> matched_writes_;
  std::vector<std::uint64_t> live_, detected_;  ///< mask words
  std::vector<NetId> sts_net_of_gate_;
  std::vector<ModId> reg_mods_;
  LaneBackend backend_ = LaneBackend::kScalar;
  std::uint64_t controller_passes_ = 0;
  std::uint64_t gate_evals_ = 0;
  mutable std::vector<std::uint64_t> scratch_in_, scratch_ctrl_;
  std::vector<std::pair<NetId, std::uint64_t>> next_;
  std::vector<std::uint64_t> dff_scratch_;
};

void fold_stats(BatchSimStats* stats, const BatchSim& sim,
                std::size_t lanes, unsigned width) {
  if (!stats) return;
  ++stats->batches;
  stats->controller_passes += sim.controller_passes();
  stats->gate_evals += sim.gate_evals();
  stats->lanes_evaluated += lanes;
  stats->lane_width = width;
  stats->backend = sim.backend();
}

}  // namespace

std::vector<std::uint64_t> batch_detectw(
    const DlxModel& m, const TestCase& tc, const ArchTrace& spec,
    unsigned cycles, const std::vector<const ErrorInjection*>& lanes,
    BatchSimStats* stats) {
  BatchSim sim(m, tc, lanes);
  std::vector<std::uint64_t> mask = sim.run_detect(spec, cycles);
  fold_stats(stats, sim, lanes.size(),
             lane_words(static_cast<unsigned>(lanes.size())) * 64);
  return mask;
}

std::uint64_t batch_detect64(const DlxModel& m, const TestCase& tc,
                             const ArchTrace& spec, unsigned cycles,
                             const std::vector<const ErrorInjection*>& lanes) {
  return batch_detectw(m, tc, spec, cycles, lanes)[0];
}

const std::vector<EvalStep>& batch_schedule(
    const DlxModel& m, const TestCase& tc,
    const std::vector<const ErrorInjection*>& lanes) {
  return BatchSim(m, tc, lanes).schedule();
}

std::vector<bool> detect_errors(const DlxModel& m, const TestCase& tc,
                                const std::vector<const DesignError*>& errors,
                                const BatchDetectConfig& cfg) {
  std::vector<bool> out(errors.size(), false);
  if (errors.empty()) return out;
  const unsigned cycles =
      cfg.cycles ? cfg.cycles : drain_cycles(tc.imem.size());
  if (cfg.force_scalar) {
    for (std::size_t i = 0; i < errors.size(); ++i)
      out[i] = detects(m, tc, errors[i]->injection(), cycles);
    return out;
  }
  const ArchTrace spec = spec_run(tc, cycles);
  const unsigned width = resolve_lanes(cfg.max_lanes);
  std::vector<ErrorInjection> injs;
  std::vector<const ErrorInjection*> lanes;
  std::vector<std::size_t> which;
  for (std::size_t base = 0; base < errors.size(); base += width) {
    const std::size_t end = std::min(errors.size(), base + width);
    injs.clear();
    lanes.clear();
    which.clear();
    injs.reserve(end - base);
    for (std::size_t i = base; i < end; ++i) {
      injs.push_back(errors[i]->injection());
      which.push_back(i);
    }
    for (const ErrorInjection& inj : injs) lanes.push_back(&inj);
    const std::vector<std::uint64_t> mask =
        batch_detectw(m, tc, spec, cycles, lanes, cfg.stats);
    if (cfg.stats) cfg.stats->lane_width = width;
    for (std::size_t k = 0; k < which.size(); ++k)
      if ((mask[k >> 6] >> (k & 63)) & 1) out[which[k]] = true;
  }
  return out;
}

BatchDetectFn batch_detector(const DlxModel& m, BatchDetectConfig cfg) {
  return [&m, cfg](const TestCase& tc,
                   const std::vector<const DesignError*>& errors) {
    return detect_errors(m, tc, errors, cfg);
  };
}

}  // namespace hltg
