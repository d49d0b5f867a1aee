#include "sim/batch_sim.h"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <stdexcept>

#include "netlist/eval.h"
#include "sim/cosim.h"
#include "util/word.h"

namespace hltg {

namespace {

constexpr unsigned kMaxWords = kMaxLanes / 64;

/// A set of lanes: bit k of word w is lane 64*w + k.
using LaneMask = std::array<std::uint64_t, kMaxWords>;

std::uint64_t lane_bit(std::size_t lane) {
  return std::uint64_t{1} << (lane & 63);
}

/// One lane's stuck lines on one net.
struct LaneStuck {
  std::uint32_t lane;
  std::uint64_t or_mask, and_mask;
};

/// One lane's injection at one combinational module: the data-input
/// sources as the lane wires them (rewired, then swapped) and the module it
/// evaluates (the original, or a copy with the substituted kind).
struct LaneFault {
  std::uint32_t lane;
  std::uint32_t src_at;  ///< mod.data_in.size() sources in srcs_
  int substituted;       ///< index into substituted_, or -1
};

/// Concurrent error simulation (Ulrich and Baker, 1974) of up to kMaxLanes
/// erroneous machines against one test. Each cycle the fault-free machine
/// is evaluated once, step by step in the model's schedule order; a lane
/// keeps only where it differs from that machine:
///   - diff_: per datapath net, the lanes whose value differs; their values
///     are in lv_ (a lane's entry is valid only while its bit is set);
///   - rf_diff_: per register, the lanes whose register differs (lrf_);
///   - mem_delta_: the (word, lane) pairs whose memory word differs.
/// A step runs for lane L only when an input's mask has L set or L's
/// injection touches the step (rewire, swap or substitution at the module,
/// a stuck line on the output). Evaluating the fault-free machine step by
/// step, not a whole cycle ahead, keeps ProcSim's previous-cycle rule: a
/// lane reading a net the schedule produces later (a BSE rewire) still
/// finds that net's previous-cycle value and mask. The controller is
/// evaluated for every lane at once in the wide gate words (gatenet/evalw),
/// the fault-free machine's controller in one word per gate beside them.
/// Kept cycle-for-cycle equivalent to ProcSim; any behavioural change there
/// must land here too.
class BatchSim {
 public:
  BatchSim(const DlxModel& m, const TestCase& tc,
           const std::vector<const ErrorInjection*>& lanes)
      : m_(m),
        sched_(m.schedule()),
        lanes_(lanes),
        n_(lanes.size()),
        nets_(m.dp.num_nets()),
        words_(lane_words(static_cast<unsigned>(lanes.size()))),
        imem_(tc.imem),
        rfw_(m.dp.module(m.rf_write_mod)),
        mw_(m.dp.module(m.mem_write_mod)) {
    if (n_ > kMaxLanes)
      throw std::invalid_argument("batch simulation: more than kMaxLanes");
    good_.assign(nets_, 0);
    diff_.assign(nets_ * words_, 0);
    lv_.assign(n_ * nets_, 0);
    grf_ = tc.rf_init;
    grf_[0] = 0;
    rf_diff_.assign(32 * words_, 0);
    lrf_.assign(n_ * 32, 0);
    gmem_.load(tc.dmem_init);
    matched_writes_.assign(n_, 0);
    load_resetw(m_.ctrl, gv_, words_);
    load_resetw(m_.ctrl, ggv_, 1);
    backend_ = backend_for(words_);
    sts_net_of_gate_.assign(m_.ctrl.num_gates(), kNoNet);
    for (const StsBind& sb : m_.sts_binds)
      sts_net_of_gate_[sb.gate] = sb.dp_net;
    for (ModId i = 0; i < m_.dp.num_modules(); ++i)
      if (m_.dp.module(i).kind == ModuleKind::kReg) reg_mods_.push_back(i);
    compile_injections();

    // Live mask: the low `n` lanes across the mask words.
    detected_.assign(words_, 0);
    for (std::size_t lane = 0; lane < n_; ++lane)
      live_[lane >> 6] |= lane_bit(lane);

    // Register outputs start at their reset values (with injection).
    for (ModId i : reg_mods_) {
      const Module& mod = m_.dp.module(i);
      good_[mod.out] = trunc(mod.param, width(mod.out));
      for_each_lane(runs({}, mod.out), [&](std::size_t lane) {
        settle(lane, mod.out, mod.param, good_[mod.out],
               &diff_[std::size_t{mod.out} * words_]);
      });
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
    for_each_lane(live_, [&](std::size_t lane) {
      bool differs = matched_writes_[lane] != spec.writes.size();
      for (unsigned r = 0; r < 32 && !differs; ++r)
        differs = lane_reg(lane, r) != spec.rf_final[r];
      if (differs) mask[lane >> 6] |= lane_bit(lane);
    });
    return mask;
  }

  std::uint64_t controller_passes() const { return controller_passes_; }
  std::uint64_t gate_evals() const { return gate_evals_; }
  std::uint64_t module_evals() const { return module_evals_; }
  LaneBackend backend() const { return backend_; }
  const std::vector<EvalStep>& schedule() const { return sched_; }

 private:
  unsigned width(NetId n) const { return m_.dp.net(n).width; }
  bool is_live(std::size_t lane) const {
    return (live_[lane >> 6] >> (lane & 63)) & 1;
  }
  bool any_live() const {
    for (unsigned w = 0; w < words_; ++w)
      if (live_[w]) return true;
    return false;
  }

  template <class F>
  void for_each_lane(const LaneMask& mask, F&& f) const {
    for (unsigned w = 0; w < words_; ++w)
      for (std::uint64_t b = mask[w]; b; b &= b - 1)
        f(std::size_t{w} * 64 + static_cast<unsigned>(std::countr_zero(b)));
  }

  /// Lane `lane`'s value of net `n`.
  std::uint64_t val(std::size_t lane, NetId n) const {
    return (diff_[std::size_t{n} * words_ + (lane >> 6)] >> (lane & 63)) & 1
               ? lv_[lane * nets_ + n]
               : good_[n];
  }
  /// Adds the lanes whose value of net `n` differs.
  void or_diff(LaneMask& mask, NetId n) const {
    const std::uint64_t* d = &diff_[std::size_t{n} * words_];
    for (unsigned w = 0; w < words_; ++w) mask[w] |= d[w];
  }
  void or_inputs(LaneMask& mask, const Module& mod) const {
    for (NetId n : mod.data_in) or_diff(mask, n);
    for (NetId n : mod.ctrl_in) or_diff(mask, n);
  }
  /// The lanes a step writing `out` runs for: the live lanes of `in` (whose
  /// inputs differ) and the live lanes with a stuck line on `out`.
  LaneMask runs(LaneMask in, NetId out = kNoNet) const {
    for (unsigned w = 0; w < words_; ++w) {
      if (out != kNoNet) in[w] |= stuck_mask_[std::size_t{out} * words_ + w];
      in[w] &= live_[w];
    }
    return in;
  }

  /// Lane `lane` drives `v` onto net `n` (truncated, with its stuck lines);
  /// where that differs from the fault-free value `good`, the lane keeps
  /// the value in lv_ and its bit in `mask`.
  void settle(std::size_t lane, NetId n, std::uint64_t v, std::uint64_t good,
              std::uint64_t* mask) {
    const unsigned w = width(n);
    v = trunc(v, w);
    if ((stuck_mask_[std::size_t{n} * words_ + (lane >> 6)] >> (lane & 63)) &
        1) {
      const auto first = stuck_.begin() + stuck_at_[n];
      const auto last = stuck_.begin() + stuck_at_[n + 1];
      const auto it = std::lower_bound(
          first, last, lane, [](const LaneStuck& s, std::size_t l) {
            return s.lane < l;
          });
      v = trunc((v | it->or_mask) & it->and_mask, w);
    }
    if (v != good) {
      lv_[lane * nets_ + n] = v;
      mask[lane >> 6] |= lane_bit(lane);
    }
  }
  void store_mask(NetId n, const LaneMask& next) {
    std::copy_n(next.begin(), words_, &diff_[std::size_t{n} * words_]);
  }

  std::uint32_t lane_reg(std::size_t lane, unsigned r) const {
    return (rf_diff_[r * words_ + (lane >> 6)] >> (lane & 63)) & 1
               ? lrf_[lane * 32 + r]
               : grf_[r];
  }
  void set_lane_reg(std::size_t lane, unsigned r, std::uint32_t v) {
    std::uint64_t& w = rf_diff_[r * words_ + (lane >> 6)];
    if (v == grf_[r]) {
      w &= ~lane_bit(lane);
    } else {
      lrf_[lane * 32 + r] = v;
      w |= lane_bit(lane);
    }
  }
  std::uint32_t lane_word(std::size_t lane, std::uint32_t addr) const {
    const auto it = mem_delta_.find({addr & ~3u, lane});
    return it != mem_delta_.end() ? it->second : gmem_.read_word(addr);
  }

  /// The per-batch injection tables: stuck lines per net, and the lane
  /// faults of every combinational module (the injections ProcSim applies;
  /// it ignores rewires, swaps and substitutions of state and memory
  /// modules).
  void compile_injections() {
    stuck_mask_.assign(nets_ * words_, 0);
    std::map<std::pair<NetId, std::uint32_t>, LaneStuck> stuck;
    std::vector<std::pair<ModId, std::uint32_t>> touched;
    for (std::uint32_t lane = 0; lane < n_; ++lane) {
      const ErrorInjection& inj = *lanes_[lane];
      for (const StuckLine& sl : inj.stuck) {
        auto [it, fresh] = stuck.try_emplace(
            {sl.net, lane}, LaneStuck{lane, 0, ~std::uint64_t{0}});
        if (sl.stuck_value)
          it->second.or_mask |= std::uint64_t{1} << sl.bit;
        else
          it->second.and_mask &= ~(std::uint64_t{1} << sl.bit);
        stuck_mask_[std::size_t{sl.net} * words_ + (lane >> 6)] |=
            lane_bit(lane);
      }
      for (const auto& [at, src] : inj.rewire)
        touched.emplace_back(at.first, lane);
      for (ModId id : inj.swap_inputs) touched.emplace_back(id, lane);
      for (const auto& [id, kind] : inj.substitute)
        touched.emplace_back(id, lane);
    }
    stuck_at_.assign(nets_ + 1, 0);
    for (const auto& [key, s] : stuck) {
      stuck_.push_back(s);
      ++stuck_at_[key.first + 1];
    }
    for (std::size_t n = 0; n < nets_; ++n) stuck_at_[n + 1] += stuck_at_[n];

    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    fault_at_.assign(m_.dp.num_modules() + 1, 0);
    for (const auto& [id, lane] : touched) {
      const Module& mod = m_.dp.module(id);
      if (!is_comb_evaluable(mod.kind)) continue;
      const ErrorInjection& inj = *lanes_[lane];
      LaneFault f{lane, static_cast<std::uint32_t>(srcs_.size()), -1};
      for (unsigned i = 0; i < mod.data_in.size(); ++i) {
        const auto it = inj.rewire.find({id, i});
        srcs_.push_back(it != inj.rewire.end() ? it->second : mod.data_in[i]);
      }
      if (inj.swap_inputs.count(id) && mod.data_in.size() >= 2)
        std::swap(srcs_[f.src_at], srcs_[f.src_at + 1]);
      if (const auto it = inj.substitute.find(id); it != inj.substitute.end()) {
        f.substituted = static_cast<int>(substituted_.size());
        substituted_.push_back(mod);
        substituted_.back().kind = it->second;
      }
      faults_.push_back(f);
      ++fault_at_[id + 1];
    }
    for (std::size_t i = 0; i < m_.dp.num_modules(); ++i)
      fault_at_[i + 1] += fault_at_[i];
  }

  /// Settles the step writing `out`: the fault-free machine's value `good`
  /// and `value(lane)`, in ascending lane order, for every lane the step
  /// runs for (runs(in, out)). Lanes read good_[out] and its mask as the
  /// last cycle left them (a lane may be wired to its own output); both
  /// change only after every lane.
  template <class F>
  void settle_step(NetId out, const LaneMask& in, std::uint64_t good,
                   F&& value) {
    good = trunc(good, width(out));
    LaneMask next{};
    for_each_lane(runs(in, out), [&](std::size_t lane) {
      settle(lane, out, value(lane), good, next.data());
    });
    good_[out] = good;
    store_mask(out, next);
  }

  /// Net value sources `v(n)`, so that each step's semantics is written
  /// once for the fault-free machine and the lanes.
  auto good_values() const {
    return [this](NetId n) { return good_[n]; };
  }
  auto lane_values(std::size_t lane) const {
    return [this, lane](NetId n) { return val(lane, n); };
  }

  std::uint32_t fetch_word(std::uint64_t pc) const {
    const std::size_t idx = pc / 4;
    return (pc % 4 == 0 && idx < imem_.size()) ? imem_[idx] : 0;
  }

  void fetch() {
    const std::uint32_t word = fetch_word(good_[m_.sig.pc_q]);
    // CPI = opcode bits then func bits, the same in every lane but those
    // fetching from a different PC.
    auto cpi_bit = [](std::uint32_t w, int i) {
      return get_bit(w, i < 6 ? 26 + i : i - 6);
    };
    for (int i = 0; i < 12; ++i) {
      const GateId g = m_.cpi[i];
      ggv_[g] = cpi_bit(word, i) ? ~std::uint64_t{0} : 0;
      std::fill_n(&gv_[std::size_t{g} * words_], words_, ggv_[g]);
    }
    LaneMask pc{};
    or_diff(pc, m_.sig.pc_q);
    settle_step(m_.sig.instr, pc, word, [&](std::size_t lane) {
      const std::uint32_t lw = fetch_word(val(lane, m_.sig.pc_q));
      if (lw != word)
        for (int i = 0; i < 12; ++i) {
          std::uint64_t& gw =
              gv_[std::size_t{m_.cpi[i]} * words_ + (lane >> 6)];
          gw = cpi_bit(lw, i) ? gw | lane_bit(lane) : gw & ~lane_bit(lane);
        }
      return lw;
    });
  }

  void eval_pass() {
    ++controller_passes_;
    for (const EvalStep& st : sched_) {
      switch (st.kind) {
        case EvalStep::kGate: {
          const GateId g = st.index;
          const Gate& gate = m_.ctrl.gate(g);
          if (gate.kind == GateKind::kDff) break;  // state
          if (gate.kind == GateKind::kVar) {
            // STS-bound vars sample each lane's datapath; CPI vars were set
            // by fetch.
            if (sts_net_of_gate_[g] != kNoNet)
              sample_sts(g, sts_net_of_gate_[g]);
            break;
          }
          eval_gatew(m_.ctrl, g, gv_.data(), words_, backend_);
          eval_gatew(m_.ctrl, g, ggv_.data(), 1, LaneBackend::kScalar);
          ++gate_evals_;
          break;
        }
        case EvalStep::kCtrlBind:
          pack_ctrl(m_.ctrl_binds[st.index]);
          break;
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
              rf_read(mod);
              break;
            case ModuleKind::kMemRead:
              mem_read(mod);
              break;
            default:
              eval_comb_step(st.index, mod);
              break;
          }
          break;
        }
      }
    }
  }

  void sample_sts(GateId g, NetId sn) {
    ggv_[g] = good_[sn] & 1 ? ~std::uint64_t{0} : 0;
    std::uint64_t* gw = &gv_[std::size_t{g} * words_];
    std::fill_n(gw, words_, ggv_[g]);
    LaneMask differ{};
    or_diff(differ, sn);
    for_each_lane(runs(differ), [&](std::size_t lane) {
      std::uint64_t& w = gw[lane >> 6];
      w = lv_[lane * nets_ + sn] & 1 ? w | lane_bit(lane) : w & ~lane_bit(lane);
    });
  }

  void pack_ctrl(const CtrlBind& cb) {
    auto pack = [&](auto bit) {
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < cb.bits.size(); ++i)
        if (bit(cb.bits[i])) v |= std::uint64_t{1} << i;
      return v;
    };
    LaneMask in{};  // lanes where a bit differs from the fault-free one
    for (GateId g : cb.bits)
      for (unsigned w = 0; w < words_; ++w)
        in[w] |= gv_[std::size_t{g} * words_ + w] ^ ggv_[g];
    settle_step(
        cb.dp_net, in, pack([&](GateId g) { return ggv_[g] & 1; }),
        [&](std::size_t lane) {
          return pack([&](GateId g) {
            return (gv_[std::size_t{g} * words_ + (lane >> 6)] >>
                    (lane & 63)) & 1;
          });
        });
  }

  /// `as` (`mod`, or `mod` with a substituted kind) evaluated with its data
  /// inputs read from `src` and every value through `v`.
  template <class V>
  std::uint64_t eval_module(const Module& mod, const Module& as,
                            const NetId* src, V v) {
    in_.clear();
    ctrl_.clear();
    for (std::size_t i = 0; i < mod.data_in.size(); ++i)
      in_.push_back(v(src[i]));
    for (NetId n : mod.ctrl_in) ctrl_.push_back(v(n));
    return eval_comb(m_.dp, as, in_, ctrl_);
  }

  void eval_comb_step(ModId id, const Module& mod) {
    // The lanes whose injection sits on this module run whatever their
    // inputs; faults_ lists them by lane, as the lanes are visited.
    const std::uint32_t last = fault_at_[id + 1];
    LaneMask in{};
    or_inputs(in, mod);
    for (std::uint32_t k = fault_at_[id]; k < last; ++k)
      in[faults_[k].lane >> 6] |= lane_bit(faults_[k].lane);
    std::uint32_t k = fault_at_[id];
    settle_step(
        mod.out, in,
        eval_module(mod, mod, mod.data_in.data(), good_values()),
        [&](std::size_t lane) {
          ++module_evals_;
          while (k < last && faults_[k].lane < lane) ++k;
          if (k == last || faults_[k].lane != lane)
            return eval_module(mod, mod, mod.data_in.data(),
                               lane_values(lane));
          const LaneFault& f = faults_[k];
          return eval_module(
              mod, f.substituted < 0 ? mod : substituted_[f.substituted],
              &srcs_[f.src_at], lane_values(lane));
        });
  }

  void rf_read(const Module& mod) {
    // Register `addr`, or the write port's data when it writes there
    // (write-through).
    auto read = [&](auto v, auto reg) -> std::uint64_t {
      const unsigned addr = static_cast<unsigned>(v(mod.data_in[0]) & 31);
      if (addr == 0) return 0;
      if ((v(rfw_.ctrl_in[0]) & 1) && (v(rfw_.data_in[0]) & 31) == addr)
        return static_cast<std::uint32_t>(v(rfw_.data_in[1]));
      return reg(addr);
    };
    LaneMask in{};
    for (NetId n : {mod.data_in[0], rfw_.ctrl_in[0], rfw_.data_in[0],
                    rfw_.data_in[1]})
      or_diff(in, n);
    const unsigned addr = static_cast<unsigned>(good_[mod.data_in[0]] & 31);
    const bool through = (good_[rfw_.ctrl_in[0]] & 1) &&
                         (good_[rfw_.data_in[0]] & 31) == addr;
    if (addr != 0 && !through)  // lanes holding their own register
      for (unsigned w = 0; w < words_; ++w)
        in[w] |= rf_diff_[addr * words_ + w];
    settle_step(mod.out, in,
                read(good_values(), [&](unsigned r) { return grf_[r]; }),
                [&](std::size_t lane) {
                  ++module_evals_;
                  return read(lane_values(lane), [&](unsigned r) {
                    return lane_reg(lane, r);
                  });
                });
  }

  void mem_read(const Module& mod) {
    auto read = [&](auto v, auto word) -> std::uint64_t {
      return v(mod.ctrl_in[0]) & 1
                 ? word(static_cast<std::uint32_t>(v(mod.data_in[0])))
                 : 0;
    };
    LaneMask in{};
    or_diff(in, mod.ctrl_in[0]);
    or_diff(in, mod.data_in[0]);
    if (good_[mod.ctrl_in[0]] & 1) {  // lanes holding their own word there
      const std::uint32_t at =
          static_cast<std::uint32_t>(good_[mod.data_in[0]]) & ~3u;
      for (auto it = mem_delta_.lower_bound({at, 0});
           it != mem_delta_.end() && it->first.first == at; ++it)
        in[it->first.second >> 6] |= lane_bit(it->first.second);
    }
    settle_step(mod.out, in,
                read(good_values(),
                     [&](std::uint32_t a) { return gmem_.read_word(a); }),
                [&](std::size_t lane) {
                  ++module_evals_;
                  return read(lane_values(lane), [&](std::uint32_t a) {
                    return lane_word(lane, a);
                  });
                });
  }

  /// Clock edge; the incremental store-trace comparison against `spec`
  /// detects and freezes diverging lanes.
  void clock_edge(const ArchTrace& spec) {
    // Register next-state values, q' = clr ? 0 : (en ? d : q): all read
    // before any latches, since registers feed registers.
    auto next_q = [](const Module& mod, auto v) {
      const bool has_en = mod.tag & 1, has_clr = mod.tag & 2;
      unsigned slot = 0;
      const bool en = has_en ? (v(mod.ctrl_in[slot++]) & 1) : true;
      const bool clr = has_clr ? (v(mod.ctrl_in[slot]) & 1) : false;
      return clr ? 0 : en ? v(mod.data_in[0]) : v(mod.out);
    };
    next_good_.clear();
    latches_.clear();
    for (std::size_t k = 0; k < reg_mods_.size(); ++k) {
      const Module& mod = m_.dp.module(reg_mods_[k]);
      next_good_.push_back(trunc(next_q(mod, good_values()), width(mod.out)));
      LaneMask in{};
      or_inputs(in, mod);
      or_diff(in, mod.out);  // a disabled register holds its value
      for_each_lane(runs(in, mod.out), [&](std::size_t lane) {
        latches_.push_back({k, lane, next_q(mod, lane_values(lane))});
      });
    }

    write_rf();
    write_mem(spec);

    // Latch the new register values (with injection applied).
    for (std::size_t k = 0; k < reg_mods_.size(); ++k) {
      const NetId out = m_.dp.module(reg_mods_[k]).out;
      good_[out] = next_good_[k];
      std::fill_n(&diff_[std::size_t{out} * words_], words_, 0);
    }
    for (const Latch& l : latches_) {
      const NetId out = m_.dp.module(reg_mods_[l.reg]).out;
      settle(l.lane, out, l.q, good_[out], &diff_[std::size_t{out} * words_]);
    }
    // Controller pipe registers: all lanes in one pass.
    clock_dffsw(m_.ctrl, gv_.data(), words_, dff_scratch_);
    clock_dffsw(m_.ctrl, ggv_.data(), 1, dff_scratch_);
  }

  void write_rf() {
    LaneMask in{};
    for (NetId n : {rfw_.ctrl_in[0], rfw_.data_in[0], rfw_.data_in[1]})
      or_diff(in, n);
    const LaneMask run = runs(in);
    const unsigned addr = static_cast<unsigned>(good_[rfw_.data_in[0]] & 31);
    if ((good_[rfw_.ctrl_in[0]] & 1) && addr != 0) {
      // Lanes writing on their own keep their old value here; every other
      // lane now holds the fault-free value.
      for_each_lane(run, [&](std::size_t lane) {
        lrf_[lane * 32 + addr] = lane_reg(lane, addr);
      });
      grf_[addr] = static_cast<std::uint32_t>(good_[rfw_.data_in[1]]);
      std::copy_n(run.begin(), words_, &rf_diff_[addr * words_]);
      for_each_lane(run, [&](std::size_t lane) {
        set_lane_reg(lane, addr, lrf_[lane * 32 + addr]);
      });
    }
    for_each_lane(run, [&](std::size_t lane) {
      if (!(val(lane, rfw_.ctrl_in[0]) & 1)) return;
      const unsigned r = static_cast<unsigned>(val(lane, rfw_.data_in[0]) & 31);
      if (r != 0)
        set_lane_reg(lane, r,
                     static_cast<std::uint32_t>(val(lane, rfw_.data_in[1])));
    });
  }

  /// The store a machine makes this cycle, if any (values through `v`).
  template <class V>
  static bool store_of(const Module& mw, V v, MemWrite* w) {
    if (!(v(mw.ctrl_in[0]) & 1)) return false;
    w->addr = static_cast<std::uint32_t>(v(mw.data_in[0]));
    w->data = static_cast<std::uint32_t>(v(mw.data_in[1]));
    w->bemask = static_cast<unsigned>(v(mw.data_in[2]) & 0xF);
    // The observable port shows only enabled byte lanes.
    for (unsigned b = 0; b < 4; ++b)
      if (!(w->bemask & (1u << b)))
        w->data = static_cast<std::uint32_t>(set_field(w->data, 8 * b, 8, 0));
    return true;
  }

  void write_mem(const ArchTrace& spec) {
    LaneMask in{};
    for (NetId n :
         {mw_.ctrl_in[0], mw_.data_in[0], mw_.data_in[1], mw_.data_in[2]})
      or_diff(in, n);
    const LaneMask run = runs(in);

    // Incremental trace comparison: a store that differs from the
    // specification's store at the same position - or overflows the
    // specification's store count - is a permanent mismatch, so the lane
    // is detected and frozen.
    auto compare = [&](std::size_t lane, const MemWrite& w) {
      const std::size_t k = matched_writes_[lane]++;
      if (k >= spec.writes.size() ||
          !(spec.writes[k] == MemWrite{w.addr & ~3u, w.data, w.bemask})) {
        detected_[lane >> 6] |= lane_bit(lane);
        live_[lane >> 6] &= ~lane_bit(lane);
      }
    };

    // Every lane's new memory words are computed from the old memory before
    // the fault-free store lands, then kept only where they differ.
    mem_writes_.clear();
    MemWrite good;
    const bool stores = store_of(mw_, good_values(), &good);
    const std::uint32_t at = good.addr & ~3u;
    if (stores) {
      // Lanes that make the fault-free store over a word of their own.
      for (auto it = mem_delta_.lower_bound({at, 0});
           it != mem_delta_.end() && it->first.first == at; ++it) {
        const std::size_t lane = it->first.second;
        if (is_live(lane) && !((run[lane >> 6] >> (lane & 63)) & 1))
          mem_writes_.push_back(
              {lane, at, merge_bytes(it->second, good.data, good.bemask)});
      }
      // Lanes with a store of their own skip the fault-free one.
      for_each_lane(run, [&](std::size_t lane) {
        mem_writes_.push_back({lane, at, lane_word(lane, at)});
      });
    }
    for_each_lane(run, [&](std::size_t lane) {
      MemWrite w;
      if (!store_of(mw_, lane_values(lane), &w)) return;
      mem_writes_.push_back(
          {lane, w.addr & ~3u,
           merge_bytes(lane_word(lane, w.addr), w.data, w.bemask)});
      compare(lane, w);
    });
    if (stores) {
      gmem_.write_word(good.addr, good.data, good.bemask);
      LaneMask same{};
      for (unsigned w = 0; w < words_; ++w) same[w] = live_[w] & ~run[w];
      for_each_lane(same, [&](std::size_t lane) { compare(lane, good); });
    }
    for (const LaneWord& lw : mem_writes_) {
      if (lw.word == gmem_.read_word(lw.addr))
        mem_delta_.erase({lw.addr, lw.lane});
      else
        mem_delta_[{lw.addr, lw.lane}] = lw.word;
    }
  }

  struct Latch {
    std::size_t reg;  ///< index into reg_mods_
    std::size_t lane;
    std::uint64_t q;
  };
  struct LaneWord {
    std::size_t lane;
    std::uint32_t addr;  ///< aligned
    std::uint32_t word;
  };

  const DlxModel& m_;
  const std::vector<EvalStep>& sched_;  ///< the model's shared schedule
  const std::vector<const ErrorInjection*>& lanes_;
  const std::size_t n_;     ///< lanes
  const std::size_t nets_;
  const unsigned words_;  ///< 64-bit words per mask (lanes / 64 rounded up)
  const std::vector<std::uint32_t>& imem_;
  const Module& rfw_;
  const Module& mw_;

  // The fault-free machine.
  std::vector<std::uint64_t> good_;   ///< [net]
  std::array<std::uint32_t, 32> grf_{};
  SparseMemory gmem_;
  std::vector<std::uint64_t> ggv_;    ///< [gate]: all ones or all zeros

  // Where each lane differs from it.
  std::vector<std::uint64_t> diff_;   ///< [net * words_ + w]
  std::vector<std::uint64_t> lv_;     ///< [lane * nets_ + net]
  std::vector<std::uint64_t> rf_diff_;    ///< [reg * words_ + w]
  std::vector<std::uint32_t> lrf_;    ///< [lane * 32 + reg]
  std::map<std::pair<std::uint32_t, std::size_t>, std::uint32_t>
      mem_delta_;  ///< (aligned address, lane) -> the lane's word
  std::vector<std::uint64_t> gv_;  ///< [gate * words_ + w], every lane
  std::vector<std::size_t> matched_writes_;
  LaneMask live_{};
  std::vector<std::uint64_t> detected_;  ///< mask words

  // The lanes' injections, compiled once per batch.
  std::vector<std::uint64_t> stuck_mask_;  ///< [net * words_ + w]
  std::vector<LaneStuck> stuck_;           ///< by (net, lane)
  std::vector<std::uint32_t> stuck_at_;    ///< [net]: first entry in stuck_
  std::vector<LaneFault> faults_;          ///< by (module, lane)
  std::vector<std::uint32_t> fault_at_;    ///< [module]: first in faults_
  std::vector<NetId> srcs_;
  std::vector<Module> substituted_;

  std::vector<NetId> sts_net_of_gate_;
  std::vector<ModId> reg_mods_;
  LaneBackend backend_ = LaneBackend::kScalar;
  std::uint64_t controller_passes_ = 0;
  std::uint64_t gate_evals_ = 0;
  std::uint64_t module_evals_ = 0;
  std::vector<std::uint64_t> in_, ctrl_;
  std::vector<std::uint64_t> next_good_;
  std::vector<Latch> latches_;
  std::vector<LaneWord> mem_writes_;
  std::vector<std::uint64_t> dff_scratch_;
};

void fold_stats(BatchSimStats* stats, const BatchSim& sim,
                std::size_t lanes, unsigned width) {
  if (!stats) return;
  ++stats->batches;
  stats->controller_passes += sim.controller_passes();
  stats->gate_evals += sim.gate_evals();
  stats->module_evals += sim.module_evals();
  stats->lanes_evaluated += lanes;
  stats->lane_width = width;
  if (lanes > stats->widest_batch) {
    stats->widest_batch = lanes;
    stats->backend = sim.backend();
  }
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
