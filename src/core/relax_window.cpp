#include "core/relax_window.h"

#include <algorithm>
#include <bit>

#include "netlist/eval.h"
#include "util/word.h"

namespace hltg {

namespace {

constexpr std::uint8_t kRewired = 1, kSwapped = 2, kSubstituted = 4;

std::uint64_t bit(std::uint32_t i) { return std::uint64_t{1} << (i & 63); }

}  // namespace

TestCase RelaxVars::to_test() const {
  TestCase tc;
  tc.imem = imem;
  tc.rf_init = rf_init;
  tc.dmem_init = mem_init;
  return tc;
}

void RelaxVars::ensure_size(std::size_t words) {
  if (imem.size() < words) {
    imem.resize(words, 0);
    imem_fixed.resize(words, 0);
  }
}

RelaxWindow::RelaxWindow(const DlxModel& m, unsigned cycles,
                         const ErrorInjection& inj)
    : m_(m),
      sched_(m.schedule()),
      fan_(m.fanout()),
      T_(cycles),
      N_(m.dp.num_nets()),
      G_(m.ctrl.num_gates()),
      qwords_(static_cast<unsigned>((sched_.size() + 63) / 64)),
      ewords_((fan_.num_edge_ops() + 63) / 64) {
  if (!inj.stuck.empty()) {
    stuck_or_.assign(N_, 0);
    stuck_and_.assign(N_, ~std::uint64_t{0});
    for (const StuckLine& sl : inj.stuck) {
      if (sl.stuck_value)
        stuck_or_[sl.net] |= std::uint64_t{1} << sl.bit;
      else
        stuck_and_[sl.net] &= ~(std::uint64_t{1} << sl.bit);
    }
  }
  if (!inj.rewire.empty() || !inj.swap_inputs.empty() ||
      !inj.substitute.empty()) {
    mod_inj_.assign(m.dp.num_modules(), 0);
    for (const auto& [at, src] : inj.rewire) {
      mod_inj_[at.first] |= kRewired;
      rewire_.emplace_back(at, src);
      // The rewired step reads `src` too (state reads and sinks ignore a
      // rewire, as ProcSim does; an extra reader only costs an evaluation).
      const NetId out = m.dp.module(at.first).out;
      if (out != kNoNet && fan_.producer[out] >= 0)
        extra_readers_.emplace_back(
            src, static_cast<std::uint32_t>(fan_.producer[out]));
    }
    for (ModId id : inj.swap_inputs) mod_inj_[id] |= kSwapped;
    for (const auto& [id, kind] : inj.substitute) {
      mod_inj_[id] |= kSubstituted;
      Module local = m.dp.module(id);
      local.kind = kind;
      substitute_.emplace(id, std::move(local));
    }
  }
  nets_.assign(std::size_t{T_} * N_, 0);
  gates_.assign(std::size_t{T_} * G_, 0);
  rf_.assign(std::size_t{T_} * 32, 0);
  rf_writes_.assign(T_, {});
  stores_.assign(T_, {});
  queue_.assign(std::size_t{T_} * qwords_, 0);
  edges_.assign(std::size_t{T_} * ewords_, 0);
  fetch_due_.assign(T_, 0);
  if (T_ == 0) return;
  // Cycle 0 starts from reset, as ProcSim's constructor does.
  for (ModId mi : fan_.regs)
    store_net(0, m.dp.module(mi).out, m.dp.module(mi).param);
  for (GateId g : fan_.dffs) gates_[g] = m.ctrl.gate(g).reset_value;
}

void RelaxWindow::update(const RelaxVars& vars) {
  // The window counts as swept only once an update completes: one that
  // unwound part-way (an exception) may have left values, queues and the
  // recorded inputs out of step, so the next update sweeps.
  const bool sweep_all = !swept_;
  swept_ = false;
  diff_inputs(vars, sweep_all);
  if (sweep_all)
    sweep();
  else
    for (unsigned t = 0; t < T_; ++t) run_cycle(t);
  edited_.clear();
  mem_dirty_.clear();
  rf_diff_ = rf_cand_ = 0;
  swept_ = true;
}

void RelaxWindow::diff_inputs(const RelaxVars& vars, bool reload) {
  const std::size_t words = std::max(imem_.size(), vars.imem.size());
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint32_t was = i < imem_.size() ? imem_[i] : 0;
    const std::uint32_t now = i < vars.imem.size() ? vars.imem[i] : 0;
    if (was != now) edited_.push_back(static_cast<std::uint32_t>(i));
  }
  if (!edited_.empty() || imem_.size() != vars.imem.size()) imem_ = vars.imem;

  for (unsigned r = 1; r < 32; ++r)  // R0 reads 0 whatever its entry
    if (rf_[r] != vars.rf_init[r]) {
      rf_[r] = vars.rf_init[r];
      rf_diff_ |= 1u << r;
    }

  if (!reload && vars.mem_init == mem_init_in_) return;
  mem_init_in_ = vars.mem_init;
  SparseMemory init;
  init.load(vars.mem_init);
  // An absent word reads 0, so only differing values count.
  for (const auto& [a, v] : init.words())
    if (mem_init_.read_word(a) != v) mem_dirty_.emplace_back(a, 0);
  for (const auto& [a, v] : mem_init_.words())
    if (!init.words().count(a) && v != 0) mem_dirty_.emplace_back(a, 0);
  mem_init_ = std::move(init);
}

void RelaxWindow::sweep() {
  std::fill(queue_.begin(), queue_.end(), 0);
  std::fill(edges_.begin(), edges_.end(), 0);
  std::fill(fetch_due_.begin(), fetch_due_.end(), 0);
  sweeping_ = true;
  for (unsigned t = 0; t < T_; ++t) {
    fetch(t);
    for (std::uint32_t r : fan_.producing) eval(r, t);
    if (t + 1 == T_) break;
    for (std::uint32_t op = 0; op < fan_.num_edge_ops(); ++op) edge(op, t);
    edge_rf(t, ~1u);
  }
  sweeping_ = false;
}

void RelaxWindow::run_cycle(unsigned t) {
  const auto pc = static_cast<std::uint32_t>(net(t, m_.sig.pc_q));
  if (fetch_due_[t] ||
      (pc % 4 == 0 && std::find(edited_.begin(), edited_.end(), pc / 4) !=
                          edited_.end()))
    fetch(t);
  fetch_due_[t] = 0;

  std::uint64_t* q = queue_.data() + std::size_t{t} * qwords_;
  // State reads whose register or memory word moved while their address
  // did not (an address that moves queues them through its fan-out).
  if (rf_diff_)
    for (std::uint32_t r : fan_.rf_reads) {
      const Module& mod = m_.dp.module(sched_[r].index);
      if ((rf_diff_ >> (read(mod.data_in[0], r, t) & 31)) & 1)
        q[r >> 6] |= bit(r);
    }
  if (!mem_dirty_.empty())
    for (std::uint32_t r : fan_.mem_reads) {
      const Module& mod = m_.dp.module(sched_[r].index);
      if (!(read(mod.ctrl_in[0], r, t) & 1)) continue;
      const auto a = static_cast<std::uint32_t>(read(mod.data_in[0], r, t)) &
                     ~3u;
      for (const auto& [addr, from] : mem_dirty_)
        if (addr == a && from <= t) q[r >> 6] |= bit(r);
    }

  // A changed value queues only higher ranks of this cycle, so one
  // ascending scan that re-reads its word after every evaluation visits
  // each queued step once, after all of its changed inputs.
  for (unsigned w = 0; w < qwords_; ++w)
    while (q[w]) {
      const auto low = static_cast<std::uint32_t>(std::countr_zero(q[w]));
      q[w] &= q[w] - 1;
      eval(w * 64 + low, t);
    }

  if (t + 1 == T_) return;
  std::uint64_t* e = edges_.data() + std::size_t{t} * ewords_;
  for (unsigned w = 0; w < ewords_; ++w)
    while (e[w]) {
      const auto low = static_cast<std::uint32_t>(std::countr_zero(e[w]));
      e[w] &= e[w] - 1;
      edge(w * 64 + low, t);
    }
  edge_rf(t, rf_diff_ | rf_cand_);
}

std::uint64_t RelaxWindow::read(std::size_t v, std::uint32_t rank,
                                unsigned t) const {
  const std::int32_t p = fan_.producer[v];
  if (p >= 0 && static_cast<std::uint32_t>(p) >= rank) {
    // Not yet written in this cycle's pass: last cycle's value.
    if (t == 0) return 0;
    --t;
  }
  return v < N_ ? nets_[t * N_ + v] : gates_[t * G_ + (v - N_)];
}

bool RelaxWindow::store_net(unsigned t, NetId n, std::uint64_t v) {
  const unsigned w = m_.dp.net(n).width;
  v = trunc(v, w);
  if (!stuck_or_.empty()) v = trunc((v | stuck_or_[n]) & stuck_and_[n], w);
  std::uint64_t& slot = nets_[t * N_ + n];
  if (slot == v) return false;
  slot = v;
  return true;
}

bool RelaxWindow::store_gate(unsigned t, GateId g, bool v) {
  std::uint8_t& slot = gates_[t * G_ + g];
  if (slot == v) return false;
  slot = v;
  return true;
}

void RelaxWindow::changed(std::size_t v, unsigned t) {
  if (sweeping_) return;
  const std::int32_t p = fan_.producer[v];
  auto queue = [&](std::uint32_t r) {
    if (p < 0 || static_cast<std::uint32_t>(p) < r)
      queue_[std::size_t{t} * qwords_ + (r >> 6)] |= bit(r);
    else if (t + 1 < T_)  // a reader that saw last cycle's value
      queue_[std::size_t{t + 1} * qwords_ + (r >> 6)] |= bit(r);
  };
  for (std::uint32_t i = fan_.reader_at[v]; i < fan_.reader_at[v + 1]; ++i)
    queue(fan_.readers[i]);
  for (const auto& [src, r] : extra_readers_)
    if (src == v) queue(r);
  if (t + 1 < T_)
    for (std::uint32_t i = fan_.edge_at[v]; i < fan_.edge_at[v + 1]; ++i) {
      const std::uint32_t op = fan_.edge_readers[i];
      edges_[std::size_t{t} * ewords_ + (op >> 6)] |= bit(op);
    }
  if (v == m_.sig.pc_q) fetch_due_[t] = 1;
}

void RelaxWindow::fetch(unsigned t) {
  const auto pc = static_cast<std::uint32_t>(net(t, m_.sig.pc_q));
  const std::size_t idx = pc / 4;
  const std::uint32_t word =
      (pc % 4 == 0 && idx < imem_.size()) ? imem_[idx] : 0;
  if (store_net(t, m_.sig.instr, word)) changed(m_.sig.instr, t);
  // CPI = opcode bits then func bits, from the unmasked word.
  for (unsigned i = 0; i < 6; ++i) {
    if (store_gate(t, m_.cpi[i], get_bit(word, 26 + i)))
      changed(N_ + m_.cpi[i], t);
    if (store_gate(t, m_.cpi[6 + i], get_bit(word, i)))
      changed(N_ + m_.cpi[6 + i], t);
  }
}

void RelaxWindow::eval(std::uint32_t rank, unsigned t) {
  ++evals_;
  const EvalStep& st = sched_[rank];
  switch (st.kind) {
    case EvalStep::kGate: {
      const Gate& gate = m_.ctrl.gate(st.index);
      auto in = [&](unsigned i) { return read(N_ + gate.fanin[i], rank, t); };
      bool v = false;
      switch (gate.kind) {
        case GateKind::kVar:  // STS var: samples its net
          v = read(fan_.sts_of_gate[st.index], rank, t) & 1;
          break;
        case GateKind::kConst0:
        case GateKind::kDff:  // never scheduled: latched at the edge
          break;
        case GateKind::kConst1:
          v = true;
          break;
        case GateKind::kBuf:
          v = in(0);
          break;
        case GateKind::kNot:
          v = !in(0);
          break;
        case GateKind::kAnd:
          v = true;
          for (unsigned i = 0; i < gate.fanin.size() && v; ++i) v = in(i);
          break;
        case GateKind::kOr:
          for (unsigned i = 0; i < gate.fanin.size() && !v; ++i) v = in(i);
          break;
        case GateKind::kXor:
          v = in(0) != in(1);
          break;
      }
      if (store_gate(t, st.index, v)) changed(N_ + st.index, t);
      break;
    }
    case EvalStep::kCtrlBind: {
      const CtrlBind& cb = m_.ctrl_binds[st.index];
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < cb.bits.size(); ++i)
        if (read(N_ + cb.bits[i], rank, t)) v |= std::uint64_t{1} << i;
      if (store_net(t, cb.dp_net, v)) changed(cb.dp_net, t);
      break;
    }
    case EvalStep::kModule: {
      const Module& mod = m_.dp.module(st.index);
      if (store_net(t, mod.out, eval_module(st.index, mod, rank, t)))
        changed(mod.out, t);
      break;
    }
  }
}

std::uint64_t RelaxWindow::eval_module(ModId id, const Module& mod,
                                       std::uint32_t rank, unsigned t) {
  switch (mod.kind) {
    case ModuleKind::kRfRead: {
      const Module& rfw = m_.dp.module(m_.rf_write_mod);
      const unsigned addr =
          static_cast<unsigned>(read(mod.data_in[0], rank, t) & 31);
      if (addr == 0) return 0;
      if ((read(rfw.ctrl_in[0], rank, t) & 1) &&
          (read(rfw.data_in[0], rank, t) & 31) == addr)  // write-through
        return static_cast<std::uint32_t>(read(rfw.data_in[1], rank, t));
      return rf_[t * 32 + addr];
    }
    case ModuleKind::kMemRead: {
      if (!(read(mod.ctrl_in[0], rank, t) & 1)) return 0;
      return mem_word(
          static_cast<std::uint32_t>(read(mod.data_in[0], rank, t)) & ~3u, t);
    }
    default:
      break;
  }
  const std::uint8_t inj = mod_inj_.empty() ? 0 : mod_inj_[id];
  in_.clear();
  ctrl_.clear();
  for (unsigned i = 0; i < mod.data_in.size(); ++i) {
    NetId src = mod.data_in[i];
    if (inj & kRewired)
      for (const auto& [at, to] : rewire_)
        if (at.first == id && at.second == i) src = to;
    in_.push_back(read(src, rank, t));
  }
  for (NetId n : mod.ctrl_in) ctrl_.push_back(read(n, rank, t));
  if ((inj & kSwapped) && in_.size() >= 2) std::swap(in_[0], in_[1]);
  if (inj & kSubstituted)
    return eval_comb(m_.dp, substitute_.at(id), in_, ctrl_);
  return eval_comb(m_.dp, mod, in_, ctrl_);
}

std::uint32_t RelaxWindow::mem_word(std::uint32_t aligned_addr,
                                    unsigned t) const {
  std::uint32_t v = mem_init_.read_word(aligned_addr);
  for (unsigned s = 0; s < t; ++s) {
    const Store& st = stores_[s];
    if (st.we && st.addr == aligned_addr) v = merge_bytes(v, st.data, st.mask);
  }
  return v;
}

void RelaxWindow::edge(std::uint32_t op, unsigned t) {
  const std::size_t regs = fan_.regs.size();
  if (op < regs) {
    // q' = clr ? 0 : (en ? d : q).
    const Module& mod = m_.dp.module(fan_.regs[op]);
    const bool has_en = mod.tag & 1, has_clr = mod.tag & 2;
    unsigned slot = 0;
    const bool en = has_en ? (net(t, mod.ctrl_in[slot++]) & 1) : true;
    const bool clr = has_clr ? (net(t, mod.ctrl_in[slot]) & 1) : false;
    std::uint64_t q = net(t, mod.out);
    if (clr)
      q = 0;
    else if (en)
      q = net(t, mod.data_in[0]);
    if (store_net(t + 1, mod.out, q)) changed(mod.out, t + 1);
  } else if (op < regs + fan_.dffs.size()) {
    const GateId g = fan_.dffs[op - regs];
    if (store_gate(t + 1, g, gate(t, m_.ctrl.gate(g).fanin[0])))
      changed(N_ + g, t + 1);
  } else if (op == fan_.rf_write_op()) {
    const Module& rfw = m_.dp.module(m_.rf_write_mod);
    RfWrite w;
    if (net(t, rfw.ctrl_in[0]) & 1) {
      w.we = true;
      w.addr = static_cast<unsigned>(net(t, rfw.data_in[0]) & 31);
      w.data = static_cast<std::uint32_t>(net(t, rfw.data_in[1]));
    }
    RfWrite& was = rf_writes_[t];
    if (was.we) rf_cand_ |= 1u << was.addr;
    if (w.we) rf_cand_ |= 1u << w.addr;
    was = w;
  } else {
    const Module& mw = m_.dp.module(m_.mem_write_mod);
    Store s;
    if (net(t, mw.ctrl_in[0]) & 1) {
      s.we = true;
      s.addr = static_cast<std::uint32_t>(net(t, mw.data_in[0])) & ~3u;
      s.data = static_cast<std::uint32_t>(net(t, mw.data_in[1]));
      s.mask = static_cast<unsigned>(net(t, mw.data_in[2]) & 0xF);
    }
    Store& was = stores_[t];
    if (was == s) return;
    // Reads of either address from the next cycle on may move.
    if (was.we) mem_dirty_.emplace_back(was.addr, t + 1);
    if (s.we) mem_dirty_.emplace_back(s.addr, t + 1);
    was = s;
  }
}

void RelaxWindow::edge_rf(unsigned t, std::uint32_t regs) {
  const RfWrite& w = rf_writes_[t];
  const std::uint32_t* now = rf_.data() + std::size_t{t} * 32;
  std::uint32_t* next = rf_.data() + std::size_t{t + 1} * 32;
  std::uint32_t diff = 0;
  for (regs &= ~1u; regs; regs &= regs - 1) {  // R0 is never written
    const unsigned r = static_cast<unsigned>(std::countr_zero(regs));
    const std::uint32_t v = w.we && w.addr == r ? w.data : now[r];
    if (next[r] != v) {
      next[r] = v;
      diff |= 1u << r;
    }
  }
  rf_diff_ = diff;
  rf_cand_ = 0;
}

int RelaxWindow::last_rf_write(unsigned reg, unsigned t) const {
  const Module& rfw = m_.dp.module(m_.rf_write_mod);
  for (int t2 = static_cast<int>(t); t2 >= 0; --t2) {
    const auto c = static_cast<unsigned>(t2);
    const bool we = net(c, rfw.ctrl_in[0]) & 1;
    const unsigned waddr = static_cast<unsigned>(net(c, rfw.data_in[0]) & 31);
    if (we && waddr == reg && reg != 0) return t2;
  }
  return -1;
}

int RelaxWindow::last_mem_write(std::uint32_t aligned_addr, unsigned t,
                                bool* full_word) const {
  const Module& mw = m_.dp.module(m_.mem_write_mod);
  for (int t2 = static_cast<int>(t) - 1; t2 >= 0; --t2) {
    const auto c = static_cast<unsigned>(t2);
    const bool we = net(c, mw.ctrl_in[0]) & 1;
    const std::uint32_t a =
        static_cast<std::uint32_t>(net(c, mw.data_in[0])) & ~3u;
    if (we && a == aligned_addr) {
      if (full_word) *full_word = (net(c, mw.data_in[2]) & 0xF) == 0xF;
      return t2;
    }
  }
  return -1;
}

}  // namespace hltg
