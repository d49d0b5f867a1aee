#include "core/dprelax.h"

#include "util/word.h"

namespace hltg {

bool needs_erroneous_window(const std::vector<RelaxConstraint>& constraints) {
  for (const RelaxConstraint& c : constraints)
    if (c.kind == RelaxKind::kSiteDiffers) return true;
  return false;
}

DpRelax::DpRelax(const DlxModel& m, DpRelaxConfig cfg)
    : m_(m), cfg_(cfg), rng_(cfg.seed) {}

bool DpRelax::violated(const RelaxConstraint& c, const RelaxWindow& good,
                       const RelaxWindow* err) const {
  if (c.cycle >= good.cycles()) return true;
  const unsigned w = m_.dp.net(c.net).width;
  const std::uint64_t mask = c.mask & mask_bits(w);
  switch (c.kind) {
    case RelaxKind::kGoodEquals:
      return (good.net(c.cycle, c.net) & mask) != (c.value & mask);
    case RelaxKind::kGoodNotEquals:
      return (good.net(c.cycle, c.net) & mask) == (c.value & mask);
    case RelaxKind::kGoodNetsDiffer:
      return good.net(c.cycle, c.net) == good.net(c.cycle, c.net2);
    case RelaxKind::kSiteDiffers:
      return err == nullptr ||
             good.net(c.cycle, c.net) == err->net(c.cycle, c.net);
  }
  return true;
}

bool DpRelax::set_instr_word(RelaxVars& vars, const RelaxWindow& win,
                             unsigned cycle, std::uint64_t need) {
  const std::uint32_t pc =
      static_cast<std::uint32_t>(win.net(cycle, m_.sig.pc_q));
  if (pc % 4 != 0) return false;
  const std::size_t idx = pc / 4;
  if (idx >= 4 * win.cycles()) return false;  // runaway PC: give up
  vars.ensure_size(idx + 1);
  const std::uint32_t fixed = vars.imem_fixed[idx];
  const std::uint32_t want = static_cast<std::uint32_t>(need);
  if ((want & fixed) != (vars.imem[idx] & fixed))
    return false;  // collides with CTRLJUST's CPI decisions
  vars.imem[idx] = (vars.imem[idx] & fixed) | (want & ~fixed);
  return true;
}

bool DpRelax::backsolve(RelaxVars& vars, const RelaxWindow& win, NetId net,
                        unsigned cycle, std::uint64_t need, unsigned depth) {
  if (depth > cfg_.max_depth) return false;
  const Net& n = m_.dp.net(net);
  const unsigned w = n.width;
  need = trunc(need, w);
  if (win.net(cycle, net) == need) return true;  // already holds

  if (net == m_.sig.instr) return set_instr_word(vars, win, cycle, need);
  if (n.role == NetRole::kCtrl) return false;  // controller-owned

  const ModId di = n.driver;
  if (di == kNoMod) return false;
  const Module& mod = m_.dp.module(di);
  auto in_val = [&](unsigned i) { return win.net(cycle, mod.data_in[i]); };
  auto ctrl_val = [&](unsigned i) { return win.net(cycle, mod.ctrl_in[i]); };
  auto go = [&](NetId to, unsigned t, std::uint64_t v) {
    return backsolve(vars, win, to, t, v, depth + 1);
  };
  // Choose which of two inputs to adjust; bias keeps some exploration.
  auto pick2 = [&] { return rng_.chance(3, 4) ? 0u : 1u; };

  switch (mod.kind) {
    case ModuleKind::kConst:
      return trunc(mod.param, w) == need;
    case ModuleKind::kInput:
      return false;  // only the instruction word input is adjustable
    case ModuleKind::kReg: {
      if (cycle == 0) return trunc(mod.param, w) == need;
      const bool has_en = mod.tag & 1, has_clr = mod.tag & 2;
      unsigned slot = 0;
      const bool en =
          has_en ? (win.net(cycle - 1, mod.ctrl_in[slot++]) & 1) : true;
      const bool clr =
          has_clr ? (win.net(cycle - 1, mod.ctrl_in[slot]) & 1) : false;
      if (clr) return need == 0;
      if (!en) return go(mod.out, cycle - 1, need);
      return go(mod.data_in[0], cycle - 1, need);
    }
    case ModuleKind::kRfRead: {
      const unsigned reg = static_cast<unsigned>(in_val(0) & 31);
      if (reg == 0) {
        if (need == 0) return true;
        // R0 is hardwired; point the specifier at a real register instead
        // (the next sweep will then set that register's value). A rotating
        // counter keeps independently retargeted reads on *different*
        // registers - two operands sharing one register oscillate forever
        // on constraints like a + b == k (the convergence hazard Sec. V.B
        // warns about).
        const unsigned r = 1 + (next_reg_++ % 31);
        return go(mod.data_in[0], cycle, r);
      }
      const int tw = win.last_rf_write(reg, cycle);
      if (tw < 0) {
        vars.rf_init[reg] = static_cast<std::uint32_t>(need);
        return true;
      }
      const Module& rfw = m_.dp.module(m_.rf_write_mod);
      if (go(rfw.data_in[1], static_cast<unsigned>(tw), need)) return true;
      // The feeding write is not adjustable: retarget the read elsewhere.
      const unsigned r = 1 + (next_reg_++ % 31);
      return go(mod.data_in[0], cycle, r);
    }
    case ModuleKind::kMemRead: {
      if (!(ctrl_val(0) & 1)) return need == 0;
      const std::uint32_t addr =
          static_cast<std::uint32_t>(in_val(0)) & ~3u;
      bool full = false;
      const int tw = win.last_mem_write(addr, cycle, &full);
      if (tw < 0) {
        vars.mem_init[addr] = static_cast<std::uint32_t>(need);
        return true;
      }
      if (!full) return false;  // partial store: not invertible here
      const Module& mw = m_.dp.module(m_.mem_write_mod);
      return go(mw.data_in[1], static_cast<unsigned>(tw), need);
    }
    case ModuleKind::kMux: {
      std::uint64_t sel = ctrl_val(0);
      if (sel >= mod.data_in.size()) sel = mod.data_in.size() - 1;
      if (go(mod.data_in[static_cast<unsigned>(sel)], cycle, need))
        return true;
      // The selected input cannot be justified. If the select itself is
      // datapath-computed (byte-lane decodes etc.), retarget it to an input
      // that already carries - or can carry - the required value.
      const NetId sel_net = mod.ctrl_in[0];
      if (m_.dp.net(sel_net).role == NetRole::kCtrl) return false;
      for (unsigned i = 0; i < mod.data_in.size(); ++i) {
        if (i == sel) continue;
        if (in_val(i) == need && go(sel_net, cycle, i)) return true;
      }
      for (unsigned i = 0; i < mod.data_in.size(); ++i) {
        if (i == sel || in_val(i) == need) continue;
        if (go(mod.data_in[i], cycle, need) && go(sel_net, cycle, i))
          return true;
      }
      return false;
    }
    case ModuleKind::kAdd: {
      const unsigned i = pick2();
      if (go(mod.data_in[i], cycle, need - in_val(1 - i))) return true;
      return go(mod.data_in[1 - i], cycle, need - in_val(i));
    }
    case ModuleKind::kSub: {
      const unsigned i = pick2();
      if (i == 0 ? go(mod.data_in[0], cycle, need + in_val(1))
                 : go(mod.data_in[1], cycle, in_val(0) - need))
        return true;
      return i == 0 ? go(mod.data_in[1], cycle, in_val(0) - need)
                    : go(mod.data_in[0], cycle, need + in_val(1));
    }
    case ModuleKind::kXorW: {
      const unsigned i = pick2();
      if (go(mod.data_in[i], cycle, need ^ in_val(1 - i))) return true;
      return go(mod.data_in[1 - i], cycle, need ^ in_val(i));
    }
    case ModuleKind::kXnorW: {
      const unsigned i = pick2();
      if (go(mod.data_in[i], cycle, trunc(~need, w) ^ in_val(1 - i)))
        return true;
      return go(mod.data_in[1 - i], cycle, trunc(~need, w) ^ in_val(i));
    }
    case ModuleKind::kNotW:
      return go(mod.data_in[0], cycle, trunc(~need, w));
    case ModuleKind::kAndW: {
      const unsigned i = pick2();
      const std::uint64_t other = in_val(1 - i);
      if (need & ~other) {  // the other operand masks required bits
        if (go(mod.data_in[1 - i], cycle, other | need)) return true;
        return go(mod.data_in[i], cycle, in_val(i) | need);
      }
      if (go(mod.data_in[i], cycle, need)) return true;
      return go(mod.data_in[1 - i], cycle, need);
    }
    case ModuleKind::kNandW: {
      const std::uint64_t tgt = trunc(~need, w);
      const unsigned i = pick2();
      const std::uint64_t other = in_val(1 - i);
      if (tgt & ~other) return go(mod.data_in[1 - i], cycle, other | tgt);
      return go(mod.data_in[i], cycle, tgt);
    }
    case ModuleKind::kOrW: {
      const unsigned i = pick2();
      const std::uint64_t other = in_val(1 - i);
      if (other & ~need) {  // other operand sets bits that must be 0
        if (go(mod.data_in[1 - i], cycle, other & need)) return true;
        return go(mod.data_in[i], cycle, in_val(i) & need);
      }
      if (go(mod.data_in[i], cycle, need)) return true;
      return go(mod.data_in[1 - i], cycle, need);
    }
    case ModuleKind::kNorW: {
      const std::uint64_t tgt = trunc(~need, w);
      const unsigned i = pick2();
      const std::uint64_t other = in_val(1 - i);
      if (other & ~tgt) return go(mod.data_in[1 - i], cycle, other & tgt);
      return go(mod.data_in[i], cycle, tgt);
    }
    case ModuleKind::kShl: {
      const std::uint64_t amt = in_val(1) & 63;
      if (amt >= w) return need == 0;
      const std::uint64_t a = need >> amt;
      if (trunc(a << amt, w) != need)
        return go(mod.data_in[1], cycle, 0);  // try a lossless amount
      return go(mod.data_in[0], cycle, a);
    }
    case ModuleKind::kShrL: {
      const std::uint64_t amt = in_val(1) & 63;
      if (amt >= w) return need == 0;
      const std::uint64_t a = trunc(need << amt, w);
      if ((a >> amt) != need) return go(mod.data_in[1], cycle, 0);
      return go(mod.data_in[0], cycle, a);
    }
    case ModuleKind::kShrA: {
      const std::uint64_t amt = in_val(1) & 63;
      const std::uint64_t a = trunc(need << amt, w);
      if (trunc(static_cast<std::uint64_t>(as_signed(a, w) >>
                                           static_cast<int>(amt >= w ? w - 1
                                                                     : amt)),
                w) != need)
        return go(mod.data_in[1], cycle, 0);
      return go(mod.data_in[0], cycle, a);
    }
    case ModuleKind::kSlice: {
      const unsigned lo = static_cast<unsigned>(mod.param);
      const std::uint64_t a = set_field(in_val(0), lo, w, need);
      return go(mod.data_in[0], cycle, a);
    }
    case ModuleKind::kConcat: {
      unsigned lo = 0;
      for (unsigned i = 0; i < mod.data_in.size(); ++i) {
        const unsigned wi = m_.dp.net(mod.data_in[i]).width;
        const std::uint64_t part = get_field(need, lo, wi);
        if (part != in_val(i) && !go(mod.data_in[i], cycle, part))
          return false;
        lo += wi;
      }
      return true;
    }
    case ModuleKind::kZext: {
      const unsigned wi = m_.dp.net(mod.data_in[0]).width;
      if (need != trunc(need, wi)) return false;
      return go(mod.data_in[0], cycle, need);
    }
    case ModuleKind::kSext: {
      const unsigned wi = m_.dp.net(mod.data_in[0]).width;
      if (trunc(sext(trunc(need, wi), wi), w) != need) return false;
      return go(mod.data_in[0], cycle, trunc(need, wi));
    }
    case ModuleKind::kEq:
    case ModuleKind::kNe: {
      const bool want_eq = (mod.kind == ModuleKind::kEq) == (need & 1);
      const unsigned i = pick2();
      const unsigned wi = m_.dp.net(mod.data_in[i]).width;
      const std::uint64_t other = in_val(1 - i);
      if (go(mod.data_in[i], cycle, want_eq ? other : trunc(other + 1, wi)))
        return true;
      const std::uint64_t self = in_val(i);
      return go(mod.data_in[1 - i], cycle,
                want_eq ? self : trunc(self + 1, wi));
    }
    case ModuleKind::kLt:
    case ModuleKind::kLtU:
    case ModuleKind::kLe:
    case ModuleKind::kLeU: {
      const unsigned wi = m_.dp.net(mod.data_in[0]).width;
      const bool strict =
          mod.kind == ModuleKind::kLt || mod.kind == ModuleKind::kLtU;
      const bool is_signed =
          mod.kind == ModuleKind::kLt || mod.kind == ModuleKind::kLe;
      const std::uint64_t lo =
          is_signed ? (std::uint64_t{1} << (wi - 1)) : 0;      // domain min
      const std::uint64_t hi = trunc(lo - 1, wi);              // domain max
      const std::uint64_t b = in_val(1);
      // Adjust operand a to sit on the wanted side of b, unless b sits at a
      // domain boundary that makes that side empty - then move b first.
      if (need & 1) {  // want a < b (or a <= b)
        if (strict && b == lo) return go(mod.data_in[1], cycle, hi);
        return go(mod.data_in[0], cycle, strict ? trunc(b - 1, wi) : b);
      }
      // want !(a < b): a >= b (or a > b)
      if (!strict && b == hi) return go(mod.data_in[1], cycle, lo);
      if (go(mod.data_in[0], cycle, strict ? b : trunc(b + 1, wi)))
        return true;
      // Fall back to moving the right operand below/at a.
      const std::uint64_t lhs = in_val(0);
      if (strict) return go(mod.data_in[1], cycle, lhs);
      if (lhs == lo) return go(mod.data_in[0], cycle, hi);
      return go(mod.data_in[1], cycle, trunc(lhs - 1, wi));
    }
    case ModuleKind::kAddOvf:
    case ModuleKind::kSubOvf: {
      const unsigned wi = m_.dp.net(mod.data_in[0]).width;
      const std::uint64_t top = std::uint64_t{1} << (wi - 1);
      if (need & 1) {
        // max +/- 1 overflows in both modes once b == 1.
        if (!go(mod.data_in[0], cycle,
                mod.kind == ModuleKind::kAddOvf ? top - 1 : top))
          return false;
        return go(mod.data_in[1], cycle, 1);
      }
      return go(mod.data_in[1], cycle, 0);  // +/- 0 never overflows
    }
    default:
      return false;  // sinks / kOutput have no output to justify
  }
}

bool DpRelax::perturb_site(RelaxVars& vars, const RelaxWindow& win,
                           NetId site, unsigned cycle) {
  const ModId di = m_.dp.net(site).driver;
  if (di == kNoMod) return false;
  const Module& mod = m_.dp.module(di);
  if (mod.data_in.empty()) return false;
  const unsigned i = static_cast<unsigned>(rng_.below(mod.data_in.size()));
  const unsigned wi = m_.dp.net(mod.data_in[i]).width;
  // Random nonzero nudge: for most module pairs (add/sub, shifts, compare
  // directions) differing operands force differing outputs.
  const std::uint64_t v = trunc(win.net(cycle, mod.data_in[i]) +
                                    1 + rng_.word(wi >= 4 ? wi - 1 : wi),
                                wi);
  return backsolve(vars, win, mod.data_in[i], cycle, v, 0);
}

DpRelaxResult DpRelax::solve(RelaxVars& vars,
                             const std::vector<RelaxConstraint>& constraints,
                             RelaxWindow& good, RelaxWindow* err,
                             Budget* budget) {
  DpRelaxResult res;
  // The windows may hold any earlier solve's variables; the solve is
  // charged only the steps its own updates evaluate.
  auto evals = [&] { return good.evals() + (err ? err->evals() : 0); };
  const std::uint64_t evals_before = evals();
  auto done = [&](TgStatus status) {
    res.status = status;
    res.evals = evals() - evals_before;
    return res;
  };

  for (unsigned iter = 0; iter < cfg_.max_iterations; ++iter) {
    if (budget) {
      const AbortReason why = budget->exhausted();
      if (why != AbortReason::kNone) {
        res.abort = why;
        res.note = std::string("budget: ") + std::string(to_string(why));
        return done(TgStatus::kFailure);
      }
    }
    res.iterations = iter + 1;
    good.update(vars);
    if (err) {
      err->update(vars);
      ++res.pair_captures;
    }

    // Find all violated constraints; fix one (rotating start so one stubborn
    // constraint cannot starve the others).
    std::vector<const RelaxConstraint*> bad;
    for (const auto& c : constraints)
      if (violated(c, good, err)) bad.push_back(&c);
    if (bad.empty()) return done(TgStatus::kSuccess);
    const RelaxConstraint& c = *bad[iter % bad.size()];
    bool adjusted = false;
    const unsigned w = m_.dp.net(c.net).width;
    const std::uint64_t mask = c.mask & mask_bits(w);
    switch (c.kind) {
      case RelaxKind::kSiteDiffers:
        adjusted = perturb_site(vars, good, c.net, c.cycle);
        break;
      case RelaxKind::kGoodEquals: {
        const std::uint64_t need =
            (good.net(c.cycle, c.net) & ~mask) | (c.value & mask);
        adjusted = backsolve(vars, good, c.net, c.cycle, need, 0);
        break;
      }
      case RelaxKind::kGoodNotEquals: {
        // Nudge the masked bits to any other value.
        const std::uint64_t cur = good.net(c.cycle, c.net);
        const std::uint64_t need =
            (cur & ~mask) | ((c.value + 1 + rng_.word(w > 1 ? w - 1 : 1)) & mask);
        adjusted = backsolve(vars, good, c.net, c.cycle,
                             need != cur ? need : (cur ^ mask), 0);
        break;
      }
      case RelaxKind::kGoodNetsDiffer: {
        const std::uint64_t other = good.net(c.cycle, c.net2);
        const std::uint64_t need =
            trunc(other + 1 + rng_.word(w > 1 ? w - 1 : 1), w);
        adjusted = backsolve(vars, good, c.net, c.cycle, need, 0) ||
                   backsolve(vars, good, c.net2, c.cycle,
                             trunc(good.net(c.cycle, c.net) + 1, w), 0);
        break;
      }
    }
    if (!adjusted) {
      res.note = "backsolve failed: " + m_.dp.net(c.net).name + "@" +
                 std::to_string(c.cycle) + " (" + c.why + ")";
      return done(TgStatus::kConflict);
    }
  }
  res.note = "iteration budget exhausted";
  return done(TgStatus::kFailure);
}

}  // namespace hltg
