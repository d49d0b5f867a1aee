#include "solver/implication.h"

#include <algorithm>
#include <cassert>

namespace hltg {

namespace {
constexpr L3 controlling(GateKind k) {
  return k == GateKind::kAnd ? L3::F : L3::T;
}
constexpr L3 identity_of(GateKind k) {
  return k == GateKind::kAnd ? L3::T : L3::F;
}
}  // namespace

ImplicationEngine::ImplicationEngine(const GateNet& gn, unsigned cycles)
    : gn_(gn), T_(cycles), n_(static_cast<std::uint32_t>(gn.num_gates())) {
  val_.assign(static_cast<std::size_t>(T_) * n_, L3::X);
  info_.assign(val_.size(), {});
  mark_.assign(val_.size(), 0);

  gates_.reserve(n_);
  std::int32_t slots = 0;
  for (GateId g = 0; g < n_; ++g) {
    const Gate& gate = gn_.gate(g);
    const bool watched =
        (gate.kind == GateKind::kAnd || gate.kind == GateKind::kOr) &&
        gate.fanin.size() >= kWatchMinFanin;
    gates_.push_back({gate.kind, static_cast<std::uint16_t>(gate.fanin.size()),
                      watched ? slots++ : -1,
                      static_cast<std::uint32_t>(fanin_.size())});
    fanin_.insert(fanin_.end(), gate.fanin.begin(), gate.fanin.end());
  }
  watches_.assign(static_cast<std::size_t>(slots) * T_ * 2, 0);
  for (GateId g = 0; g < n_; ++g)
    if (gates_[g].watch_slot >= 0)
      for (unsigned t = 0; t < T_; ++t) {
        watch(g, t, 0) = 0;
        watch(g, t, 1) = 1;
      }

  wake_ofs_.reserve(n_ + 1);
  for (GateId g = 0; g < n_; ++g) {
    wake_ofs_.push_back(static_cast<std::uint32_t>(wake_.size()));
    for (GateId f : gn_.fanouts()[g]) {
      const Gate& fg = gn_.gate(f);
      if (fg.kind == GateKind::kDff) {
        wake_.push_back({f, kDffPin});
        continue;
      }
      for (std::uint32_t i = 0; i < fg.fanin.size(); ++i)
        if (fg.fanin[i] == g) wake_.push_back({f, i});
    }
  }
  wake_ofs_.push_back(static_cast<std::uint32_t>(wake_.size()));

  // Reset fixpoint: constants everywhere, DFF reset values at cycle 0.
  for (unsigned t = 0; t < T_; ++t)
    for (GateId g = 0; g < n_; ++g) {
      const Gate& gate = gn_.gate(g);
      if (gate.kind == GateKind::kConst0)
        assign(node(g, t), L3::F, Reason::kReset, nullptr, 0);
      else if (gate.kind == GateKind::kConst1)
        assign(node(g, t), L3::T, Reason::kReset, nullptr, 0);
      else if (gate.kind == GateKind::kDff && t == 0)
        assign(node(g, t), l3_from_bool(gate.reset_value), Reason::kReset,
               nullptr, 0);
    }
  const bool ok = propagate();
  assert(ok && "reset state is contradictory");
  (void)ok;
  // Everything below base_ is unconditional and survives reset().
  base_ = {trail_.size(), ante_pool_.size()};
  propagations_ = 0;
  initial_watches_ = watches_;
}

void ImplicationEngine::renew() {
  reset();
  watches_ = initial_watches_;
}

void ImplicationEngine::reset() {
  trail_lim_.clear();
  while (trail_.size() > base_.trail) {
    const NodeId nd = trail_.back();
    trail_.pop_back();
    val_[nd] = L3::X;
    info_[nd].reason = Reason::kUnset;
  }
  ante_pool_.resize(base_.pool);
  qhead_ = trail_.size();
  conflict_ = false;
  conflict_nodes_.clear();
  have_pending_ = false;
  propagations_ = 0;
}

void ImplicationEngine::push_level() {
  trail_lim_.push_back({trail_.size(), ante_pool_.size()});
}

void ImplicationEngine::pop_to(unsigned level) {
  if (level >= trail_lim_.size()) {
    conflict_ = false;
    conflict_nodes_.clear();
    have_pending_ = false;
    qhead_ = trail_.size();
    return;
  }
  const LevelMark m = trail_lim_[level];
  trail_lim_.resize(level);
  while (trail_.size() > m.trail) {
    const NodeId nd = trail_.back();
    trail_.pop_back();
    val_[nd] = L3::X;
    info_[nd].reason = Reason::kUnset;
  }
  ante_pool_.resize(m.pool);
  qhead_ = trail_.size();
  conflict_ = false;
  conflict_nodes_.clear();
  have_pending_ = false;
}

void ImplicationEngine::fail(NodeId nd, const NodeId* ante,
                             std::size_t ante_n) {
  conflict_ = true;
  conflict_nodes_.clear();
  conflict_nodes_.push_back(nd);
  conflict_nodes_.insert(conflict_nodes_.end(), ante, ante + ante_n);
}

bool ImplicationEngine::record(NodeId nd, L3 v, Reason r, const NodeId* ante,
                               std::size_t ante_n) {
  if (val_[nd] != L3::X) {
    fail(nd, ante, ante_n);
    return false;
  }
  val_[nd] = v;
  NodeInfo& ni = info_[nd];
  ni.reason = r;
  ni.ante_ofs = static_cast<std::uint32_t>(ante_pool_.size());
  ni.ante_len = static_cast<std::uint16_t>(ante_n);
  if (ante_n == 1)
    ante_pool_.push_back(*ante);
  else
    ante_pool_.insert(ante_pool_.end(), ante, ante + ante_n);
  trail_.push_back(nd);
  if (r != Reason::kRoot && r != Reason::kReset) ++propagations_;
  return true;
}

bool ImplicationEngine::assert_lit(GateId g, unsigned t, bool v,
                                   bool decision) {
  (void)decision;
  const NodeId nd = node(g, t);
  const L3 lv = l3_from_bool(v);
  if (val_[nd] == lv) return true;
  if (val_[nd] != L3::X) {
    pending_root_ = {g, t, v};
    have_pending_ = true;
    fail(nd, nullptr, 0);
    return false;
  }
  return assign(nd, lv, Reason::kRoot, nullptr, 0);
}

bool ImplicationEngine::imply_from_nogood(
    GateId g, unsigned t, bool v, const std::vector<NodeId>& antecedents) {
  return assign(node(g, t), l3_from_bool(v), Reason::kNogood,
                antecedents.data(), antecedents.size());
}

bool ImplicationEngine::deduce_dff(GateId d, unsigned t) {
  if (t == 0) return true;  // reset value, set unconditionally
  const NodeId q = node(d, t);
  const NodeId dn = node(fanin(d)[0], t - 1);
  if (val_[dn] != L3::X && !assign(q, val_[dn], Reason::kForward, &dn, 1))
    return false;
  if (val_[q] != L3::X && !assign(dn, val_[q], Reason::kBackward, &q, 1))
    return false;
  return true;
}

bool ImplicationEngine::deduce_gate(GateId g, unsigned t) {
  const GateRec& gate = gates_[g];
  const GateId* in = fanin(g);
  const NodeId base = node(0, t);
  const NodeId out = base + g;
  switch (gate.kind) {
    case GateKind::kVar:
    case GateKind::kConst0:
    case GateKind::kConst1:
      return true;
    case GateKind::kDff:
      return deduce_dff(g, t);
    case GateKind::kBuf:
    case GateKind::kNot: {
      const bool inv = gate.kind == GateKind::kNot;
      const NodeId a = base + in[0];
      const L3 iv = val_[a];
      const L3 ov = val_[out];
      if (iv != L3::X &&
          !assign(out, inv ? l3_not(iv) : iv, Reason::kForward, &a, 1))
        return false;
      if (ov != L3::X &&
          !assign(a, inv ? l3_not(ov) : ov, Reason::kBackward, &out, 1))
        return false;
      return true;
    }
    case GateKind::kXor: {
      const NodeId a = base + in[0];
      const NodeId b = base + in[1];
      const L3 av = val_[a], bv = val_[b], ov = val_[out];
      if (av != L3::X && bv != L3::X) {
        const NodeId ante[2] = {a, b};
        if (!assign(out, l3_xor(av, bv), Reason::kForward, ante, 2))
          return false;
      }
      if (ov != L3::X && av != L3::X) {
        const NodeId ante[2] = {out, a};
        if (!assign(b, l3_xor(ov, av), Reason::kBackward, ante, 2))
          return false;
      }
      if (ov != L3::X && bv != L3::X) {
        const NodeId ante[2] = {out, b};
        if (!assign(a, l3_xor(ov, bv), Reason::kBackward, ante, 2))
          return false;
      }
      return true;
    }
    case GateKind::kAnd:
    case GateKind::kOr: {
      const L3 c = controlling(gate.kind);
      const L3 id = identity_of(gate.kind);
      const std::uint16_t nin = gate.nfanin;
      unsigned x_count = 0;
      NodeId x_node = kNoNode;
      NodeId c_node = kNoNode;
      for (std::uint16_t i = 0; i < nin; ++i) {
        const NodeId ni = base + in[i];
        const L3 v = val_[ni];
        if (v == L3::X) {
          ++x_count;
          x_node = ni;
        } else if (v == c && c_node == kNoNode) {
          c_node = ni;
        }
      }
      if (c_node != kNoNode) {
        if (!assign(out, c, Reason::kForward, &c_node, 1)) return false;
      } else if (x_count == 0) {
        ante_buf_.clear();
        for (std::uint16_t i = 0; i < nin; ++i)
          ante_buf_.push_back(base + in[i]);
        if (!assign(out, id, Reason::kForward, ante_buf_.data(),
                    ante_buf_.size()))
          return false;
      }
      const L3 ov = val_[out];
      if (ov == id) {
        // AND=1 (OR=0): every fanin must carry the identity value.
        for (std::uint16_t i = 0; i < nin; ++i)
          if (!assign(base + in[i], id, Reason::kBackward, &out, 1))
            return false;
      } else if (ov == c && c_node == kNoNode && x_count == 1) {
        // AND=0 (OR=1) with a single free fanin: it must be controlling.
        ante_buf_.clear();
        ante_buf_.push_back(out);
        for (std::uint16_t i = 0; i < nin; ++i) {
          const NodeId ni = base + in[i];
          if (ni != x_node) ante_buf_.push_back(ni);
        }
        if (!assign(x_node, c, Reason::kBackward, ante_buf_.data(),
                    ante_buf_.size()))
          return false;
      }
      return true;
    }
  }
  return true;
}

bool ImplicationEngine::wake_from_fanin(GateId g, unsigned t, unsigned idx) {
  const GateRec& gate = gates_[g];
  if (gate.watch_slot < 0) return deduce_gate(g, t);
  const GateId* in = fanin(g);
  const NodeId base = node(0, t);
  const L3 c = controlling(gate.kind);
  const L3 id = identity_of(gate.kind);
  const NodeId cn = base + in[idx];
  const L3 v = val_[cn];
  if (v == c) {
    // A controlling fanin forces the output immediately.
    return assign(base + g, c, Reason::kForward, &cn, 1);
  }
  if (v != id) return true;  // fanin went back to X (cannot happen here)
  std::uint16_t& w0 = watch(g, t, 0);
  std::uint16_t& w1 = watch(g, t, 1);
  if (idx != w0 && idx != w1) return true;  // unwatched identity: no-op
  std::uint16_t& moved = idx == w0 ? w0 : w1;
  const std::uint16_t other = idx == w0 ? w1 : w0;
  for (std::uint16_t j = 0; j < gate.nfanin; ++j) {
    if (j == other || j == idx) continue;
    if (val_[base + in[j]] != id) {
      moved = j;  // keep watching a not-yet-identity fanin
      return true;
    }
  }
  // Watch exhausted: at most one free fanin remains - full deduction.
  return deduce_gate(g, t);
}

bool ImplicationEngine::propagate() {
  if (conflict_) return false;
  while (qhead_ < trail_.size()) {
    const NodeId nd = trail_[qhead_++];
    const unsigned t = cycle_of(nd);
    const GateId g = nd - t * n_;
    // Own-gate deduction: output events run the backward rules; DFF outputs
    // couple to the previous cycle's D input. A value the gate's own
    // forward rule produced is skipped: its fanins already imply it, so
    // the rules can only re-derive what holds - no assignment, no conflict.
    if (info_[nd].reason != Reason::kForward && !deduce_gate(g, t))
      return false;
    // Fanout wakeups: forward rules (watched for wide AND/OR), and the
    // next cycle's output for DFF consumers.
    for (const Wake w : wakes(g)) {
      if (w.pin == kDffPin) {
        if (t + 1 < T_ && !deduce_dff(w.gate, t + 1)) return false;
      } else if (!wake_from_fanin(w.gate, t, w.pin)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<Lit> ImplicationEngine::conflict_cut(std::size_t limit) const {
  std::vector<Lit> cut;
  if (have_pending_) cut.push_back(pending_root_);
  std::vector<NodeId>& stack = cut_stack_;
  std::vector<NodeId>& marked = cut_marked_;
  stack.assign(conflict_nodes_.begin(), conflict_nodes_.end());
  marked.clear();
  // Every literal pushed is distinct - one per marked root node, plus the
  // clashing root, whose value its node contradicts - so the cut's size
  // only grows, and once it passes `limit` the finished cut would too.
  while (!stack.empty() && cut.size() <= limit) {
    const NodeId nd = stack.back();
    stack.pop_back();
    if (mark_[nd]) continue;
    mark_[nd] = 1;
    marked.push_back(nd);
    const NodeInfo& ni = info_[nd];
    switch (ni.reason) {
      case Reason::kUnset:
      case Reason::kReset:
        break;  // unconditional (or the clashing unassigned node itself)
      case Reason::kRoot:
        cut.push_back({gate_of(nd), cycle_of(nd), val_[nd] == L3::T});
        break;
      case Reason::kForward:
      case Reason::kBackward:
      case Reason::kNogood:
        for (std::uint16_t i = 0; i < ni.ante_len; ++i)
          stack.push_back(ante_pool_[ni.ante_ofs + i]);
        break;
    }
  }
  for (NodeId nd : marked) mark_[nd] = 0;
  if (cut.size() > limit) return {};
  std::sort(cut.begin(), cut.end());
  cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
  return cut;
}

}  // namespace hltg
