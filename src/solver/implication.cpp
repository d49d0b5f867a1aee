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

  watch_slot_.assign(n_, -1);
  int slots = 0;
  for (GateId g = 0; g < n_; ++g) {
    const Gate& gate = gn_.gate(g);
    if ((gate.kind == GateKind::kAnd || gate.kind == GateKind::kOr) &&
        gate.fanin.size() >= kWatchMinFanin)
      watch_slot_[g] = slots++;
  }
  watches_.assign(static_cast<std::size_t>(slots) * T_ * 2, 0);
  for (GateId g = 0; g < n_; ++g)
    if (watch_slot_[g] >= 0)
      for (unsigned t = 0; t < T_; ++t) {
        watch(g, t, 0) = 0;
        watch(g, t, 1) = 1;
      }

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

bool ImplicationEngine::assign(NodeId nd, L3 v, Reason r, const NodeId* ante,
                               std::size_t ante_n) {
  if (val_[nd] == v) return true;
  if (val_[nd] != L3::X) {
    fail(nd, ante, ante_n);
    return false;
  }
  val_[nd] = v;
  NodeInfo& ni = info_[nd];
  ni.reason = r;
  ni.ante_ofs = static_cast<std::uint32_t>(ante_pool_.size());
  ni.ante_len = static_cast<std::uint16_t>(ante_n);
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
  const NodeId dn = node(gn_.gate(d).fanin[0], t - 1);
  if (val_[dn] != L3::X && !assign(q, val_[dn], Reason::kForward, &dn, 1))
    return false;
  if (val_[q] != L3::X && !assign(dn, val_[q], Reason::kBackward, &q, 1))
    return false;
  return true;
}

bool ImplicationEngine::deduce_gate(GateId g, unsigned t) {
  const Gate& gate = gn_.gate(g);
  const NodeId out = node(g, t);
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
      const NodeId in = node(gate.fanin[0], t);
      const L3 iv = val_[in];
      const L3 ov = val_[out];
      if (iv != L3::X &&
          !assign(out, inv ? l3_not(iv) : iv, Reason::kForward, &in, 1))
        return false;
      if (ov != L3::X &&
          !assign(in, inv ? l3_not(ov) : ov, Reason::kBackward, &out, 1))
        return false;
      return true;
    }
    case GateKind::kXor: {
      const NodeId a = node(gate.fanin[0], t);
      const NodeId b = node(gate.fanin[1], t);
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
      unsigned x_count = 0;
      NodeId x_node = kNoNode;
      NodeId c_node = kNoNode;
      for (GateId in : gate.fanin) {
        const NodeId ni = node(in, t);
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
        std::vector<NodeId> ante;
        ante.reserve(gate.fanin.size());
        for (GateId in : gate.fanin) ante.push_back(node(in, t));
        if (!assign(out, id, Reason::kForward, ante.data(), ante.size()))
          return false;
      }
      const L3 ov = val_[out];
      if (ov == id) {
        // AND=1 (OR=0): every fanin must carry the identity value.
        for (GateId in : gate.fanin) {
          const NodeId ni = node(in, t);
          if (!assign(ni, id, Reason::kBackward, &out, 1)) return false;
        }
      } else if (ov == c && c_node == kNoNode && x_count == 1) {
        // AND=0 (OR=1) with a single free fanin: it must be controlling.
        std::vector<NodeId> ante;
        ante.reserve(gate.fanin.size());
        ante.push_back(out);
        for (GateId in : gate.fanin) {
          const NodeId ni = node(in, t);
          if (ni != x_node) ante.push_back(ni);
        }
        if (!assign(x_node, c, Reason::kBackward, ante.data(), ante.size()))
          return false;
      }
      return true;
    }
  }
  return true;
}

bool ImplicationEngine::wake_from_fanin(GateId g, unsigned t, unsigned idx) {
  const Gate& gate = gn_.gate(g);
  if (watch_slot_[g] < 0) return deduce_gate(g, t);
  const L3 c = controlling(gate.kind);
  const L3 id = identity_of(gate.kind);
  const L3 v = val_[node(gate.fanin[idx], t)];
  if (v == c) {
    // A controlling fanin forces the output immediately.
    const NodeId cn = node(gate.fanin[idx], t);
    return assign(node(g, t), c, Reason::kForward, &cn, 1);
  }
  if (v != id) return true;  // fanin went back to X (cannot happen here)
  std::uint16_t& w0 = watch(g, t, 0);
  std::uint16_t& w1 = watch(g, t, 1);
  if (idx != w0 && idx != w1) return true;  // unwatched identity: no-op
  std::uint16_t& moved = idx == w0 ? w0 : w1;
  const std::uint16_t other = idx == w0 ? w1 : w0;
  for (std::uint16_t j = 0; j < gate.fanin.size(); ++j) {
    if (j == other || j == idx) continue;
    if (val_[node(gate.fanin[j], t)] != id) {
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
    const GateId g = gate_of(nd);
    const unsigned t = cycle_of(nd);
    const Gate& gate = gn_.gate(g);
    // Own-gate deduction: output events run the backward rules; DFF outputs
    // couple to the previous cycle's D input.
    if (gate.kind == GateKind::kDff) {
      if (!deduce_dff(g, t)) return false;
    } else if (gate.kind != GateKind::kVar &&
               gate.kind != GateKind::kConst0 &&
               gate.kind != GateKind::kConst1) {
      if (!deduce_gate(g, t)) return false;
    }
    // Fanout wakeups: forward rules (watched for wide AND/OR), and the
    // next cycle's output for DFF consumers.
    for (GateId f : gn_.fanouts()[g]) {
      const Gate& fg = gn_.gate(f);
      if (fg.kind == GateKind::kDff) {
        if (t + 1 < T_ && !deduce_dff(f, t + 1)) return false;
        continue;
      }
      for (unsigned i = 0; i < fg.fanin.size(); ++i)
        if (fg.fanin[i] == g && !wake_from_fanin(f, t, i)) return false;
    }
  }
  return true;
}

std::vector<Lit> ImplicationEngine::conflict_cut() const {
  std::vector<Lit> cut;
  if (have_pending_) cut.push_back(pending_root_);
  std::vector<NodeId> stack = conflict_nodes_;
  std::vector<NodeId> marked;
  while (!stack.empty()) {
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
  std::sort(cut.begin(), cut.end());
  cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
  return cut;
}

}  // namespace hltg
