#include "gatenet/gatenet.h"

#include <stdexcept>

namespace hltg {

std::string_view to_string(GateKind k) {
  switch (k) {
    case GateKind::kAnd: return "AND";
    case GateKind::kOr: return "OR";
    case GateKind::kNot: return "NOT";
    case GateKind::kXor: return "XOR";
    case GateKind::kBuf: return "BUF";
    case GateKind::kConst0: return "CONST0";
    case GateKind::kConst1: return "CONST1";
    case GateKind::kDff: return "DFF";
    case GateKind::kVar: return "VAR";
  }
  return "?";
}

std::string_view to_string(SigRole r) {
  switch (r) {
    case SigRole::kInternal: return "int";
    case SigRole::kCPI: return "CPI";
    case SigRole::kSts: return "STS";
    case SigRole::kCtrl: return "CTRL";
    case SigRole::kCPO: return "CPO";
  }
  return "?";
}

GateId GateNet::add_gate(Gate g) {
  gates_.push_back(std::move(g));
  invalidate();
  return static_cast<GateId>(gates_.size() - 1);
}

std::vector<GateId> GateNet::gates_of_kind(GateKind k) const {
  std::vector<GateId> out;
  for (GateId i = 0; i < gates_.size(); ++i)
    if (gates_[i].kind == k) out.push_back(i);
  return out;
}

std::vector<GateId> GateNet::gates_with_role(SigRole r) const {
  std::vector<GateId> out;
  for (GateId i = 0; i < gates_.size(); ++i)
    if (gates_[i].role == r) out.push_back(i);
  return out;
}

std::vector<GateId> GateNet::tertiary_gates() const {
  std::vector<GateId> out;
  for (GateId i = 0; i < gates_.size(); ++i)
    if (gates_[i].tertiary) out.push_back(i);
  return out;
}

const std::vector<GateId>& GateNet::dffs() const {
  // Lazy cache: an empty list is recomputed (cheap no-op for DFF-free nets).
  if (dffs_.empty()) dffs_ = gates_of_kind(GateKind::kDff);
  return dffs_;
}

const std::vector<std::vector<GateId>>& GateNet::fanouts() const {
  if (!fanout_.empty() || gates_.empty()) return fanout_;
  fanout_.assign(gates_.size(), {});
  for (GateId g = 0; g < gates_.size(); ++g)
    for (GateId in : gates_[g].fanin) fanout_[in].push_back(g);
  return fanout_;
}

const std::vector<GateId>& GateNet::topo_order() const {
  if (!topo_.empty() || gates_.empty()) return topo_;
  // Kahn's algorithm over combinational edges. Sources (DFF outputs, free
  // variables, constants) have no counted in-edges; a DFF's D input is
  // consumed at the clock edge, so DFFs impose no ordering constraint.
  auto is_source = [&](GateId g) {
    const GateKind k = gates_[g].kind;
    return k == GateKind::kDff || k == GateKind::kVar ||
           k == GateKind::kConst0 || k == GateKind::kConst1;
  };
  std::vector<unsigned> indeg(gates_.size(), 0);
  for (GateId g = 0; g < gates_.size(); ++g) {
    if (gates_[g].kind == GateKind::kDff) continue;
    for (GateId in : gates_[g].fanin)
      if (!is_source(in)) ++indeg[g];
  }
  std::vector<GateId> q;
  for (GateId g = 0; g < gates_.size(); ++g)
    if (indeg[g] == 0) q.push_back(g);
  for (std::size_t qi = 0; qi < q.size(); ++qi) {
    const GateId g = q[qi];
    topo_.push_back(g);
    if (is_source(g)) continue;  // out-edges of sources were never counted
    for (GateId s : fanouts()[g]) {
      if (gates_[s].kind == GateKind::kDff) continue;
      if (--indeg[s] == 0) q.push_back(s);
    }
  }
  if (topo_.size() != gates_.size())
    throw std::logic_error("combinational cycle in controller gate network");
  return topo_;
}

const PackedLayout& GateNet::packed() const {
  if (!packed_.ops.empty() || !packed_.dffs.empty() || gates_.empty())
    return packed_;
  packed_.op_of.assign(gates_.size(), PackedLayout::kNoOp);
  for (GateId g : topo_order()) {
    const Gate& gate = gates_[g];
    if (gate.kind == GateKind::kVar || gate.kind == GateKind::kDff) continue;
    packed_.op_of[g] = static_cast<std::uint32_t>(packed_.ops.size());
    PackedLayout::Op op;
    op.gate = g;
    op.fanin_at = static_cast<std::uint32_t>(packed_.fanin.size());
    op.nfanin = static_cast<std::uint16_t>(gate.fanin.size());
    op.kind = gate.kind;
    packed_.ops.push_back(op);
    packed_.fanin.insert(packed_.fanin.end(), gate.fanin.begin(),
                         gate.fanin.end());
  }
  for (GateId g : dffs()) {
    packed_.dffs.push_back(g);
    packed_.dff_d.push_back(gates_[g].fanin[0]);
    packed_.dff_reset.push_back(gates_[g].reset_value ? 1 : 0);
  }
  return packed_;
}

GateId GateNet::find(const std::string& name) const {
  for (GateId i = 0; i < gates_.size(); ++i)
    if (gates_[i].name == name) return i;
  return kNoGate;
}

std::vector<int> GateNet::dff_count_by_stage() const {
  std::vector<int> out(kNumStages + 1, 0);
  for (const Gate& g : gates_)
    if (g.kind == GateKind::kDff) ++out[static_cast<int>(g.stage)];
  return out;
}

std::vector<int> GateNet::tertiary_count_by_stage() const {
  std::vector<int> out(kNumStages + 1, 0);
  for (const Gate& g : gates_)
    if (g.tertiary) ++out[static_cast<int>(g.stage)];
  return out;
}

}  // namespace hltg
