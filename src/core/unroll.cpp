#include "core/unroll.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "gatenet/evalw_impl.h"

namespace hltg {

ControllerWindow::ControllerWindow(const GateNet& gn, unsigned cycles)
    : gn_(gn),
      pl_(gn.packed()),
      fanouts_(gn.fanouts()),
      T_(cycles),
      words_((cycles + 63) / 64),
      qwords_(static_cast<unsigned>((pl_.ops.size() + 63) / 64)),
      vars_(gn.gates_of_kind(GateKind::kVar)) {
  const std::size_t n = gn_.num_gates() * std::size_t{words_};
  ones_.assign(n, 0);
  zeros_.assign(n, 0);
  aones_.assign(n, 0);
  azeros_.assign(n, 0);
  queue_.assign(std::size_t{T_} * qwords_, 0);
  // The one full sweep: DFFs from the reset state or the previous cycle's
  // D input, variables X, every combinational gate in topological order.
  for (unsigned t = 0; t < T_; ++t) {
    for (std::size_t i = 0; i < pl_.dffs.size(); ++i) {
      const bool reset = pl_.dff_reset[i] != 0;
      set(pl_.dffs[i], t, t ? value(pl_.dff_d[i], t - 1) : l3_from_bool(reset));
    }
    for (std::uint32_t r = 0; r < pl_.ops.size(); ++r) eval(r, t);
  }
}

void ControllerWindow::assign(GateId g, unsigned cycle, L3 v) {
  assert(gn_.gate(g).kind == GateKind::kVar);
  assert(cycle < T_);
  if (assignment(g, cycle) == v) return;
  const std::size_t i = at(g, cycle);
  const std::uint64_t b = bit(cycle);
  aones_[i] = v == L3::T ? aones_[i] | b : aones_[i] & ~b;
  azeros_[i] = v == L3::F ? azeros_[i] | b : azeros_[i] & ~b;
  pending_.emplace_back(g, cycle);
}

std::vector<std::tuple<GateId, unsigned, bool>> ControllerWindow::assignments()
    const {
  std::vector<std::tuple<GateId, unsigned, bool>> out;
  for (unsigned t = 0; t < T_; ++t)
    for (GateId g : vars_) {
      const L3 a = assignment(g, t);
      if (a != L3::X) out.emplace_back(g, t, a == L3::T);
    }
  return out;
}

bool ControllerWindow::store(GateId g, unsigned cycle, std::uint64_t one,
                             std::uint64_t zero) {
  const std::size_t i = at(g, cycle);
  const std::uint64_t b = bit(cycle);
  const std::uint64_t d_one = (ones_[i] ^ one) & b;
  const std::uint64_t d_zero = (zeros_[i] ^ zero) & b;
  ones_[i] ^= d_one;
  zeros_[i] ^= d_zero;
  return (d_one | d_zero) != 0;
}

bool ControllerWindow::set(GateId g, unsigned cycle, L3 v) {
  const std::uint64_t all = ~std::uint64_t{0};
  return store(g, cycle, v == L3::T ? all : 0, v == L3::F ? all : 0);
}

bool ControllerWindow::eval(std::uint32_t rank, unsigned cycle) {
  // The shared 01X kernel computes the whole word of cycle lanes; only bit
  // `cycle` is kept, the other cycles' fanins need not have settled.
  const PackedLayout::Op& op = pl_.ops[rank];
  std::uint64_t one = 0, zero = 0;
  detail::eval_gate3_block<detail::ScalarBlock>(
      op.kind, pl_.fanin.data() + op.fanin_at, op.nfanin, ones_.data(),
      zeros_.data(), &one, &zero, words_, cycle >> 6);
  return store(op.gate, cycle, one, zero);
}

void ControllerWindow::changed(GateId g, unsigned cycle) {
  hi_ = std::max(hi_, cycle);
  std::uint64_t* q = queue_.data() + std::size_t{cycle} * qwords_;
  for (GateId f : fanouts_[g]) {
    const std::uint32_t r = pl_.op_of[f];
    if (r != PackedLayout::kNoOp)
      q[r >> 6] |= bit(r);
    else if (cycle + 1 < T_ && set(f, cycle + 1, value(g, cycle)))
      changed(f, cycle + 1);  // a DFF fed by g: its output one cycle later
  }
}

void ControllerWindow::imply() {
  if (pending_.empty()) return;
  unsigned lo = T_;
  hi_ = 0;
  for (auto [g, t] : pending_) {
    lo = std::min(lo, t);
    if (set(g, t, assignment(g, t))) changed(g, t);
  }
  pending_.clear();
  for (unsigned t = lo; t <= hi_; ++t) {
    std::uint64_t* q = queue_.data() + std::size_t{t} * qwords_;
    // A changed gate queues only higher ranks, so one ascending scan that
    // re-reads its word after every evaluation visits each queued op once,
    // after all of its changed fanins.
    for (unsigned w = 0; w < qwords_; ++w)
      while (q[w]) {
        const unsigned low = static_cast<unsigned>(std::countr_zero(q[w]));
        q[w] &= q[w] - 1;
        const std::uint32_t r = w * 64 + low;
        if (eval(r, t)) changed(pl_.ops[r].gate, t);
      }
  }
}

void ControllerWindow::clear() {
  for (unsigned t = 0; t < T_; ++t)
    for (GateId g : vars_) assign(g, t, L3::X);
  imply();
}

}  // namespace hltg
