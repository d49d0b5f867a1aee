// Shared templated kernels behind gatenet/evalw. Each backend TU
// (evalw.cpp scalar, evalw_avx2.cpp) instantiates the 2-valued gate
// template here with its block type; the per-source -mavx2 flag therefore
// never leaks into code the dispatcher might run on an older machine. The
// 01X templates run with ScalarBlock only, from gatenet/eval3 and
// core/unroll.
//
// A Block models `kWords` consecutive 64-bit lane words: load/store plus
// the four bitwise ops. The kernels process each gate's words in
// Block-sized chunks and finish any remainder with the scalar block, so
// every words count in [1, 8] works with every backend.
#pragma once

#include <cstdint>

#include "gatenet/evalw.h"
#include "gatenet/gatenet.h"

namespace hltg {
namespace detail {

struct ScalarBlock {
  static constexpr unsigned kWords = 1;
  using V = std::uint64_t;
  static V load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, V v) { *p = v; }
  static V zero() { return 0; }
  static V ones() { return ~std::uint64_t{0}; }
  static V and_(V a, V b) { return a & b; }
  static V or_(V a, V b) { return a | b; }
  static V xor_(V a, V b) { return a ^ b; }
  static V not_(V a) { return ~a; }
};

/// One gate, one block of lane words starting at word offset `w0`.
template <class B>
inline void eval_gate_block(GateKind kind, const GateId* fi, unsigned nf,
                            const std::uint64_t* vals, std::uint64_t* out,
                            std::size_t words, unsigned w0) {
  auto in = [&](unsigned j) {
    return B::load(vals + std::size_t{fi[j]} * words + w0);
  };
  switch (kind) {
    case GateKind::kConst0:
      B::store(out, B::zero());
      break;
    case GateKind::kConst1:
      B::store(out, B::ones());
      break;
    case GateKind::kBuf:
      B::store(out, in(0));
      break;
    case GateKind::kNot:
      B::store(out, B::not_(in(0)));
      break;
    case GateKind::kAnd: {
      typename B::V v = in(0);
      for (unsigned j = 1; j < nf; ++j) v = B::and_(v, in(j));
      B::store(out, v);
      break;
    }
    case GateKind::kOr: {
      typename B::V v = in(0);
      for (unsigned j = 1; j < nf; ++j) v = B::or_(v, in(j));
      B::store(out, v);
      break;
    }
    case GateKind::kXor:
      B::store(out, B::xor_(in(0), in(1)));
      break;
    case GateKind::kVar:
    case GateKind::kDff:
      break;  // sources: lane words already loaded
  }
}

/// One gate, one block of 01X bit-pair planes.
template <class B>
inline void eval_gate3_block(GateKind kind, const GateId* fi, unsigned nf,
                             const std::uint64_t* ones,
                             const std::uint64_t* zeros, std::uint64_t* o_out,
                             std::uint64_t* z_out, std::size_t words,
                             unsigned w0) {
  auto o_in = [&](unsigned j) {
    return B::load(ones + std::size_t{fi[j]} * words + w0);
  };
  auto z_in = [&](unsigned j) {
    return B::load(zeros + std::size_t{fi[j]} * words + w0);
  };
  switch (kind) {
    case GateKind::kConst0:
      B::store(o_out, B::zero());
      B::store(z_out, B::ones());
      break;
    case GateKind::kConst1:
      B::store(o_out, B::ones());
      B::store(z_out, B::zero());
      break;
    case GateKind::kBuf:
      B::store(o_out, o_in(0));
      B::store(z_out, z_in(0));
      break;
    case GateKind::kNot:  // swap the planes
      B::store(o_out, z_in(0));
      B::store(z_out, o_in(0));
      break;
    case GateKind::kAnd: {
      // 1 iff every input is 1; 0 iff any input is 0; else X.
      typename B::V o = o_in(0), z = z_in(0);
      for (unsigned j = 1; j < nf; ++j) {
        o = B::and_(o, o_in(j));
        z = B::or_(z, z_in(j));
      }
      B::store(o_out, o);
      B::store(z_out, z);
      break;
    }
    case GateKind::kOr: {
      typename B::V o = o_in(0), z = z_in(0);
      for (unsigned j = 1; j < nf; ++j) {
        o = B::or_(o, o_in(j));
        z = B::and_(z, z_in(j));
      }
      B::store(o_out, o);
      B::store(z_out, z);
      break;
    }
    case GateKind::kXor: {
      // Known only when both inputs are known.
      const typename B::V a1 = o_in(0), a0 = z_in(0);
      const typename B::V b1 = o_in(1), b0 = z_in(1);
      B::store(o_out, B::or_(B::and_(a1, b0), B::and_(a0, b1)));
      B::store(z_out, B::or_(B::and_(a1, b1), B::and_(a0, b0)));
      break;
    }
    case GateKind::kVar:
    case GateKind::kDff:
      break;
  }
}

template <class B>
void eval_gatew_t(const GateNet& gn, GateId g, std::uint64_t* vals,
                  const unsigned words) {
  const Gate& gate = gn.gate(g);
  if (gate.kind == GateKind::kVar || gate.kind == GateKind::kDff) return;
  const GateId* fi = gate.fanin.data();
  const unsigned nf = static_cast<unsigned>(gate.fanin.size());
  std::uint64_t* out = vals + std::size_t{g} * words;
  unsigned w = 0;
  for (; w + B::kWords <= words; w += B::kWords)
    eval_gate_block<B>(gate.kind, fi, nf, vals, out + w, words, w);
  for (; w < words; ++w)
    eval_gate_block<ScalarBlock>(gate.kind, fi, nf, vals, out + w, words, w);
}

template <class B>
void eval_cycle3w_t(const GateNet& gn, std::uint64_t* ones,
                    std::uint64_t* zeros, const unsigned words) {
  const PackedLayout& pl = gn.packed();
  for (const PackedLayout::Op& op : pl.ops) {
    const GateId* fi = pl.fanin.data() + op.fanin_at;
    const std::size_t at = std::size_t{op.gate} * words;
    unsigned w = 0;
    for (; w + B::kWords <= words; w += B::kWords)
      eval_gate3_block<B>(op.kind, fi, op.nfanin, ones, zeros, ones + at + w,
                          zeros + at + w, words, w);
    for (; w < words; ++w)
      eval_gate3_block<ScalarBlock>(op.kind, fi, op.nfanin, ones, zeros,
                                    ones + at + w, zeros + at + w, words, w);
  }
}

// The AVX2 instantiation (evalw_avx2.cpp); eval_gatew in evalw.cpp routes
// to it.
#if defined(HLTG_EVALW_HAVE_AVX2)
void eval_gatew_avx2(const GateNet& gn, GateId g, std::uint64_t* vals,
                     unsigned words);
#endif

}  // namespace detail
}  // namespace hltg
