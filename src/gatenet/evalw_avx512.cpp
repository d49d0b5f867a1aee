// AVX-512 backend for gatenet/evalw: 8 lane words (512 lanes) per vector
// op. Compiled with -mavx512f for this TU only; the dispatcher calls in
// here only after __builtin_cpu_supports("avx512f") confirms support.
#if defined(HLTG_EVALW_HAVE_AVX512)

#include <immintrin.h>

#include "gatenet/evalw_impl.h"

namespace hltg {
namespace detail {
namespace {

struct Avx512Block {
  static constexpr unsigned kWords = 8;
  using V = __m512i;
  static V load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
  static void store(std::uint64_t* p, V v) { _mm512_storeu_si512(p, v); }
  static V zero() { return _mm512_setzero_si512(); }
  static V ones() { return _mm512_set1_epi64(-1); }
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }
  static V or_(V a, V b) { return _mm512_or_si512(a, b); }
  static V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
  static V not_(V a) { return _mm512_xor_si512(a, ones()); }
};

}  // namespace

void eval_cyclew_avx512(const GateNet& gn, std::uint64_t* vals,
                        unsigned words) {
  eval_cyclew_t<Avx512Block>(gn, vals, words);
}

void eval_gatew_avx512(const GateNet& gn, GateId g, std::uint64_t* vals,
                       unsigned words) {
  eval_gatew_t<Avx512Block>(gn, g, vals, words);
}

}  // namespace detail
}  // namespace hltg

#endif  // HLTG_EVALW_HAVE_AVX512
