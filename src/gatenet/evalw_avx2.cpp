// AVX2 backend for gatenet/evalw: 4 lane words (256 lanes) per vector op.
// Compiled with -mavx2 for this TU only; the dispatcher calls in here only
// after __builtin_cpu_supports("avx2") confirms the CPU can run it.
#if defined(HLTG_EVALW_HAVE_AVX2)

#include <immintrin.h>

#include "gatenet/evalw_impl.h"

namespace hltg {
namespace detail {
namespace {

struct Avx2Block {
  static constexpr unsigned kWords = 4;
  using V = __m256i;
  static V load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V zero() { return _mm256_setzero_si256(); }
  static V ones() { return _mm256_set1_epi64x(-1); }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static V or_(V a, V b) { return _mm256_or_si256(a, b); }
  static V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
  static V not_(V a) { return _mm256_xor_si256(a, ones()); }
};

}  // namespace

void eval_gatew_avx2(const GateNet& gn, GateId g, std::uint64_t* vals,
                     unsigned words) {
  eval_gatew_t<Avx2Block>(gn, g, vals, words);
}

}  // namespace detail
}  // namespace hltg

#endif  // HLTG_EVALW_HAVE_AVX2
