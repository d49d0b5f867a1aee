#include "gatenet/evalw.h"

#include <algorithm>
#include <cstdlib>

#include "gatenet/evalw_impl.h"

namespace hltg {
namespace {

// __builtin_cpu_supports requires a literal argument, hence one helper per
// feature rather than a parameterized one.
bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool cpu_has_avx512f() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

}  // namespace

std::string_view to_string(LaneBackend b) {
  switch (b) {
    case LaneBackend::kScalar: return "scalar";
    case LaneBackend::kAvx2: return "avx2";
    case LaneBackend::kAvx512: return "avx512";
  }
  return "?";
}

bool backend_available(LaneBackend b) {
  switch (b) {
    case LaneBackend::kScalar:
      return true;
    case LaneBackend::kAvx2:
#if defined(HLTG_EVALW_HAVE_AVX2)
      return cpu_has_avx2();
#else
      return false;
#endif
    case LaneBackend::kAvx512:
#if defined(HLTG_EVALW_HAVE_AVX512)
      return cpu_has_avx512f();
#else
      return false;
#endif
  }
  return false;
}

LaneBackend backend_for(unsigned words) {
  if (words >= 8 && backend_available(LaneBackend::kAvx512))
    return LaneBackend::kAvx512;
  if (words >= 4 && backend_available(LaneBackend::kAvx2))
    return LaneBackend::kAvx2;
  return LaneBackend::kScalar;
}

unsigned resolve_lanes(unsigned requested) {
  unsigned lanes = requested;
  if (lanes == 0) {
    if (const char* env = std::getenv("HLTG_LANES")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) lanes = static_cast<unsigned>(v);
    }
  }
  if (lanes == 0) {
    if (backend_available(LaneBackend::kAvx512))
      lanes = 512;
    else if (backend_available(LaneBackend::kAvx2))
      lanes = 256;
    else
      lanes = 64;
  }
  return std::clamp(lanes, 1u, kMaxLanes);
}

void eval_cyclew(const GateNet& gn, std::uint64_t* vals, unsigned words,
                 LaneBackend b) {
  switch (b) {
#if defined(HLTG_EVALW_HAVE_AVX512)
    case LaneBackend::kAvx512:
      detail::eval_cyclew_avx512(gn, vals, words);
      return;
#endif
#if defined(HLTG_EVALW_HAVE_AVX2)
    case LaneBackend::kAvx2:
      detail::eval_cyclew_avx2(gn, vals, words);
      return;
#endif
    default:
      detail::eval_cyclew_t<detail::ScalarBlock>(gn, vals, words);
      return;
  }
}

void eval_cyclew(const GateNet& gn, std::uint64_t* vals, unsigned words) {
  eval_cyclew(gn, vals, words, backend_for(words));
}

void eval_gatew(const GateNet& gn, GateId g, std::uint64_t* vals,
                unsigned words, LaneBackend b) {
  switch (b) {
#if defined(HLTG_EVALW_HAVE_AVX512)
    case LaneBackend::kAvx512:
      detail::eval_gatew_avx512(gn, g, vals, words);
      return;
#endif
#if defined(HLTG_EVALW_HAVE_AVX2)
    case LaneBackend::kAvx2:
      detail::eval_gatew_avx2(gn, g, vals, words);
      return;
#endif
    default:
      detail::eval_gatew_t<detail::ScalarBlock>(gn, g, vals, words);
      return;
  }
}

void eval_gatew(const GateNet& gn, GateId g, std::uint64_t* vals,
                unsigned words) {
  eval_gatew(gn, g, vals, words, backend_for(words));
}

void clock_dffsw(const GateNet& gn, std::uint64_t* vals, unsigned words,
                 std::vector<std::uint64_t>& scratch) {
  const PackedLayout& pl = gn.packed();
  // Two-phase: latch every D first so DFF-to-DFF chains shift by exactly
  // one stage per edge regardless of table order.
  scratch.resize(pl.dffs.size() * words);
  for (std::size_t i = 0; i < pl.dffs.size(); ++i) {
    const std::uint64_t* d = vals + std::size_t{pl.dff_d[i]} * words;
    std::copy(d, d + words, scratch.data() + i * words);
  }
  for (std::size_t i = 0; i < pl.dffs.size(); ++i) {
    const std::uint64_t* s = scratch.data() + i * words;
    std::copy(s, s + words, vals + std::size_t{pl.dffs[i]} * words);
  }
}

void load_resetw(const GateNet& gn, std::vector<std::uint64_t>& vals,
                 unsigned words) {
  const PackedLayout& pl = gn.packed();
  vals.assign(gn.num_gates() * words, 0);
  for (std::size_t i = 0; i < pl.dffs.size(); ++i)
    if (pl.dff_reset[i])
      std::fill_n(vals.data() + std::size_t{pl.dffs[i]} * words, words,
                  ~std::uint64_t{0});
}

}  // namespace hltg
