#include "gatenet/evalw.h"

#include <algorithm>

#include "gatenet/evalw_impl.h"

namespace hltg {

std::string_view to_string(LaneBackend b) {
  switch (b) {
    case LaneBackend::kScalar: return "scalar";
    case LaneBackend::kAvx2: return "avx2";
  }
  return "?";
}

bool backend_available(LaneBackend b) {
  if (b == LaneBackend::kScalar) return true;
#if defined(HLTG_EVALW_HAVE_AVX2)
  // The compiler took -mavx2, so this is an x86 target.
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

LaneBackend backend_for(unsigned words) {
  return words >= 4 && backend_available(LaneBackend::kAvx2)
             ? LaneBackend::kAvx2
             : LaneBackend::kScalar;
}

unsigned resolve_lanes(unsigned requested) {
  return requested == 0 ? kMaxLanes : std::clamp(requested, 1u, kMaxLanes);
}

void eval_gatew(const GateNet& gn, GateId g, std::uint64_t* vals,
                unsigned words, [[maybe_unused]] LaneBackend b) {
#if defined(HLTG_EVALW_HAVE_AVX2)
  if (b == LaneBackend::kAvx2) {
    detail::eval_gatew_avx2(gn, g, vals, words);
    return;
  }
#endif
  detail::eval_gatew_t<detail::ScalarBlock>(gn, g, vals, words);
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
