// Width-generic bit-parallel evaluation of a controller gate network.
//
// Bit k of each lane word is an independent "lane": one pass simulates up
// to W = words * 64 machines (64 / 128 / ... / 512) whose gate-level logic
// is identical but whose inputs (CPI / STS / DFF state) differ per lane.
// Per lane the semantics are exactly those of eval_cycle2 / clock_dffs2 /
// load_reset2 (gatenet/eval3); tests/test_evalw.cpp cross-checks
// lane-for-lane. Lane words are stored gate-major:
//
//   vals[g * words + w]   word w of gate g, bit k of word w = lane 64*w + k
//
// Three compile-time backends share one templated kernel
// (gatenet/evalw_impl.h): portable scalar uint64_t, AVX2 (4 words per
// vector op) and AVX-512 (8 words). The widest backend the binary carries
// AND the CPU reports via CPUID is dispatched at runtime; every backend
// computes bit-identical lane values, so lane width and backend choice can
// never change a simulation outcome - only how many gate visits it costs.
// Configure with -DHLTG_SIMD=auto|avx512|avx2|scalar (or the
// -DHLTG_FORCE_SCALAR=ON alias) and override the lane width at runtime with
// --lanes / HLTG_LANES.
//
// The 01X kernels in evalw_impl.h (eval_gate3_block, eval_cycle3w_t) carry
// three-valued lanes as a bit pair across two planes: ones-bit set = lane
// is 1, zeros-bit set = lane is 0, neither = X (both set cannot arise).
// They have no public entry point here: eval_cycle3 (gatenet/eval3) runs
// them at width 1 and CTRLJUST's unrolled window (core/unroll) with cycles
// as lanes.
//
// All kernels walk GateNet::packed() - the topo order and fanin lists
// flattened once per network (GateNet::warm_caches()) instead of per call.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "gatenet/gatenet.h"

namespace hltg {

/// Hard cap on lanes per batch; 8 words of 64.
inline constexpr unsigned kMaxLanes = 512;

enum class LaneBackend : std::uint8_t { kScalar, kAvx2, kAvx512 };

std::string_view to_string(LaneBackend b);

/// True when the backend is compiled in AND the CPU supports it at runtime
/// (kScalar: always).
bool backend_available(LaneBackend b);

/// Backend the auto dispatcher picks for `words` words per gate: the widest
/// available one whose vector covers at least one full block.
LaneBackend backend_for(unsigned words);

/// Resolve the lane width: explicit request > HLTG_LANES env > CPUID auto
/// (512 with AVX-512, 256 with AVX2, else 64). `requested == 0` means "no
/// request". The result is clamped to [1, kMaxLanes]; widths that are not
/// multiples of 64 are honored by masking, exactly like a partial batch.
unsigned resolve_lanes(unsigned requested = 0);

/// Words needed for `lanes` lanes.
inline unsigned lane_words(unsigned lanes) { return (lanes + 63) / 64; }

// --------------------------------------------------------------- 2-valued

/// Evaluate one cycle for all lanes. `vals` must hold num_gates() * words
/// entries, pre-loaded with kVar lane words and kDff state; every other
/// gate is overwritten in topological order.
void eval_cyclew(const GateNet& gn, std::uint64_t* vals, unsigned words);
void eval_cyclew(const GateNet& gn, std::uint64_t* vals, unsigned words,
                 LaneBackend b);

/// Evaluate a single gate's lane words in place (kVar/kDff untouched).
/// For schedules that interleave controller gates with datapath modules.
void eval_gatew(const GateNet& gn, GateId g, std::uint64_t* vals,
                unsigned words);
void eval_gatew(const GateNet& gn, GateId g, std::uint64_t* vals,
                unsigned words, LaneBackend b);

/// Clock edge in place: every DFF's lane words become its D input's.
/// `scratch` avoids an allocation per cycle (DFF-to-DFF chains make a
/// two-phase copy necessary).
void clock_dffsw(const GateNet& gn, std::uint64_t* vals, unsigned words,
                 std::vector<std::uint64_t>& scratch);

/// Size and load `vals` with the reset state in every lane.
void load_resetw(const GateNet& gn, std::vector<std::uint64_t>& vals,
                 unsigned words);

}  // namespace hltg
