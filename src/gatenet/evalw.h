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
// Two backends share one templated kernel (gatenet/evalw_impl.h): portable
// uint64_t and AVX2 (4 words per vector op). The AVX2 one is compiled when
// the compiler takes -mavx2 and dispatched when the CPU reports AVX2 and a
// gate has at least one full vector block of words; both compute
// bit-identical lane values, so the backend can never change a simulation
// outcome - only how long a gate visit takes. Batches are kMaxLanes wide
// on every host (resolve_lanes); a narrower width is a per-call cap only.
//
// The 01X kernels in evalw_impl.h (eval_gate3_block, eval_cycle3w_t) carry
// three-valued lanes as a bit pair across two planes: ones-bit set = lane
// is 1, zeros-bit set = lane is 0, neither = X (both set cannot arise).
// They have no public entry point here: eval_cycle3 (gatenet/eval3) runs
// them at width 1 and CTRLJUST's unrolled window (core/unroll) with cycles
// as lanes.
//
// The whole-network kernels (eval_cycle3w_t, clock_dffsw, load_resetw)
// walk GateNet::packed() - the topo order, fanin lists and DFF tables
// flattened once per network (GateNet::warm_caches()) instead of per call.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "gatenet/gatenet.h"

namespace hltg {

/// Hard cap on lanes per batch; 8 words of 64.
inline constexpr unsigned kMaxLanes = 512;

enum class LaneBackend : std::uint8_t { kScalar, kAvx2 };

std::string_view to_string(LaneBackend b);

/// True when the backend is compiled in AND the CPU supports it at runtime
/// (kScalar: always).
bool backend_available(LaneBackend b);

/// Backend for `words` words per gate: AVX2 when it covers at least one
/// full block (words >= 4) and is available, else scalar.
LaneBackend backend_for(unsigned words);

/// Lanes per batch: `requested` clamped to [1, kMaxLanes], or kMaxLanes
/// when `requested == 0`. Widths that are not multiples of 64 are honored
/// by masking, exactly like a partial batch.
unsigned resolve_lanes(unsigned requested = 0);

/// Words needed for `lanes` lanes.
inline unsigned lane_words(unsigned lanes) { return (lanes + 63) / 64; }

// --------------------------------------------------------------- 2-valued

/// Evaluate a single gate's lane words in place (kVar/kDff untouched) on
/// backend `b`. `vals` holds num_gates() * words entries. Schedules that
/// interleave controller gates with datapath modules (sim/batch_sim) call
/// it gate by gate in topological order.
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
