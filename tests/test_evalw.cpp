// Width-generic bit-parallel evaluation: lane-for-lane equivalence of the
// evalw kernels (every compiled backend, every word count including
// block+tail shapes) with the scalar 2-valued and 3-valued paths - on
// random netlists and the real DLX controller - plus the cached DFF list,
// batch-vs-scalar parity and width-invariance of the batched error
// detector across all four error models, and the paired DPRELAX window
// capture.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/archstate.h"
#include "core/tg.h"
#include "errors/boe.h"
#include "errors/bse.h"
#include "errors/bus_ssl.h"
#include "errors/mse.h"
#include "gatenet/eval3.h"
#include "gatenet/evalw.h"
#include "isa/asm.h"
#include "sim/batch_sim.h"
#include "sim/cosim.h"
#include "util/rng.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

TestCase make_tc(const std::string& src) {
  const AsmResult r = assemble(src);
  EXPECT_TRUE(r.ok());
  TestCase tc;
  tc.imem = encode_program(r.program);
  return tc;
}

/// Every backend this binary can actually run (scalar always; SIMD when
/// compiled in AND the CPU reports it).
std::vector<LaneBackend> available_backends() {
  std::vector<LaneBackend> out = {LaneBackend::kScalar};
  if (backend_available(LaneBackend::kAvx2)) out.push_back(LaneBackend::kAvx2);
  if (backend_available(LaneBackend::kAvx512))
    out.push_back(LaneBackend::kAvx512);
  return out;
}

/// Word counts exercising the exact-block and block+scalar-tail paths of
/// every backend (1; 3 = tail only for AVX2; 5 = one AVX2 block + tail;
/// 8 = one AVX-512 block / two AVX2 blocks).
const unsigned kWordCounts[] = {1, 2, 3, 4, 5, 8};

/// A random acyclic netlist covering every gate kind, with DFF state fed
/// from arbitrary combinational gates.
GateNet random_net(std::uint64_t seed, unsigned nvars, unsigned ngates,
                   unsigned ndffs) {
  Rng rng(seed);
  GateNet gn;
  std::vector<GateId> pool;
  for (unsigned i = 0; i < nvars; ++i) {
    Gate g;
    g.kind = GateKind::kVar;
    g.name = "v" + std::to_string(i);
    pool.push_back(gn.add_gate(g));
  }
  for (unsigned i = 0; i < ndffs; ++i) {
    Gate g;
    g.kind = GateKind::kDff;
    g.name = "q" + std::to_string(i);
    g.reset_value = rng.flip();
    g.fanin = {0};  // patched below once combinational gates exist
    pool.push_back(gn.add_gate(g));
  }
  const GateKind kinds[] = {GateKind::kAnd, GateKind::kOr,   GateKind::kNot,
                            GateKind::kXor, GateKind::kBuf,  GateKind::kConst0,
                            GateKind::kConst1};
  for (unsigned i = 0; i < ngates; ++i) {
    Gate g;
    g.kind = kinds[rng.below(i < 7 ? 7 : sizeof(kinds) / sizeof(kinds[0]))];
    g.name = "g" + std::to_string(i);
    unsigned nf = 0;
    if (g.kind == GateKind::kNot || g.kind == GateKind::kBuf) nf = 1;
    if (g.kind == GateKind::kAnd || g.kind == GateKind::kOr ||
        g.kind == GateKind::kXor)
      nf = 2 + static_cast<unsigned>(rng.below(3));  // up to 4-input gates
    for (unsigned j = 0; j < nf; ++j)
      g.fanin.push_back(pool[rng.below(pool.size())]);
    pool.push_back(gn.add_gate(g));
  }
  // D inputs may come from anywhere - DFF edges are not combinational.
  for (GateId g = 0; g < gn.num_gates(); ++g)
    if (gn.gate(g).kind == GateKind::kDff)
      gn.gate(g).fanin = {pool[rng.below(pool.size())]};
  gn.invalidate();
  return gn;
}

// ------------------------------------------------------------- 2-valued

/// Lane `l`'s bit of gate `g` in gate-major lane words.
bool lane2(const std::vector<std::uint64_t>& vw, GateId g, unsigned words,
           unsigned l) {
  return (vw[g * words + (l >> 6)] >> (l & 63)) & 1;
}

/// Drives `gn` for several clocked cycles at `words` lane words under
/// backend `b`, checking every gate of every lane against an independent
/// scalar load_reset2 / eval_cycle2 / clock_dffs2 run of that lane.
void check_2valued(const GateNet& gn, unsigned words, LaneBackend b,
                   std::uint64_t seed) {
  const unsigned lanes = 64 * words;
  const std::vector<GateId> vars = gn.gates_of_kind(GateKind::kVar);
  Rng rng(seed);

  std::vector<std::uint64_t> vw;
  load_resetw(gn, vw, words);
  ASSERT_EQ(vw.size(), gn.num_gates() * words);
  std::vector<std::vector<bool>> ref(lanes);
  for (auto& v : ref) load_reset2(gn, v);
  for (GateId g = 0; g < gn.num_gates(); ++g)
    for (unsigned l = 0; l < lanes; ++l)
      ASSERT_EQ(lane2(vw, g, words, l), ref[l][g])
          << "reset, gate " << g << " lane " << l;

  std::vector<std::uint64_t> scratch;
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (GateId g : vars)
      for (unsigned w = 0; w < words; ++w) {
        const std::uint64_t word = rng.next();
        vw[g * words + w] = word;
        for (unsigned k = 0; k < 64; ++k) ref[64 * w + k][g] = (word >> k) & 1;
      }
    eval_cyclew(gn, vw.data(), words, b);
    for (auto& v : ref) eval_cycle2(gn, v);
    for (GateId g = 0; g < gn.num_gates(); ++g)
      for (unsigned l = 0; l < lanes; ++l)
        ASSERT_EQ(lane2(vw, g, words, l), ref[l][g])
            << "cycle " << cycle << " gate " << gn.gate(g).name << " lane "
            << l << " words=" << words << " backend=" << to_string(b);
    // Single-gate entry point agrees with the full sweep.
    for (GateId g = 0; g < gn.num_gates(); ++g) {
      std::vector<std::uint64_t> copy = vw;
      eval_gatew(gn, g, copy.data(), words, b);
      ASSERT_EQ(copy, vw) << "eval_gatew disturbed gate " << g;
    }
    clock_dffsw(gn, vw.data(), words, scratch);
    for (auto& v : ref) {
      std::vector<bool> next = v;
      clock_dffs2(gn, v, next);
      v = std::move(next);
    }
    for (GateId d : gn.dffs())
      for (unsigned l = 0; l < lanes; ++l)
        ASSERT_EQ(lane2(vw, d, words, l), ref[l][d])
            << "clock, dff " << d << " lane " << l;
  }
}

// The two tests below keep their historical names so their IDs stay stable;
// the reference is the scalar 2-valued path above.
TEST(Evalw, MatchesEval64OnRandomNets) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const GateNet gn = random_net(seed, 6, 40, 5);
    for (LaneBackend b : available_backends())
      for (unsigned words : kWordCounts) check_2valued(gn, words, b, seed);
  }
}

TEST(Evalw, MatchesEval64OnDlxController) {
  for (LaneBackend b : available_backends())
    for (unsigned words : {1u, 4u, 8u})
      check_2valued(model().ctrl, words, b, 0x515);
}

// One lane word (64 lanes) is the shape of the former 64-lane kernel; these
// two tests keep that kernel's test IDs.
TEST(Eval64, ResetMatchesScalar) {
  const GateNet& gn = model().ctrl;
  std::vector<std::uint64_t> v64;
  load_resetw(gn, v64, 1);
  std::vector<bool> v2;
  load_reset2(gn, v2);
  ASSERT_EQ(v64.size(), v2.size());
  for (GateId g = 0; g < gn.num_gates(); ++g) {
    // Every lane carries the same reset state.
    EXPECT_EQ(v64[g], v2[g] ? ~std::uint64_t{0} : 0) << gn.gate(g).name;
  }
}

TEST(Eval64, LaneForLaneMatchesScalarOverRandomCycles) {
  check_2valued(model().ctrl, 1, backend_for(1), 0x515);
}

TEST(Evalw, LaneForLaneMatchesScalarOnDlx) {
  // 256 lanes of the real controller under the auto-dispatched backend
  // against 256 independent eval_cycle2 runs.
  const GateNet& gn = model().ctrl;
  const unsigned words = 4, lanes = 256;
  const std::vector<GateId> vars = gn.gates_of_kind(GateKind::kVar);
  Rng rng(7);
  std::vector<std::uint64_t> vw;
  load_resetw(gn, vw, words);
  std::vector<std::vector<bool>> v2(lanes);
  for (auto& v : v2) load_reset2(gn, v);
  std::vector<std::uint64_t> scratch;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (GateId g : vars)
      for (unsigned w = 0; w < words; ++w) {
        const std::uint64_t word = rng.next();
        vw[g * words + w] = word;
        for (unsigned k = 0; k < 64; ++k)
          v2[64 * w + k][g] = (word >> k) & 1;
      }
    eval_cyclew(gn, vw.data(), words);
    for (auto& v : v2) eval_cycle2(gn, v);
    for (GateId g = 0; g < gn.num_gates(); ++g)
      for (unsigned l = 0; l < lanes; ++l)
        ASSERT_EQ((vw[g * words + (l >> 6)] >> (l & 63)) & 1,
                  static_cast<std::uint64_t>(v2[l][g]))
            << "cycle " << cycle << " lane " << l << " gate "
            << gn.gate(g).name;
    clock_dffsw(gn, vw.data(), words, scratch);
    for (auto& v : v2) {
      std::vector<bool> next = v;
      clock_dffs2(gn, v, next);
      v = std::move(next);
    }
  }
}

TEST(GateNetCache, DffListMatchesScanAndIsInvalidated) {
  const GateNet& gn = model().ctrl;
  EXPECT_EQ(gn.dffs(), gn.gates_of_kind(GateKind::kDff));
  // Cached: repeated calls return the same storage.
  EXPECT_EQ(&gn.dffs(), &gn.dffs());

  GateNet small;
  Gate var;
  var.kind = GateKind::kVar;
  const GateId v = small.add_gate(var);
  EXPECT_TRUE(small.dffs().empty());
  Gate dff;
  dff.kind = GateKind::kDff;
  dff.fanin = {v};
  small.add_gate(dff);  // add_gate invalidates the caches
  EXPECT_EQ(small.dffs().size(), 1u);
}

// ---------------------------------------------------------- 01X bit-pair

L3 lane3(const std::vector<std::uint64_t>& ones,
         const std::vector<std::uint64_t>& zeros, GateId g, unsigned words,
         unsigned lane) {
  const bool o = (ones[g * words + (lane >> 6)] >> (lane & 63)) & 1;
  const bool z = (zeros[g * words + (lane >> 6)] >> (lane & 63)) & 1;
  EXPECT_FALSE(o && z) << "both planes set, gate " << g << " lane " << lane;
  return o ? L3::T : (z ? L3::F : L3::X);
}

void set_lane3(std::vector<std::uint64_t>& ones,
               std::vector<std::uint64_t>& zeros, GateId g, unsigned words,
               unsigned lane, L3 v) {
  const std::uint64_t bit = std::uint64_t{1} << (lane & 63);
  ones[g * words + (lane >> 6)] &= ~bit;
  zeros[g * words + (lane >> 6)] &= ~bit;
  if (v == L3::T) ones[g * words + (lane >> 6)] |= bit;
  if (v == L3::F) zeros[g * words + (lane >> 6)] |= bit;
}

/// Every lane holds an independent random 0/1/X assignment of the kVar
/// gates; X propagation must match the scalar L3 evaluator lane-for-lane,
/// clocked across cycles.
void check_3valued(const GateNet& gn, unsigned words, LaneBackend b,
                   std::uint64_t seed) {
  const unsigned lanes = 64 * words;
  const std::vector<GateId> vars = gn.gates_of_kind(GateKind::kVar);
  Rng rng(seed);

  std::vector<std::uint64_t> ones, zeros;
  load_reset3w(gn, ones, zeros, words);
  std::vector<std::vector<L3>> ref(lanes);
  for (auto& v : ref) load_reset3(gn, v);
  for (GateId g = 0; g < gn.num_gates(); ++g)
    for (unsigned l = 0; l < lanes; ++l)
      ASSERT_EQ(lane3(ones, zeros, g, words, l), ref[l][g])
          << "reset, gate " << g << " lane " << l;

  std::vector<std::uint64_t> scratch;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (GateId g : vars)
      for (unsigned l = 0; l < lanes; ++l) {
        const std::uint64_t r = rng.below(3);
        const L3 v = r == 0 ? L3::F : (r == 1 ? L3::T : L3::X);
        set_lane3(ones, zeros, g, words, l, v);
        ref[l][g] = v;
      }
    eval_cycle3w(gn, ones.data(), zeros.data(), words, b);
    for (auto& v : ref) eval_cycle3(gn, v);
    for (GateId g = 0; g < gn.num_gates(); ++g)
      for (unsigned l = 0; l < lanes; ++l)
        ASSERT_EQ(lane3(ones, zeros, g, words, l), ref[l][g])
            << "cycle " << cycle << " gate " << gn.gate(g).name << " lane "
            << l << " words=" << words << " backend=" << to_string(b);
    clock_dffs3w(gn, ones.data(), zeros.data(), words, scratch);
    for (auto& v : ref) {
      std::vector<L3> next = v;
      for (GateId d : gn.dffs()) next[d] = v[gn.gate(d).fanin[0]];
      v = std::move(next);
    }
  }
}

TEST(Evalw3, MatchesScalarEval3OnRandomNets) {
  for (std::uint64_t seed : {44u, 55u}) {
    const GateNet gn = random_net(seed, 6, 40, 5);
    for (LaneBackend b : available_backends())
      for (unsigned words : kWordCounts) check_3valued(gn, words, b, seed);
  }
}

TEST(Evalw3, MatchesScalarEval3OnDlxController) {
  for (LaneBackend b : available_backends())
    check_3valued(model().ctrl, 4, b, 0x3A);
}

// --------------------------------------------------- dispatch & resolution

TEST(EvalwDispatch, ScalarAlwaysAvailableAndBackendForIsAvailable) {
  EXPECT_TRUE(backend_available(LaneBackend::kScalar));
  for (unsigned words : {1u, 2u, 4u, 8u}) {
    const LaneBackend b = backend_for(words);
    EXPECT_TRUE(backend_available(b)) << to_string(b);
    // A backend is only picked when its vector covers a full block.
    if (b == LaneBackend::kAvx2) EXPECT_GE(words, 4u);
    if (b == LaneBackend::kAvx512) EXPECT_GE(words, 8u);
  }
  EXPECT_EQ(backend_for(1), LaneBackend::kScalar);
}

TEST(EvalwDispatch, ResolveLanesPrecedenceAndClamp) {
  // Explicit request wins and is clamped to [1, kMaxLanes].
  EXPECT_EQ(resolve_lanes(64), 64u);
  EXPECT_EQ(resolve_lanes(7), 7u);
  EXPECT_EQ(resolve_lanes(100000), kMaxLanes);

  // HLTG_LANES overrides the CPUID auto pick; explicit still wins.
  ::setenv("HLTG_LANES", "128", 1);
  EXPECT_EQ(resolve_lanes(), 128u);
  EXPECT_EQ(resolve_lanes(256), 256u);
  ::setenv("HLTG_LANES", "9999", 1);
  EXPECT_EQ(resolve_lanes(), kMaxLanes);
  ::unsetenv("HLTG_LANES");

  // Auto: some supported width, a multiple of 64.
  const unsigned autow = resolve_lanes();
  EXPECT_GE(autow, 64u);
  EXPECT_LE(autow, kMaxLanes);
  EXPECT_EQ(autow % 64, 0u);
}

// --------------------------------------------------- batched error detect

void expect_batch_matches_scalar(const std::vector<DesignError>& errs,
                                 const TestCase& tc) {
  std::vector<const DesignError*> ptrs;
  ptrs.reserve(errs.size());
  for (const DesignError& e : errs) ptrs.push_back(&e);

  BatchDetectConfig scalar;
  scalar.force_scalar = true;
  const std::vector<bool> ref = detect_errors(model(), tc, ptrs, scalar);
  const std::vector<bool> got = detect_errors(model(), tc, ptrs);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(ref[i], got[i]) << errs[i].describe(model().dp);

  // Chunk width must not matter (7 lanes forces many partial batches).
  BatchDetectConfig narrow;
  narrow.max_lanes = 7;
  EXPECT_EQ(detect_errors(model(), tc, ptrs, narrow), ref);
}

std::vector<DesignError> head(std::vector<DesignError> v, std::size_t n) {
  if (v.size() > n) v.resize(n);
  return v;
}

TestCase alu_program() {
  TestCase tc = make_tc(
      "addi r1, r0, 3\n"
      "addi r2, r0, 5\n"
      "add r3, r1, r2\n"
      "sub r4, r3, r1\n"
      "and r5, r3, r2\n"
      "or r6, r1, r2\n"
      "xor r7, r3, r4\n"
      "sw 0x40(r0), r3\n"
      "sw 0x44(r0), r7\n"
      "lw r8, 0x40(r0)\n"
      "add r9, r8, r6\n"
      "sw 0x48(r0), r9\n");
  tc.rf_init[10] = 0xDEADBEEFu;
  return tc;
}

TestCase branch_program() {
  return make_tc(
      "addi r1, r0, 1\n"
      "addi r10, r0, 7\n"
      "beqz r1, skip\n"
      "addi r10, r10, 1\n"
      "skip: bnez r1, taken\n"
      "addi r10, r10, 32\n"
      "taken: add r11, r10, r1\n"
      "sw 0x50(r0), r11\n"
      "sw 0x54(r0), r10\n");
}

TEST(BatchDetect, MatchesScalarOnSslPopulation) {
  // > 64 errors so the sweep spans multiple 64-lane batches.
  const auto errs = head(wrap(enumerate_bus_ssl(model().dp)), 80);
  ASSERT_GT(errs.size(), 64u);
  expect_batch_matches_scalar(errs, alu_program());
  expect_batch_matches_scalar(errs, branch_program());
}

TEST(BatchDetect, MatchesScalarOnMse) {
  const std::vector<Stage> stages = {Stage::kEX, Stage::kMEM, Stage::kWB};
  const auto errs = head(wrap(enumerate_mse(model().dp, stages)), 48);
  ASSERT_FALSE(errs.empty());
  expect_batch_matches_scalar(errs, alu_program());
}

TEST(BatchDetect, MatchesScalarOnBoe) {
  const std::vector<Stage> stages = {Stage::kEX, Stage::kMEM, Stage::kWB};
  const auto errs = head(wrap(enumerate_boe(model().dp, stages)), 48);
  ASSERT_FALSE(errs.empty());
  expect_batch_matches_scalar(errs, alu_program());
}

TEST(BatchDetect, MatchesScalarOnBse) {
  const auto errs = head(wrap(enumerate_bse(model().dp)), 48);
  ASSERT_FALSE(errs.empty());
  expect_batch_matches_scalar(errs, branch_program());
}

TEST(BatchDetect, MatchesScalarOnGeneratedTest) {
  // A directed test from the real generator, swept over a mixed population.
  const NetId net = model().dp.find_net("ex.alu_add");
  ASSERT_NE(net, kNoNet);
  DesignError target{BusSslError{net, 0, false}};
  TestGenerator tg(model());
  const TgResult r = tg.generate(target);
  ASSERT_EQ(r.status, TgStatus::kSuccess) << r.note;

  std::vector<DesignError> errs = head(wrap(enumerate_bus_ssl(model().dp)), 40);
  const auto bse = head(wrap(enumerate_bse(model().dp)), 20);
  errs.insert(errs.end(), bse.begin(), bse.end());
  expect_batch_matches_scalar(errs, r.test);
}

TEST(BatchDrop, DroppingCampaignAgreesWithScalarDetector) {
  // The dropping engine must compact identically whether the oracle is the
  // batched simulator or the serial per-error cosim.
  const auto some = head(wrap(enumerate_bus_ssl(model().dp)), 24);
  const DetectFn scalar = [](const TestCase& tc, const DesignError& e) {
    return detects(model(), tc, e.injection());
  };
  TestGenerator tg1(model());
  const CampaignResult a = run_campaign_with_dropping(
      model().dp, some, tg1.budgeted_strategy(), batch_from_scalar(scalar),
      CampaignConfig{});
  TestGenerator tg2(model());
  const CampaignResult b = run_campaign_with_dropping(
      model().dp, some, tg2.budgeted_strategy(), batch_detector(model()),
      CampaignConfig{});
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.tests_kept, b.tests_kept);
  EXPECT_EQ(a.stats.detected, b.stats.detected);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].error.describe(model().dp),
              b.rows[i].error.describe(model().dp));
    EXPECT_EQ(a.rows[i].attempt.detected(), b.rows[i].attempt.detected());
  }
  EXPECT_GT(a.dropped, 0u);
}

// --------------------------------------------- width-invariant detection

TEST(BatchDetectWide, OutcomesIdenticalAcrossLaneWidths) {
  std::vector<DesignError> errs = wrap(enumerate_bus_ssl(model().dp));
  if (errs.size() > 90) errs.resize(90);
  std::vector<const DesignError*> ptrs;
  for (const DesignError& e : errs) ptrs.push_back(&e);

  const AsmResult r = assemble(
      "addi r1, r0, 3\n"
      "addi r2, r0, 5\n"
      "add r3, r1, r2\n"
      "sub r4, r3, r1\n"
      "xor r7, r3, r4\n"
      "sw 0x40(r0), r3\n"
      "sw 0x44(r0), r7\n"
      "lw r8, 0x40(r0)\n"
      "add r9, r8, r4\n"
      "sw 0x48(r0), r9\n");
  ASSERT_TRUE(r.ok());
  TestCase tc;
  tc.imem = encode_program(r.program);

  BatchDetectConfig scalar;
  scalar.force_scalar = true;
  const std::vector<bool> ref = detect_errors(model(), tc, ptrs, scalar);

  for (unsigned width : {64u, 100u, 256u, 512u}) {
    BatchSimStats stats;
    BatchDetectConfig cfg;
    cfg.max_lanes = width;
    cfg.stats = &stats;
    EXPECT_EQ(detect_errors(model(), tc, ptrs, cfg), ref) << width;
    EXPECT_EQ(stats.lane_width, width);
    EXPECT_GT(stats.batches, 0u);
    EXPECT_GT(stats.controller_passes, 0u);
    EXPECT_EQ(stats.lanes_evaluated, errs.size());
  }

  // Wider lanes buy fewer batches: 90 errors = 2 batches at 64 lanes,
  // 1 at 256+.
  BatchSimStats s64, s256;
  BatchDetectConfig c64, c256;
  c64.max_lanes = 64;
  c64.stats = &s64;
  c256.max_lanes = 256;
  c256.stats = &s256;
  detect_errors(model(), tc, ptrs, c64);
  detect_errors(model(), tc, ptrs, c256);
  EXPECT_GT(s64.batches, s256.batches);
  EXPECT_GT(s64.controller_passes, s256.controller_passes);
}

// ------------------------------------------------- paired window capture

TEST(CaptureWindowPair, ExactlyEqualsTwoScalarCaptures) {
  const NetId net = model().dp.find_net("ex.alu_add");
  ASSERT_NE(net, kNoNet);
  const DesignError err{BusSslError{net, 0, false}};

  const AsmResult r = assemble(
      "addi r1, r0, 3\n"
      "add r3, r1, r1\n"
      "sw 0x40(r0), r3\n"
      "add r4, r3, r1\n"
      "sw 0x44(r0), r4\n");
  ASSERT_TRUE(r.ok());
  TestCase tc;
  tc.imem = encode_program(r.program);
  const unsigned cycles = 14;

  const WindowCapture ref_good = capture_window(model(), tc, cycles);
  const WindowCapture ref_err =
      capture_window(model(), tc, cycles, err.injection());

  WindowCapture good, err_cap;
  capture_window_pair(model(), tc, cycles, err.injection(), &good, &err_cap);
  ASSERT_EQ(good.cycles(), ref_good.cycles());
  ASSERT_EQ(err_cap.cycles(), ref_err.cycles());
  EXPECT_EQ(good.nets, ref_good.nets);
  EXPECT_EQ(good.gates, ref_good.gates);
  EXPECT_EQ(err_cap.nets, ref_err.nets);
  EXPECT_EQ(err_cap.gates, ref_err.gates);
  // The pair must genuinely differ somewhere, or the check is vacuous.
  EXPECT_NE(err_cap.nets, good.nets);
}

}  // namespace
}  // namespace hltg
