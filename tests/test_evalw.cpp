// Width-generic bit-parallel evaluation: lane-for-lane equivalence of the
// evalw kernels (every compiled backend, every word count including
// block+tail shapes) with the scalar 2-valued path, and of eval_cycle3's
// 01X kernel with an independent util/logic3 evaluator - on random
// netlists and the real DLX controller - plus the cached DFF list,
// batch-vs-scalar parity and width-invariance of the concurrent batch
// error simulator across all four error models, on directed and seeded
// random programs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/random_tg.h"
#include "core/tg.h"
#include "errors/boe.h"
#include "errors/bse.h"
#include "errors/bus_ssl.h"
#include "errors/mse.h"
#include "gatenet/eval3.h"
#include "gatenet/evalw.h"
#include "isa/asm.h"
#include "isa/testcase_io.h"
#include "random_net.h"
#include "sim/batch_sim.h"
#include "sim/cosim.h"
#include "util/logic3.h"
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

/// Every backend this binary can actually run (scalar always; AVX2 when
/// compiled in AND the CPU reports it).
std::vector<LaneBackend> available_backends() {
  std::vector<LaneBackend> out = {LaneBackend::kScalar};
  if (backend_available(LaneBackend::kAvx2)) out.push_back(LaneBackend::kAvx2);
  return out;
}

/// Word counts exercising the exact-block and block+scalar-tail paths of
/// every backend (1; 3 = tail only for AVX2; 5 = one AVX2 block + tail;
/// 8 = two AVX2 blocks).
const unsigned kWordCounts[] = {1, 2, 3, 4, 5, 8};

// ------------------------------------------------------------- 2-valued

/// Lane `l`'s bit of gate `g` in gate-major lane words.
bool lane2(const std::vector<std::uint64_t>& vw, GateId g, unsigned words,
           unsigned l) {
  return (vw[g * words + (l >> 6)] >> (l & 63)) & 1;
}

/// Drives `gn` for several clocked cycles at `words` lane words, one
/// eval_gatew call per gate in the packed op order under backend `b` (as
/// the batch simulator steps it), checking every gate of every lane
/// against an independent scalar load_reset2 / eval_cycle2 / clock_dffs2
/// run of that lane.
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
    for (const PackedLayout::Op& op : gn.packed().ops)
      eval_gatew(gn, op.gate, vw.data(), words, b);
    for (auto& v : ref) eval_cycle2(gn, v);
    for (GateId g = 0; g < gn.num_gates(); ++g)
      for (unsigned l = 0; l < lanes; ++l)
        ASSERT_EQ(lane2(vw, g, words, l), ref[l][g])
            << "cycle " << cycle << " gate " << gn.gate(g).name << " lane "
            << l << " words=" << words << " backend=" << to_string(b);
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
  // 256 lanes of the real controller under the backend backend_for picks,
  // as the batch simulator runs them.
  check_2valued(model().ctrl, 4, backend_for(4), 7);
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

// ------------------------------------------------------------------ 01X

/// Independent 01X reference: each gate straight from util/logic3's truth
/// tables, in topological order. eval_cycle3 runs the lane engine's
/// bit-pair kernel, which CTRLJUST's window shares; this evaluator shares
/// no code with it.
void reference_eval3(const GateNet& gn, std::vector<L3>& v) {
  for (GateId g : gn.topo_order()) {
    const Gate& gate = gn.gate(g);
    switch (gate.kind) {
      case GateKind::kVar:
      case GateKind::kDff:
        break;
      case GateKind::kConst0:
        v[g] = L3::F;
        break;
      case GateKind::kConst1:
        v[g] = L3::T;
        break;
      case GateKind::kBuf:
        v[g] = v[gate.fanin[0]];
        break;
      case GateKind::kNot:
        v[g] = l3_not(v[gate.fanin[0]]);
        break;
      case GateKind::kAnd: {
        L3 acc = L3::T;
        for (GateId in : gate.fanin) acc = l3_and(acc, v[in]);
        v[g] = acc;
        break;
      }
      case GateKind::kOr: {
        L3 acc = L3::F;
        for (GateId in : gate.fanin) acc = l3_or(acc, v[in]);
        v[g] = acc;
        break;
      }
      case GateKind::kXor:
        v[g] = l3_xor(v[gate.fanin[0]], v[gate.fanin[1]]);
        break;
    }
  }
}

void clock3(const GateNet& gn, std::vector<L3>& v) {
  std::vector<L3> next = v;
  for (GateId d : gn.dffs()) next[d] = v[gn.gate(d).fanin[0]];
  v = std::move(next);
}

/// `trials` independent runs from reset: each drives the kVar gates with
/// random 0/1/X for 4 clocked cycles and compares eval_cycle3 with the
/// reference on every gate.
void check_3valued(const GateNet& gn, unsigned trials, std::uint64_t seed) {
  const std::vector<GateId> vars = gn.gates_of_kind(GateKind::kVar);
  Rng rng(seed);
  for (unsigned trial = 0; trial < trials; ++trial) {
    std::vector<L3> got, want;
    load_reset3(gn, got);
    load_reset3(gn, want);
    for (int cycle = 0; cycle < 4; ++cycle) {
      for (GateId g : vars) {
        const std::uint64_t r = rng.below(3);
        got[g] = want[g] = r == 0 ? L3::F : (r == 1 ? L3::T : L3::X);
      }
      eval_cycle3(gn, got);
      reference_eval3(gn, want);
      for (GateId g = 0; g < gn.num_gates(); ++g)
        ASSERT_EQ(got[g], want[g])
            << "trial " << trial << " cycle " << cycle << " gate "
            << gn.gate(g).name;
      clock3(gn, got);
      clock3(gn, want);
    }
  }
}

TEST(Evalw3, MatchesScalarEval3OnRandomNets) {
  for (std::uint64_t seed : {44u, 55u})
    check_3valued(random_net(seed, 6, 40, 5), 256, seed);
}

TEST(Evalw3, MatchesScalarEval3OnDlxController) {
  check_3valued(model().ctrl, 64, 0x3A);
}

// --------------------------------------------------- dispatch & resolution

TEST(EvalwDispatch, ScalarAlwaysAvailableAndBackendForIsAvailable) {
  EXPECT_TRUE(backend_available(LaneBackend::kScalar));
  // AVX2 is picked exactly when its vector covers a full block and it runs
  // here.
  const LaneBackend wide = backend_available(LaneBackend::kAvx2)
                               ? LaneBackend::kAvx2
                               : LaneBackend::kScalar;
  for (unsigned words = 1; words <= 8; ++words)
    EXPECT_EQ(backend_for(words), words >= 4 ? wide : LaneBackend::kScalar)
        << words;
}

TEST(EvalwDispatch, ResolveLanesPrecedenceAndClamp) {
  // No request: kMaxLanes on every host.
  EXPECT_EQ(resolve_lanes(), kMaxLanes);
  // An explicit request wins and is clamped to [1, kMaxLanes].
  EXPECT_EQ(resolve_lanes(64), 64u);
  EXPECT_EQ(resolve_lanes(7), 7u);
  EXPECT_EQ(resolve_lanes(100000), kMaxLanes);
}

// --------------------------------------------------- batched error detect

/// Batch verdicts at 7 (many partial batches), 64 and 512 lanes equal the
/// serial oracle's, and so does the per-lane work: the lanes of a batch
/// never interact, so module_evals does not depend on the width. Returns
/// the verdicts.
std::vector<bool> expect_batch_matches_scalar(
    const std::vector<DesignError>& errs, const TestCase& tc) {
  std::vector<const DesignError*> ptrs;
  ptrs.reserve(errs.size());
  for (const DesignError& e : errs) ptrs.push_back(&e);

  BatchDetectConfig scalar;
  scalar.force_scalar = true;
  const std::vector<bool> ref = detect_errors(model(), tc, ptrs, scalar);
  std::vector<std::uint64_t> module_evals;
  for (unsigned width : {7u, 64u, 512u}) {
    BatchSimStats stats;
    BatchDetectConfig cfg;
    cfg.max_lanes = width;
    cfg.stats = &stats;
    const std::vector<bool> got = detect_errors(model(), tc, ptrs, cfg);
    EXPECT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size() && i < got.size(); ++i)
      EXPECT_EQ(ref[i], got[i])
          << width << " lanes: " << errs[i].describe(model().dp);
    module_evals.push_back(stats.module_evals);
  }
  EXPECT_EQ(module_evals[0], module_evals[1]);
  EXPECT_EQ(module_evals[0], module_evals[2]);
  return ref;
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
  // serial per-error cosim or the batched simulator at any width: 7 lanes
  // (partial batches) and the default. The heads of the ssl, mse and bse EX
  // populations; bse's rewired reads exercise the batch engine's
  // previous-cycle rule.
  const std::vector<Stage> ex = {Stage::kEX};
  BusSslConfig ssl;
  ssl.stages = ex;
  BseConfig bse;
  bse.stages = ex;
  const DetectFn scalar = [](const TestCase& tc, const DesignError& e) {
    return detects(model(), tc, e.injection());
  };
  BatchDetectConfig narrow;
  narrow.max_lanes = 7;
  for (const std::vector<DesignError>& errs :
       {head(wrap(enumerate_bus_ssl(model().dp, ssl)), 24),
        head(wrap(enumerate_mse(model().dp, ex)), 24),
        head(wrap(enumerate_bse(model().dp, bse)), 24)}) {
    const std::string what = errs.front().model_name();
    const auto run = [&](const BatchDetectFn& detect) {
      TestGenerator tg(model());
      return run_campaign_with_dropping(model().dp, errs,
                                        tg.budgeted_strategy(), detect,
                                        CampaignConfig{});
    };
    const CampaignResult ref = run(batch_from_scalar(scalar));
    EXPECT_GT(ref.dropped, 0u) << what;
    for (const BatchDetectConfig& cfg : {narrow, BatchDetectConfig{}}) {
      const CampaignResult got = run(batch_detector(model(), cfg));
      const std::string at = what + " at " + std::to_string(cfg.max_lanes);
      EXPECT_EQ(got.dropped, ref.dropped) << at;
      EXPECT_EQ(got.tests_kept, ref.tests_kept) << at;
      EXPECT_EQ(got.stats.detected, ref.stats.detected) << at;
      ASSERT_EQ(got.rows.size(), ref.rows.size()) << at;
      for (std::size_t i = 0; i < ref.rows.size(); ++i) {
        const ErrorAttempt& r = ref.rows[i].attempt;
        const ErrorAttempt& g = got.rows[i].attempt;
        const std::string row = ref.rows[i].error.describe(model().dp);
        EXPECT_EQ(got.rows[i].error.describe(model().dp), row) << at;
        EXPECT_EQ(g.outcome(), r.outcome()) << at << ": " << row;
        EXPECT_EQ(g.abort, r.abort) << at << ": " << row;
        EXPECT_EQ(g.verify, r.verify) << at << ": " << row;
        EXPECT_EQ(g.test_length, r.test_length) << at << ": " << row;
        EXPECT_EQ(g.backtracks, r.backtracks) << at << ": " << row;
        EXPECT_EQ(g.decisions, r.decisions) << at << ": " << row;
        EXPECT_EQ(serialize_test(g.test), serialize_test(r.test))
            << at << ": " << row;
      }
    }
  }
}

// ------------------------------------- concurrent simulation vs serial

/// The four models' EX/MEM/WB population, as grade_random grades it.
std::vector<DesignError> full_population() {
  const std::vector<Stage> stages = {Stage::kEX, Stage::kMEM, Stage::kWB};
  const Netlist& dp = model().dp;
  std::vector<DesignError> out;
  for (auto&& part :
       {wrap(enumerate_bus_ssl(dp)), wrap(enumerate_mse(dp, stages)),
        wrap(enumerate_boe(dp, stages)), wrap(enumerate_bse(dp))})
    out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// Seeded biased-random programs, `per_length` of each length 6..48.
std::vector<TestCase> random_suite(std::uint64_t seed, unsigned per_length) {
  Rng rng(seed);
  std::vector<TestCase> out;
  for (unsigned len : {6u, 10u, 16u, 24u, 32u, 48u})
    for (unsigned k = 0; k < per_length; ++k) {
      RandomTgConfig cfg;
      cfg.program_length = len;
      out.push_back(random_test(rng, cfg));
    }
  return out;
}

TEST(BatchDetect, RandomSuiteMatchesSerialOnEveryModel) {
  const std::vector<DesignError> errs = full_population();
  std::size_t hits = 0, pairs = 0;
  for (const TestCase& tc : random_suite(23, 1)) {
    for (const bool b : expect_batch_matches_scalar(errs, tc)) hits += b;
    pairs += errs.size();
  }
  // Both verdicts occur, or the comparison proves little.
  EXPECT_GT(hits, pairs / 10);
  EXPECT_LT(hits, pairs);
}

TEST(BatchDetect, PreviousCycleReadsMatchSerial) {
  // ProcSim's single pass lets a step that reads a net produced at its own
  // or a later schedule rank see that net's previous-cycle value. A BSE
  // that wires mem.bem_b to its own output reads so, and so does the adder
  // fed from the ALU result it drives.
  const Netlist& dp = model().dp;
  const ScheduleFanout& fan = model().fanout();
  std::vector<DesignError> errs;
  for (const BusSourceError& e : enumerate_bse(dp))
    if (e.wrong_source == dp.module(e.module).out)
      errs.push_back(DesignError{e});
  ASSERT_FALSE(errs.empty());
  EXPECT_EQ(dp.module(std::get<BusSourceError>(errs[0].e).module).name,
            "mem.bem_b");
  const ModId add = dp.net(dp.find_net("ex.alu_add")).driver;
  const NetId later = dp.find_net("ex.alu_res");
  ASSERT_NE(later, kNoNet);
  ASSERT_GT(fan.producer[later], fan.producer[dp.module(add).out]);
  for (unsigned slot : {0u, 1u})
    errs.push_back(DesignError{BusSourceError{add, slot, later}});

  std::vector<TestCase> tests = random_suite(5, 2);
  tests.push_back(alu_program());
  tests.push_back(branch_program());
  std::vector<std::size_t> hits(errs.size(), 0);
  for (const TestCase& tc : tests) {
    const std::vector<bool> v = expect_batch_matches_scalar(errs, tc);
    for (std::size_t i = 0; i < v.size(); ++i) hits[i] += v[i];
  }
  // Every such error is detected by some test, and some tests miss the
  // self-wired ones.
  for (std::size_t i = 0; i < errs.size(); ++i)
    EXPECT_GT(hits[i], 0u) << errs[i].describe(dp);
  EXPECT_LT(hits[0], tests.size());
}

TEST(BatchDetect, DivergingFaultFreeMachineMatchesSerial) {
  // A backward branch: the fault-free implementation itself diverges from
  // the specification (ROADMAP item 2). Every lane is still compared with
  // the specification's stores, never with the fault-free machine.
  TestCase tc = make_tc(
      "sw 0(r4), r1\n"
      "beqz r0, -3\n"
      "nop\n"
      "nop\n");
  tc.rf_init[1] = 5;
  tc.rf_init[4] = 64;
  ASSERT_TRUE(detects(model(), tc, ErrorInjection{}));
  expect_batch_matches_scalar(full_population(), tc);
}

TEST(BatchDetect, SeededSuiteVerdictsArePinned) {
  // FNV-1a over the verdicts of twelve seeded programs against the whole
  // population, computed with the previous full per-lane engine.
  const std::vector<DesignError> errs = full_population();
  ASSERT_EQ(errs.size(), 433u);
  std::vector<const DesignError*> ptrs;
  for (const DesignError& e : errs) ptrs.push_back(&e);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t hits = 0;
  for (const TestCase& tc : random_suite(0x5EED5, 2))
    for (const bool b : detect_errors(model(), tc, ptrs)) {
      h = (h ^ (b ? 1u : 0u)) * 0x100000001b3ULL;
      hits += b;
    }
  EXPECT_EQ(hits, 2142u);
  EXPECT_EQ(h, 0x267db84b82265355ULL);
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

  std::vector<std::uint64_t> module_evals;
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
    module_evals.push_back(stats.module_evals);
  }
  // Per-lane work is the lanes' own, whatever batches they ride in.
  EXPECT_GT(module_evals[0], 0u);
  for (std::uint64_t n : module_evals) EXPECT_EQ(n, module_evals[0]);

  // One batch holds at most kMaxLanes machines.
  const ErrorInjection clean;
  const std::vector<const ErrorInjection*> too_many(kMaxLanes + 1, &clean);
  EXPECT_THROW(batch_detectw(model(), tc, spec_run(tc, 8), 8, too_many),
               std::invalid_argument);

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

TEST(BatchDetectWide, BackendNamesTheWidestBatchKernel) {
  // 300 errors at 256 lanes: a full 256-lane batch (four words), then a
  // 44-lane rest (one word, the portable kernel). The stats name the
  // kernel of the full batch, not of the last one.
  std::vector<DesignError> errs = wrap(enumerate_bus_ssl(model().dp));
  const std::vector<DesignError> mse = wrap(
      enumerate_mse(model().dp, {Stage::kEX, Stage::kMEM, Stage::kWB}));
  errs.insert(errs.end(), mse.begin(), mse.end());
  ASSERT_GT(errs.size(), 300u);
  errs.resize(300);
  std::vector<const DesignError*> ptrs;
  for (const DesignError& e : errs) ptrs.push_back(&e);
  TestCase tc;
  tc.imem = encode_program({Instr{Op::kAddi, 0, 0, 1, 3}});  // addi r1, r0, 3
  BatchSimStats stats;
  BatchDetectConfig cfg;
  cfg.max_lanes = 256;
  cfg.stats = &stats;
  detect_errors(model(), tc, ptrs, cfg);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.widest_batch, 256u);
  EXPECT_EQ(stats.backend, backend_for(4));
}

}  // namespace
}  // namespace hltg
