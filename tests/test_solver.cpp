// Tests of the shared deduction subsystem (src/solver/, docs/SOLVER.md):
// implication-engine propagation fixpoints and conflict cuts on hand-built
// cones, the learned-conflict store, objective canonicalization, the
// justification cache, and the engine-on/off equivalence property over
// the CTRLJUST objective corpus.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ctrljust.h"
#include "core/tg.h"
#include "core/unroll.h"
#include "dlx/dlx.h"
#include "errors/bus_ssl.h"
#include "errors/inject.h"
#include "gatenet/gate_builder.h"
#include "isa/testcase_io.h"
#include "random_net.h"
#include "solver/implication.h"
#include "solver/justcache.h"
#include "solver/nogoods.h"
#include "solver/solver.h"
#include "solver/store.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

GateId ctrl_bit(const char* net_name, unsigned bit = 0) {
  const NetId n = model().dp.find_net(net_name);
  EXPECT_NE(n, kNoNet) << net_name;
  return model().find_ctrl(n)->bits[bit];
}

// ---------------------------------------------------- propagation fixpoints

TEST(Implication, ForwardControllingValue) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId b = g.var("b", SigRole::kCPI);
  const GateId y = g.and_("y", {a, b});
  const GateId z = g.or_("z", {a, b});
  ImplicationEngine eng(gn, 1);
  ASSERT_TRUE(eng.assert_lit(a, 0, false, false));
  ASSERT_TRUE(eng.propagate());
  EXPECT_EQ(eng.value(y, 0), L3::F);  // AND: controlling 0
  EXPECT_EQ(eng.value(z, 0), L3::X);  // OR still open
  ASSERT_TRUE(eng.assert_lit(b, 0, true, false));
  ASSERT_TRUE(eng.propagate());
  EXPECT_EQ(eng.value(z, 0), L3::T);
}

TEST(Implication, BackwardAndDemandsAllFanins) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId b = g.var("b", SigRole::kCPI);
  const GateId c = g.var("c", SigRole::kCPI);
  const GateId y = g.and_("y", {a, b, c});
  ImplicationEngine eng(gn, 1);
  ASSERT_TRUE(eng.assert_lit(y, 0, true, false));
  ASSERT_TRUE(eng.propagate());
  EXPECT_EQ(eng.value(a, 0), L3::T);
  EXPECT_EQ(eng.value(b, 0), L3::T);
  EXPECT_EQ(eng.value(c, 0), L3::T);
}

TEST(Implication, BackwardLastFreeFaninForced) {
  // AND demanded 0 with every other fanin already 1: the one X fanin must
  // carry the controlling 0.
  GateNet gn;
  GateBuilder g(gn);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId b = g.var("b", SigRole::kCPI);
  const GateId c = g.var("c", SigRole::kCPI);
  const GateId y = g.and_("y", {a, b, c});
  ImplicationEngine eng(gn, 1);
  ASSERT_TRUE(eng.assert_lit(y, 0, false, false));
  ASSERT_TRUE(eng.assert_lit(a, 0, true, false));
  ASSERT_TRUE(eng.assert_lit(b, 0, true, false));
  ASSERT_TRUE(eng.propagate());
  EXPECT_EQ(eng.value(c, 0), L3::F);
}

TEST(Implication, XorBidirectional) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId b = g.var("b", SigRole::kCPI);
  const GateId y = g.xor_("y", a, b);
  ImplicationEngine eng(gn, 1);
  ASSERT_TRUE(eng.assert_lit(y, 0, true, false));
  ASSERT_TRUE(eng.assert_lit(a, 0, false, false));
  ASSERT_TRUE(eng.propagate());
  EXPECT_EQ(eng.value(b, 0), L3::T);
}

TEST(Implication, DffCouplesAdjacentCycles) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId d = g.var("d", SigRole::kCPI);
  const GateId q = g.dff("q", d);
  const GateId d2 = g.var("d2", SigRole::kCPI);
  const GateId q2 = g.dff("q2", d2);
  ImplicationEngine eng(gn, 3);
  // Forward: D at t forces Q at t+1.
  ASSERT_TRUE(eng.assert_lit(d, 1, true, false));
  ASSERT_TRUE(eng.propagate());
  EXPECT_EQ(eng.value(q, 2), L3::T);
  // Backward: a demanded Q at t forces D at t-1.
  ASSERT_TRUE(eng.assert_lit(q2, 2, true, false));
  ASSERT_TRUE(eng.propagate());
  EXPECT_EQ(eng.value(d2, 1), L3::T);
}

TEST(Implication, ResetFixpointAtConstruction) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId d = g.var("d", SigRole::kCPI);
  const GateId q0 = g.dff("q0", d, /*reset_value=*/false);
  const GateId q1 = g.dff("q1", d, /*reset_value=*/true);
  const GateId k1 = g.const1();
  ImplicationEngine eng(gn, 2);
  EXPECT_EQ(eng.value(q0, 0), L3::F);
  EXPECT_EQ(eng.value(q1, 0), L3::T);
  EXPECT_EQ(eng.value(k1, 0), L3::T);
  EXPECT_EQ(eng.value(k1, 1), L3::T);
  EXPECT_EQ(eng.value(q0, 1), L3::X);  // depends on the free d@0
}

TEST(Implication, WatchedWideGate) {
  // A wide OR only wakes when a controlling 1 arrives or when the watched
  // fanins run out; either way the deduction fixpoint is the same as a
  // rescan. Drive all-but-one fanin to 0 with the output demanded 1: the
  // last fanin must be forced.
  GateNet gn;
  GateBuilder g(gn);
  std::vector<GateId> in;
  for (char c = 'a'; c < 'a' + 10; ++c)
    in.push_back(g.var(std::string(1, c), SigRole::kCPI));
  const GateId y = g.or_("y", in);
  ImplicationEngine eng(gn, 1);
  ASSERT_TRUE(eng.assert_lit(y, 0, true, false));
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(eng.assert_lit(in[i], 0, false, false));
    ASSERT_TRUE(eng.propagate());
  }
  EXPECT_EQ(eng.value(in[9], 0), L3::T);
  // And the controlling direction: a single 1 forces the output.
  ImplicationEngine eng2(gn, 1);
  ASSERT_TRUE(eng2.assert_lit(in[7], 0, true, false));
  ASSERT_TRUE(eng2.propagate());
  EXPECT_EQ(eng2.value(y, 0), L3::T);
}

TEST(Implication, PopRestoresValues) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId b = g.var("b", SigRole::kCPI);
  const GateId y = g.and_("y", {a, b});
  ImplicationEngine eng(gn, 1);
  ASSERT_TRUE(eng.assert_lit(a, 0, true, false));
  ASSERT_TRUE(eng.propagate());
  eng.push_level();
  ASSERT_TRUE(eng.assert_lit(b, 0, true, true));
  ASSERT_TRUE(eng.propagate());
  EXPECT_EQ(eng.value(y, 0), L3::T);
  eng.pop_to(0);
  EXPECT_EQ(eng.value(b, 0), L3::X);
  EXPECT_EQ(eng.value(y, 0), L3::X);
  EXPECT_EQ(eng.value(a, 0), L3::T);  // level-0 root survives
}

// ----------------------------------------------------------- conflict cuts

TEST(Implication, ConflictCutContainsOnlyRelevantRoots) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId b = g.var("b", SigRole::kCPI);
  const GateId c = g.var("c", SigRole::kCPI);  // irrelevant bystander
  const GateId y = g.and_("y", {a, b});
  (void)g.or_("z", {a, c});
  ImplicationEngine eng(gn, 1);
  ASSERT_TRUE(eng.assert_lit(c, 0, true, false));  // noise root
  ASSERT_TRUE(eng.assert_lit(y, 0, false, false));
  eng.push_level();
  ASSERT_TRUE(eng.assert_lit(a, 0, true, true));
  ASSERT_TRUE(eng.propagate());
  // Backward deduction has already forced b=0 (y=0 with a=1 leaves b as
  // the only controlling fanin), so demanding b=1 clashes at the root.
  eng.push_level();
  EXPECT_FALSE(eng.assert_lit(b, 0, true, true) && eng.propagate());
  ASSERT_TRUE(eng.in_conflict());
  const std::vector<Lit> cut = eng.conflict_cut();
  // The cut is the minimal root set on the contradiction path: a, b and the
  // y=0 demand. The bystander c never appears.
  ASSERT_EQ(cut.size(), 3u);
  for (const Lit& l : cut) EXPECT_NE(l.gate, c);
  EXPECT_TRUE(std::is_sorted(cut.begin(), cut.end()));
  // The cut is a valid nogood: its literals are exactly {a=1, b=1, y=0}.
  const std::vector<Lit> want = {{y, 0, false}, {a, 0, true}, {b, 0, true}};
  std::vector<Lit> sorted_want = want;
  std::sort(sorted_want.begin(), sorted_want.end());
  EXPECT_EQ(cut, sorted_want);
}

TEST(Implication, ClashingRootEntersCut) {
  // Asserting the opposite of an already-forced value must conflict, and
  // the clashing root itself must appear in the cut even though it never
  // entered the implication graph.
  GateNet gn;
  GateBuilder g(gn);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId y = g.not_("y", a);
  ImplicationEngine eng(gn, 1);
  ASSERT_TRUE(eng.assert_lit(a, 0, true, false));
  ASSERT_TRUE(eng.propagate());  // y = 0
  eng.push_level();
  EXPECT_FALSE(eng.assert_lit(y, 0, true, true) && eng.propagate());
  const std::vector<Lit> cut = eng.conflict_cut();
  EXPECT_FALSE(cut.empty());
  EXPECT_TRUE(std::any_of(cut.begin(), cut.end(),
                          [&](const Lit& l) { return l.gate == y; }));
}

TEST(Implication, BackwardRulesChainThroughGates) {
  // A value forced backward is itself a demand on its own gate: y = 1
  // forces x = 1, and x = 1 must in turn force both of x's fanins.
  GateNet gn;
  GateBuilder g(gn);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId b = g.var("b", SigRole::kCPI);
  const GateId c = g.var("c", SigRole::kCPI);
  const GateId x = g.and_("x", {a, b});
  const GateId y = g.and_("y", {x, c});
  ImplicationEngine eng(gn, 1);
  ASSERT_TRUE(eng.assert_lit(y, 0, true, false));
  ASSERT_TRUE(eng.propagate());
  EXPECT_EQ(eng.value(x, 0), L3::T);
  EXPECT_EQ(eng.value(a, 0), L3::T);
  EXPECT_EQ(eng.value(b, 0), L3::T);
}

// ------------------------------------ seeded runs: reuse, cuts, wake table

/// What a seeded run does to an engine: every trail, propagation count and
/// conflict cut, in order. Two runs log the same only when they made every
/// deduction the same way.
struct EngineLog {
  std::vector<std::vector<ImplicationEngine::NodeId>> trails;
  std::vector<std::uint64_t> propagations;
  std::vector<std::vector<Lit>> cuts;
  bool operator==(const EngineLog&) const = default;
};

/// A search-like run: each step opens a level and asserts a random free
/// gate (variables and internal signals alike, so backward rules fire) to
/// a random value. On a conflict, `on_conflict(eng)` runs and the engine
/// pops back to a random lower level.
template <typename OnConflict>
EngineLog drive(ImplicationEngine& eng, std::uint64_t seed, unsigned steps,
                OnConflict on_conflict) {
  const GateNet& gn = eng.net();
  Rng rng(seed);
  EngineLog log;
  unsigned level = 0;
  for (unsigned i = 0; i < steps; ++i) {
    const GateId g = static_cast<GateId>(rng.below(gn.num_gates()));
    const unsigned t = static_cast<unsigned>(rng.below(eng.cycles()));
    if (eng.value(g, t) != L3::X) continue;
    eng.push_level();
    ++level;
    if (!(eng.assert_lit(g, t, rng.flip(), true) && eng.propagate())) {
      on_conflict(eng);
      log.cuts.push_back(eng.conflict_cut());
      level = static_cast<unsigned>(rng.below(level));
      eng.pop_to(level);
    }
    log.trails.push_back(eng.trail());
    log.propagations.push_back(eng.propagations());
  }
  return log;
}

EngineLog drive(ImplicationEngine& eng, std::uint64_t seed, unsigned steps) {
  return drive(eng, seed, steps, [](ImplicationEngine&) {});
}

/// Every value, the trail, the propagation count and every watched pin.
bool same_state(const ImplicationEngine& a, const ImplicationEngine& b) {
  if (a.trail() != b.trail() || a.propagations() != b.propagations())
    return false;
  for (unsigned t = 0; t < a.cycles(); ++t)
    for (GateId g = 0; g < a.net().num_gates(); ++g)
      if (a.value(g, t) != b.value(g, t) ||
          a.watched_pins(g, t) != b.watched_pins(g, t))
        return false;
  return true;
}

TEST(Implication, RenewRestoresTheNewEngine) {
  const unsigned kCycles = 8;
  ImplicationEngine fresh(model().ctrl, kCycles);
  ImplicationEngine used(model().ctrl, kCycles);
  const EngineLog warmup = drive(used, 1, 400);
  ASSERT_FALSE(warmup.cuts.empty());  // the run backtracked, too
  // reset() rewinds the values but leaves the watches the run moved.
  used.reset();
  EXPECT_FALSE(same_state(fresh, used));
  used.renew();
  EXPECT_TRUE(same_state(fresh, used));
  // From here on both make the same deductions in the same order.
  EXPECT_EQ(drive(fresh, 2, 400), drive(used, 2, 400));
}

TEST(Implication, BoundedCutIsTheCutOrNothing) {
  ImplicationEngine eng(model().ctrl, 8);
  std::size_t conflicts = 0, widest = 0;
  drive(eng, 3, 600, [&](ImplicationEngine& e) {
    const std::vector<Lit> full = e.conflict_cut();
    ++conflicts;
    widest = std::max(widest, full.size());
    for (std::size_t limit = 0; limit <= full.size() + 1; ++limit) {
      const std::vector<Lit> bounded = e.conflict_cut(limit);
      if (full.size() <= limit)
        EXPECT_EQ(bounded, full) << "limit " << limit;
      else
        EXPECT_TRUE(bounded.empty()) << "limit " << limit;
    }
  });
  EXPECT_GE(conflicts, 10u);
  EXPECT_GE(widest, 3u);
}

TEST(Implication, WakeTableFollowsFanoutScan) {
  // The table must list what scanning each fanout's fanin list finds: a
  // fanout that reads g on two pins appears twice in GateNet::fanouts(),
  // and each appearance wakes both pins.
  bool saw_duplicate = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const GateNet gn = random_net(seed, 4, 40, 4);
    const ImplicationEngine eng(gn, 2);
    for (GateId g = 0; g < gn.num_gates(); ++g) {
      std::vector<ImplicationEngine::Wake> scan;
      for (GateId f : gn.fanouts()[g]) {
        const Gate& fg = gn.gate(f);
        if (fg.kind == GateKind::kDff) {
          scan.push_back({f, ImplicationEngine::kDffPin});
          continue;
        }
        unsigned pins = 0;
        for (std::uint32_t i = 0; i < fg.fanin.size(); ++i)
          if (fg.fanin[i] == g) {
            scan.push_back({f, i});
            ++pins;
          }
        saw_duplicate |= pins > 1;
      }
      const std::span<const ImplicationEngine::Wake> table = eng.wakes(g);
      EXPECT_TRUE(std::equal(table.begin(), table.end(), scan.begin(),
                             scan.end()))
          << "seed " << seed << ", gate " << g;
    }
  }
  EXPECT_TRUE(saw_duplicate);
}

TEST(Implication, SeededRunIsPinned) {
  // The deductions themselves are pinned: a long seeded run on the DLX
  // controller must log exactly what the engine without propagation
  // shortcuts (no wake table, forward-node skip or bounded cuts) logged;
  // the constant was computed with that engine. A shortcut that changes
  // one deduction, its order or its antecedents fails here.
  Fnv1a h(kFnvOffsetBasis);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ImplicationEngine eng(model().ctrl, 14);
    const EngineLog log = drive(eng, seed, 500);
    for (const auto& trail : log.trails) {
      h.u64(trail.size());
      for (ImplicationEngine::NodeId nd : trail) h.u64(nd);
    }
    for (std::uint64_t p : log.propagations) h.u64(p);
    for (const auto& cut : log.cuts) h.u64(hash_lits(cut));
  }
  EXPECT_EQ(h.h, 0x7435016b1afc3caaull);
}

// ------------------------------------------------------------ nogood store

TEST(Nogoods, LearnDedupeAndCap) {
  NogoodStore store(/*capacity=*/2, /*max_lits=*/3);
  EXPECT_TRUE(store.learn({{1, 0, true}, {2, 0, false}}));
  EXPECT_FALSE(store.learn({{1, 0, true}, {2, 0, false}}));  // duplicate
  EXPECT_FALSE(store.learn({}));                             // empty
  EXPECT_FALSE(store.learn(
      {{1, 0, true}, {2, 0, true}, {3, 0, true}, {4, 0, true}}));  // too wide
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.learn({{3, 1, true}}));
  EXPECT_EQ(store.size(), 2u);
  // Touch the first entry so the second is the LRU victim.
  store.touch(0);
  EXPECT_TRUE(store.learn({{4, 2, false}}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.learned(), 3u);  // monotone across eviction
  bool first_still_there = false;
  for (std::size_t i = 0; i < store.size(); ++i)
    first_still_there |= store.lits(i) ==
                         std::vector<Lit>{{1, 0, true}, {2, 0, false}};
  EXPECT_TRUE(first_still_there);
}

// -------------------------------------------------------- canonicalization

TEST(Canonicalize, SortsAndDedupes) {
  std::vector<Lit> key;
  const std::vector<CtrlObjective> objs = {
      {7, 3, true}, {2, 1, false}, {7, 3, true}, {5, 1, true}};
  ASSERT_EQ(canonicalize_objectives(objs, &key), CanonStatus::kOk);
  const std::vector<Lit> want = {{2, 1, false}, {5, 1, true}, {7, 3, true}};
  EXPECT_EQ(key, want);
}

TEST(Canonicalize, DetectsContradiction) {
  std::vector<Lit> key;
  const std::vector<CtrlObjective> objs = {{7, 3, true}, {7, 3, false}};
  EXPECT_EQ(canonicalize_objectives(objs, &key),
            CanonStatus::kContradiction);
}

// ------------------------------------------------------ justification cache

TEST(JustCache, HitMissAndLru) {
  // The cache keeps every entry in insertion order (no capacity, no LRU);
  // inserting a present key replaces its entry in place.
  JustCache cache;
  const std::vector<Lit> k1 = {{1, 0, true}};
  const std::vector<Lit> k2 = {{2, 0, true}};
  const std::vector<Lit> k3 = {{3, 0, true}};
  EXPECT_EQ(cache.lookup(k1), nullptr);
  JustCacheEntry e;
  e.success = true;
  e.cpi_assignments.emplace_back(9, 0, true);
  cache.insert(k1, e);
  const JustCacheEntry* hit = cache.lookup(k1);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->success);
  ASSERT_EQ(hit->cpi_assignments.size(), 1u);
  cache.insert(k3, JustCacheEntry{});
  cache.insert(k2, JustCacheEntry{});
  EXPECT_EQ(cache.lookup({{4, 0, true}}), nullptr);

  // Replace-on-insert: k1 now holds a failure, still in its first slot.
  JustCacheEntry failure;
  failure.sts_assignments.emplace_back(5, 1, false);
  cache.insert(k1, failure);
  EXPECT_EQ(cache.size(), 3u);
  hit = cache.lookup(k1);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->success);
  EXPECT_TRUE(hit->cpi_assignments.empty());
  ASSERT_EQ(hit->sts_assignments.size(), 1u);

  // Export walks insertion order, which persisted stores depend on.
  const auto& out = cache.export_entries();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].key, k1);
  EXPECT_FALSE(out[0].entry.success);
  EXPECT_EQ(out[1].key, k3);
  EXPECT_EQ(out[2].key, k2);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(k1), nullptr);
}

// ------------------------------------------ engine-on/off equivalence

std::vector<std::vector<CtrlObjective>> objective_corpus() {
  std::vector<std::vector<CtrlObjective>> corpus;
  corpus.push_back({{ctrl_bit("ctrl.mem_we"), 3, true}});
  corpus.push_back({{ctrl_bit("ctrl.mem_we"), 4, true}});
  corpus.push_back({{ctrl_bit("ctrl.rf_we"), 2, true}});  // unreachable
  corpus.push_back({{ctrl_bit("ctrl.rf_we"), 4, true}});
  corpus.push_back({{ctrl_bit("ctrl.alu_sel", 0), 4, true}});
  corpus.push_back({{ctrl_bit("ctrl.alu_sel", 1), 4, true},
                    {ctrl_bit("ctrl.alu_sel", 0), 4, false}});
  corpus.push_back({{ctrl_bit("ctrl.alu_sel", 0), 4, true},
                    {ctrl_bit("ctrl.alu_sel", 1), 4, true},
                    {ctrl_bit("ctrl.alu_sel", 2), 4, true},
                    {ctrl_bit("ctrl.alu_sel", 3), 4, true}});  // no such op
  corpus.push_back({{ctrl_bit("ctrl.mem_we"), 3, true},
                    {ctrl_bit("ctrl.rf_we"), 4, true}});
  corpus.push_back({{ctrl_bit("ctrl.mem_we"), 3, true},
                    {ctrl_bit("ctrl.rf_we"), 5, true}});
  corpus.push_back({{ctrl_bit("ctrl.fwd_a"), 4, true}});
  return corpus;
}

bool witness_satisfies(const CtrlJustResult& r,
                       const std::vector<CtrlObjective>& objs,
                       unsigned cycles) {
  ControllerWindow w(model().ctrl, cycles);
  for (auto [g, t, v] : r.cpi_assignments) w.assign(g, t, l3_from_bool(v));
  for (auto [g, t, v] : r.sts_assignments) w.assign(g, t, l3_from_bool(v));
  w.imply();
  for (const CtrlObjective& o : objs)
    if (w.value(o.gate, o.cycle) != l3_from_bool(o.value)) return false;
  return true;
}

TEST(SolverEquivalence, EngineMatchesLegacyOnCorpus) {
  const unsigned kCycles = 10;
  SolverContext ctx;
  std::size_t idx = 0;
  for (const auto& objs : objective_corpus()) {
    SCOPED_TRACE("objective set #" + std::to_string(idx++));
    CtrlJustConfig off_cfg;
    off_cfg.use_engine = false;
    CtrlJust off(model().ctrl, kCycles, off_cfg);
    const CtrlJustResult r_off = off.solve(objs);

    CtrlJust engine(model().ctrl, kCycles);
    engine.set_context(&ctx);
    const CtrlJustResult er = engine.solve(objs);

    // The engine only prunes doomed subtrees: same leaf, same witness.
    EXPECT_EQ(r_off.status, er.status);
    EXPECT_EQ(r_off.cpi_assignments, er.cpi_assignments);
    EXPECT_EQ(r_off.sts_assignments, er.sts_assignments);
    if (er.status == TgStatus::kSuccess) {
      EXPECT_TRUE(witness_satisfies(er, objs, kCycles));
    }
  }
}

TEST(SolverEquivalence, CachedReplayMatchesLiveSolve) {
  // Solving the same objective set twice through one context: the second
  // solve must come from the cache with the identical witness.
  SolverContext ctx;
  const std::vector<CtrlObjective> objs = {{ctrl_bit("ctrl.mem_we"), 3, true}};
  CtrlJust cj(model().ctrl, 10);
  cj.set_context(&ctx);
  const CtrlJustResult first = cj.solve(objs);
  ASSERT_EQ(first.status, TgStatus::kSuccess);
  const CtrlJustResult second = cj.solve(objs);
  EXPECT_EQ(second.status, TgStatus::kSuccess);
  EXPECT_EQ(second.stats.cache_hits, 1u);
  EXPECT_EQ(second.cpi_assignments, first.cpi_assignments);
  EXPECT_EQ(second.sts_assignments, first.sts_assignments);
}

TEST(SolverEquivalence, CacheIsWindowIndependent) {
  // A definitive result transfers to any window that admits the objective
  // set (docs/SOLVER.md): the same key solved at a longer window hits.
  SolverContext ctx;
  const std::vector<CtrlObjective> objs = {{ctrl_bit("ctrl.mem_we"), 3, true}};
  CtrlJust small(model().ctrl, 10);
  small.set_context(&ctx);
  ASSERT_EQ(small.solve(objs).status, TgStatus::kSuccess);
  CtrlJust big(model().ctrl, 14);
  big.set_context(&ctx);
  const CtrlJustResult r = big.solve(objs);
  EXPECT_EQ(r.status, TgStatus::kSuccess);
  EXPECT_EQ(r.stats.cache_hits, 1u);
  EXPECT_TRUE(witness_satisfies(r, objs, 14));
}

// ----------------------------------- TG-level detection-outcome equivalence

TEST(SolverEquivalence, DetectionOutcomesMatchAcrossConfigs) {
  // Engine on (default), engine off, and engine-on/cache-off must detect
  // exactly the same errors with exactly the same tests - the solver is a
  // search accelerator, never a behaviour change. A subset of the Table-1
  // SSL population keeps the test fast; bench_solver checks the full set.
  std::vector<DesignError> errors = wrap(enumerate_bus_ssl(model().dp));
  if (errors.size() > 40) errors.resize(40);

  // Per error: the emitted test when detected, "" otherwise.
  auto emitted = [&](bool engine, bool cache) {
    TgConfig cfg;
    cfg.ctrljust.use_engine = engine;
    cfg.solver.use_cache = cache;
    TestGenerator tg(model(), cfg);
    std::vector<std::string> out;
    for (const DesignError& e : errors) {
      const TgResult r = tg.generate(e);
      out.push_back(r.status == TgStatus::kSuccess ? serialize_test(r.test)
                                                   : "");
    }
    return out;
  };

  const std::vector<std::string> on = emitted(true, true);
  const std::vector<std::string> off = emitted(false, true);
  const std::vector<std::string> nocache = emitted(true, false);
  EXPECT_GT(std::count_if(on.begin(), on.end(),
                          [](const std::string& t) { return !t.empty(); }),
            0);
  EXPECT_EQ(on, off);
  EXPECT_EQ(on, nocache);
}

// ------------------------------------------- watched vs rescan nogood apply

TEST(SolverEquivalence, WatchedNogoodsMatchRescan) {
  // The watch scheme is a pure application-cost optimization: identical
  // statuses and witnesses over the corpus, strictly fewer literal probes
  // than rescanning the whole store every propagation round. One shared
  // context per run so cuts learned early are applied in later solves
  // (the regime the watches exist for). Cache off to keep every solve live.
  const unsigned kCycles = 10;
  auto run = [&](bool watches) {
    SolverConfig cfg;
    cfg.use_cache = false;
    cfg.use_nogood_watches = watches;
    SolverContext ctx(cfg);
    std::vector<CtrlJustResult> results;
    std::uint64_t comparisons = 0;
    for (const auto& objs : objective_corpus()) {
      CtrlJust cj(model().ctrl, kCycles);
      cj.set_context(&ctx);
      results.push_back(cj.solve(objs));
      comparisons += results.back().stats.nogood_comparisons;
    }
    return std::pair(std::move(results), comparisons);
  };
  const auto [watched, wc] = run(true);
  const auto [rescan, rc] = run(false);
  ASSERT_EQ(watched.size(), rescan.size());
  for (std::size_t i = 0; i < watched.size(); ++i) {
    SCOPED_TRACE("objective set #" + std::to_string(i));
    EXPECT_EQ(watched[i].status, rescan[i].status);
    EXPECT_EQ(watched[i].cpi_assignments, rescan[i].cpi_assignments);
    EXPECT_EQ(watched[i].sts_assignments, rescan[i].sts_assignments);
  }
  EXPECT_GT(rc, 0u);  // the corpus must actually exercise the store
  EXPECT_LT(wc, rc);
}

// --------------------------------------------------------- DPRELAX memo

TEST(RelaxCacheTest, ReplaysDefinitiveResultsAndSkipsAborts) {
  RelaxCache cache;
  DpRelaxConfig cfg;
  RelaxVars entry;
  entry.imem = {0x11u, 0x22u};
  entry.imem_fixed = {0xFFu, 0x00u};
  std::vector<RelaxConstraint> cons(1);
  cons[0].net = 7;
  cons[0].cycle = 3;
  cons[0].value = 1;
  cons[0].why = "activation";
  ErrorInjection inj;
  inj.stuck.push_back({NetId{4}, 0, true});
  const RelaxCache::Key key = RelaxCache::make_key(cfg, entry, cons, inj);

  DpRelaxResult out;
  RelaxVars vars = entry;
  EXPECT_FALSE(cache.find(key, &out, &vars));

  // A definitive result replays with the *final* vars the solve produced.
  DpRelaxResult solved;
  solved.status = TgStatus::kSuccess;
  solved.iterations = 5;
  RelaxVars final_vars = entry;
  final_vars.imem[1] = 0x33u;
  cache.store(key, solved, final_vars);
  ASSERT_TRUE(cache.find(key, &out, &vars));
  EXPECT_EQ(out.status, TgStatus::kSuccess);
  EXPECT_EQ(out.iterations, 5u);
  EXPECT_EQ(vars.imem, final_vars.imem);

  // The first definitive result for a key wins.
  DpRelaxResult later = solved;
  later.iterations = 6;
  cache.store(key, later, entry);
  ASSERT_TRUE(cache.find(key, &out, &vars));
  EXPECT_EQ(out.iterations, 5u);
  EXPECT_EQ(cache.size(), 1u);

  // The same relaxation core under another injection is another
  // subproblem: DPRELAX simulates the erroneous machine, so its result
  // depends on the injection site.
  ErrorInjection other_site;
  other_site.stuck.push_back({NetId{9}, 2, false});
  const RelaxCache::Key key_site =
      RelaxCache::make_key(cfg, entry, cons, other_site);
  EXPECT_NE(key, key_site);
  EXPECT_FALSE(cache.find(key_site, &out, &vars));

  // Aborted (budget-fired) results are never stored: the retry runs live.
  std::vector<RelaxConstraint> cons2 = cons;
  cons2[0].cycle = 4;
  const RelaxCache::Key key2 = RelaxCache::make_key(cfg, entry, cons2, inj);
  EXPECT_NE(key, key2);  // distinct subproblems, distinct keys
  DpRelaxResult aborted;
  aborted.abort = AbortReason::kDeadline;
  cache.store(key2, aborted, final_vars);
  EXPECT_FALSE(cache.find(key2, &out, &vars));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RelaxCacheTest, ImportKeepsEveryEntryPastTheOldCapacity) {
  // A warm start replays the memo of the run that wrote the store, in the
  // order it was written; every imported entry must still be resident when
  // its turn comes. 300 entries exceed the 256 slots the memo once had.
  DedSnapshot snap;
  for (std::uint64_t i = 0; i < 300; ++i) {
    RelaxCache::Exported e;
    e.key.words = {i, i * 7 + 1, 0xC0FFEEu};
    e.result.status = i % 3 ? TgStatus::kSuccess : TgStatus::kFailure;
    e.result.iterations = static_cast<std::uint32_t>(i);
    e.vars.imem = {static_cast<std::uint32_t>(i)};
    snap.relax.push_back(e);
  }
  SolverContext ctx;
  import_context(snap, &ctx);
  for (const RelaxCache::Exported& e : snap.relax) {
    DpRelaxResult out;
    RelaxVars vars;
    ASSERT_TRUE(ctx.relax.find(e.key, &out, &vars)) << e.key.words[0];
    EXPECT_EQ(out.status, e.result.status);
    EXPECT_EQ(out.iterations, e.result.iterations);
    EXPECT_EQ(vars.imem, e.vars.imem);
  }
  const DedSnapshot back = export_context(ctx);
  ASSERT_EQ(back.relax.size(), snap.relax.size());
  for (std::size_t i = 0; i < back.relax.size(); ++i)
    EXPECT_EQ(back.relax[i].key, snap.relax[i].key) << i;
}

// --------------------------------------------- campaign-scope determinism

TEST(SolverEquivalence, CampaignScopeMatchesErrorScope) {
  // Campaign-lifetime deduction reuse must be outcome-neutral: the same
  // error sequence through one generator with scope kCampaign emits exactly
  // the tests the per-error-reset kError scope emits (the argument is in
  // solver/solver.h). A subset of the SSL population keeps the test fast.
  std::vector<DesignError> errors = wrap(enumerate_bus_ssl(model().dp));
  if (errors.size() > 30) errors.resize(30);

  struct Outcome {
    TgStatus status;
    AbortReason abort;
    unsigned test_length;
    std::vector<std::uint32_t> imem;
    std::array<std::uint32_t, 32> rf_init;
    std::map<std::uint32_t, std::uint32_t> dmem_init;
    bool operator==(const Outcome&) const = default;
  };
  auto run = [&](SolverScope scope, std::uint64_t* reuse) {
    TgConfig cfg;
    cfg.solver.scope = scope;
    TestGenerator tg(model(), cfg);
    std::vector<Outcome> out;
    for (const DesignError& e : errors) {
      const TgResult r = tg.generate(e);
      *reuse += r.stats.cache_hits + r.stats.relax_hits;
      out.push_back({r.status, r.abort, r.test_length, r.test.imem,
                     r.test.rf_init, r.test.dmem_init});
    }
    return out;
  };
  std::uint64_t campaign_reuse = 0, error_reuse = 0;
  const auto campaign = run(SolverScope::kCampaign, &campaign_reuse);
  const auto fresh = run(SolverScope::kError, &error_reuse);
  EXPECT_EQ(campaign, fresh);
  // Carried state must actually fire across errors, not merely not hurt.
  EXPECT_GT(campaign_reuse, error_reuse);
}

}  // namespace
}  // namespace hltg
