// Persisted deduction store (solver/store): round-trips, provenance-gated
// loads, tolerant reading of corrupt/truncated images with quarantine,
// deterministic merging, and warm-start outcome neutrality through the
// real generator.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/tg.h"
#include "errors/bus_ssl.h"
#include "solver/solver.h"
#include "solver/store.h"
#include "util/bytes.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

std::string temp_store(const char* tag) {
  return testing::TempDir() + "hltg_store_" + tag + ".ded";
}

/// A context populated with one of everything persistable.
SolverContext populated_context() {
  SolverContext ctx;
  ctx.nogoods.learn({{3, 1, true}, {7, 2, false}});
  ctx.nogoods.learn({{12, 0, true}});
  JustCacheEntry je;
  je.success = true;
  je.sts_assignments = {{GateId{5}, 1u, true}};
  je.cpi_assignments = {{GateId{9}, 0u, false}, {GateId{2}, 3u, true}};
  ctx.cache.insert({{4, 2, true}, {6, 2, false}}, je);
  RelaxCache::Key rk;
  rk.words = {11, 22, 33, 44};
  DpRelaxResult rr;
  rr.status = TgStatus::kSuccess;
  rr.iterations = 9;
  rr.note = "memo";
  RelaxVars rv;
  rv.imem = {0x20010005u, 0x00221820u};
  rv.imem_fixed = {1};
  rv.rf_init[4] = 0xdeadbeefu;
  rv.mem_init[64] = 7;
  ctx.relax.store(rk, rr, rv);
  return ctx;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------- round trip

TEST(DedStore, RoundTripsAContext) {
  const SolverContext ctx = populated_context();
  const DedSnapshot snap = export_context(ctx);
  EXPECT_EQ(snap.nogoods.size(), 2u);
  EXPECT_EQ(snap.justs.size(), 1u);
  EXPECT_EQ(snap.relax.size(), 1u);

  const std::string path = temp_store("roundtrip");
  DedStoreMeta meta;
  meta.design_hash = 0x1111;
  meta.config_hash = 0x2222;
  std::string why;
  ASSERT_TRUE(save_ded_store(path, meta, snap, &why)) << why;

  const DedStoreLoad load = load_ded_store(path, 0x1111, 0x2222);
  ASSERT_TRUE(load.ok) << load.note;
  EXPECT_EQ(load.skipped_records, 0u);
  EXPECT_EQ(load.meta.design_hash, 0x1111u);
  EXPECT_EQ(load.snapshot.nogoods, snap.nogoods);
  ASSERT_EQ(load.snapshot.justs.size(), 1u);
  EXPECT_EQ(load.snapshot.justs[0].key, snap.justs[0].key);
  EXPECT_EQ(load.snapshot.justs[0].entry.success, true);
  EXPECT_EQ(load.snapshot.justs[0].entry.cpi_assignments,
            snap.justs[0].entry.cpi_assignments);
  ASSERT_EQ(load.snapshot.relax.size(), 1u);
  EXPECT_EQ(load.snapshot.relax[0].key, snap.relax[0].key);
  EXPECT_EQ(load.snapshot.relax[0].result.iterations, 9u);
  EXPECT_EQ(load.snapshot.relax[0].result.note, "memo");
  EXPECT_EQ(load.snapshot.relax[0].vars.imem, snap.relax[0].vars.imem);
  EXPECT_EQ(load.snapshot.relax[0].vars.rf_init[4], 0xdeadbeefu);

  // And the loaded snapshot replays into a fresh context losslessly.
  SolverContext fresh;
  import_context(load.snapshot, &fresh);
  const DedSnapshot again = export_context(fresh);
  EXPECT_EQ(again.nogoods, snap.nogoods);
  EXPECT_EQ(again.justs.size(), snap.justs.size());
  EXPECT_EQ(again.relax.size(), snap.relax.size());
  std::remove(path.c_str());
}

std::uint32_t le32(const std::vector<char>& b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= std::uint32_t{static_cast<unsigned char>(b[at + i])} << (8 * i);
  return v;
}

void put_le32(std::vector<char>& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<char>(v >> (8 * i));
}

TEST(DedStore, RelaxRecordWithTheFormerSiteWordsSlotSetLoads) {
  // A relax record's second u32 once held the key's injection-suffix
  // length, nonzero in every store written then; it is now written as 0
  // and ignored on load. Set it in a saved record (re-sealing the CRC) and
  // the record must still decode to the same entry.
  const std::string path = temp_store("site_words");
  const DedSnapshot snap = export_context(populated_context());
  std::string why;
  ASSERT_TRUE(save_ded_store(path, DedStoreMeta{}, snap, &why)) << why;

  std::vector<char> bytes = slurp(path);
  bool patched = false;
  for (std::size_t at = 0; at + 16 <= bytes.size();) {
    const std::uint32_t kind = le32(bytes, at + 4);
    const std::uint32_t len = le32(bytes, at + 8);
    ASSERT_LE(at + 16 + len, bytes.size());
    if (kind == 4) {  // relax
      EXPECT_EQ(le32(bytes, at + 16 + 4), 0u);
      put_le32(bytes, at + 16 + 4, 3);
      put_le32(bytes, at + 12, crc32_ieee(bytes.data() + at + 16, len));
      patched = true;
    }
    at += 16 + len;
  }
  ASSERT_TRUE(patched);
  spit(path, bytes);

  const DedStoreLoad load = load_ded_store(path, 0, 0);
  ASSERT_TRUE(load.ok) << load.note;
  EXPECT_EQ(load.skipped_records, 0u);
  ASSERT_EQ(load.snapshot.relax.size(), 1u);
  EXPECT_EQ(load.snapshot.relax[0].key, snap.relax[0].key);
  EXPECT_EQ(load.snapshot.relax[0].vars.imem, snap.relax[0].vars.imem);
  std::remove(path.c_str());
}

// -------------------------------------------------------- provenance gate

TEST(DedStore, RefusesMissingFileVersionAndHashMismatches) {
  const std::string path = temp_store("gate");
  std::remove(path.c_str());
  EXPECT_FALSE(load_ded_store(path, 0, 0).ok);

  const DedSnapshot snap = export_context(populated_context());
  DedStoreMeta meta;
  meta.design_hash = 0xAAAA;
  meta.config_hash = 0xBBBB;
  std::string why;
  ASSERT_TRUE(save_ded_store(path, meta, snap, &why)) << why;

  const DedStoreLoad wrong_design = load_ded_store(path, 0xDEAD, 0xBBBB);
  EXPECT_FALSE(wrong_design.ok);
  EXPECT_NE(wrong_design.note.find("design"), std::string::npos);
  EXPECT_TRUE(wrong_design.snapshot.empty());

  const DedStoreLoad wrong_config = load_ded_store(path, 0xAAAA, 0xBEEF);
  EXPECT_FALSE(wrong_config.ok);
  EXPECT_NE(wrong_config.note.find("config"), std::string::npos);

  // Hash 0 on either side means "not validated" - loads fine.
  EXPECT_TRUE(load_ded_store(path, 0, 0).ok);
  EXPECT_TRUE(load_ded_store(path, 0xAAAA, 0).ok);

  meta.version = kDedStoreVersion + 1;
  ASSERT_TRUE(save_ded_store(path, meta, snap, &why)) << why;
  const DedStoreLoad wrong_version = load_ded_store(path, 0xAAAA, 0xBBBB);
  EXPECT_FALSE(wrong_version.ok);
  EXPECT_NE(wrong_version.note.find("version"), std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------------- tolerant reading

TEST(DedStore, CorruptRecordIsSkippedAndQuarantined) {
  const std::string path = temp_store("corrupt");
  const DedSnapshot snap = export_context(populated_context());
  std::string why;
  ASSERT_TRUE(save_ded_store(path, DedStoreMeta{}, snap, &why)) << why;

  // Flip one byte inside the final record's payload: exactly that record's
  // CRC breaks; everything before it must still load.
  std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() - 3] ^= 0x5A;
  spit(path, bytes);

  const DedStoreLoad load = load_ded_store(path, 0, 0);
  ASSERT_TRUE(load.ok) << load.note;
  EXPECT_EQ(load.skipped_records, 1u);
  EXPECT_GT(load.skipped_bytes, 0u);
  // meta + entries, minus the one corrupted entry.
  EXPECT_EQ(load.records, snap.entries());
  EXPECT_NE(load.note.find("skipped"), std::string::npos);
  EXPECT_FALSE(slurp(path + ".quarantine").empty());
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
}

TEST(DedStore, TruncatedTailIsDroppedNotFatal) {
  const std::string path = temp_store("trunc");
  const DedSnapshot snap = export_context(populated_context());
  std::string why;
  ASSERT_TRUE(save_ded_store(path, DedStoreMeta{}, snap, &why)) << why;

  std::vector<char> bytes = slurp(path);
  bytes.resize(bytes.size() - bytes.size() / 4);  // tear the final record(s)
  spit(path, bytes);

  const DedStoreLoad load = load_ded_store(path, 0, 0);
  ASSERT_TRUE(load.ok) << load.note;
  EXPECT_LT(load.records, 1 + snap.entries());
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
}

TEST(DedStore, GarbageBeforeMetaRefuses) {
  const std::string path = temp_store("garbage");
  spit(path, std::vector<char>(64, 'x'));
  const DedStoreLoad load = load_ded_store(path, 0, 0);
  EXPECT_FALSE(load.ok);
  EXPECT_TRUE(load.snapshot.empty());
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
}

// ------------------------------------------------------------------ merge

TEST(DedSnapshotMerge, DeduplicatesAcrossWorkers) {
  const DedSnapshot a = export_context(populated_context());
  DedSnapshot b = a;  // worker 2 learned the same things...
  b.nogoods.push_back({{99, 4, false}});  // ...plus one of its own

  DedSnapshot merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.nogoods.size(), a.nogoods.size() + 1);
  EXPECT_EQ(merged.justs.size(), a.justs.size());
  EXPECT_EQ(merged.relax.size(), a.relax.size());

  // Merge order is deterministic: a then b keeps a's entries first.
  EXPECT_EQ(merged.nogoods.back(), b.nogoods.back());
}

// ------------------------------------------------- warm-start equivalence

TEST(DedStore, WarmStartIsOutcomeNeutralThroughTheGenerator) {
  // Cold campaign-scope pass over a small SSL slice, persisted, then a
  // warm-started pass over the same slice: outcomes, witnesses and tests
  // must be identical; the warm run must actually hit the carried state.
  std::vector<DesignError> errors = wrap(enumerate_bus_ssl(model().dp));
  if (errors.size() > 12) errors.resize(12);

  struct Outcome {
    TgStatus status;
    AbortReason abort;
    unsigned test_length;
    std::vector<std::uint32_t> imem;
    std::array<std::uint32_t, 32> rf_init;
    std::map<std::uint32_t, std::uint32_t> dmem_init;
    bool operator==(const Outcome&) const = default;
  };
  TgConfig cfg;
  cfg.solver.scope = SolverScope::kCampaign;
  auto run = [&](const DedSnapshot* warm, std::uint64_t* reuse,
                 DedSnapshot* out_snap) {
    TestGenerator tg(model(), cfg);
    if (warm) import_context(*warm, &tg.solver_context());
    std::vector<Outcome> out;
    for (const DesignError& e : errors) {
      const TgResult r = tg.generate(e);
      if (reuse) *reuse += r.stats.cache_hits + r.stats.relax_hits;
      out.push_back({r.status, r.abort, r.test_length, r.test.imem,
                     r.test.rf_init, r.test.dmem_init});
    }
    if (out_snap) *out_snap = export_context(tg.solver_context());
    return out;
  };

  DedSnapshot persisted;
  std::uint64_t cold_reuse = 0, warm_reuse = 0;
  const auto cold = run(nullptr, &cold_reuse, &persisted);
  ASSERT_FALSE(persisted.empty());

  // Through the file, not just the in-memory snapshot.
  const std::string path = temp_store("warm");
  std::string why;
  ASSERT_TRUE(save_ded_store(path, DedStoreMeta{}, persisted, &why)) << why;
  DedStoreLoad load = load_ded_store(path, 0, 0);
  ASSERT_TRUE(load.ok) << load.note;

  const auto warm = run(&load.snapshot, &warm_reuse, nullptr);
  EXPECT_EQ(warm, cold);
  EXPECT_GT(warm_reuse, cold_reuse);  // the warmth is real, not vacuous
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hltg
