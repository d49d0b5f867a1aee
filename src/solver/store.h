// Persisted deduction store: crash-safe serialization of a SolverContext.
//
// A campaign-scope context (learned nogoods + justification cache + relax
// memo) is pure, outcome-neutral acceleration state, so it is safe - and
// after PR 5, profitable - to carry it across process lifetimes. What is
// NOT safe is trusting a file that a crash, a torn write, or a full disk
// may have mangled, or that was produced by a different design or solver
// configuration. This module provides both halves:
//
//  File format (docs/ROBUSTNESS.md):
//    A flat sequence of self-delimiting records,
//        u32 marker | u32 kind | u32 length | u32 crc32 | payload[length]
//    all little-endian, crc32 covering the payload only. Record kinds:
//        1  meta    (format version, design hash, solver-config hash)
//        2  nogood  (one learned cut)
//        3  just    (one justification-cache entry)
//        4  relax   (one relax-memo entry)
//    The first valid record must be a meta record; it gates the whole
//    load on version + design hash + config hash.
//
//  Writing is atomic: serialize to `path.tmp`, fsync, rename over `path`,
//  fsync the directory. A crash at any point leaves either the old store
//  or the new one, never a mix. The writer goes through the failpoint
//  hooks (sites "store.write", "store.fsync", "store.rename") so the
//  crash-recovery tests can prove that claim rather than assume it.
//
//  Reading is tolerant: a record whose CRC, framing, or version check
//  fails is skipped - the reader resynchronizes by scanning for the next
//  marker - and quarantined (appended to `path.quarantine`) for post-
//  mortem, with counts reported to the caller. Because every record is an
//  independent deduction, dropping any subset still yields a valid (just
//  colder) warm start.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "solver/justcache.h"
#include "solver/nogoods.h"
#include "solver/relax_cache.h"

namespace hltg {

struct SolverContext;

/// Everything a SolverContext persists.
struct DedSnapshot {
  std::vector<std::vector<Lit>> nogoods;
  std::vector<JustCache::Exported> justs;
  std::vector<RelaxCache::Exported> relax;

  bool empty() const {
    return nogoods.empty() && justs.empty() && relax.empty();
  }
  std::size_t entries() const {
    return nogoods.size() + justs.size() + relax.size();
  }
  /// Content-deduplicating union (existing entries win) - how the
  /// per-worker snapshots of a sharded campaign are combined before
  /// saving, in worker-id order. That makes the saved file a function of
  /// the workers' contexts, each a function of its shard, so a cold
  /// campaign saves the same bytes for a given (population, jobs).
  void merge(const DedSnapshot& other);
};

/// Snapshot of the resident deduction state of `ctx`.
DedSnapshot export_context(const SolverContext& ctx);

/// Replay `snap` into `ctx` (learn/insert/store; the nogood and
/// justification-cache capacities apply, the relax memo keeps every entry).
void import_context(const DedSnapshot& snap, SolverContext* ctx);

inline constexpr std::uint32_t kDedStoreVersion = 2;

/// Provenance stamp gating a load. Hash 0 means "not validated" (tests,
/// tools); campaigns always pass real hashes.
struct DedStoreMeta {
  std::uint32_t version = kDedStoreVersion;
  std::uint64_t design_hash = 0;
  std::uint64_t config_hash = 0;
};

struct DedStoreLoad {
  bool ok = false;  ///< meta present and matching; snapshot usable
  DedSnapshot snapshot;
  DedStoreMeta meta;              ///< as read from the file, when readable
  std::size_t records = 0;        ///< records decoded into the snapshot
  std::size_t skipped_records = 0;  ///< corrupt records quarantined
  std::size_t skipped_bytes = 0;    ///< bytes covered by skips + resync
  std::string note;  ///< refusal reason, or skip summary when ok
};

/// Atomic save (see header comment). On failure returns false with *why
/// set; `path` is untouched (the temp file is removed best-effort).
bool save_ded_store(const std::string& path, const DedStoreMeta& meta,
                    const DedSnapshot& snap, std::string* why);

/// Tolerant load. Refuses (ok == false, empty snapshot) when the file is
/// missing, its meta record is unreadable, its version differs, or the
/// expected hashes (when nonzero) do not match the stored ones.
DedStoreLoad load_ded_store(const std::string& path,
                            std::uint64_t expect_design_hash,
                            std::uint64_t expect_config_hash);

}  // namespace hltg
