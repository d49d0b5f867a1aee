#include "solver/store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "solver/solver.h"
#include "util/bytes.h"
#include "util/failpoint.h"
#include "util/fnv.h"

namespace hltg {

namespace {

constexpr std::uint32_t kMarker = 0x44454453;  // "SDED" on disk (LE)
constexpr std::uint32_t kKindMeta = 1;
constexpr std::uint32_t kKindNogood = 2;
constexpr std::uint32_t kKindJust = 3;
constexpr std::uint32_t kKindRelax = 4;
constexpr std::size_t kHeaderBytes = 16;

// ---- little-endian byte stream helpers ---------------------------------

struct ByteSink {
  std::string bytes;

  void put_u8(std::uint8_t v) { bytes.push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v) { put_le32(&bytes, v); }
  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void put_str(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    bytes.append(s);
  }
};

struct ByteSource {
  const unsigned char* p = nullptr;
  std::size_t n = 0;
  std::size_t pos = 0;
  bool fail = false;

  bool get_u8(std::uint8_t* v) {
    if (pos + 1 > n) return fail = true, false;
    *v = p[pos++];
    return true;
  }
  bool get_u32(std::uint32_t* v) {
    if (pos + 4 > n) return fail = true, false;
    *v = get_le32(p + pos);
    pos += 4;
    return true;
  }
  bool get_u64(std::uint64_t* v) {
    if (pos + 8 > n) return fail = true, false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= std::uint64_t{p[pos++]} << (8 * i);
    return true;
  }
  bool get_str(std::string* s) {
    std::uint32_t len = 0;
    if (!get_u32(&len) || pos + len > n) return fail = true, false;
    s->assign(reinterpret_cast<const char*>(p + pos), len);
    pos += len;
    return true;
  }
  bool done() const { return !fail && pos == n; }
};

// ---- payload encodings -------------------------------------------------

void put_lits(ByteSink& s, const std::vector<Lit>& lits) {
  s.put_u32(static_cast<std::uint32_t>(lits.size()));
  for (const Lit& l : lits) {
    s.put_u32(l.gate);
    s.put_u32(l.cycle);
    s.put_u8(l.value ? 1 : 0);
  }
}

bool get_lits(ByteSource& s, std::vector<Lit>* lits) {
  std::uint32_t count = 0;
  if (!s.get_u32(&count) || count > s.n) return false;
  lits->clear();
  lits->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t gate = 0, cycle = 0;
    std::uint8_t value = 0;
    if (!s.get_u32(&gate) || !s.get_u32(&cycle) || !s.get_u8(&value))
      return false;
    lits->push_back({gate, cycle, value != 0});
  }
  return true;
}

void put_assignments(
    ByteSink& s, const std::vector<std::tuple<GateId, unsigned, bool>>& as) {
  s.put_u32(static_cast<std::uint32_t>(as.size()));
  for (const auto& [gate, cycle, value] : as) {
    s.put_u32(gate);
    s.put_u32(cycle);
    s.put_u8(value ? 1 : 0);
  }
}

bool get_assignments(ByteSource& s,
                     std::vector<std::tuple<GateId, unsigned, bool>>* as) {
  std::uint32_t count = 0;
  if (!s.get_u32(&count) || count > s.n) return false;
  as->clear();
  as->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t gate = 0, cycle = 0;
    std::uint8_t value = 0;
    if (!s.get_u32(&gate) || !s.get_u32(&cycle) || !s.get_u8(&value))
      return false;
    as->emplace_back(gate, cycle, value != 0);
  }
  return true;
}

std::string encode_meta(const DedStoreMeta& m) {
  ByteSink s;
  s.put_u32(m.version);
  s.put_u64(m.design_hash);
  s.put_u64(m.config_hash);
  return std::move(s.bytes);
}

bool decode_meta(ByteSource& s, DedStoreMeta* m) {
  return s.get_u32(&m->version) && s.get_u64(&m->design_hash) &&
         s.get_u64(&m->config_hash) && s.done();
}

std::string encode_just(const JustCache::Exported& j) {
  ByteSink s;
  put_lits(s, j.key);
  s.put_u8(j.entry.success ? 1 : 0);
  put_assignments(s, j.entry.sts_assignments);
  put_assignments(s, j.entry.cpi_assignments);
  return std::move(s.bytes);
}

bool decode_just(ByteSource& s, JustCache::Exported* j) {
  std::uint8_t success = 0;
  if (!get_lits(s, &j->key) || !s.get_u8(&success) ||
      !get_assignments(s, &j->entry.sts_assignments) ||
      !get_assignments(s, &j->entry.cpi_assignments) || !s.done())
    return false;
  j->entry.success = success != 0;
  return true;
}

std::string encode_relax(const RelaxCache::Exported& r) {
  ByteSink s;
  s.put_u32(static_cast<std::uint32_t>(r.key.words.size()));
  s.put_u32(0);  // former injection-suffix length; ignored on load
  for (const std::uint64_t w : r.key.words) s.put_u64(w);
  s.put_u8(static_cast<std::uint8_t>(r.result.status));
  s.put_u8(static_cast<std::uint8_t>(r.result.abort));
  s.put_u32(r.result.iterations);
  s.put_u32(r.result.pair_captures);
  s.put_str(r.result.note);
  s.put_u32(static_cast<std::uint32_t>(r.vars.imem.size()));
  for (const std::uint32_t w : r.vars.imem) s.put_u32(w);
  s.put_u32(static_cast<std::uint32_t>(r.vars.imem_fixed.size()));
  for (const std::uint32_t w : r.vars.imem_fixed) s.put_u32(w);
  for (const std::uint32_t w : r.vars.rf_init) s.put_u32(w);
  s.put_u32(static_cast<std::uint32_t>(r.vars.mem_init.size()));
  for (const auto& [addr, val] : r.vars.mem_init) {
    s.put_u32(addr);
    s.put_u32(val);
  }
  return std::move(s.bytes);
}

bool decode_relax(ByteSource& s, RelaxCache::Exported* r) {
  std::uint32_t words = 0, unused = 0;
  if (!s.get_u32(&words) || !s.get_u32(&unused) || words > s.n)
    return false;
  r->key.words.clear();
  r->key.words.reserve(words);
  for (std::uint32_t i = 0; i < words; ++i) {
    std::uint64_t w = 0;
    if (!s.get_u64(&w)) return false;
    r->key.words.push_back(w);
  }
  std::uint8_t status = 0, abort = 0;
  if (!s.get_u8(&status) || !s.get_u8(&abort) ||
      !s.get_u32(&r->result.iterations) ||
      !s.get_u32(&r->result.pair_captures) || !s.get_str(&r->result.note))
    return false;
  r->result.status = static_cast<TgStatus>(status);
  r->result.abort = static_cast<AbortReason>(abort);
  std::uint32_t count = 0;
  if (!s.get_u32(&count) || count > s.n) return false;
  r->vars.imem.assign(count, 0);
  for (std::uint32_t i = 0; i < count; ++i)
    if (!s.get_u32(&r->vars.imem[i])) return false;
  if (!s.get_u32(&count) || count > s.n) return false;
  r->vars.imem_fixed.assign(count, 0);
  for (std::uint32_t i = 0; i < count; ++i)
    if (!s.get_u32(&r->vars.imem_fixed[i])) return false;
  for (std::uint32_t& w : r->vars.rf_init)
    if (!s.get_u32(&w)) return false;
  if (!s.get_u32(&count) || count > s.n) return false;
  r->vars.mem_init.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t addr = 0, val = 0;
    if (!s.get_u32(&addr) || !s.get_u32(&val)) return false;
    r->vars.mem_init[addr] = val;
  }
  return s.done();
}

// ---- framing -----------------------------------------------------------

std::string frame_record(std::uint32_t kind, const std::string& payload) {
  ByteSink s;
  s.put_u32(kMarker);
  s.put_u32(kind);
  s.put_u32(static_cast<std::uint32_t>(payload.size()));
  s.put_u32(crc32_ieee(payload.data(), payload.size()));
  s.bytes.append(payload);
  return std::move(s.bytes);
}

}  // namespace

void DedSnapshot::merge(const DedSnapshot& other) {
  std::unordered_set<std::uint64_t> have;
  // A hash collision drops an entry, which only costs warmth.
  for (const auto& n : nogoods) have.insert(hash_lits(n) * 3u + 0);
  for (const auto& j : justs) have.insert(hash_lits(j.key) * 3u + 1);
  for (const auto& r : relax) have.insert(fnv_words(r.key.words) * 3u + 2);
  for (const auto& n : other.nogoods)
    if (have.insert(hash_lits(n) * 3u + 0).second) nogoods.push_back(n);
  for (const auto& j : other.justs)
    if (have.insert(hash_lits(j.key) * 3u + 1).second) justs.push_back(j);
  for (const auto& r : other.relax)
    if (have.insert(fnv_words(r.key.words) * 3u + 2).second)
      relax.push_back(r);
}

DedSnapshot export_context(const SolverContext& ctx) {
  DedSnapshot snap;
  snap.nogoods = ctx.nogoods.export_cuts();
  snap.justs = ctx.cache.export_entries();
  snap.relax = ctx.relax.export_entries();
  return snap;
}

void import_context(const DedSnapshot& snap, SolverContext* ctx) {
  for (const auto& n : snap.nogoods) ctx->nogoods.learn(n);
  for (const auto& j : snap.justs) ctx->cache.insert(j.key, j.entry);
  for (const auto& r : snap.relax) ctx->relax.store(r.key, r.result, r.vars);
}

bool save_ded_store(const std::string& path, const DedStoreMeta& meta,
                    const DedSnapshot& snap, std::string* why) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    if (why)
      *why = "cannot create '" + tmp + "': " + std::strerror(errno);
    return false;
  }
  auto fail = [&](const std::string& what) {
    const int err = errno;
    if (why) *why = what + ": " + std::strerror(err);
    std::fclose(f);
    std::remove(tmp.c_str());
    return false;
  };
  auto write_record = [&](std::uint32_t kind, const std::string& payload) {
    const std::string rec = frame_record(kind, payload);
    return failpoint::checked_fwrite(rec.data(), rec.size(), f,
                                     "store.write") == rec.size();
  };

  if (!write_record(kKindMeta, encode_meta(meta)))
    return fail("short write to '" + tmp + "'");
  for (const auto& n : snap.nogoods) {
    ByteSink s;
    put_lits(s, n);
    if (!write_record(kKindNogood, s.bytes))
      return fail("short write to '" + tmp + "'");
  }
  for (const auto& j : snap.justs)
    if (!write_record(kKindJust, encode_just(j)))
      return fail("short write to '" + tmp + "'");
  for (const auto& r : snap.relax)
    if (!write_record(kKindRelax, encode_relax(r)))
      return fail("short write to '" + tmp + "'");

  if (std::fflush(f) != 0) return fail("flush of '" + tmp + "' failed");
  if (failpoint::checked_fsync(fileno(f), "store.fsync") != 0)
    return fail("fsync of '" + tmp + "' failed");
  std::fclose(f);

  if (failpoint::checked_rename(tmp.c_str(), path.c_str(), "store.rename") !=
      0) {
    const int err = errno;
    if (why)
      *why = "rename '" + tmp + "' -> '" + path +
             "' failed: " + std::strerror(err);
    std::remove(tmp.c_str());
    return false;
  }

  // Make the rename itself durable.
  std::string dir = path;
  const std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

DedStoreLoad load_ded_store(const std::string& path,
                            std::uint64_t expect_design_hash,
                            std::uint64_t expect_config_hash) {
  DedStoreLoad out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    out.note = "no store file at '" + path + "'";
    return out;
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, got);
  std::fclose(f);

  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t n = bytes.size();
  std::size_t pos = 0;
  bool meta_seen = false;
  bool in_garbage = false;
  std::string quarantine;
  DedSnapshot snap;

  auto skip_bytes = [&](std::size_t from, std::size_t len) {
    if (!in_garbage) {
      in_garbage = true;
      ++out.skipped_records;
    }
    out.skipped_bytes += len;
    quarantine.append(bytes, from, len);
  };

  while (pos + kHeaderBytes <= n) {
    ByteSource hdr{p + pos, kHeaderBytes, 0, false};
    std::uint32_t marker = 0, kind = 0, len = 0, crc = 0;
    hdr.get_u32(&marker);
    hdr.get_u32(&kind);
    hdr.get_u32(&len);
    hdr.get_u32(&crc);
    if (marker != kMarker || len > n - pos - kHeaderBytes) {
      // Not a record start (or a torn/corrupt length): resynchronize by
      // scanning byte-wise for the next marker.
      skip_bytes(pos, 1);
      ++pos;
      continue;
    }
    const unsigned char* payload = p + pos + kHeaderBytes;
    const std::size_t rec_bytes = kHeaderBytes + len;
    if (crc32_ieee(payload, len) != crc) {
      skip_bytes(pos, rec_bytes);
      pos += rec_bytes;
      continue;
    }
    ByteSource body{payload, len, 0, false};
    bool decoded = false;
    switch (kind) {
      case kKindMeta: {
        DedStoreMeta m;
        if ((decoded = decode_meta(body, &m)) && !meta_seen) {
          meta_seen = true;
          out.meta = m;
        }
        break;
      }
      case kKindNogood: {
        std::vector<Lit> lits;
        if ((decoded = get_lits(body, &lits) && body.done()))
          snap.nogoods.push_back(std::move(lits));
        break;
      }
      case kKindJust: {
        JustCache::Exported j;
        if ((decoded = decode_just(body, &j))) snap.justs.push_back(std::move(j));
        break;
      }
      case kKindRelax: {
        RelaxCache::Exported r;
        if ((decoded = decode_relax(body, &r)))
          snap.relax.push_back(std::move(r));
        break;
      }
      default:
        break;  // unknown kind from a future version: quarantine
    }
    if (!decoded) {
      skip_bytes(pos, rec_bytes);
    } else {
      in_garbage = false;
      ++out.records;
    }
    pos += rec_bytes;
  }
  if (pos < n) skip_bytes(pos, n - pos);  // torn tail

  if (!quarantine.empty()) {
    std::FILE* q = std::fopen((path + ".quarantine").c_str(), "ab");
    if (q) {
      std::fwrite(quarantine.data(), 1, quarantine.size(), q);
      std::fclose(q);
    }
  }

  auto refuse = [&](const std::string& reason) {
    out.ok = false;
    out.snapshot = DedSnapshot{};
    out.note = reason;
    return out;
  };
  if (!meta_seen)
    return refuse("store '" + path + "' has no readable meta record");
  if (out.meta.version != kDedStoreVersion)
    return refuse("store '" + path + "' is format version " +
                  std::to_string(out.meta.version) + ", expected " +
                  std::to_string(kDedStoreVersion));
  if (expect_design_hash != 0 && out.meta.design_hash != 0 &&
      out.meta.design_hash != expect_design_hash)
    return refuse("store '" + path +
                  "' was recorded against a different design");
  if (expect_config_hash != 0 && out.meta.config_hash != 0 &&
      out.meta.config_hash != expect_config_hash)
    return refuse("store '" + path +
                  "' was recorded under a different solver configuration");

  out.ok = true;
  out.snapshot = std::move(snap);
  if (out.skipped_records || out.skipped_bytes)
    out.note = "skipped " + std::to_string(out.skipped_records) +
               " corrupt segment(s), " + std::to_string(out.skipped_bytes) +
               " byte(s) quarantined to '" + path + ".quarantine'";
  return out;
}

}  // namespace hltg
