#include "service/cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "util/bytes.h"
#include "util/failpoint.h"

namespace hltg {

namespace {

// Entry file layout (little-endian): magic, payload length, CRC32 of the
// payload, payload bytes. Fixed-size header keeps validation trivial; the
// CRC catches torn or bit-rotted payloads.
constexpr std::uint32_t kMagic = 0x53455248;  // "HRES" on disk (LE)
constexpr std::size_t kEntryHeaderBytes = 12;
constexpr const char* kIndexName = "cache.index";

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

ResultCache::ResultCache(ResultCacheConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.memory_entries == 0) cfg_.memory_entries = 1;
  if (!cfg_.dir.empty()) {
    std::lock_guard<std::mutex> lk(mu_);
    scan_disk_locked();
    // A lowered budget (or a crash that outran the index) is brought back
    // under the bound immediately, not at the next insert.
    if (cfg_.max_disk_bytes != 0 && disk_total_ > cfg_.max_disk_bytes) {
      evict_overflow_locked("");
      save_index_locked();
    }
  }
}

std::string ResultCache::entry_path(const std::string& key) const {
  return cfg_.dir + "/" + key + ".res";
}

bool ResultCache::lookup(const std::string& key, std::string* payload) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    *payload = it->second->second;
    ++stats_.hits;
    ++stats_.memory_hits;
    return true;
  }
  if (!cfg_.dir.empty() && is_hex_key(key) &&
      load_from_disk_locked(key, payload)) {
    touch_locked(key, *payload);
    promote_disk_locked(key);
    ++stats_.hits;
    ++stats_.disk_hits;
    return true;
  }
  ++stats_.misses;
  return false;
}

bool ResultCache::insert(const std::string& key, const std::string& payload,
                         std::string* why) {
  std::lock_guard<std::mutex> lk(mu_);
  touch_locked(key, payload);
  ++stats_.insertions;
  if (cfg_.dir.empty()) return true;
  if (!is_hex_key(key)) {
    if (why) *why = "refusing to persist non-hex cache key '" + key + "'";
    ++stats_.persist_failures;
    return false;
  }
  std::string perr;
  if (!persist_locked(key, payload, &perr)) {
    ++stats_.persist_failures;
    if (why) *why = perr;
    return false;
  }
  note_disk_entry_locked(key, kEntryHeaderBytes + payload.size());
  evict_overflow_locked(key);
  save_index_locked();
  return true;
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ResultCacheStats s = stats_;
  s.disk_bytes = disk_total_;
  s.disk_entries = disk_index_.size();
  return s;
}

void ResultCache::touch_locked(const std::string& key,
                               const std::string& payload) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = payload;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, payload);
  index_[key] = lru_.begin();
  while (lru_.size() > cfg_.memory_entries) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void ResultCache::scan_disk_locked() {
  // Rebuild the disk tier's accounting from the directory itself; the
  // index sidecar only contributes LRU *order*. Entries the index missed
  // (crash between entry publish and index rewrite) are adopted; index
  // lines whose file is gone (crash mid-eviction) are dropped. Stray .tmp
  // files are debris from torn writes: delete them.
  std::vector<std::pair<std::string, std::size_t>> on_disk;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(cfg_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (ends_with(name, ".tmp")) {
      std::remove(entry.path().c_str());
      continue;
    }
    if (!ends_with(name, ".res")) continue;
    const std::string key = name.substr(0, name.size() - 4);
    if (!is_hex_key(key)) continue;
    std::error_code sec;
    const std::uintmax_t sz = std::filesystem::file_size(entry.path(), sec);
    if (sec) continue;
    on_disk.emplace_back(key, static_cast<std::size_t>(sz));
  }
  std::sort(on_disk.begin(), on_disk.end());  // deterministic adoption order

  std::vector<std::string> order;
  {
    std::ifstream in(cfg_.dir + "/" + kIndexName);
    std::string line;
    while (std::getline(in, line))
      if (is_hex_key(line)) order.push_back(line);
  }
  auto size_of = [&](const std::string& key) -> const std::size_t* {
    for (const auto& [k, sz] : on_disk)
      if (k == key) return &sz;
    return nullptr;
  };
  for (const std::string& key : order) {
    if (disk_index_.count(key)) continue;
    if (const std::size_t* sz = size_of(key))
      note_disk_entry_locked(key, *sz);
  }
  for (const auto& [key, sz] : on_disk)
    if (!disk_index_.count(key)) note_disk_entry_locked(key, sz);
}

void ResultCache::note_disk_entry_locked(const std::string& key,
                                         std::size_t bytes) {
  const auto it = disk_index_.find(key);
  if (it != disk_index_.end()) {
    disk_total_ -= it->second.bytes;
    disk_total_ += bytes;
    it->second.bytes = bytes;
    disk_lru_.splice(disk_lru_.end(), disk_lru_, it->second.pos);
    return;
  }
  disk_lru_.push_back(key);
  disk_index_[key] = DiskEntry{std::prev(disk_lru_.end()), bytes};
  disk_total_ += bytes;
}

void ResultCache::forget_disk_entry_locked(const std::string& key) {
  const auto it = disk_index_.find(key);
  if (it == disk_index_.end()) return;
  disk_total_ -= it->second.bytes;
  disk_lru_.erase(it->second.pos);
  disk_index_.erase(it);
}

void ResultCache::promote_disk_locked(const std::string& key) {
  const auto it = disk_index_.find(key);
  if (it != disk_index_.end())
    disk_lru_.splice(disk_lru_.end(), disk_lru_, it->second.pos);
}

void ResultCache::evict_overflow_locked(const std::string& keep) {
  if (cfg_.max_disk_bytes == 0) return;
  while (disk_total_ > cfg_.max_disk_bytes && !disk_lru_.empty()) {
    // Oldest first, sparing the just-inserted entry until it is the only
    // one left (an entry bigger than the whole budget is evicted too: the
    // bound is a bound).
    auto it = disk_lru_.begin();
    if (*it == keep) {
      ++it;
      if (it == disk_lru_.end()) it = disk_lru_.begin();
    }
    const std::string victim = *it;
    if (failpoint::checked_remove(entry_path(victim).c_str(), "cache.evict") !=
            0 &&
        errno != ENOENT)
      break;  // eviction itself failed (EIO, ...): keep serving, stay over
    forget_disk_entry_locked(victim);
    ++stats_.evictions;
  }
}

void ResultCache::save_index_locked() {
  // Advisory LRU-order sidecar, atomically replaced. Failures are
  // swallowed: a missing or stale index only costs approximate eviction
  // order after the next restart, never correctness - scan_disk_locked
  // reconciles against the directory.
  const std::string path = cfg_.dir + "/" + kIndexName;
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return;
  std::string body;
  for (const std::string& key : disk_lru_) {
    body += key;
    body += '\n';
  }
  bool ok = failpoint::checked_fwrite(body.data(), body.size(), f,
                                      "cache.write") == body.size();
  ok = ok && std::fflush(f) == 0;
  ok = ok && failpoint::checked_fsync(fileno(f), "cache.fsync") == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return;
  }
  if (failpoint::checked_rename(tmp.c_str(), path.c_str(), "cache.rename") !=
      0)
    std::remove(tmp.c_str());
}

bool ResultCache::load_from_disk_locked(const std::string& key,
                                        std::string* payload) {
  const std::string path = entry_path(key);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;  // plain miss
  std::string bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  const bool read_ok = !std::ferror(f);
  std::fclose(f);

  auto quarantine = [&] {
    // Never serve (or silently delete) a corrupt entry: set it aside under
    // a stable name for post-mortem and report a miss. The next insert of
    // this key writes a fresh entry. Quarantined files leave the budget's
    // accounting (they are the operator's to reap).
    std::rename(path.c_str(), (path + ".quarantine").c_str());
    forget_disk_entry_locked(key);
    ++stats_.quarantined;
    return false;
  };

  if (!read_ok || bytes.size() < kEntryHeaderBytes) return quarantine();
  const unsigned char* p = reinterpret_cast<const unsigned char*>(bytes.data());
  if (get_le32(p) != kMagic) return quarantine();
  const std::uint32_t len = get_le32(p + 4);
  const std::uint32_t crc = get_le32(p + 8);
  if (bytes.size() != kEntryHeaderBytes + static_cast<std::size_t>(len))
    return quarantine();
  if (crc32_ieee(bytes.data() + kEntryHeaderBytes, len) != crc)
    return quarantine();
  payload->assign(bytes, kEntryHeaderBytes, len);
  return true;
}

bool ResultCache::persist_locked(const std::string& key,
                                 const std::string& payload,
                                 std::string* why) {
  // Atomic publish, same discipline as save_ded_store: a reader (or a
  // daemon restarted after a crash) sees either the complete old entry,
  // the complete new one, or nothing - never a torn file under the final
  // name. The failpoint sites make each step independently killable in
  // the crash-recovery tests.
  const std::string path = entry_path(key);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    if (why) *why = "cannot create '" + tmp + "': " + std::strerror(errno);
    return false;
  }
  auto fail = [&](const std::string& what) {
    const int err = errno;
    if (why) *why = what + ": " + std::strerror(err);
    std::fclose(f);
    std::remove(tmp.c_str());
    return false;
  };
  std::string framed;
  framed.reserve(kEntryHeaderBytes + payload.size());
  put_le32(&framed, kMagic);
  put_le32(&framed, static_cast<std::uint32_t>(payload.size()));
  put_le32(&framed, crc32_ieee(payload.data(), payload.size()));
  framed += payload;
  if (failpoint::checked_fwrite(framed.data(), framed.size(), f,
                                "cache.write") != framed.size())
    return fail("short write to '" + tmp + "'");
  if (std::fflush(f) != 0) return fail("flush of '" + tmp + "' failed");
  if (failpoint::checked_fsync(fileno(f), "cache.fsync") != 0)
    return fail("fsync of '" + tmp + "' failed");
  std::fclose(f);

  if (failpoint::checked_rename(tmp.c_str(), path.c_str(), "cache.rename") !=
      0) {
    const int err = errno;
    if (why)
      *why = "rename '" + tmp + "' -> '" + path +
             "' failed: " + std::strerror(err);
    std::remove(tmp.c_str());
    return false;
  }
  const int dfd = ::open(cfg_.dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace hltg
