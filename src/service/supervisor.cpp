#include "service/supervisor.h"

#include <poll.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/bytes.h"
#include "util/failpoint.h"
#include "util/minijson.h"

namespace hltg {

namespace {

// Pipe record framing: marker | kind | length | crc32 | payload, the same
// self-delimiting shape as the deduction store's records (solver/store.h).
constexpr std::uint32_t kPipeMarker = 0x43455257;  // "WREC" on the wire (LE)
constexpr std::size_t kPipeHeaderBytes = 16;

/// Parse every complete, CRC-valid record out of `buf`. A framing or CRC
/// mismatch abandons the rest of the buffer: a pipe delivers bytes in
/// order, so damage means the worker died mid-write and nothing after the
/// tear is trustworthy.
void parse_records(const std::string& buf, WorkerExit* out) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(buf.data());
  std::size_t pos = 0;
  while (buf.size() - pos >= kPipeHeaderBytes) {
    const std::uint32_t marker = get_le32(p + pos);
    const std::uint32_t kind = get_le32(p + pos + 4);
    const std::uint32_t len = get_le32(p + pos + 8);
    const std::uint32_t crc = get_le32(p + pos + 12);
    if (marker != kPipeMarker) return;
    if (buf.size() - pos - kPipeHeaderBytes < len) return;  // torn tail
    const char* payload = buf.data() + pos + kPipeHeaderBytes;
    if (crc32_ieee(payload, len) != crc) return;
    if (kind == kWorkerRecSummary)
      out->summary_json.assign(payload, len);
    else if (kind == kWorkerRecCsv)
      out->csv.assign(payload, len);
    else if (kind == kWorkerRecTable1)
      out->table1.assign(payload, len);
    // Unknown kinds are skipped so the wire format can grow.
    pos += kPipeHeaderBytes + len;
  }
}

std::string poison_message(unsigned crashes, const std::string& what) {
  return "poisoned: request crashed " + std::to_string(crashes) +
         " campaign workers (last: " + what +
         "); quarantined, will not be retried";
}

}  // namespace

std::string WorkerExit::describe() const {
  if (!ran) return "fork failed";
  if (term_signal != 0) {
    const char* name = strsignal(term_signal);
    return "signal " + std::to_string(term_signal) +
           (name ? std::string(" (") + name + ")" : "");
  }
  return "exit " + std::to_string(exit_code);
}

bool write_worker_record(int fd, std::uint32_t kind,
                         const std::string& payload) {
  std::string framed;
  framed.reserve(kPipeHeaderBytes + payload.size());
  put_le32(&framed, kPipeMarker);
  put_le32(&framed, kind);
  put_le32(&framed, static_cast<std::uint32_t>(payload.size()));
  put_le32(&framed, crc32_ieee(payload.data(), payload.size()));
  framed += payload;
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::write(fd, framed.data() + off, framed.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

WorkerExit run_worker(const WorkerJob& job, const SupervisorConfig& cfg,
                      const std::function<bool()>& cancel_requested) {
  WorkerExit out;
  int pfd[2];
  if (::pipe(pfd) != 0) return out;

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pfd[0]);
    ::close(pfd[1]);
    return out;
  }
  if (pid == 0) {
    // === worker process ===
    ::close(pfd[0]);
    // The daemon's handlers (SIGTERM drain flag, ignored SIGPIPE) must
    // not leak into the worker; the job installs its own cooperative
    // SIGTERM -> cancel handler.
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    int code = 1;
    try {
      code = job(pfd[1]);
    } catch (...) {
      code = 1;  // an escaping exception is a crash, counted as such
    }
    ::close(pfd[1]);
    _exit(code);
  }

  // === supervisor side ===
  ::close(pfd[1]);
  // Readable once the worker has exited, so the reap after the pipe's EOF
  // waits for the exit itself rather than a fixed tick. glibc has no
  // wrapper; on failure (-1) poll ignores the fd and the wait below is
  // the plain 20 ms tick.
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  using Clock = std::chrono::steady_clock;
  const Clock::time_point started = Clock::now();
  Clock::time_point term_at{};
  bool term_sent = false, kill_sent = false, reaped = false, eof = false;
  int status = 0;
  std::string buf;

  while (!(reaped && eof)) {
    if (!eof) {
      pollfd p{pfd[0], POLLIN, 0};
      if (::poll(&p, 1, 20) > 0) {
        for (;;) {
          char chunk[4096];
          const ssize_t n = ::read(pfd[0], chunk, sizeof chunk);
          if (n > 0) {
            buf.append(chunk, static_cast<std::size_t>(n));
            // Keep reading only while poll says more is ready; a full
            // chunk is the cheap heuristic.
            if (static_cast<std::size_t>(n) == sizeof chunk) continue;
          } else if (n == 0) {
            eof = true;
          }
          // n < 0: EINTR/EAGAIN just retry on the next tick.
          break;
        }
      }
    } else {
      pollfd p{pidfd, POLLIN, 0};
      ::poll(&p, 1, 20);
    }
    if (!reaped && ::waitpid(pid, &status, WNOHANG) == pid) reaped = true;
    if (reaped) {
      if (!eof) continue;  // drain whatever the pipe still buffers
      break;
    }

    const Clock::time_point now = Clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - started).count();
    const bool over_deadline =
        cfg.deadline_seconds > 0 && elapsed > cfg.deadline_seconds;
    if (over_deadline) out.timed_out = true;
    const bool want_stop =
        over_deadline || (cancel_requested && cancel_requested());
    if (want_stop && !term_sent) {
      ::kill(pid, SIGTERM);  // cooperative: the worker's cancel path
      term_sent = true;
      term_at = now;
    }
    if (term_sent && !kill_sent &&
        std::chrono::duration<double>(now - term_at).count() >
            cfg.term_grace_seconds) {
      ::kill(pid, SIGKILL);  // escalation: the worker ignored SIGTERM
      kill_sent = true;
    }
  }
  ::close(pfd[0]);
  if (pidfd >= 0) ::close(pidfd);

  out.ran = true;
  if (WIFEXITED(status))
    out.exit_code = WEXITSTATUS(status);
  else if (WIFSIGNALED(status))
    out.term_signal = WTERMSIG(status);
  parse_records(buf, &out);
  // Only a clean exit with a complete summary is a result; a worker that
  // wrote records and then died is a crash - safe, because reruns are
  // idempotent under the content-addressed cache key.
  out.result_ok = out.exit_code == 0 && !out.summary_json.empty();
  return out;
}

double backoff_delay_ms(const SupervisorConfig& cfg, unsigned attempt,
                        std::uint64_t salt) {
  if (attempt < 2) return 0;
  double nominal = cfg.backoff_base_ms;
  for (unsigned i = 2; i < attempt && nominal < cfg.backoff_max_ms; ++i)
    nominal *= 2;
  if (nominal > cfg.backoff_max_ms) nominal = cfg.backoff_max_ms;
  // Deterministic jitter in [0.5, 1.5): splitmix over seed/salt/attempt,
  // so concurrent crashed flights do not restart in lockstep.
  std::uint64_t x = cfg.backoff_seed ^ (salt * 0x9E3779B97F4A7C15ull) ^
                    (std::uint64_t{attempt} << 32);
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  const double jitter =
      0.5 + static_cast<double>(x % 1000000ull) / 1000000.0;
  return nominal * jitter;
}

CrashBreaker::CrashBreaker(unsigned max_crashes, std::string quarantine_dir)
    : max_crashes_(max_crashes == 0 ? 1 : max_crashes),
      dir_(std::move(quarantine_dir)) {
  if (dir_.empty()) return;
  // Reload quarantine bundles: poison survives daemon restarts until an
  // operator deletes the bundle file.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("poisoned_", 0) != 0 ||
        name.size() <= 14 /* "poisoned_" + ".json" */ ||
        name.compare(name.size() - 5, 5, ".json") != 0)
      continue;
    std::ifstream in(entry.path());
    std::string line;
    if (!std::getline(in, line)) continue;
    const MiniJson j(line);
    std::string key, what;
    std::uint64_t crashes = 0;
    if (!j.ok() || !j.get_string("key", &key) || !is_hex_key(key))
      continue;
    j.get_string("last", &what);
    j.get_u64("crashes", &crashes);
    poisoned_[key] =
        poison_message(static_cast<unsigned>(crashes), what) +
        " (reloaded from " + name + ")";
  }
}

unsigned CrashBreaker::record_crash(const std::string& key,
                                    const std::string& what,
                                    const std::string& request_json) {
  std::lock_guard<std::mutex> lk(mu_);
  const unsigned n = ++crashes_[key];
  if (n >= max_crashes_ && poisoned_.find(key) == poisoned_.end())
    poison_locked(key, n, what, request_json);
  return n;
}

bool CrashBreaker::poisoned(const std::string& key, std::string* why) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = poisoned_.find(key);
  if (it == poisoned_.end()) return false;
  if (why) *why = it->second;
  return true;
}

std::size_t CrashBreaker::poisoned_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return poisoned_.size();
}

void CrashBreaker::poison_locked(const std::string& key, unsigned crashes,
                                 const std::string& what,
                                 const std::string& request_json) {
  poisoned_[key] = poison_message(crashes, what);
  if (dir_.empty() || !is_hex_key(key)) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // Bundle writes are best-effort (the in-memory quarantine already
  // protects this process); atomic tmp+rename so a restart never loads a
  // torn bundle.
  const std::string path = dir_ + "/poisoned_" + key + ".json";
  const std::string tmp = path + ".tmp";
  {
    JsonWriter w;
    w.str("key", key)
        .num("crashes", crashes)
        .str("last", what)
        .str("request", request_json);
    std::ofstream out(tmp, std::ios::trunc);
    out << w.take() << "\n";
    if (!out.good()) {
      std::remove(tmp.c_str());
      return;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) std::remove(tmp.c_str());
}

}  // namespace hltg
