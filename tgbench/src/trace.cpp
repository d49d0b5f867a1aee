#include "trace.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace tgbench {

namespace {

std::string side_line(const Span& s) {
  std::ostringstream os;
  os << s.name << '\t' << s.id << '\t' << s.parent << '\t' << s.start_ns
     << '\t' << s.end_ns << '\t' << s.pid << '\t' << s.tid << '\t' << s.args
     << '\n';
  return os.str();
}

bool parse_side_line(const std::string& line, Span* s) {
  std::vector<std::string> f;
  std::size_t pos = 0;
  for (int i = 0; i < 7; ++i) {
    const std::size_t tab = line.find('\t', pos);
    if (tab == std::string::npos) return false;
    f.push_back(line.substr(pos, tab - pos));
    pos = tab + 1;
  }
  try {
    s->name = f[0];
    s->id = std::stoull(f[1]);
    s->parent = std::stoull(f[2]);
    s->start_ns = std::stoll(f[3]);
    s->end_ns = std::stoll(f[4]);
    s->pid = std::stoi(f[5]);
    s->tid = static_cast<unsigned>(std::stoul(f[6]));
  } catch (const std::exception&) {
    return false;
  }
  s->args = line.substr(pos);
  return true;
}

/// One Chrome trace event; `args` carries the span's identity and times
/// (relative to `base`) followed by the span's own args.
std::string event_json(const Span& s, std::int64_t base) {
  std::string args = hltg::JsonWriter()
                         .num("id", s.id)
                         .num("parent", s.parent)
                         .num_signed("start_ns", s.start_ns - base)
                         .num_signed("end_ns", s.end_ns - base)
                         .take();
  if (s.args.size() > 2) {  // a non-empty object: append its members
    args.back() = ',';
    args += s.args.substr(1);
  }
  return hltg::JsonWriter()
      .str("name", s.name)
      .str("cat", s.name.substr(0, s.name.find('.')))
      .str("ph", "X")
      .raw("ts", full_digits(static_cast<double>(s.start_ns - base) / 1e3))
      .raw("dur", full_digits(static_cast<double>(s.end_ns - s.start_ns) / 1e3))
      .num_signed("pid", s.pid)
      .num("tid", s.tid)
      .raw("args", args)
      .take();
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

void Tracer::configure(std::string side_file) {
  owner_pid_ = ::getpid();
  side_file_ = std::move(side_file);
}

std::uint64_t Tracer::next_id() {
  const std::uint64_t n = next_id_.fetch_add(1, std::memory_order_relaxed);
  const int pid = ::getpid();
  // A forked child inherits the counter: tag its ids with its pid so they
  // never collide with ids the parent hands out later.
  return pid == owner_pid_ ? n : (static_cast<std::uint64_t>(pid) << 32) | n;
}

void Tracer::record(Span s) {
  if (!on()) return;
  s.pid = ::getpid();
  s.tid = thread_index();
  if (s.pid == owner_pid_) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
    return;
  }
  // Forked worker: the parent's mutex may have been held at fork time, so
  // touch no shared state - one appending write per span.
  if (side_file_.empty()) return;
  const std::string line = side_line(s);
  const int fd = ::open(side_file_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return;
  const ssize_t n = ::write(fd, line.data(), line.size());
  (void)n;  // a lost worker span only thins the trace
  ::close(fd);
}

void Tracer::record(const char* name, std::uint64_t id, std::uint64_t parent,
                    std::int64_t start_ns, std::string args) {
  if (!on()) return;
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start_ns;
  s.end_ns = now_ns();
  s.args = std::move(args);
  record(std::move(s));
}

bool Tracer::write_chrome(const std::string& path, const std::string& metadata,
                          std::string* why) {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lk(mu_);
    all = spans_;
  }
  if (!side_file_.empty()) {
    std::ifstream in(side_file_);
    std::string line;
    while (std::getline(in, line)) {
      Span s;
      if (parse_side_line(line, &s)) all.push_back(std::move(s));
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  const std::int64_t base = all.empty() ? 0 : all.front().start_ns;

  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i) out += ",\n";
    out += event_json(all[i], base);
  }
  out += "],\n\"metadata\":";
  out += metadata.empty() ? "{}" : metadata;
  out += "}\n";

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << out;
  f.close();
  if (!f) {
    if (why) *why = "cannot write " + path + ": " + std::strerror(errno);
    return false;
  }
  return true;
}

unsigned thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned mine = next.fetch_add(1);
  return mine;
}

}  // namespace tgbench
