// Span recorder for the traced run. The benchmark's own code records a
// span around each call into a library layer (the library itself is not
// instrumented). Spans stay in memory and are written once, at exit, as
// Chrome trace-event JSON with name, start, end, parent and thread.
//
// A forked service worker cannot hand spans back through memory: in a
// child process record() appends each span as one line to a per-run side
// file instead (one write(2) per line, O_APPEND, so concurrent children
// never interleave), and write_chrome() merges that file in.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/minijson.h"

namespace tgbench {

struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "core.generate"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int pid = 0;
  unsigned tid = 0;
  std::string args;  ///< JSON object (hltg::JsonWriter), "" for none
};

class Tracer {
 public:
  static Tracer& get();

  /// Set the side file forked children append to. Call before any thread
  /// or child exists.
  void configure(std::string side_file);

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// A fresh span id, unique across this process and its children.
  std::uint64_t next_id();

  /// Keep `s` (fills pid and tid). No-op while tracing is off.
  void record(Span s);

  /// Record a span that ran from `start_ns` until now.
  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::int64_t start_ns, std::string args = {});

  /// Write every span (in-memory and side-file) as Chrome trace JSON with
  /// `metadata` (a JSON object) attached. False with *why on I/O failure.
  bool write_chrome(const std::string& path, const std::string& metadata,
                    std::string* why);

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{1};
  int owner_pid_ = 0;
  std::string side_file_;
  std::mutex mu_;  // guards spans_ (parent process only)
  std::vector<Span> spans_;
};

/// Small per-thread index (0 = first thread to ask), for span records.
unsigned thread_index();

}  // namespace tgbench
