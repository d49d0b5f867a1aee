// Shared pieces of the benchmark driver: options, the per-run outcome that
// becomes the final JSON line, sample statistics, and the three workloads.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace tgbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// A double with all its digits, for hltg::JsonWriter::raw.
inline std::string full_digits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace file (traced runs)
  std::string work_dir;   ///< scratch root for journals, caches, sockets
  std::string ref_dir;    ///< committed reference files
  bool write_reference = false;
};

/// What one run measured. `metrics` holds a value for every end-to-end
/// metric of BENCHMARK.json; `traced_pass_ms` / `plain_pass_ms` are the pass
/// walls of a traced run's traced and untraced passes (tracing overhead).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<double> traced_pass_ms;
  std::vector<double> plain_pass_ms;
  std::vector<std::string> notes;  ///< correctness diagnostics (stderr)

  void fail(const std::string& why, std::uint64_t n = 1) {
    correct = false;
    failed += n;
    if (notes.size() < 20) notes.push_back(why);
  }
};

/// Set-up time. A set-up is about a millisecond of work, and host
/// contention, which comes and goes within seconds, only ever slows it
/// down. So a run times bursts of set-ups spread over the run - one before
/// the first pass, then one per pass - and reports the fastest set-up.
class SetupClock {
 public:
  static constexpr double kFirstBurstS = 0.25;
  static constexpr double kBurstS = 0.02;

  /// Set up again and again for a burst; returns the last result.
  template <class F>
  auto burst(F&& set_up) -> decltype(set_up()) {
    decltype(set_up()) s;
    const double burst_s = bursts_++ ? kBurstS : kFirstBurstS;
    const std::int64_t start = now_ns();
    do {
      const std::int64_t t0 = now_ns();
      s = set_up();
      best_s_ = std::min(best_s_, ms_between(t0, now_ns()) / 1e3);
    } while (ms_between(start, now_ns()) < burst_s * 1e3);
    return s;
  }
  double seconds() const { return best_s_; }

 private:
  unsigned bursts_ = 0;
  double best_s_ = std::numeric_limits<double>::infinity();
};

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for
/// an empty one.
double quantile(std::vector<double> v, double q);

/// Peak resident set of this process or any child it reaped, in MiB.
double peak_rss_mb();

/// Fisher-Yates shuffle driven by the library's seeded generator (any
/// Rng-like type with below(n)).
template <class T, class R>
void seeded_shuffle(std::vector<T>& v, R& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// The pass schedule of a run. Every pass repeats the same operations.
/// Pass 0 warms up (page faults, allocator, CPU clock) and is not measured;
/// measured passes follow until `seconds` of them are spent, at least
/// kMinMeasured. In a traced run the odd passes record spans and the even
/// ones do not, so the run measures its own tracing overhead; its
/// end-to-end figures come from the traced passes only.
class Passes {
 public:
  static constexpr unsigned kMinMeasured = 3;

  explicit Passes(const Options& o) : o_(o) {}

  /// Start the next pass; false when the run is over.
  bool next() {
    ++pass_;
    if (pass_ <= 1) {
      start_ = now_ns();
      return true;
    }
    const double spent = ms_between(start_, now_ns()) / 1e3;
    return pass_ <= kMinMeasured || spent < o_.seconds;
  }
  unsigned index() const { return pass_; }
  bool warmup() const { return pass_ == 0; }
  bool traced() const { return o_.trace && pass_ % 2 == 1; }
  /// Does this pass feed the end-to-end figures?
  bool sampled() const { return !warmup() && traced() == o_.trace; }

 private:
  const Options& o_;
  unsigned pass_ = static_cast<unsigned>(-1);
  std::int64_t start_ = 0;
};

/// Best-of-passes timing. Host contention only ever slows work down, and
/// on a shared machine it comes and goes within seconds, so the latency of
/// an operation that every pass repeats is its best over the sampled
/// passes; percentiles are then taken over operations. Throughput uses the
/// best wall of each distinct pass in the same way.
class BestTimes {
 public:
  static constexpr double kNone = std::numeric_limits<double>::infinity();

  explicit BestTimes(std::size_t ops) : ms_(ops, kNone) {}

  void add(std::size_t op, double ms) { ms_[op] = std::min(ms_[op], ms); }

  /// Per-operation bests; operations never sampled are left out.
  std::vector<double> ops() const { return ops_if([](std::size_t) { return true; }); }
  template <class Pred>
  std::vector<double> ops_if(Pred keep) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < ms_.size(); ++i)
      if (ms_[i] != kNone && keep(i)) out.push_back(ms_[i]);
    return out;
  }

  /// Mean of the per-operation bests; 0 when none was sampled.
  double mean() const {
    const std::vector<double> v = ops();
    double sum = 0;
    for (const double ms : v) sum += ms;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
  }

  /// `work` units per second, when every operation here is one pass
  /// doing that work: work over the mean best pass wall.
  double rate(double work) const {
    const double ms = mean();
    return ms == 0 ? 0 : work / (ms / 1e3);
  }

 private:
  std::vector<double> ms_;
};

Outcome run_table1_ssl(const Options& o);
Outcome run_grade_random(const Options& o);
Outcome run_service_mix(const Options& o);

}  // namespace tgbench
