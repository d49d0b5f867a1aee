// tgbench: the repository benchmark driver (README.md in this directory).
//
//   tgbench --workload table1_ssl|grade_random|service_mix --seed N
//           --seconds S --work-dir DIR --ref-dir DIR
//           [--trace-out trace.json] [--write-reference]
//
// Prints a machine/build fingerprint line, then, as its last line, one JSON
// object {"correct","attempted","failed","metrics":{name: value}} with the
// end-to-end metrics (units live in BENCHMARK.json; run.py attaches them).
// With --trace-out, odd passes record spans and the Chrome trace is written
// at exit; tgbench/summarize.py derives the per-layer metrics from it.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "gatenet/evalw.h"
#include "trace.h"
#include "util/minijson.h"

namespace tgbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  // VmHWM, not RUSAGE_SELF: ru_maxrss survives execve, so it would report
  // the launching process's peak when that was larger.
  long self_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::strtol(line.c_str() + 6, nullptr, 10);
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self_kb, kids.ru_maxrss)) / 1024.0;
}

}  // namespace tgbench

namespace {

using namespace tgbench;

std::string fingerprint_json() {
  const unsigned lanes = hltg::resolve_lanes();
  return hltg::JsonWriter()
      .num_signed("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .num("hardware_threads", std::thread::hardware_concurrency())
      .num("lane_width", lanes)
      .str("simd_backend",
           std::string(hltg::to_string(hltg::backend_for(hltg::lane_words(lanes)))))
      .str("build_type", TGBENCH_BUILD_TYPE)
      .str("compiler", TGBENCH_COMPILER)
      .take();
}

std::string metrics_json(const Outcome& r) {
  hltg::JsonWriter w;
  for (const auto& [name, value] : r.metrics) w.raw(name.c_str(), full_digits(value));
  return w.take();
}

int usage() {
  std::fprintf(stderr,
               "usage: tgbench --workload table1_ssl|grade_random|service_mix"
               " --seed N --seconds S --work-dir DIR --ref-dir DIR"
               " [--trace-out FILE] [--write-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else if (a == "--work-dir" && has_value) {
      o.work_dir = argv[++i];
    } else if (a == "--ref-dir" && has_value) {
      o.ref_dir = argv[++i];
    } else if (a == "--write-reference") {
      o.write_reference = true;
    } else {
      return usage();
    }
  }
  if (o.work_dir.empty() || o.ref_dir.empty() || o.seconds <= 0)
    return usage();
  o.trace = !o.trace_out.empty();

  const std::string fingerprint = fingerprint_json();
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::fflush(stdout);

  Outcome r;
  try {
    std::filesystem::create_directories(o.work_dir);
    if (o.trace) {
      const std::string side = o.trace_out + ".workers";
      std::filesystem::remove(side);
      Tracer::get().configure(side);
    }
    if (o.workload == "table1_ssl")
      r = run_table1_ssl(o);
    else if (o.workload == "grade_random")
      r = run_grade_random(o);
    else if (o.workload == "service_mix")
      r = run_service_mix(o);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tgbench: %s\n", e.what());
    return 1;
  }
  r.metrics.emplace_back("peak_rss_mb", peak_rss_mb());

  for (const std::string& n : r.notes) std::fprintf(stderr, "check: %s\n", n.c_str());
  std::fprintf(stderr, "pass wall ms:");
  for (const double ms : r.plain_pass_ms) std::fprintf(stderr, " %.1f", ms);
  std::fprintf(stderr, "\n");

  if (o.trace) {
    Tracer::get().set_on(false);
    const double overhead =
        100.0 * (*std::min_element(r.traced_pass_ms.begin(), r.traced_pass_ms.end()) /
                     *std::min_element(r.plain_pass_ms.begin(), r.plain_pass_ms.end()) -
                 1.0);
    const std::string meta = hltg::JsonWriter()
                                 .str("workload", o.workload)
                                 .num("seed", o.seed)
                                 .raw("fingerprint", fingerprint)
                                 .raw("trace_overhead_pct", full_digits(overhead))
                                 .raw("traced_end_to_end", metrics_json(r))
                                 .take();
    std::string why;
    if (!Tracer::get().write_chrome(o.trace_out, meta, &why)) {
      std::fprintf(stderr, "tgbench: %s\n", why.c_str());
      return 1;
    }
    std::filesystem::remove(o.trace_out + ".workers");
  }

  const std::string result = hltg::JsonWriter()
                                 .boolean("correct", r.correct)
                                 .num("attempted", r.attempted)
                                 .num("failed", r.failed)
                                 .raw("metrics", metrics_json(r))
                                 .take();
  std::printf("%s\n", result.c_str());
  return 0;
}
