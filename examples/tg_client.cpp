// Thin client for the campaign service daemon (docs/SERVICE.md).
//
//   $ ./tg_client --socket /tmp/tg.sock [request flags] [--csv out.csv]
//   $ ./tg_client --socket /tmp/tg.sock --cancel ID
//   $ ./tg_client --socket /tmp/tg.sock --stats | --ping | --shutdown
//
// Request flags share error_campaign's grammar (parse_request_flag):
// --model ssl|mse|boe|bse, --stages EX,MEM,WB, --deadline-ms N,
// --max-backtracks N, --max-decisions N, --fallback [tries], --solver
// on|off, --solver-scope error|campaign, --drop, --jobs N; and the client
// adds --window N, --retry-window N, --tag S. --subscribe streams per-error
// progress rows to stderr as they complete. The result CSV goes to stdout
// (or --csv FILE); the ack line (request id + cache key) and the summary
// go to stderr.
//
// --retries N resubmits on TRANSIENT failures - connection refused,
// daemon hung up mid-stream, read timeout (--timeout-ms), or a server
// event flagged "transient" (queue full, draining, worker crashed while
// draining) - with jittered exponential backoff from --retry-base-ms.
// Resubmission is safe because requests are idempotent under the
// content-addressed result cache: a retry either hits the cache entry the
// first attempt filled or coalesces onto the still-running flight.
// Terminal failures (invalid request, poisoned, cancelled, deadline) are
// never retried.
//
// Exit codes: 0 completed campaign; 1 terminal request/protocol error;
// 3 cancelled; 4 poisoned (quarantined by the daemon's crash breaker);
// and, once retries are exhausted: 5 could not connect, 6 read timeout,
// 7 daemon hung up without a result, 8 socket error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "service/client.h"
#include "service/request.h"
#include "util/failpoint.h"
#include "util/minijson.h"

using namespace hltg;

namespace {

// Exit codes (also documented in docs/SERVICE.md).
constexpr int kExitOk = 0;
constexpr int kExitTerminal = 1;
constexpr int kExitCancelled = 3;
constexpr int kExitPoisoned = 4;
constexpr int kExitConnect = 5;
constexpr int kExitTimeout = 6;
constexpr int kExitEof = 7;
constexpr int kExitSocket = 8;

struct AttemptResult {
  int code = kExitTerminal;
  bool transient = false;  ///< worth resubmitting (identical request)
};

/// One full submit round trip: connect, send, consume events until a
/// result (or a failure). Transient failures are flagged for the retry
/// loop in main().
AttemptResult run_submit_once(const std::string& socket_path,
                              const RequestSpec& spec,
                              const std::string& csv_path, int timeout_ms) {
  AttemptResult r;
  ServiceClient client;
  std::string why;
  if (!client.connect(socket_path, &why)) {
    std::fprintf(stderr, "tg_client: %s\n", why.c_str());
    r.code = kExitConnect;
    r.transient = true;  // daemon may be restarting
    return r;
  }
  if (!client.send_line("{\"op\":\"submit\"," + request_fields_json(spec) +
                        "}")) {
    r.code = kExitSocket;
    r.transient = true;
    return r;
  }

  std::string line;
  for (;;) {
    const ReadStatus rs = client.read_line_status(&line, timeout_ms);
    if (rs != ReadStatus::kOk) {
      if (rs == ReadStatus::kTimeout) {
        std::fprintf(stderr, "tg_client: timed out after %d ms\n",
                     timeout_ms);
        r.code = kExitTimeout;
      } else if (rs == ReadStatus::kEof) {
        std::fprintf(stderr,
                     "tg_client: connection closed without a result\n");
        r.code = kExitEof;
      } else {
        std::fprintf(stderr, "tg_client: socket error\n");
        r.code = kExitSocket;
      }
      r.transient = true;  // the daemon (or its successor) can re-answer
      return r;
    }
    MiniJson j(line);
    std::string event;
    if (!j.ok() || !j.get_string("event", &event)) {
      std::fprintf(stderr, "tg_client: unparseable event: %s\n",
                   line.c_str());
      return r;
    }
    if (event == "error") {
      std::string err;
      bool transient = false;
      j.get_string("error", &err);
      j.get_bool("transient", &transient);
      std::fprintf(stderr, "tg_client: %s\n", err.c_str());
      r.code = kExitTerminal;
      r.transient = transient;
      return r;
    }
    if (event == "ack") {
      std::uint64_t id = 0;
      std::string key;
      bool coalesced = false;
      j.get_u64("id", &id);
      j.get_string("key", &key);
      j.get_bool("coalesced", &coalesced);
      std::fprintf(stderr, "request %llu key %s%s\n",
                   static_cast<unsigned long long>(id), key.c_str(),
                   coalesced ? " (coalesced onto an identical in-flight "
                               "request)"
                             : "");
      continue;
    }
    if (event == "progress") {
      std::string row;
      j.get_string("line", &row);
      std::fprintf(stderr, "progress: %s\n", row.c_str());
      continue;
    }
    if (event == "result") {
      bool ok = false, cached = false, cancelled = false;
      bool poisoned = false, transient = false;
      std::uint64_t total = 0, attempted = 0, detected = 0;
      std::string csv, table1, err;
      j.get_bool("ok", &ok);
      j.get_bool("cached", &cached);
      j.get_bool("cancelled", &cancelled);
      j.get_bool("poisoned", &poisoned);
      j.get_bool("transient", &transient);
      j.get_u64("total", &total);
      j.get_u64("attempted", &attempted);
      j.get_u64("detected", &detected);
      j.get_string("csv", &csv);
      j.get_string("table1", &table1);
      j.get_string("error", &err);
      if (!ok) {
        std::fprintf(stderr, "tg_client: %s\n",
                     err.empty() ? "request failed" : err.c_str());
        if (poisoned)
          r.code = kExitPoisoned;
        else if (cancelled)
          r.code = kExitCancelled;
        else
          r.code = kExitTerminal;
        r.transient = transient && !poisoned && !cancelled;
        return r;
      }
      std::fprintf(stderr, "%s: %llu/%llu detected of %llu errors\n",
                   cached ? "cache hit" : "fresh run",
                   static_cast<unsigned long long>(detected),
                   static_cast<unsigned long long>(attempted),
                   static_cast<unsigned long long>(total));
      if (!table1.empty()) std::fprintf(stderr, "%s\n", table1.c_str());
      if (csv_path.empty()) {
        std::fputs(csv.c_str(), stdout);
      } else {
        std::ofstream out(csv_path);
        out << csv;
        out.close();
        if (!out) {
          std::fprintf(stderr, "tg_client: --csv %s: write failed\n",
                       csv_path.c_str());
          return r;
        }
        std::fprintf(stderr, "wrote %s\n", csv_path.c_str());
      }
      r.code = kExitOk;
      return r;
    }
    std::fprintf(stderr, "tg_client: unexpected event: %s\n", line.c_str());
    return r;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, csv_path, op;
  std::uint64_t cancel_id = 0;
  unsigned retries = 0;
  double retry_base_ms = 200;
  int timeout_ms = 0;
  RequestSpec spec;
  for (int i = 1; i < argc; ++i) {
    std::string flag_error;
    if (parse_request_flag(argc, argv, &i, &spec, &flag_error)) {
      if (!flag_error.empty()) {
        std::fprintf(stderr, "%s\n", flag_error.c_str());
        return kExitTerminal;
      }
    } else if (!std::strcmp(argv[i], "--socket") && i + 1 < argc)
      socket_path = argv[++i];
    else if (!std::strcmp(argv[i], "--csv") && i + 1 < argc)
      csv_path = argv[++i];
    else if (!std::strcmp(argv[i], "--retries") && i + 1 < argc)
      retries = static_cast<unsigned>(std::atoi(argv[++i]));
    else if (!std::strcmp(argv[i], "--retry-base-ms") && i + 1 < argc)
      retry_base_ms = std::atof(argv[++i]);
    else if (!std::strcmp(argv[i], "--timeout-ms") && i + 1 < argc)
      timeout_ms = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--cancel") && i + 1 < argc) {
      op = "cancel";
      cancel_id = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--stats"))
      op = "stats";
    else if (!std::strcmp(argv[i], "--ping"))
      op = "ping";
    else if (!std::strcmp(argv[i], "--shutdown"))
      op = "shutdown";
    else if (!std::strcmp(argv[i], "--window") && i + 1 < argc)
      spec.window = static_cast<unsigned>(std::atoi(argv[++i]));
    else if (!std::strcmp(argv[i], "--retry-window") && i + 1 < argc)
      spec.retry_window = static_cast<unsigned>(std::atoi(argv[++i]));
    else if (!std::strcmp(argv[i], "--tag") && i + 1 < argc)
      spec.tag = argv[++i];
    else if (!std::strcmp(argv[i], "--subscribe"))
      spec.subscribe = true;
    else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 1;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "usage: tg_client --socket PATH [flags]\n");
    return 1;
  }

  if (!op.empty()) {
    // Admin ops: one shot, no retry - they are not idempotent requests
    // (a retried shutdown against a restarted daemon would kill it too).
    ServiceClient client;
    std::string why;
    if (!client.connect(socket_path, &why)) {
      std::fprintf(stderr, "tg_client: %s\n", why.c_str());
      return kExitConnect;
    }
    JsonWriter w;
    w.str("op", op);
    if (op == "cancel") w.num("id", cancel_id);
    if (!client.send_line(w.take())) return kExitSocket;
    std::string line;
    const ReadStatus rs = client.read_line_status(&line, timeout_ms);
    if (rs == ReadStatus::kTimeout) return kExitTimeout;
    if (rs == ReadStatus::kEof) return kExitEof;
    if (rs == ReadStatus::kError) return kExitSocket;
    MiniJson j(line);
    std::string event;
    if (j.ok() && j.get_string("event", &event) && event == "error") {
      std::string err;
      j.get_string("error", &err);
      std::fprintf(stderr, "tg_client: %s\n", err.c_str());
      return kExitTerminal;
    }
    std::printf("%s\n", line.c_str());
    return kExitOk;
  }

  // Fail fast: a campaign whose result cannot be written is not worth
  // running.
  std::string why;
  if (!csv_path.empty() && !probe_writable_file(csv_path, &why)) {
    std::fprintf(stderr, "--csv %s: %s\n", csv_path.c_str(), why.c_str());
    return kExitTerminal;
  }

  // Submit with idempotent resubmission: the request's content-addressed
  // key means a retry can never run the campaign twice by accident.
  AttemptResult r;
  for (unsigned attempt = 1;; ++attempt) {
    r = run_submit_once(socket_path, spec, csv_path, timeout_ms);
    if (!r.transient || attempt > retries) break;
    // Jittered exponential backoff, deterministic per attempt so runs
    // are reproducible: nominal = base * 2^(attempt-1), jitter [0.5,1.5).
    double nominal = retry_base_ms;
    for (unsigned i = 1; i < attempt && nominal < 30000; ++i) nominal *= 2;
    const double jitter =
        0.5 + static_cast<double>((attempt * 2654435761u) % 1000u) / 1000.0;
    const double delay = nominal * jitter;
    std::fprintf(stderr,
                 "tg_client: transient failure, retrying in %.0f ms "
                 "(attempt %u of %u)\n",
                 delay, attempt + 1, retries + 1);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
  }
  return r.code;
}
