// repmpi_sweepctl — client for the sweep service (repmpi_sweepd) plus the
// offline reader over its result logs.
//
// Daemon commands (need --socket=PATH or --spool=DIR):
//   ping                     liveness probe; prints the daemon banner
//   submit KEY...            durably enqueue cells (acked = accepted)
//   status                   one-line queue/progress summary
//   query-cell KEY           scheduled / done / unknown, for one cell
//   wait [--timeout-sec=N]   poll status until no cell is active
//   drain                    ask the daemon to drain gracefully
//   replay FILE              submit every key in FILE (one per line),
//                            backing off and resubmitting on busy NACKs
//
// Offline commands (operate on result logs; no daemon needed):
//   dump LOG...              diffable per-cell lines, byte-identical to
//                            `repmpi_sweep --dump` for equivalent results
//   query LOG... [--prefix=P] [--status=S] [--failed]
//                [--min-runs=N] [--min-attempts=N]
//   stats LOG...             merged-index summary (per-status counts,
//                            torn logs, total attempts)
//
// Multiple logs merge through support::ResultIndex: later logs win per
// key, run/attempt totals aggregate, torn tails are tolerated (consistent
// prefix only) and reported on stderr.
//
// Exit codes mirror the client RPC outcome classes so scripts (and the
// chaos CI job) can distinguish backpressure from breakage:
//   0 ok · 1 connection/internal error · 2 usage · 4 timed out ·
//   5 protocol error · 6 NACKed (busy / client-cap / draining / bad)

#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "support/options.hpp"
#include "support/result_index.hpp"
#include "support/sweep_client.hpp"
#include "sweep_common.hpp"

namespace repmpi::tools {
namespace {

using support::CellStatus;
using support::IndexedResult;
using support::ResultIndex;
using support::RpcReply;
using support::RpcStatus;
using support::SweepClient;
using support::SweepClientConfig;
namespace wire = support::wire;

void print_usage() {
  std::cout
      << "usage: repmpi_sweepctl COMMAND [ARGS] [--socket=PATH | --spool=DIR]\n"
         "daemon commands:\n"
         "  ping | status | drain\n"
         "  submit KEY...\n"
         "  query-cell KEY\n"
         "  wait [--timeout-sec=N]\n"
         "  replay TRACE_FILE [--timeout-sec=N]\n"
         "offline commands (merge N result logs via the results index):\n"
         "  dump LOG...\n"
         "  query LOG... [--prefix=P] [--status=S] [--failed]\n"
         "               [--min-runs=N] [--min-attempts=N]\n"
         "  stats LOG...\n"
         "exit: 0 ok, 1 conn/internal error, 2 usage, 4 timeout,\n"
         "      5 protocol error, 6 NACKed\n";
}

int rc_for(RpcStatus status) {
  switch (status) {
    case RpcStatus::kOk: return 0;
    case RpcStatus::kConnError: return 1;
    case RpcStatus::kTimeout: return 4;
    case RpcStatus::kProtocolError: return 5;
    case RpcStatus::kNack: return 6;
  }
  return 1;
}

/// Prints a non-ok reply to stderr; returns its exit code.
int report_failure(const char* what, const RpcReply& reply) {
  std::cerr << "repmpi_sweepctl: " << what << ": "
            << support::to_string(reply.status);
  if (reply.status == RpcStatus::kNack)
    std::cerr << " (" << wire::nack_name(reply.nack_code) << ")";
  if (!reply.payload.empty()) std::cerr << ": " << reply.payload;
  std::cerr << "\n";
  return rc_for(reply.status);
}

void sleep_sec(double sec) {
  struct timespec ts{static_cast<time_t>(sec),
                     static_cast<long>((sec - std::floor(sec)) * 1e9)};
  ::nanosleep(&ts, nullptr);
}

/// Extracts `name=<number>` from a daemon status line; -1 when absent.
long status_field(const std::string& line, const std::string& name) {
  const std::string needle = name + "=";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtol(line.c_str() + pos + needle.size(), nullptr, 10);
}

int cmd_wait(SweepClient& client, double timeout_sec) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_sec));
  while (Clock::now() < deadline) {
    const RpcReply reply = client.status();
    if (reply.status == RpcStatus::kOk) {
      const long active = status_field(reply.payload, "active");
      if (active == 0) {
        std::cout << reply.payload << "\n";
        return 0;
      }
    } else if (reply.status == RpcStatus::kProtocolError) {
      return report_failure("wait", reply);
    }
    // Conn errors and timeouts keep polling: a daemon restart mid-wait is
    // exactly the situation wait exists to ride out.
    sleep_sec(0.2);
  }
  std::cerr << "repmpi_sweepctl: wait: cells still active after "
            << timeout_sec << "s\n";
  return 4;
}

int cmd_replay(SweepClient& client, const std::string& trace_path,
               double timeout_sec, std::uint64_t jitter_seed) {
  std::ifstream trace(trace_path);
  if (!trace) {
    std::cerr << "repmpi_sweepctl: cannot open trace " << trace_path << "\n";
    return 2;
  }
  std::vector<std::string> keys;
  std::string line;
  while (std::getline(trace, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
      line.pop_back();
    if (!line.empty() && line[0] != '#') keys.push_back(line);
  }

  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_sec));
  // Backpressure loop: a busy/client-cap NACK is the daemon saying "not
  // now", so back off (deterministic jitter, same scheme as the client's
  // retry delays) and resubmit. Any other NACK is a real refusal.
  SweepClientConfig backoff;
  backoff.socket_path = "-";  // only the delay fields are used
  backoff.backoff_base_sec = 0.05;
  backoff.backoff_cap_sec = 0.5;
  backoff.jitter_seed = jitter_seed;
  std::size_t submitted = 0, coalesced = 0, resubmits = 0;
  for (const std::string& key : keys) {
    for (int attempt = 2;; ++attempt) {
      const RpcReply reply = client.submit(key);
      if (reply.status == RpcStatus::kOk) {
        ++submitted;
        if (reply.payload == "coalesced") ++coalesced;
        break;
      }
      const bool backpressure =
          reply.status == RpcStatus::kNack &&
          (reply.nack_code == wire::kNackBusy ||
           reply.nack_code == wire::kNackClientCap);
      if (!backpressure) return report_failure("replay submit", reply);
      if (Clock::now() >= deadline) {
        std::cerr << "repmpi_sweepctl: replay: still backpressured after "
                  << timeout_sec << "s (" << submitted << "/" << keys.size()
                  << " submitted)\n";
        return 4;
      }
      ++resubmits;
      sleep_sec(SweepClient::retry_delay_sec(backoff,
                                             attempt < 12 ? attempt : 12));
    }
  }
  std::cout << "replay: " << submitted << "/" << keys.size()
            << " cell(s) accepted (" << coalesced << " coalesced, "
            << resubmits << " backpressure resubmit(s))\n";
  return 0;
}

// --- Offline commands -------------------------------------------------------

int load_index(const std::vector<std::string>& paths, ResultIndex* index) {
  if (paths.empty()) {
    std::cerr << "repmpi_sweepctl: need at least one result log path\n";
    return 2;
  }
  for (const std::string& path : paths) {
    index->add_log(path);
    if (index->last_log_torn())
      std::cerr << "repmpi_sweepctl: note: " << path
                << " has a torn tail (consistent prefix used)\n";
  }
  return 0;
}

int cmd_dump(const std::vector<std::string>& paths) {
  ResultIndex index;
  if (const int rc = load_index(paths, &index); rc != 0) return rc;
  dump_cells(index);
  return 0;
}

bool parse_status(const std::string& name, CellStatus* out) {
  const std::pair<const char*, CellStatus> table[] = {
      {"ok", CellStatus::kOk},           {"crash", CellStatus::kCrash},
      {"timeout", CellStatus::kTimeout}, {"exit", CellStatus::kExit},
      {"corrupt", CellStatus::kCorrupt},
  };
  for (const auto& [n, s] : table) {
    if (name == n) {
      *out = s;
      return true;
    }
  }
  return false;
}

int cmd_query(const std::vector<std::string>& paths,
              const support::Options& opt) {
  ResultIndex index;
  if (const int rc = load_index(paths, &index); rc != 0) return rc;
  support::ResultQuery q;
  q.key_prefix = opt.get("prefix", "");
  q.failed_only = opt.get_bool("failed", false);
  q.min_runs = static_cast<std::uint32_t>(opt.get_int("min-runs", 0));
  q.min_attempts =
      static_cast<std::uint64_t>(opt.get_int("min-attempts", 0));
  if (opt.has("status")) {
    CellStatus s;
    if (!parse_status(opt.get("status"), &s)) {
      std::cerr << "repmpi_sweepctl: --status must be one of "
                   "ok|crash|timeout|exit|corrupt\n";
      return 2;
    }
    q.has_status = true;
    q.status = s;
  }
  for (const IndexedResult* r : index.query(q)) {
    std::printf("%s %s attempts=%u runs=%u total_attempts=%llu code=%d\n",
                r->record.key.c_str(), support::to_string(r->record.status),
                r->record.attempts, r->runs,
                static_cast<unsigned long long>(r->total_attempts),
                r->record.code);
  }
  return 0;
}

int cmd_stats(const std::vector<std::string>& paths) {
  ResultIndex index;
  if (const int rc = load_index(paths, &index); rc != 0) return rc;
  const support::IndexStats s = index.stats();
  std::printf("logs=%zu torn_logs=%zu records=%llu keys=%zu\n", s.logs,
              s.torn_logs, static_cast<unsigned long long>(s.records),
              s.keys);
  std::printf("ok=%llu crash=%llu timeout=%llu exit=%llu corrupt=%llu "
              "total_attempts=%llu\n",
              static_cast<unsigned long long>(s.ok),
              static_cast<unsigned long long>(s.crash),
              static_cast<unsigned long long>(s.timeout),
              static_cast<unsigned long long>(s.exit),
              static_cast<unsigned long long>(s.corrupt),
              static_cast<unsigned long long>(s.total_attempts));
  return 0;
}

int driver(int argc, char** argv) {
  support::Options opt(argc, argv,
                       {"socket", "spool", "timeout-sec", "prefix", "status",
                        "min-runs", "min-attempts", "jitter-seed"});
  const auto& pos = opt.positional();
  if (opt.get_bool("help", false) || pos.empty()) {
    print_usage();
    return pos.empty() && !opt.get_bool("help", false) ? 2 : 0;
  }
  const std::string cmd = pos[0];
  const std::vector<std::string> args(pos.begin() + 1, pos.end());

  try {
    // Offline commands first: they never touch the socket.
    if (cmd == "dump") return cmd_dump(args);
    if (cmd == "query") return cmd_query(args, opt);
    if (cmd == "stats") return cmd_stats(args);

    SweepClientConfig cfg;
    cfg.socket_path = opt.get("socket");
    if (cfg.socket_path.empty()) {
      const std::string spool = opt.get("spool");
      if (!spool.empty() && spool != "true")
        cfg.socket_path = spool + "/sweepd.sock";
    }
    if (cfg.socket_path.empty()) {
      std::cerr << "repmpi_sweepctl: " << cmd
                << " needs --socket=PATH or --spool=DIR\n";
      return 2;
    }
    cfg.jitter_seed =
        static_cast<std::uint64_t>(opt.get_int("jitter-seed", 0x52455031));
    SweepClient client(cfg);

    if (cmd == "ping" || cmd == "status" || cmd == "drain") {
      const RpcReply reply = cmd == "ping"     ? client.hello()
                             : cmd == "status" ? client.status()
                                               : client.drain();
      if (reply.status != RpcStatus::kOk)
        return report_failure(cmd.c_str(), reply);
      std::cout << reply.payload << "\n";
      return 0;
    }
    if (cmd == "submit") {
      if (args.empty()) {
        std::cerr << "repmpi_sweepctl: submit needs at least one cell key\n";
        return 2;
      }
      for (const std::string& key : args) {
        const RpcReply reply = client.submit(key);
        if (reply.status != RpcStatus::kOk)
          return report_failure(("submit " + key).c_str(), reply);
        std::cout << key << ": " << reply.payload << "\n";
      }
      return 0;
    }
    if (cmd == "query-cell") {
      if (args.size() != 1) {
        std::cerr << "repmpi_sweepctl: query-cell needs exactly one key\n";
        return 2;
      }
      const RpcReply reply = client.query(args[0]);
      if (reply.status != RpcStatus::kOk)
        return report_failure("query-cell", reply);
      std::cout << args[0] << ": " << reply.payload << "\n";
      return 0;
    }
    if (cmd == "wait")
      return cmd_wait(client, opt.get_double("timeout-sec", 300.0));
    if (cmd == "replay") {
      if (args.size() != 1) {
        std::cerr << "repmpi_sweepctl: replay needs exactly one trace file\n";
        return 2;
      }
      return cmd_replay(client, args[0], opt.get_double("timeout-sec", 600.0),
                        cfg.jitter_seed);
    }
    std::cerr << "repmpi_sweepctl: unknown command '" << cmd << "'\n";
    print_usage();
    return 2;
  } catch (const support::UsageError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "repmpi_sweepctl: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace
}  // namespace repmpi::tools

int main(int argc, char** argv) { return repmpi::tools::driver(argc, argv); }
