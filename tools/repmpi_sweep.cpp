// repmpi_sweep — crash-safe execution of the paper's scenario sweep.
//
//   repmpi_sweep [--log=F] [--jobs=N] [--nx=N] [--iters=N]
//                [--timeout-sec=N] [--max-attempts=N] [--overwrite]
//   repmpi_sweep --resume [--log=F ...]      skip cells already completed
//   repmpi_sweep --dump [--log=F]            print per-cell results (diffable)
//   repmpi_sweep --verify-log=F              fsck a result log + blob pair
//   repmpi_sweep --list-cells                print the grid's cell keys
//   repmpi_sweep --worker --cell=KEY --nx=N --iters=N   (internal)
//
// The sweep is the (logical procs × replication degree × failure scenario)
// HPCCG grid behind the paper's figures, treated as production traffic: each
// cell runs in its own fork/exec'd worker process under a wall-clock
// deadline, failures are retried with exponential backoff (seeded jitter
// decorrelates simultaneous retries), and every terminal result is appended
// to a crash-safe binary result log (support/result_log.hpp). Killing the
// sweep at ANY instant and rerunning with --resume completes the remaining
// cells; per-cell metrics and determinism fingerprints are bit-identical to
// an uninterrupted run (--dump output is byte-diffable across the two).
// Cells run through the sweep core shared with repmpi_sweepd
// (tools/sweep_core.hpp); --dump prints through the same ResultIndex path
// as `repmpi_sweepctl dump`.
//
// --verify-log is the standalone fsck: it walks every record and the blob
// sidecar, reports per-record CRC/framing status plus the truncation point
// a recovery would use, and exits 0 clean / 3 corrupt — the chaos CI job
// runs it after every induced kill.
//
// Exit codes: 0 every cell ok · 1 internal error · 2 usage ·
//             3 partial success (some cells exhausted retries; the rest
//               ran), also --verify-log's "corruption found"
//
// Chaos knobs (all REPMPI_FAULT_*; used by tests/test_sweep_tool.cpp and
// the CI chaos job):
//   REPMPI_FAULT_KILL_CELL=KEY [KILL_ATTEMPTS=n]   worker raises SIGKILL on
//       attempts <= n (default: every attempt)
//   REPMPI_FAULT_STALL_CELL=KEY [STALL_ATTEMPTS=n] [STALL_SEC=s]  worker
//       sleeps s (default 3600) to trip the supervisor deadline
//   REPMPI_FAULT_CORRUPT_CELL=KEY [CORRUPT_ATTEMPTS=n]  worker prints
//       garbage instead of a metrics blob and exits 0
//   REPMPI_FAULT_SUPERVISOR_KILL_AFTER=k   the supervisor SIGKILLs itself
//       after appending k records — the mid-sweep crash --resume recovers
//   REPMPI_FAULT_LOG_ABORT=n   the result log dies mid-record-write after n
//       appends (torn-write recovery test; see result_log.hpp)

#include <signal.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "support/options.hpp"
#include "sweep_common.hpp"
#include "sweep_core.hpp"

namespace repmpi::tools {
namespace {

using support::CellStatus;

void print_usage() {
  std::cout
      << "usage: repmpi_sweep [--log=FILE] [--jobs=N] [--nx=N] [--iters=N]\n"
         "                    [--timeout-sec=N] [--max-attempts=N]\n"
         "                    [--overwrite | --resume]\n"
         "       repmpi_sweep --dump [--log=FILE]\n"
         "       repmpi_sweep --verify-log=FILE\n"
         "       repmpi_sweep --list-cells\n"
         "\n"
         "Runs the (logical x degree x failure) HPCCG scenario grid with\n"
         "process-isolated workers, per-cell deadlines, retry with backoff,\n"
         "and a crash-safe binary result log (default sweep_results.bin).\n"
         "--resume skips cells the log already records as ok and re-runs\n"
         "the rest; results are bit-identical to an uninterrupted run.\n"
         "--dump prints the log one diffable line per cell.\n"
         "--verify-log walks a log + blob pair and reports per-record\n"
         "CRC/framing status and the recovery truncation point.\n"
         "--list-cells prints the grid's cell keys (a request trace for\n"
         "repmpi_sweepctl replay).\n"
         "exit: 0 all ok, 1 internal error, 2 usage, 3 partial success /\n"
         "      verify-log corruption\n";
}

// --- Worker mode ------------------------------------------------------------

long env_long(const char* name, long def) {
  const char* v = std::getenv(name);
  return v == nullptr ? def : std::strtol(v, nullptr, 10);
}

/// True when the env-selected fault cell matches and the current attempt is
/// within the knob's attempt budget (default: fault every attempt).
bool fault_knob_armed(const std::string& key, const char* cell_env,
                      const char* attempts_env) {
  const char* cell = std::getenv(cell_env);
  if (cell == nullptr || key != cell) return false;
  const long attempt = env_long("REPMPI_SWEEP_ATTEMPT", 1);
  return attempt <= env_long(attempts_env, LONG_MAX);
}

/// Runs one cell in-process and prints the deterministic metrics blob (one
/// JSON line) to stdout. This is what the supervisor fork/execs.
int run_worker(const support::Options& opt) {
  const std::string key = opt.get("cell");
  Cell cell;
  if (!parse_key(key, &cell)) {
    std::cerr << "repmpi_sweep: bad --cell key '" << key << "'\n";
    return 2;
  }

  if (fault_knob_armed(key, "REPMPI_FAULT_KILL_CELL",
                       "REPMPI_FAULT_KILL_ATTEMPTS"))
    ::raise(SIGKILL);
  if (fault_knob_armed(key, "REPMPI_FAULT_STALL_CELL",
                       "REPMPI_FAULT_STALL_ATTEMPTS"))
    ::sleep(static_cast<unsigned>(env_long("REPMPI_FAULT_STALL_SEC", 3600)));
  if (fault_knob_armed(key, "REPMPI_FAULT_CORRUPT_CELL",
                       "REPMPI_FAULT_CORRUPT_ATTEMPTS")) {
    std::printf("!! corrupted output, not a metrics blob !!\n");
    return 0;
  }

  const CellRun run = run_cell(cell, static_cast<int>(opt.get_int("nx", 8)),
                                static_cast<int>(opt.get_int("iters", 4)));
  const apps::RunResult& r = run.result;

  // One-line JSON, full precision: every field is a virtual-time quantity,
  // bit-identical however many times (or on which attempt) the cell runs.
  std::printf(
      "{\"key\": \"%s\", \"wallclock\": %.17g, \"events\": %llu, "
      "\"messages\": %llu, \"fingerprint\": %.17g}\n",
      key.c_str(), r.wallclock, static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.net_messages), run.fingerprint);
  return 0;
}

// --- Dump mode --------------------------------------------------------------

int run_dump(const std::string& log_path) {
  support::ResultIndex index;
  index.add_log(log_path);
  if (index.size() == 0 && !index.last_log_torn()) {
    std::cerr << "repmpi_sweep: no records in " << log_path << "\n";
    return 1;
  }
  dump_cells(index);
  if (index.last_log_torn())
    std::fprintf(stderr, "repmpi_sweep: note: log has a torn tail "
                         "(recoverable; a writer was killed mid-append)\n");
  return 0;
}

// --- Supervisor mode --------------------------------------------------------

bool file_nonempty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0;
}

int run_sweep(const support::Options& opt, const char* argv0) {
  SweepCoreConfig cfg = core_config(opt, "repmpi_sweep");
  const std::string log_path = opt.get("log", "sweep_results.bin");
  const bool resume = opt.get_bool("resume", false);
  if (opt.get_bool("overwrite", false)) {
    ::unlink(log_path.c_str());
    ::unlink((log_path + ".blob").c_str());
  } else if (!resume && file_nonempty(log_path)) {
    std::cerr << "repmpi_sweep: " << log_path << " already has results; "
              << "use --resume to continue it, --overwrite to discard it, "
              << "or pick another --log path\n";
    return 2;
  }

  const long jobs = cfg.jobs;
  cfg.log_path = log_path;
  cfg.worker_bin = self_exe(argv0);
  cfg.backoff_jitter_seed = 0x52455053u;
  cfg.kill_after_env = "REPMPI_FAULT_SUPERVISOR_KILL_AFTER";
  SweepCore core(std::move(cfg));
  if (core.log().recovered_torn_tail())
    std::cout << "[log recovery: dropped a torn trailing record]\n";

  // The request set is the fixed grid, so resuming needs only the log:
  // cells it durably records as ok are never re-run.
  const auto ok = [&core](const Cell& c) {
    const support::IndexedResult* r = core.index().find(c.key());
    return r != nullptr && r->record.status == CellStatus::kOk;
  };
  const std::vector<Cell> grid = make_grid();
  std::size_t skipped = 0;
  for (const Cell& c : grid) {
    if (resume && ok(c)) {
      ++skipped;
    } else {
      core.schedule(c.key());
    }
  }
  std::cout << "sweep: " << grid.size() << " cells, " << skipped
            << " already complete, " << grid.size() - skipped
            << " to run on " << jobs << " worker process(es) (log: "
            << log_path << ")\n";
  while (core.supervisor().active() > 0) core.supervisor().step(500);

  // Judge the whole grid from the index (resumed + just-run cells).
  std::vector<std::string> failed;
  for (const Cell& c : grid) {
    if (ok(c)) continue;
    const support::IndexedResult* r = core.index().find(c.key());
    failed.push_back(c.key() + " (" +
                     (r == nullptr ? "missing"
                                   : support::to_string(r->record.status)) +
                     ")");
  }
  std::cout << "sweep complete: " << grid.size() - failed.size() << "/"
            << grid.size() << " cells ok\n";
  if (!failed.empty()) {
    std::cout << "failed cells (sweep degraded gracefully, exit 3):\n";
    for (const std::string& f : failed) std::cout << "  " << f << "\n";
    return 3;
  }
  return 0;
}

int driver(int argc, char** argv) {
  support::Options opt(argc, argv,
                       {"jobs", "nx", "iters", "timeout-sec", "max-attempts",
                        "log", "cell", "verify-log"});
  for (const char* key :
       {"jobs", "nx", "iters", "timeout-sec", "max-attempts"}) {
    if (!opt.has(key)) continue;
    const std::string v = opt.get(key);
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
      std::cerr << "repmpi_sweep: --" << key << " expects a number, got '"
                << (v == "true" ? "" : v) << "'\n";
      return 2;
    }
  }
  if (opt.get_bool("help", false)) {
    print_usage();
    return 0;
  }
  try {
    if (opt.get_bool("worker", false)) return run_worker(opt);
    if (opt.get_bool("dump", false))
      return run_dump(opt.get("log", "sweep_results.bin"));
    if (opt.has("verify-log")) {
      const std::string path = opt.get("verify-log");
      if (path.empty() || path == "true") {
        std::cerr << "repmpi_sweep: --verify-log needs a log path\n";
        return 2;
      }
      const support::LogVerifyReport rep =
          support::verify_result_log(path, &std::cout);
      if (!rep.exists) return 1;
      return rep.clean() ? 0 : 3;
    }
    if (opt.get_bool("list-cells", false)) {
      for (const Cell& c : make_grid()) std::printf("%s\n", c.key().c_str());
      return 0;
    }
    return run_sweep(opt, argv[0]);
  } catch (const support::UsageError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "repmpi_sweep: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace
}  // namespace repmpi::tools

int main(int argc, char** argv) { return repmpi::tools::driver(argc, argv); }
