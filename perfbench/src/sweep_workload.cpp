// sweep_service: the operations stack under load. A repmpi_sweepd daemon
// serves the HPCCG sweep grid to one SweepClient connection in repeated
// rounds; each round also runs the same grid through one batch
// repmpi_sweep, and the two result logs must dump byte-identical.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "support/result_index.hpp"
#include "support/result_log.hpp"
#include "support/sweep_client.hpp"
#include "sweep_common.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace support = repmpi::support;

namespace {

// Sweep size the daemon and the batch run both serve (the README's
// reference grid: 16^2 x 32 blocks, 8 CG iterations, 2 worker processes).
constexpr int kJobs = 2;
const char* const kNx = "--nx=16";
const char* const kIters = "--iters=8";

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Starts argv[0] in its own process group with stdout and stderr sent to
/// `log_path` (children never write to the benchmark's stdout).
pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> cargv;
  for (const std::string& a : argv)
    cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::setpgid(0, 0);
    const int out =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int in = ::open("/dev/null", O_RDONLY);
    if (out < 0 || in < 0) ::_exit(126);
    ::dup2(in, 0);
    ::dup2(out, 1);
    ::dup2(out, 2);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::setpgid(pid, pid);
  return pid;
}

/// Waits for `pid`; on an interrupt the child's group is killed first, so
/// the wait always ends. Returns the wait status.
int wait_child(pid_t pid) {
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, 0);
    if (r == pid) return status;
    if (r < 0 && errno != EINTR) throw std::runtime_error("waitpid failed");
    if (g_interrupted) ::kill(-pid, SIGKILL);
  }
}

bool exited_ok(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs a tool to completion and returns its output; throws if it fails.
std::string run_tool(const std::vector<std::string>& argv,
                     const std::string& out_path) {
  const int status = wait_child(spawn(argv, out_path));
  if (!exited_ok(status)) {
    throw std::runtime_error(argv[0] + " " + argv[1] + " failed: " +
                             read_file(out_path));
  }
  return read_file(out_path);
}

/// Kills and reaps whatever descendants are still attached to this process
/// (it is their subreaper), so no worker outlives the run.
std::size_t reap_descendants() {
  std::size_t killed = 0;
  for (;;) {
    std::set<pid_t> children;
    std::error_code ec;
    for (const auto& task : fs::directory_iterator("/proc/self/task", ec)) {
      std::ifstream in(task.path() / "children");
      pid_t pid = 0;
      while (in >> pid) children.insert(pid);
    }
    if (children.empty()) break;
    for (pid_t pid : children) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
      ++killed;
    }
  }
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }
  return killed;
}

support::SweepClientConfig client_config(const std::string& spool,
                                         std::uint64_t jitter_seed,
                                         int max_tries) {
  support::SweepClientConfig cfg;
  cfg.socket_path = spool + "/sweepd.sock";
  cfg.max_tries = max_tries;
  cfg.jitter_seed = jitter_seed;
  return cfg;
}

/// One daemon on a private spool. Stopping it drains it (in-flight cells
/// finish), waits for it, and removes the spool; the destructor stops it on
/// every path out of the workload, a failed check or SIGINT included.
class Daemon {
 public:
  Daemon(const std::string& spool, std::uint64_t jitter_seed)
      : spool_(spool), jitter_seed_(jitter_seed) {
    fs::create_directories(spool_);
    const double t0 = now_s();
    pid_ = spawn({PERFBENCH_SWEEPD_BIN, "--spool=" + spool_,
                  "--jobs=" + std::to_string(kJobs), kNx, kIters},
                 spool_ + ".log");
    // The socket appears once the daemon has recovered its logs; poll for
    // the first acknowledged hello with single-try calls so the measured
    // start-up is not rounded up to the client's retry backoff.
    support::SweepClient probe(client_config(spool_, jitter_seed_, 1));
    while (probe.hello().status != support::RpcStatus::kOk) {
      if (now_s() - t0 > 30 || g_interrupted) {
        stop();
        throw std::runtime_error("sweep daemon did not answer hello");
      }
      sleep_s(0.0002);
    }
    start_s_ = now_s() - t0;
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  double start_s() const { return start_s_; }
  const std::string& spool() const { return spool_; }

  /// Drains and reaps the daemon and removes its spool. True when it
  /// drained cleanly and left no socket behind.
  bool stop() {
    if (pid_ < 0) return true;
    ::kill(pid_, SIGTERM);  // graceful drain
    int status = 0;
    const double t0 = now_s();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() - t0 > 60) {
        ::kill(-pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      sleep_s(0.001);
    }
    pid_ = -1;
    const bool clean =
        exited_ok(status) && !fs::exists(spool_ + "/sweepd.sock");
    std::error_code ec;
    fs::remove_all(spool_, ec);
    fs::remove(spool_ + ".log", ec);
    return clean;
  }

 private:
  std::string spool_;
  std::uint64_t jitter_seed_;
  pid_t pid_ = -1;
  double start_s_ = 0;
};

long status_field(const std::string& line, const std::string& name) {
  const auto pos = line.find(name + "=");
  if (pos == std::string::npos) return -1;
  return std::strtol(line.c_str() + pos + name.size() + 1, nullptr, 10);
}

struct ServedRound {
  double served_s = 0;
  double batch_s = 0;
  std::vector<double> ack_ms;
  std::vector<double> status_us;
  std::uint64_t nacks = 0;
  double index_load_ms = 0;
  double attempts = 0;
};

/// The sweep's output checks for one round. Returns the number of failed
/// cells: a served cell that did not end ok in its own fresh record, a cell
/// whose fingerprint differs from its logical size's native cell, and a
/// batch cell whose dump line differs from the daemon's.
std::uint64_t check_round(const support::ResultIndex& index, int round_no,
                          const std::vector<std::string>& keys,
                          const std::string& served_dump,
                          const std::string& batch_dump) {
  std::uint64_t failed = 0;
  std::map<int, double> native_fp;
  for (const std::string& key : keys) {
    repmpi::tools::Cell c;
    const support::IndexedResult* r = index.find(key);
    if (r != nullptr && repmpi::tools::parse_key(key, &c) && c.degree == 1)
      native_fp[c.logical] =
          repmpi::tools::blob_number(r->record.blob, "fingerprint");
  }
  for (const std::string& key : keys) {
    repmpi::tools::Cell c;
    const support::IndexedResult* r = index.find(key);
    const bool ok = r != nullptr && repmpi::tools::parse_key(key, &c) &&
                    r->record.status == support::CellStatus::kOk &&
                    r->runs == static_cast<std::uint32_t>(round_no + 1) &&
                    native_fp.count(c.logical) > 0 &&
                    same_bits(repmpi::tools::blob_number(r->record.blob,
                                                         "fingerprint"),
                              native_fp[c.logical]);
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: sweep_service: round " << round_no
                << " served cell " << key << " failed its check\n";
    }
  }
  // Compare the dumps line by line, one line per cell.
  std::istringstream a(served_dump), b(batch_dump);
  std::string la, lb;
  std::size_t lines = 0;
  while (lines < keys.size()) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) break;
    ++lines;
    if (!ga || !gb || la != lb) {
      ++failed;
      std::cerr << "perfbench: sweep_service: round " << round_no
                << " dump differs: '" << la << "' vs '" << lb << "'\n";
    }
  }
  failed += keys.size() - lines;  // batch cells missing from the dump
  if (std::getline(b, lb)) {
    ++failed;  // extra output past the grid
  }
  return failed;
}

/// Mean host time of one cell, each run directly as `repmpi_sweep --worker`.
double worker_cell_ms(const std::vector<std::string>& keys,
                      const std::string& out_path) {
  const double t0 = now_s();
  for (const std::string& key : keys) {
    run_tool({PERFBENCH_SWEEP_BIN, "--worker", "--cell=" + key, kNx, kIters},
             out_path);
  }
  return (now_s() - t0) * 1e3 / static_cast<double>(keys.size());
}

/// The benchmark's own ResultLog append of a record the size of a cell's.
double result_log_append_us(const std::string& path) {
  std::vector<double> us;
  {
    support::ResultLog log(path);
    support::ResultRecord rec;
    rec.key = "hpccg.l4.d2.none";
    rec.blob =
        "{\"key\": \"hpccg.l4.d2.none\", \"wallclock\": 0.012345678901234567, "
        "\"events\": 123456, \"messages\": 12345, "
        "\"fingerprint\": 1234.5678901234567}\n";
    for (int i = 0; i < 20; ++i) {
      const double t0 = now_s();
      log.append(rec);
      us.push_back((now_s() - t0) * 1e6);
    }
  }
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path + ".blob", ec);
  return median(us);
}

struct Sweep {
  std::string dir;
  std::vector<std::string> keys;
  std::uint64_t rng;
  Outcome out;

  /// One round: submit the grid (seeded order) to the daemon, wait for
  /// every cell, read the logs back, run the batch sweep, compare.
  ServedRound round(Daemon& d, support::SweepClient& client, int round_no) {
    ServedRound r;
    std::vector<std::string> order = keys;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[splitmix64(rng) % i]);

    const auto status = [&]() {
      const double t0 = now_s();
      const support::RpcReply rep = client.status();
      r.status_us.push_back((now_s() - t0) * 1e6);
      if (rep.status != support::RpcStatus::kOk)
        throw std::runtime_error("sweep status failed");
      return rep.payload;
    };
    const long base = status_field(status(), "results");
    long done = base;
    std::uint64_t rejected = 0;

    const double t0 = now_s();
    for (std::size_t i = 0; i < order.size();) {
      const double ts = now_s();
      const support::RpcReply rep = client.submit(order[i]);
      if (rep.status == support::RpcStatus::kOk) {
        r.ack_ms.push_back((now_s() - ts) * 1e3);
        ++i;
      } else if (rep.status == support::RpcStatus::kNack &&
                 (rep.nack_code == support::wire::kNackBusy ||
                  rep.nack_code == support::wire::kNackClientCap)) {
        // Backpressure, not a failure: wait for one cell to finish, then
        // resubmit the same cell.
        ++r.nacks;
        const long seen = done;
        while ((done = status_field(status(), "results")) == seen) {
          if (g_interrupted) return r;
          sleep_s(0.0005);
        }
      } else {
        ++rejected;
        std::cerr << "perfbench: sweep_service: submit " << order[i] << ": "
                  << support::to_string(rep.status) << "\n";
        ++i;
      }
      if (g_interrupted) return r;
    }
    const long want = base + static_cast<long>(order.size() - rejected);
    for (;;) {
      const std::string s = status();
      done = status_field(s, "results");
      if (done >= want && status_field(s, "active") == 0) break;
      if (g_interrupted) return r;
      sleep_s(0.0005);
    }
    r.served_s = now_s() - t0;

    const double tl = now_s();
    support::ResultIndex index;
    index.add_log(d.spool() + "/results.bin");
    r.index_load_ms = (now_s() - tl) * 1e3;
    const support::IndexStats st = index.stats();
    r.attempts = static_cast<double>(st.total_attempts) /
                 static_cast<double>(round_no + 1);

    const std::string batch_log = dir + "/batch.bin";
    const double tb = now_s();
    run_tool({PERFBENCH_SWEEP_BIN, "--log=" + batch_log, "--overwrite",
              "--jobs=" + std::to_string(kJobs), kNx, kIters},
             dir + "/batch.out");
    r.batch_s = now_s() - tb;

    const std::string served_dump = run_tool(
        {PERFBENCH_SWEEP_BIN, "--dump", "--log=" + d.spool() + "/results.bin"},
        dir + "/dump_served.out");
    const std::string batch_dump = run_tool(
        {PERFBENCH_SWEEP_BIN, "--dump", "--log=" + batch_log},
        dir + "/dump_batch.out");
    out.attempted += 2 * keys.size();
    out.failed += rejected +
                  check_round(index, round_no, keys, served_dump, batch_dump);
    return r;
  }
};

}  // namespace

Outcome run_sweep_workload(const Args& args) {
  // Workers the daemon loses track of reparent here and are reaped below.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  // Relative to the checkout, so the spool's socket path stays short.
  const fs::path base = ".bench_build/tmp";
  fs::create_directories(base);
  std::string tmpl = (base / "sweep-XXXXXX").string();
  if (::mkdtemp(tmpl.data()) == nullptr)
    throw std::runtime_error("mkdtemp failed under " + base.string());

  std::uint64_t seed_state = args.seed;
  Sweep sw{tmpl, {}, splitmix64(seed_state), {}};
  for (const repmpi::tools::Cell& c : repmpi::tools::make_grid())
    sw.keys.push_back(c.key());
  const std::uint64_t jitter_seed = splitmix64(seed_state) | 1;

  bool clean = true;
  std::vector<ServedRound> untraced, traced;
  std::vector<double> setup, cell_ms, append_us;
  try {
    // Set-up: daemon start to the first acknowledged hello, on a fresh
    // private spool. Timed for the serving daemon and again with a
    // throwaway daemon after every round, so that its median spans the
    // run as run_s does.
    const auto time_setup = [&] {
      Daemon extra(sw.dir + "/setup", jitter_seed);
      setup.push_back(extra.start_s());
      clean = extra.stop() && clean;
    };
    Daemon d(sw.dir + "/spool", jitter_seed);
    setup.push_back(d.start_s());
    support::SweepClient client(client_config(d.spool(), jitter_seed, 4));

    const double t_start = now_s();
    for (int i = 0; !g_interrupted; ++i) {
      const bool trace_this = args.trace && i % 2 == 1;
      ServedRound r = sw.round(d, client, i);
      if (g_interrupted) break;
      if (trace_this) {
        cell_ms.push_back(worker_cell_ms(sw.keys, sw.dir + "/worker.out"));
        append_us.push_back(result_log_append_us(sw.dir + "/probe.bin"));
      }
      (trace_this ? traced : untraced).push_back(std::move(r));
      time_setup();
      const bool enough = !args.trace || !traced.empty();
      if (enough && now_s() - t_start >= args.seconds) break;
    }
    clean = d.stop() && clean;
  } catch (...) {
    reap_descendants();
    std::error_code ec;
    fs::remove_all(sw.dir, ec);
    throw;
  }
  // Nothing may outlive the run: no worker, no daemon, no socket.
  if (reap_descendants() > 0) clean = false;
  std::error_code ec;
  fs::remove_all(sw.dir, ec);
  sw.out.correct = clean;
  if (g_interrupted) return sw.out;

  const double cells = static_cast<double>(sw.keys.size());
  std::vector<double> run_s;
  for (const ServedRound& r : untraced) run_s.push_back(r.served_s + r.batch_s);
  if (!args.trace) {
    struct rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    sw.out.set("setup_s", median(setup), "s");
    sw.out.set("run_s", median(run_s), "s");
    sw.out.set("peak_rss_mb", maxrss_mb(ru.ru_maxrss), "MB");
    return sw.out;
  }

  std::vector<double> served, batch, acks, status_us, nacks, load_ms, attempts,
      busy, traced_s;
  const double mean_cell_ms = median(cell_ms);
  for (const ServedRound& r : traced) {
    served.push_back(cells / r.served_s);
    batch.push_back(cells / r.batch_s);
    acks.insert(acks.end(), r.ack_ms.begin(), r.ack_ms.end());
    status_us.insert(status_us.end(), r.status_us.begin(), r.status_us.end());
    nacks.push_back(static_cast<double>(r.nacks));
    load_ms.push_back(r.index_load_ms);
    attempts.push_back(r.attempts);
    busy.push_back(cells * mean_cell_ms / 1e3 / (kJobs * r.served_s));
    traced_s.push_back(r.served_s + r.batch_s);
  }
  Outcome& out = sw.out;
  out.set("served_cells_per_s", median(served), "cells/s");
  out.set("batch_cells_per_s", median(batch), "cells/s");
  out.set("ack_ms", median(acks), "ms");
  const auto [tail_ms, tail_pct] = tail(acks);
  out.set("sweep_client.ack_tail_ms", tail_ms, "ms");
  out.set("sweep_client.ack_tail_pct", tail_pct, "%");
  out.set("sweep_client.ack_samples", static_cast<double>(acks.size()),
          "count");
  out.set("sweep_client.status_us", median(status_us), "us");
  out.set("sweep_client.nacks", median(nacks), "count");
  out.set("result_log.append_us", median(append_us), "us");
  out.set("result_index.load_ms", median(load_ms), "ms");
  out.set("supervisor.attempts", median(attempts), "count");
  out.set("supervisor.busy_ratio", median(busy), "ratio");
  out.set("worker.cell_ms", mean_cell_ms, "ms");
  out.set("trace.run_s", median(traced_s), "s");
  out.set("trace.cost_s", median(traced_s) - median(run_s), "s");
  return out;
}

}  // namespace perfbench
