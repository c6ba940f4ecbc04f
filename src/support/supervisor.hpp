#pragma once

// Process-isolated work execution for sweep grids: a queue of scenario
// descriptors fanned across fork/exec'd worker processes, each attempt run
// under a wall-clock deadline with kill-on-timeout and bounded retry with
// exponential backoff (optionally jittered — see backoff_sec below).
//
// Why processes, not threads: a sweep cell that SIGSEGVs, OOMs, or hangs
// must cost exactly one cell, not the run. The supervisor owns each child's
// stdout through a pipe (the metrics blob), classifies every termination
// into a distinct failure class (crash / timeout / nonzero exit / corrupt
// output), and keeps the rest of the queue flowing — a cell that exhausts
// its retry budget is reported failed while the sweep degrades gracefully
// and completes everything else.
//
// The supervisor is single-threaded: one poll(2) loop drives spawning,
// output draining, deadline enforcement, reaping, and the backoff timers.
// Results are deterministic in content (the workers are deterministic
// simulations); only completion order depends on the host.
//
// It is driven incrementally: enqueue() adds items at any time, step()
// advances the engine, each terminal result is delivered through
// cfg.on_result, and hold_first_attempts() implements graceful drain
// (in-flight cells finish, never-started ones stay parked). The batch sweep
// tool steps it until idle; the sweep daemon steps it from its own poll
// loop.
//
// Workers never outlive the supervisor: each child is armed with
// PR_SET_PDEATHSIG(SIGKILL) before exec, so a supervisor that is SIGKILLed
// takes its workers with it. The death signal follows the *thread* that
// forked the child, so the thread driving step() must outlive its children
// (the destructor also kills and reaps whatever still runs).

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/result_log.hpp"

namespace repmpi::support {

/// One unit of work: the scenario key and the command to exec for it.
struct WorkItem {
  std::string key;
  std::vector<std::string> argv;  ///< argv[0] is the program path
  std::vector<std::string> env;   ///< extra KEY=VALUE entries for the child
  double timeout_sec = 60.0;      ///< per-attempt wall-clock deadline
};

/// Terminal outcome of one item (after retries).
struct WorkResult {
  std::string key;
  CellStatus status = CellStatus::kOk;
  int attempts = 0;    ///< attempts consumed (1 = first try succeeded)
  int code = 0;        ///< exit status (kExit), else the signal number
  std::string output;  ///< captured stdout of the final attempt
  double wall_s = 0;   ///< host wall of the final attempt
};

struct SupervisorConfig {
  int jobs = 1;          ///< concurrent worker processes
  int max_attempts = 3;  ///< total tries per item before it is failed
  /// Retry n (n >= 1) waits base * 2^(n-1) seconds, capped.
  double backoff_base_sec = 0.25;
  double backoff_cap_sec = 5.0;
  /// Seed for deterministic retry jitter. 0 keeps the exact exponential
  /// delays; any other value scales each delay by a factor in [0.5, 1.0)
  /// derived from (seed, item key, retry number) — reproducible for a fixed
  /// seed, but simultaneous cell failures no longer retry in lockstep.
  std::uint64_t backoff_jitter_seed = 0;
  /// Validates a worker's stdout after a clean exit; returning false
  /// classifies the attempt kCorrupt. Null accepts everything.
  std::function<bool(const WorkItem&, const std::string& output)> validate;
  /// Called once per item when it reaches a terminal status, in completion
  /// order, from the supervisor's thread. The crash-safe hook: the sweep
  /// tool appends to its ResultLog here.
  std::function<void(const WorkItem&, const WorkResult&)> on_result;
  std::ostream* log = nullptr;  ///< progress/diagnostic lines (null = quiet)
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig cfg);
  /// SIGKILLs and reaps any children still running (a daemon dying with
  /// workers in flight must not leak orphans holding its pipes).
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Adds one item to the queue. It starts on a subsequent step() call; its
  /// terminal result arrives via cfg.on_result.
  void enqueue(WorkItem item);

  /// One iteration of the engine: spawn ready attempts, wait for output /
  /// deadlines / retry timers for at most max_wait_ms, drain pipes, enforce
  /// deadlines, reap. Returns having done whatever was ready; callers poll
  /// active() for completion.
  void step(int max_wait_ms);

  /// Items not yet terminal (queued, in backoff, or running).
  std::size_t active() const { return entries_.size(); }

  /// Live worker processes right now.
  std::size_t running() const { return running_.size(); }

  /// Queued first attempts that have never been spawned (the work a
  /// graceful drain leaves parked for the next daemon incarnation).
  std::size_t queued_fresh() const;

  /// In-flight work a graceful drain must finish: running children plus
  /// attempts that already ran at least once and are waiting to retry.
  std::size_t in_flight() const { return active() - queued_fresh(); }

  /// When held, first attempts are never spawned (retries of items that
  /// already started keep going). The daemon's SIGTERM drain switch.
  void hold_first_attempts(bool hold) { hold_fresh_ = hold; }

  /// Backoff delay before retry `retry` (1-based), per the config policy —
  /// the exact exponential, ignoring jitter.
  static double backoff_sec(const SupervisorConfig& cfg, int retry);

  /// Backoff delay with the config's deterministic jitter applied: a pure
  /// function of (cfg, retry, key), reproducible for a fixed seed.
  static double backoff_sec(const SupervisorConfig& cfg, int retry,
                            const std::string& key);

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    WorkItem item;
  };
  struct Child {
    pid_t pid = -1;
    std::uint64_t id = 0;
    int attempt = 1;
    int fd = -1;  ///< read end of the stdout pipe; -1 after EOF
    std::string output;
    Clock::time_point start;
    Clock::time_point deadline;
    bool timed_out = false;
    bool overflowed = false;
  };
  struct Pending {
    std::uint64_t id = 0;
    int attempt = 1;
    Clock::time_point ready;
  };

  void finish_attempt(Child& c, CellStatus status, int code);
  void reap(Child& c, int wait_status);

  SupervisorConfig cfg_;
  std::unordered_map<std::uint64_t, Entry> entries_;  ///< not-yet-terminal
  std::uint64_t next_id_ = 0;
  std::deque<Pending> pending_;
  std::vector<Child> running_;
  bool hold_fresh_ = false;
};

}  // namespace repmpi::support
