#include "support/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <ostream>

#include "support/error.hpp"
#include "support/rng.hpp"

extern char** environ;

namespace repmpi::support {
namespace {

using Clock = std::chrono::steady_clock;

/// A worker's stdout is the metrics blob; anything past this cap means the
/// worker is spewing, not reporting — kill it and classify corrupt output.
constexpr std::size_t kMaxOutputBytes = 64u << 20;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// SIGKILLs the worker's whole process group; falls back to the pid alone
/// if the group is already gone.
void kill_tree(pid_t pid) {
  if (::kill(-pid, SIGKILL) != 0) ::kill(pid, SIGKILL);
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.jobs < 1)
    throw UsageError("supervisor: jobs must be >= 1");
  if (cfg_.max_attempts < 1)
    throw UsageError("supervisor: max_attempts must be >= 1");
}

Supervisor::~Supervisor() {
  for (Child& c : running_) {
    kill_tree(c.pid);
    if (c.fd >= 0) ::close(c.fd);
    int wait_status = 0;
    ::waitpid(c.pid, &wait_status, 0);
  }
}

double Supervisor::backoff_sec(const SupervisorConfig& cfg, int retry) {
  const double raw =
      cfg.backoff_base_sec * std::ldexp(1.0, std::max(0, retry - 1));
  return std::min(raw, cfg.backoff_cap_sec);
}

double Supervisor::backoff_sec(const SupervisorConfig& cfg, int retry,
                               const std::string& key) {
  const double exact = backoff_sec(cfg, retry);
  if (cfg.backoff_jitter_seed == 0) return exact;
  // Deterministic decorrelation: a uniform factor in [0.5, 1.0) drawn from
  // (seed, key, retry). Same inputs, same delay — the jitter sequence is
  // reproducible — but sibling cells failing at the same instant spread out
  // instead of hammering the host in lockstep.
  std::uint64_t h = cfg.backoff_jitter_seed;
  h ^= static_cast<std::uint64_t>(crc32c(key.data(), key.size())) *
       0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(retry) * 0xbf58476d1ce4e5b9ULL;
  SplitMix64 mix(h);
  const double u =
      static_cast<double>(mix.next() >> 11) * 0x1.0p-53;  // [0, 1)
  return exact * (0.5 + 0.5 * u);
}

void Supervisor::enqueue(WorkItem item) {
  const std::uint64_t id = next_id_++;
  entries_.emplace(id, Entry{std::move(item)});
  pending_.push_back({id, 1, Clock::now()});
}

std::size_t Supervisor::queued_fresh() const {
  std::size_t n = 0;
  for (const Pending& p : pending_)
    if (p.attempt == 1) ++n;
  return n;
}

void Supervisor::finish_attempt(Child& c, CellStatus status, int code) {
  const Entry& entry = entries_.at(c.id);
  const WorkItem& item = entry.item;
  const bool failed = status != CellStatus::kOk;
  if (failed && c.attempt < cfg_.max_attempts) {
    const double delay = backoff_sec(cfg_, c.attempt, item.key);
    if (cfg_.log)
      *cfg_.log << "[supervisor] " << item.key << " attempt " << c.attempt
                << "/" << cfg_.max_attempts << " failed ("
                << to_string(status) << ", code " << code << "), retry in "
                << delay << "s\n";
    pending_.push_back(
        {c.id, c.attempt + 1,
         Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(delay))});
    return;
  }
  WorkResult r;
  r.key = item.key;
  r.status = status;
  r.attempts = c.attempt;
  r.code = code;
  r.output = std::move(c.output);
  r.wall_s = seconds_between(c.start, Clock::now());
  if (cfg_.log)
    *cfg_.log << "[supervisor] " << item.key << ": " << to_string(status)
              << " (attempts " << r.attempts << ", code " << code << ")\n";
  if (cfg_.on_result) cfg_.on_result(item, r);
  entries_.erase(c.id);
}

void Supervisor::reap(Child& c, int wait_status) {
  if (c.fd >= 0) {
    // The child exited: collect what is buffered in the pipe. One pass
    // only — an orphaned grandchild could hold the write end open, and
    // looping until EOF would then never return.
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0 &&
          c.output.size() + static_cast<std::size_t>(n) <= kMaxOutputBytes) {
        c.output.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      break;
    }
    ::close(c.fd);
    c.fd = -1;
  }
  CellStatus status;
  int code;
  if (c.timed_out) {
    status = CellStatus::kTimeout;
    code = WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
  } else if (c.overflowed) {
    status = CellStatus::kCorrupt;
    code = 0;
  } else if (WIFSIGNALED(wait_status)) {
    status = CellStatus::kCrash;
    code = WTERMSIG(wait_status);
  } else {
    code = WEXITSTATUS(wait_status);
    const WorkItem& item = entries_.at(c.id).item;
    if (code != 0) {
      status = CellStatus::kExit;
    } else if (cfg_.validate && !cfg_.validate(item, c.output)) {
      status = CellStatus::kCorrupt;
    } else {
      status = CellStatus::kOk;
    }
  }
  finish_attempt(c, status, code);
}

void Supervisor::step(int max_wait_ms) {
  const auto now = Clock::now();

  // Launch every pending attempt whose backoff has elapsed, up to jobs.
  // Fresh first attempts stay parked while a graceful drain is holding.
  for (auto it = pending_.begin();
       it != pending_.end() &&
       running_.size() < static_cast<std::size_t>(cfg_.jobs);) {
    if (it->ready <= now && !(hold_fresh_ && it->attempt == 1)) {
      const WorkItem& item = entries_.at(it->id).item;
      int pipefd[2];
      REPMPI_CHECK_MSG(::pipe(pipefd) == 0, "pipe() failed for " << item.key);

      // Build argv/envp before fork: only async-signal-safe calls after.
      std::vector<std::string> env_store;
      for (char** e = environ; *e != nullptr; ++e) env_store.emplace_back(*e);
      for (const std::string& kv : item.env) env_store.push_back(kv);
      env_store.push_back("REPMPI_SWEEP_ATTEMPT=" +
                          std::to_string(it->attempt));
      std::vector<char*> argv, envp;
      for (const std::string& a : item.argv)
        argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      for (const std::string& e : env_store)
        envp.push_back(const_cast<char*>(e.c_str()));
      envp.push_back(nullptr);

      const pid_t parent = ::getpid();
      const pid_t pid = ::fork();
      REPMPI_CHECK_MSG(pid >= 0, "fork() failed for " << item.key);
      if (pid == 0) {
        // Die with the supervisor: a SIGKILLed supervisor must not leave
        // workers running in their own process groups. If the parent died
        // before the prctl, no signal will come — exit now instead.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        // Own process group so a timeout kill reaps the worker's whole
        // tree — a grandchild left alive would hold the stdout pipe open
        // forever.
        ::setpgid(0, 0);
        ::close(pipefd[0]);
        ::dup2(pipefd[1], STDOUT_FILENO);
        ::close(pipefd[1]);
        ::execve(argv[0], argv.data(), envp.data());
        ::_exit(127);
      }
      ::setpgid(pid, pid);  // also from the parent, to close the race
      ::close(pipefd[1]);
      ::fcntl(pipefd[0], F_SETFL, O_NONBLOCK);

      Child c;
      c.pid = pid;
      c.id = it->id;
      c.attempt = it->attempt;
      c.fd = pipefd[0];
      c.start = Clock::now();
      c.deadline =
          c.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(item.timeout_sec));
      running_.push_back(std::move(c));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }

  // Wait budget: the caller's cap, the nearest child deadline, or the
  // nearest pending-retry ready time (when a slot is free for it).
  double wait_s = static_cast<double>(std::max(0, max_wait_ms)) / 1e3;
  for (const Child& c : running_)
    wait_s = std::min(wait_s, seconds_between(now, c.deadline));
  for (const Pending& p : pending_)
    if (running_.size() < static_cast<std::size_t>(cfg_.jobs) &&
        !(hold_fresh_ && p.attempt == 1))
      wait_s = std::min(wait_s, seconds_between(now, p.ready));
  const int wait_ms =
      std::max(0, static_cast<int>(std::ceil(wait_s * 1e3)));

  std::vector<struct pollfd> fds;
  std::vector<std::size_t> fd_child;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    if (running_[i].fd < 0) continue;
    fds.push_back({running_[i].fd, POLLIN, 0});
    fd_child.push_back(i);
  }
  if (fds.empty()) {
    if (wait_ms > 0) {
      struct timespec ts{wait_ms / 1000, (wait_ms % 1000) * 1000000L};
      ::nanosleep(&ts, nullptr);
    }
  } else if (::poll(fds.data(), fds.size(), wait_ms) < 0 && errno != EINTR) {
    throw Error("supervisor: poll() failed");
  }

  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Child& c = running_[fd_child[i]];
    // Drain whatever the pipe currently holds.
    char buf[65536];
    bool eof = false;
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        if (c.output.size() + static_cast<std::size_t>(n) > kMaxOutputBytes) {
          c.overflowed = true;
          break;  // stop appending; the kill below ends the worker
        }
        c.output.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR))
        eof = true;  // EOF or broken pipe
      break;
    }
    if (eof) {
      ::close(c.fd);
      c.fd = -1;
    }
    if (c.overflowed) kill_tree(c.pid);
  }

  // Deadline enforcement, then reaping; a child killed here is collected
  // by the same waitpid pass or the next step.
  const auto after = Clock::now();
  for (Child& c : running_) {
    if (!c.timed_out && after >= c.deadline) {
      c.timed_out = true;
      kill_tree(c.pid);
    }
  }
  for (std::size_t i = 0; i < running_.size();) {
    int wait_status = 0;
    const pid_t r = ::waitpid(running_[i].pid, &wait_status, WNOHANG);
    if (r == running_[i].pid) {
      reap(running_[i], wait_status);
      running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

}  // namespace repmpi::support
