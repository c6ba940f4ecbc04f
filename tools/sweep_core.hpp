#pragma once

// The sweep core: the one path from a cell key to a durable result, shared
// by the batch tool (repmpi_sweep) and the service (repmpi_sweepd): worker
// argv → supervised attempts → validated metrics blob → ResultRecord →
// durable append → per-key state. Per-key state (run count, latest record)
// is a support::ResultIndex fed with every record the log recovered at open
// and every record appended since. The batch tool schedules the fixed grid
// and steps the core until idle; the daemon adds queue.bin, admission
// control and the socket.
//
// Chaos knob: when the env var named by SweepCoreConfig::kill_after_env is
// k, the core SIGKILLs its process right after its k-th durable append
// (REPMPI_FAULT_SUPERVISOR_KILL_AFTER for the batch tool,
// REPMPI_FAULT_DAEMON_KILL_AFTER for the daemon).

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <utility>

#include "support/error.hpp"
#include "support/options.hpp"
#include "support/result_index.hpp"
#include "support/result_log.hpp"
#include "support/supervisor.hpp"

namespace repmpi::tools {

struct SweepCoreConfig {
  std::string log_path;    ///< result log (+ .blob) the core appends to
  std::string worker_bin;  ///< repmpi_sweep, exec'd in --worker mode
  long nx = 8;
  long iters = 4;
  long timeout_sec = 120;  ///< per-attempt deadline
  long jobs = 2;
  long max_attempts = 3;
  std::uint64_t backoff_jitter_seed = 0;
  const char* kill_after_env = nullptr;  ///< chaos knob name (see above)
};

/// An integer option within [lo, hi]. Anything else is a usage error, not
/// a silent clamp.
inline long ranged_option(const support::Options& opt, const std::string& tool,
                          const char* key, long def, long lo, long hi) {
  const long v = opt.get_int(key, def);
  if (v < lo || v > hi)
    throw support::UsageError(tool + ": --" + key + "=" + std::to_string(v) +
                              " out of range [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + "]");
  return v;
}

/// The worker and supervisor options both sweep tools take, with their
/// shared defaults and ranges.
inline SweepCoreConfig core_config(const support::Options& opt,
                                   const std::string& tool) {
  SweepCoreConfig cfg;
  cfg.jobs = ranged_option(opt, tool, "jobs", 2, 1, 256);
  cfg.nx = ranged_option(opt, tool, "nx", 8, 4, 512);
  cfg.iters = ranged_option(opt, tool, "iters", 4, 1, 64);
  cfg.timeout_sec = ranged_option(opt, tool, "timeout-sec", 120, 1, 86400);
  cfg.max_attempts = ranged_option(opt, tool, "max-attempts", 3, 1, 99);
  return cfg;
}

class SweepCore {
 public:
  /// Runs after each terminal result is durable and indexed.
  using OnRecord = std::function<void(const support::ResultRecord&)>;

  explicit SweepCore(SweepCoreConfig cfg, OnRecord on_record = nullptr)
      : cfg_(std::move(cfg)),
        log_(cfg_.log_path),
        on_record_(std::move(on_record)),
        supervisor_(supervisor_config()) {
    for (const support::ResultRecord& r : log_.records()) index_.add(r);
    const char* k = cfg_.kill_after_env == nullptr
                        ? nullptr
                        : std::getenv(cfg_.kill_after_env);
    if (k != nullptr) kill_after_ = std::strtol(k, nullptr, 10);
  }

  /// Enqueues one run of the cell; its terminal result is appended to the
  /// log and indexed as the supervisor delivers it.
  void schedule(const std::string& key) {
    support::WorkItem item;
    item.key = key;
    item.argv = {cfg_.worker_bin, "--worker", "--cell=" + key,
                 "--nx=" + std::to_string(cfg_.nx),
                 "--iters=" + std::to_string(cfg_.iters)};
    item.timeout_sec = static_cast<double>(cfg_.timeout_sec);
    supervisor_.enqueue(std::move(item));
  }

  /// Terminal results recorded for the key — the daemon's epoch clock.
  std::uint64_t runs(const std::string& key) const {
    const support::IndexedResult* r = index_.find(key);
    return r == nullptr ? 0 : r->runs;
  }

  support::Supervisor& supervisor() { return supervisor_; }
  const support::ResultIndex& index() const { return index_; }
  const support::ResultLog& log() const { return log_; }

 private:
  support::SupervisorConfig supervisor_config() {
    support::SupervisorConfig sc;
    sc.jobs = static_cast<int>(cfg_.jobs);
    sc.max_attempts = static_cast<int>(cfg_.max_attempts);
    // Deterministic retry jitter: cells failing at the same instant (a node
    // brownout stalling every worker at once) spread their retries instead
    // of re-hammering the host in lockstep.
    sc.backoff_jitter_seed = cfg_.backoff_jitter_seed;
    sc.log = &std::cout;
    // A clean exit with a blob that isn't this cell's metrics line is
    // corrupt output — retried like any other failure class.
    sc.validate = [](const support::WorkItem& item, const std::string& out) {
      return out.rfind("{\"key\": \"" + item.key + "\"", 0) == 0 &&
             out.find("\"fingerprint\"") != std::string::npos;
    };
    sc.on_result = [this](const support::WorkItem&,
                          const support::WorkResult& r) { record(r); };
    return sc;
  }

  void record(const support::WorkResult& r) {
    support::ResultRecord rec;
    rec.key = r.key;
    rec.status = r.status;
    rec.attempts = static_cast<std::uint32_t>(r.attempts);
    rec.code = r.code;
    // Keep the blob deterministic: the metrics line on success, empty on
    // failure (a crashed worker's partial bytes are noise, not results).
    if (r.status == support::CellStatus::kOk) rec.blob = r.output;
    log_.append(rec);  // durable before any bookkeeping sees it
    index_.add(rec);
    if (on_record_) on_record_(rec);
    if (kill_after_ >= 0 && ++appended_ >= kill_after_) ::raise(SIGKILL);
  }

  SweepCoreConfig cfg_;
  support::ResultLog log_;
  support::ResultIndex index_;
  OnRecord on_record_;
  long kill_after_ = -1;
  long appended_ = 0;
  support::Supervisor supervisor_;  ///< last: its children die first
};

/// This executable's path (the batch tool re-execs itself as the worker).
inline std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return argv0;
  buf[n] = '\0';
  return buf;
}

}  // namespace repmpi::tools
