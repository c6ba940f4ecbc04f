// Supervisor tests: fork/exec'd /bin/sh workers exercising every failure
// class (crash / timeout / nonzero exit / corrupt output), bounded retry
// with the attempt counter exported to children, kill-on-timeout, workers
// dying with a killed supervisor, and graceful degradation — one bad item
// never takes down the queue.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/supervisor.hpp"

namespace repmpi::support {
namespace {

WorkItem sh(const std::string& key, const std::string& script,
            double timeout_sec = 30.0) {
  WorkItem item;
  item.key = key;
  item.argv = {"/bin/sh", "-c", script};
  item.timeout_sec = timeout_sec;
  return item;
}

/// Fast-retry config so failure tests don't sleep through real backoff.
SupervisorConfig fast_cfg(int jobs = 1, int max_attempts = 1) {
  SupervisorConfig cfg;
  cfg.jobs = jobs;
  cfg.max_attempts = max_attempts;
  cfg.backoff_base_sec = 0.01;
  cfg.backoff_cap_sec = 0.05;
  return cfg;
}

/// Runs every item to a terminal status through enqueue()/step() and
/// returns the results in item order (keys are unique within each test).
/// Any on_result hook in `cfg` still fires.
std::vector<WorkResult> run_all(SupervisorConfig cfg,
                                const std::vector<WorkItem>& items) {
  std::vector<WorkResult> results(items.size());
  cfg.on_result = [&results, &items, hook = cfg.on_result](
                      const WorkItem& item, const WorkResult& r) {
    if (hook) hook(item, r);
    for (std::size_t i = 0; i < items.size(); ++i)
      if (items[i].key == item.key) results[i] = r;
  };
  Supervisor sup(cfg);
  for (const WorkItem& item : items) sup.enqueue(item);
  while (sup.active() > 0) sup.step(500);
  return results;
}

TEST(Supervisor, CleanExitCapturesOutput) {
  const auto results = run_all(fast_cfg(), {sh("ok", "echo hello")});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].key, "ok");
  EXPECT_EQ(results[0].status, CellStatus::kOk);
  EXPECT_EQ(results[0].attempts, 1);
  EXPECT_EQ(results[0].code, 0);
  EXPECT_EQ(results[0].output, "hello\n");
}

TEST(Supervisor, NonzeroExitClassifiedWithCode) {
  const auto results = run_all(fast_cfg(1, 2), {sh("bad", "exit 7")});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kExit);
  EXPECT_EQ(results[0].code, 7);
  EXPECT_EQ(results[0].attempts, 2);  // retried, still failing
}

TEST(Supervisor, SignalDeathClassifiedAsCrash) {
  const auto results = run_all(fast_cfg(), {sh("crash", "kill -9 $$")});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kCrash);
  EXPECT_EQ(results[0].code, 9);
}

TEST(Supervisor, ExecFailureIsNonzeroExit127) {
  WorkItem item;
  item.key = "noexec";
  item.argv = {"/nonexistent/definitely-not-a-binary"};
  const auto results = run_all(fast_cfg(), {item});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kExit);
  EXPECT_EQ(results[0].code, 127);
}

TEST(Supervisor, HungWorkerKilledAtDeadline) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto results =
      run_all(fast_cfg(), {sh("hang", "sleep 600", /*timeout_sec=*/0.3)});
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kTimeout);
  // The worker must actually have been killed, not waited out.
  EXPECT_LT(elapsed, 30.0);
}

TEST(Supervisor, TimeoutKillsTheWholeWorkerTree) {
  // The worker forks a grandchild that inherits the stdout pipe. The
  // deadline kill must take down the whole process group: an orphaned
  // grandchild would hold the pipe's write end open forever (and once
  // livelocked the reaper's drain loop).
  const auto results = run_all(
      fast_cfg(), {sh("tree", "sleep 631 & wait", /*timeout_sec=*/0.3)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kTimeout);

  std::FILE* ps = ::popen("ps -eo args 2>/dev/null", "r");
  ASSERT_NE(ps, nullptr);
  std::string procs;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), ps)) > 0) procs.append(buf, n);
  ::pclose(ps);
  EXPECT_EQ(procs.find("sleep 631"), std::string::npos)
      << "orphaned grandchild survived the timeout kill";
}

TEST(Supervisor, WorkersDieWithASigkilledSupervisor) {
  // A supervisor killed with SIGKILL (the sweep tools' kill-after chaos
  // knobs, an operator's kill -9) runs no destructor, and its workers sit
  // in their own process groups: only the parent-death signal stops them.
  const std::string pid_file = ::testing::TempDir() + "supervisor_worker.pid";
  std::remove(pid_file.c_str());
  // Orphans reparent to this process, so the worker's end is observable
  // with waitpid (and a surviving worker can be cleaned up below).
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    try {
      Supervisor sup(fast_cfg());
      sup.enqueue(sh("stuck", "echo $$ > " + pid_file + "; exec sleep 600",
                     /*timeout_sec=*/600));
      for (;;) sup.step(100);
    } catch (...) {
    }
    ::_exit(1);
  }

  pid_t worker = -1;
  for (int i = 0; i < 500 && worker <= 0; ++i) {
    std::ifstream in(pid_file);
    std::string line;
    if (std::getline(in, line) && !in.eof()) worker = std::stoi(line);
    if (worker <= 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(helper, SIGKILL);
  ::waitpid(helper, nullptr, 0);
  ASSERT_GT(worker, 0) << "the worker never started";

  bool gone = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!gone && std::chrono::steady_clock::now() < deadline) {
    const pid_t r = ::waitpid(worker, nullptr, WNOHANG);
    gone = r == worker ||
           (r < 0 && ::kill(worker, 0) != 0 && errno == ESRCH);
    if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!gone) {
    ::kill(worker, SIGKILL);
    ::waitpid(worker, nullptr, 0);
  }
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);
  EXPECT_TRUE(gone) << "worker " << worker
                    << " outlived its SIGKILLed supervisor";
}

TEST(Supervisor, ValidateRejectionClassifiedAsCorrupt) {
  SupervisorConfig cfg = fast_cfg();
  cfg.validate = [](const WorkItem&, const std::string& output) {
    return output.find("MAGIC") != std::string::npos;
  };
  const auto results =
      run_all(cfg, {sh("good", "echo MAGIC"), sh("garbled", "echo mangled")});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, CellStatus::kOk);
  EXPECT_EQ(results[1].status, CellStatus::kCorrupt);
  EXPECT_EQ(results[1].code, 0);  // the exit itself was clean
}

TEST(Supervisor, RetrySucceedsUsingExportedAttemptCounter) {
  // Fails on attempt 1, succeeds on attempt 2 — proves both the retry path
  // and that REPMPI_SWEEP_ATTEMPT reaches the child.
  const auto results = run_all(
      fast_cfg(1, 3),
      {sh("flaky", "if [ \"$REPMPI_SWEEP_ATTEMPT\" = 1 ]; then exit 1; fi; "
                   "echo recovered")});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kOk);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_EQ(results[0].output, "recovered\n");
}

TEST(Supervisor, ExtraEnvReachesChild) {
  WorkItem item = sh("env", "echo \"$REPMPI_TEST_TOKEN\"");
  item.env = {"REPMPI_TEST_TOKEN=sentinel-42"};
  const auto results = run_all(fast_cfg(), {item});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].output, "sentinel-42\n");
}

TEST(Supervisor, QueueDegradesGracefullyAroundFailures) {
  // A crasher, a hang, and a nonzero exit must not disturb the other items;
  // results come back in item order regardless of completion order.
  std::vector<WorkItem> items;
  items.push_back(sh("ok0", "echo a"));
  items.push_back(sh("crash", "kill -9 $$"));
  items.push_back(sh("ok1", "echo b"));
  items.push_back(sh("hang", "sleep 600", /*timeout_sec=*/0.3));
  items.push_back(sh("bad", "exit 3"));
  items.push_back(sh("ok2", "echo c"));
  const auto results =
      run_all(fast_cfg(/*jobs=*/3, /*max_attempts=*/1), items);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0].status, CellStatus::kOk);
  EXPECT_EQ(results[0].output, "a\n");
  EXPECT_EQ(results[1].status, CellStatus::kCrash);
  EXPECT_EQ(results[2].status, CellStatus::kOk);
  EXPECT_EQ(results[2].output, "b\n");
  EXPECT_EQ(results[3].status, CellStatus::kTimeout);
  EXPECT_EQ(results[4].status, CellStatus::kExit);
  EXPECT_EQ(results[4].code, 3);
  EXPECT_EQ(results[5].status, CellStatus::kOk);
  EXPECT_EQ(results[5].output, "c\n");
}

TEST(Supervisor, OnResultFiresOncePerItemWithTerminalStatus) {
  std::vector<std::string> seen;
  SupervisorConfig cfg = fast_cfg(2, 2);
  cfg.on_result = [&seen](const WorkItem& item, const WorkResult& r) {
    seen.push_back(item.key + ":" + to_string(r.status));
  };
  run_all(cfg, {sh("a", "echo x"), sh("b", "exit 1")});
  ASSERT_EQ(seen.size(), 2u);
  // Completion order varies; sort for a stable comparison.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen[0], "a:ok");
  EXPECT_EQ(seen[1], "b:exit");
}

TEST(Supervisor, BackoffDoublesFromBaseAndCaps) {
  SupervisorConfig cfg;
  cfg.backoff_base_sec = 0.5;
  cfg.backoff_cap_sec = 5.0;
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 1), 0.5);
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 2), 1.0);
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 3), 2.0);
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 4), 4.0);
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 5), 5.0);   // capped
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 12), 5.0);  // stays capped
}

TEST(Supervisor, RetryWaitsAtLeastTheBackoffDelay) {
  SupervisorConfig cfg = fast_cfg(1, 2);
  cfg.backoff_base_sec = 0.4;
  cfg.backoff_cap_sec = 1.0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = run_all(cfg, {sh("flaky", "exit 1")});
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_GE(elapsed, 0.4);  // the second attempt respected the backoff
}

TEST(Supervisor, DiagnosticLogMentionsRetryAndClass) {
  std::ostringstream log;
  SupervisorConfig cfg = fast_cfg(1, 2);
  cfg.log = &log;
  run_all(cfg, {sh("bad", "exit 5")});
  const std::string text = log.str();
  EXPECT_NE(text.find("retry"), std::string::npos);
  EXPECT_NE(text.find("exit"), std::string::npos);
  EXPECT_NE(text.find("bad"), std::string::npos);
}

TEST(Supervisor, JitteredBackoffIsReproducibleForAFixedSeed) {
  SupervisorConfig cfg;
  cfg.backoff_base_sec = 0.5;
  cfg.backoff_cap_sec = 5.0;
  cfg.backoff_jitter_seed = 0x1234abcd;
  for (int retry = 1; retry <= 12; ++retry) {
    const double a = Supervisor::backoff_sec(cfg, retry, "hpccg.l2.d2.none");
    const double b = Supervisor::backoff_sec(cfg, retry, "hpccg.l2.d2.none");
    EXPECT_DOUBLE_EQ(a, b) << "retry " << retry;  // pure function of inputs
  }
}

TEST(Supervisor, JitteredBackoffStaysWithinHalfToFullExactDelay) {
  SupervisorConfig cfg;
  cfg.backoff_base_sec = 0.5;
  cfg.backoff_cap_sec = 5.0;
  cfg.backoff_jitter_seed = 7;
  for (int retry = 1; retry <= 12; ++retry) {
    const double exact = Supervisor::backoff_sec(cfg, retry);
    for (const char* key : {"a", "b", "hpccg.l4.d3.late_crash"}) {
      const double jittered = Supervisor::backoff_sec(cfg, retry, key);
      EXPECT_GE(jittered, 0.5 * exact) << "retry " << retry << " key " << key;
      EXPECT_LT(jittered, exact) << "retry " << retry << " key " << key;
    }
  }
}

TEST(Supervisor, JitterDecorrelatesSiblingKeysAndZeroSeedIsExact) {
  SupervisorConfig cfg;
  cfg.backoff_base_sec = 0.5;
  cfg.backoff_cap_sec = 5.0;
  // Seed 0 keeps the exact exponential delays (what existing configs get).
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 3, "any-key"),
                   Supervisor::backoff_sec(cfg, 3));
  // With a seed, two cells failing at the same instant retry at different
  // times — the whole point of the jitter.
  cfg.backoff_jitter_seed = 42;
  EXPECT_NE(Supervisor::backoff_sec(cfg, 3, "hpccg.l2.d2.none"),
            Supervisor::backoff_sec(cfg, 3, "hpccg.l4.d2.none"));
  // Different seeds give a different (still deterministic) schedule.
  SupervisorConfig other = cfg;
  other.backoff_jitter_seed = 43;
  EXPECT_NE(Supervisor::backoff_sec(cfg, 3, "hpccg.l2.d2.none"),
            Supervisor::backoff_sec(other, 3, "hpccg.l2.d2.none"));
}

TEST(Supervisor, IncrementalEnqueueStepDeliversResults) {
  std::vector<std::string> seen;
  SupervisorConfig cfg = fast_cfg(2, 2);
  cfg.on_result = [&seen](const WorkItem& item, const WorkResult& r) {
    seen.push_back(item.key + ":" + to_string(r.status));
  };
  Supervisor sup(cfg);
  EXPECT_EQ(sup.active(), 0u);
  sup.enqueue(sh("a", "echo x"));
  sup.enqueue(sh("b", "exit 1"));
  EXPECT_EQ(sup.active(), 2u);
  // Items enqueued later join a live engine mid-flight. (a/b may already
  // have been reaped by the step above — fast workers can finish inside
  // one step — so only c is guaranteed still active.)
  sup.step(10);
  sup.enqueue(sh("c", "echo y"));
  EXPECT_GE(sup.active(), 1u);
  EXPECT_LE(sup.active(), 3u);
  for (int i = 0; i < 3000 && sup.active() > 0; ++i) sup.step(20);
  EXPECT_EQ(sup.active(), 0u);
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "a:ok");
  EXPECT_EQ(seen[1], "b:exit");
  EXPECT_EQ(seen[2], "c:ok");
}

TEST(Supervisor, HoldFirstAttemptsParksFreshWorkButFinishesRetries) {
  // The graceful-drain switch: a retrying item (already started) completes,
  // a never-started item stays parked — exactly the split the daemon's
  // SIGTERM drain needs.
  std::vector<std::string> seen;
  SupervisorConfig cfg = fast_cfg(1, 2);
  cfg.on_result = [&seen](const WorkItem& item, const WorkResult&) {
    seen.push_back(item.key);
  };
  Supervisor sup(cfg);
  sup.enqueue(sh("retrier", "exit 1"));
  // Step until the first attempt has been spawned: from then on the item
  // counts as in-flight and a hold no longer applies to it.
  for (int i = 0; i < 3000 && sup.queued_fresh() > 0; ++i) sup.step(20);
  sup.enqueue(sh("parked", "echo never"));
  sup.hold_first_attempts(true);
  for (int i = 0; i < 3000 && sup.in_flight() > 0; ++i) sup.step(20);
  EXPECT_EQ(seen, std::vector<std::string>{"retrier"});
  EXPECT_EQ(sup.active(), 1u);        // parked item still owed
  EXPECT_EQ(sup.queued_fresh(), 1u);  // ...and never spawned
  // Releasing the hold lets the parked item run (same-process "restart").
  sup.hold_first_attempts(false);
  for (int i = 0; i < 3000 && sup.active() > 0; ++i) sup.step(20);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], "parked");
}

TEST(Supervisor, InvalidConfigRejected) {
  SupervisorConfig cfg;
  cfg.jobs = 0;
  EXPECT_THROW(Supervisor{cfg}, UsageError);
  cfg.jobs = 1;
  cfg.max_attempts = 0;
  EXPECT_THROW(Supervisor{cfg}, UsageError);
}

}  // namespace
}  // namespace repmpi::support
