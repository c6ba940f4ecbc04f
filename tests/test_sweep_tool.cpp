// End-to-end tests of the repmpi_sweep binary: clean sweep, SIGKILL
// mid-sweep + --resume bit-identity, worker crash/corrupt retry, stall →
// timeout with graceful degradation, torn-log recovery, and one dump path
// shared with repmpi_sweepctl. These drive the real executables (paths
// injected by CMake as REPMPI_SWEEP_BIN / REPMPI_SWEEPCTL_BIN) through the
// REPMPI_FAULT_* chaos knobs — the same scenarios the CI chaos job runs —
// and check the in-process cell definition against the worker's output.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "sweep_common.hpp"

#ifndef REPMPI_SWEEP_BIN
#error "REPMPI_SWEEP_BIN must be defined by the build (path to repmpi_sweep)"
#endif
#ifndef REPMPI_SWEEPCTL_BIN
#error "REPMPI_SWEEPCTL_BIN must be defined by the build"
#endif

namespace {

struct CmdResult {
  int code = -1;       // exit status; 128+sig when signal-killed
  std::string output;  // stdout, plus stderr unless discarded
};

/// Runs a shell command, capturing its output and the exit status. stderr
/// joins the output unless `stdout_only`.
CmdResult run_cmd(const std::string& cmd, bool stdout_only = false) {
  CmdResult result;
  std::FILE* pipe =
      ::popen((cmd + (stdout_only ? " 2>/dev/null" : " 2>&1")).c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
    result.output.append(buf, n);
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) {
    result.code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.code = 128 + WTERMSIG(status);
  }
  return result;
}

/// Small problem so the full 14-cell grid stays test-speed; identical params
/// across every test so dumps are byte-comparable.
const char kParams[] = " --jobs=2 --nx=6 --iters=2";

std::string log_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "repmpi_sweep_" + name +
                           ".bin";
  std::remove(path.c_str());
  std::remove((path + ".blob").c_str());
  return path;
}

std::string sweep_cmd(const std::string& log, const std::string& extra = "") {
  return std::string(REPMPI_SWEEP_BIN) + " --log=" + log + kParams +
         (extra.empty() ? "" : " " + extra);
}

std::string dump(const std::string& log) {
  const CmdResult r =
      run_cmd(std::string(REPMPI_SWEEP_BIN) + " --dump --log=" + log);
  EXPECT_EQ(r.code, 0) << r.output;
  return r.output;
}

std::size_t count_lines_with(const std::string& text,
                             const std::string& needle) {
  std::size_t count = 0, pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

class SweepTool : public ::testing::Test {
 protected:
  // One clean reference sweep shared by every bit-identity comparison.
  static void SetUpTestSuite() {
    const std::string log = log_path("reference");
    const CmdResult r = run_cmd(sweep_cmd(log));
    ASSERT_EQ(r.code, 0) << r.output;
    clean_dump_ = new std::string(dump(log));
    ASSERT_EQ(count_lines_with(*clean_dump_, " ok "), 14u);
  }
  static void TearDownTestSuite() {
    delete clean_dump_;
    clean_dump_ = nullptr;
  }
  static const std::string* clean_dump_;
};
const std::string* SweepTool::clean_dump_ = nullptr;

TEST_F(SweepTool, CleanSweepCompletesEveryCell) {
  const std::string log = log_path("clean");
  const CmdResult r = run_cmd(sweep_cmd(log));
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("14/14 cells ok"), std::string::npos) << r.output;
  EXPECT_EQ(dump(log), *clean_dump_);
}

TEST_F(SweepTool, RefusesToClobberAnExistingLog) {
  const std::string log = log_path("clobber");
  ASSERT_EQ(run_cmd(sweep_cmd(log)).code, 0);
  const CmdResult r = run_cmd(sweep_cmd(log));
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.output.find("--resume"), std::string::npos) << r.output;
  // --overwrite discards and reruns cleanly.
  EXPECT_EQ(run_cmd(sweep_cmd(log, "--overwrite")).code, 0);
}

TEST_F(SweepTool, BadOptionValuesExitTwo) {
  const std::string log = log_path("usage");
  EXPECT_EQ(run_cmd(sweep_cmd(log, "--jobs=abc")).code, 2);
  EXPECT_EQ(run_cmd(sweep_cmd(log, "--jobs=0")).code, 2);
  EXPECT_EQ(run_cmd(sweep_cmd(log, "--timeout-sec=0")).code, 2);
  EXPECT_EQ(run_cmd(sweep_cmd(log, "--max-attempts=100")).code, 2);
  EXPECT_EQ(run_cmd(std::string(REPMPI_SWEEP_BIN) +
                    " --worker --cell=not.a.key")
                .code,
            2);
}

TEST_F(SweepTool, SigkillMidSweepThenResumeIsBitIdentical) {
  // The supervisor SIGKILLs itself after durably logging 4 cells — the
  // ISSUE's headline acceptance test. --resume must skip exactly those
  // cells and produce a dump byte-identical to the uninterrupted run.
  const std::string log = log_path("killresume");
  const CmdResult killed = run_cmd(
      "REPMPI_FAULT_SUPERVISOR_KILL_AFTER=4 " + sweep_cmd(log));
  EXPECT_EQ(killed.code, 128 + SIGKILL) << killed.output;

  const CmdResult resumed = run_cmd(sweep_cmd(log, "--resume"));
  EXPECT_EQ(resumed.code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("4 already complete, 10 to run"),
            std::string::npos)
      << resumed.output;
  EXPECT_EQ(dump(log), *clean_dump_);
}

TEST_F(SweepTool, WorkerCrashIsRetriedAndStaysBitIdentical) {
  // One cell's worker SIGKILLs itself on attempt 1 only; the retry must
  // succeed and the final metrics must not depend on the attempt number.
  const std::string log = log_path("workerkill");
  const CmdResult r = run_cmd(
      "REPMPI_FAULT_KILL_CELL=hpccg.l2.d2.none REPMPI_FAULT_KILL_ATTEMPTS=1 " +
      sweep_cmd(log));
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("crash"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("retry"), std::string::npos) << r.output;
  EXPECT_EQ(dump(log), *clean_dump_);
}

TEST_F(SweepTool, CorruptOutputIsRetriedAndStaysBitIdentical) {
  const std::string log = log_path("corrupt");
  const CmdResult r = run_cmd(
      "REPMPI_FAULT_CORRUPT_CELL=hpccg.l4.d3.late_crash "
      "REPMPI_FAULT_CORRUPT_ATTEMPTS=1 " +
      sweep_cmd(log));
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("corrupt"), std::string::npos) << r.output;
  EXPECT_EQ(dump(log), *clean_dump_);
}

TEST_F(SweepTool, StalledCellTimesOutWhileSweepDegradesGracefully) {
  // One cell hangs on every attempt; with a 1s deadline it exhausts its
  // retries and is reported failed=timeout, the other 13 cells complete,
  // and the sweep exits with the distinct partial-success code 3.
  const std::string log = log_path("stall");
  const CmdResult r = run_cmd(
      "REPMPI_FAULT_STALL_CELL=hpccg.l2.d3.none " +
      sweep_cmd(log, "--timeout-sec=1 --max-attempts=2"));
  EXPECT_EQ(r.code, 3) << r.output;
  EXPECT_NE(r.output.find("13/14 cells ok"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("degraded gracefully"), std::string::npos)
      << r.output;

  const std::string d = dump(log);
  EXPECT_NE(d.find("hpccg.l2.d3.none failed=timeout"), std::string::npos)
      << d;
  EXPECT_EQ(count_lines_with(d, " ok "), 13u);
}

TEST_F(SweepTool, ListCellsPrintsTheFullGrid) {
  const CmdResult r =
      run_cmd(std::string(REPMPI_SWEEP_BIN) + " --list-cells");
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_EQ(count_lines_with(r.output, "\n"), 14u);
  EXPECT_EQ(count_lines_with(r.output, "hpccg.l"), 14u);
  EXPECT_NE(r.output.find("hpccg.l2.d1.none\n"), std::string::npos);
  EXPECT_NE(r.output.find("hpccg.l4.d3.late_crash\n"), std::string::npos);
}

TEST_F(SweepTool, VerifyLogCleanCorruptAndMissingExitCodes) {
  // The standalone fsck the chaos CI job runs after every induced kill:
  // exit 0 on a clean log, 3 when corruption was found, 1 when the log
  // cannot be opened at all.
  const std::string log = log_path("verify");
  ASSERT_EQ(run_cmd(sweep_cmd(log)).code, 0);

  const std::string verify_cmd =
      std::string(REPMPI_SWEEP_BIN) + " --verify-log=" + log;
  CmdResult r = run_cmd(verify_cmd);
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("verify-log: clean"), std::string::npos)
      << r.output;
  EXPECT_EQ(count_lines_with(r.output, ": ok key="), 14u) << r.output;

  // Tear the tail the way a SIGKILL'd writer would.
  std::FILE* f = std::fopen(log.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const std::string junk(48, 'X');
  std::fwrite(junk.data(), 1, junk.size(), f);
  std::fclose(f);
  r = run_cmd(verify_cmd);
  EXPECT_EQ(r.code, 3) << r.output;
  EXPECT_NE(r.output.find("verify-log: CORRUPT"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("torn trailing record"), std::string::npos)
      << r.output;

  EXPECT_EQ(run_cmd(std::string(REPMPI_SWEEP_BIN) +
                    " --verify-log=/nonexistent/no.bin")
                .code,
            1);
}

TEST_F(SweepTool, TornLogWriteIsRecoveredOnResume) {
  // The log writer dies halfway through its 3rd record append (torn write).
  // Resume must drop the torn tail, re-run that cell and the rest, and end
  // bit-identical to the clean run.
  const std::string log = log_path("tornlog");
  const CmdResult torn =
      run_cmd("REPMPI_FAULT_LOG_ABORT=3 " + sweep_cmd(log));
  EXPECT_EQ(torn.code, 43) << torn.output;  // the injected abort's exit code

  const CmdResult resumed = run_cmd(sweep_cmd(log, "--resume"));
  EXPECT_EQ(resumed.code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("log recovery"), std::string::npos)
      << resumed.output;
  EXPECT_EQ(dump(log), *clean_dump_);
}

TEST_F(SweepTool, BatchDumpAndSweepctlDumpAreByteIdentical) {
  // Both tools print a log through the same ResultIndex → dump_cells path:
  // their stdout must match byte for byte, whole log or torn.
  const auto both_dumps = [](const std::string& log) {
    const CmdResult batch = run_cmd(
        std::string(REPMPI_SWEEP_BIN) + " --dump --log=" + log, true);
    const CmdResult ctl =
        run_cmd(std::string(REPMPI_SWEEPCTL_BIN) + " dump " + log, true);
    EXPECT_EQ(batch.code, 0);
    EXPECT_EQ(ctl.code, 0);
    EXPECT_EQ(batch.output, ctl.output);
    return batch.output;
  };

  const std::string clean = log_path("unified_clean");
  ASSERT_EQ(run_cmd(sweep_cmd(clean)).code, 0);
  EXPECT_EQ(both_dumps(clean), *clean_dump_);

  // The log writer dies halfway through the record after its 3rd: three
  // whole records and a torn tail.
  const std::string torn = log_path("unified_torn");
  ASSERT_EQ(run_cmd("REPMPI_FAULT_LOG_ABORT=3 " + sweep_cmd(torn)).code, 43);
  EXPECT_NE(run_cmd(std::string(REPMPI_SWEEPCTL_BIN) + " dump " + torn)
                .output.find("torn tail"),
            std::string::npos);
  EXPECT_EQ(count_lines_with(both_dumps(torn), " ok "), 3u);
}

bool same_bits(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

TEST(SweepCell, InProcessRunMatchesTheWorkerBlobBitForBit) {
  // One cell definition: the in-process tools::run_cell (what the sweep
  // bench runs) and the fork/exec'd worker must be the same simulation.
  const std::string key = "hpccg.l2.d3.early_crash";
  repmpi::tools::Cell cell;
  ASSERT_TRUE(repmpi::tools::parse_key(key, &cell));
  const repmpi::tools::CellRun run = repmpi::tools::run_cell(cell, 6, 2);

  const CmdResult worker =
      run_cmd(std::string(REPMPI_SWEEP_BIN) + " --worker --cell=" + key +
                  " --nx=6 --iters=2",
              true);
  ASSERT_EQ(worker.code, 0) << worker.output;
  const auto field = [&worker](const char* name) {
    return repmpi::tools::blob_number(worker.output, name);
  };
  EXPECT_TRUE(same_bits(field("wallclock"), run.result.wallclock))
      << worker.output;
  EXPECT_TRUE(same_bits(field("events"),
                        static_cast<double>(run.result.events)));
  EXPECT_TRUE(same_bits(field("messages"),
                        static_cast<double>(run.result.net_messages)));
  EXPECT_TRUE(same_bits(field("fingerprint"), run.fingerprint));
}

}  // namespace
