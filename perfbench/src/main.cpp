// perfbench_driver — runs one workload of the repo benchmark and prints one
// JSON result line.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//   perfbench_driver --self-test      checks catch perturbed results
//
// The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics untraced, the per-layer metrics traced. run.py
// checks the names and units against BENCHMARK.json, the one catalog, and
// fills the per-layer metrics a workload does not exercise with 0. Exit 0
// with a result; 2 on bad arguments; 1 on an error; 130 on SIGINT/SIGTERM,
// after the workload cleaned up, without a result.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

volatile std::sig_atomic_t g_interrupted = 0;

namespace {

void print_result(const Outcome& out) {
  std::string s = "{\"correct\": " +
                  std::string(out.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) +
                  ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    s += (first ? "" : ", ") + std::string("\"") + name +
         "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  std::cout << s << "}}" << std::endl;
}

void on_signal(int) { g_interrupted = 1; }

int usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       perfbench_driver --self-test\n";
  return 2;
}

int main_impl(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  std::vector<std::string> av(argv + 1, argv + argc);
  for (std::size_t i = 0; i < av.size(); ++i) {
    std::string key = av[i], value;
    if (key == "--self-test") return run_self_test();
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < av.size()) {
      value = av[++i];
    } else {
      return usage("missing value for " + key);
    }
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 600)
        return usage("bad --seconds");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      return usage("unknown option " + key);
    }
  }
  if (!have_workload) return usage("--workload is required");

  struct sigaction sa{};
  sa.sa_handler = on_signal;  // no SA_RESTART: blocking waits see EINTR
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  Outcome out = args.workload == "sweep_service" ? run_sweep_workload(args)
                                                 : run_sim_workload(args);
  if (g_interrupted) {
    std::cerr << "perfbench_driver: interrupted; cleaned up, no result\n";
    return 130;
  }
  print_result(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::invalid_argument& e) {
    return perfbench::usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
