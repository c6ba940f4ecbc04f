#pragma once

// Shared pieces of the benchmark driver: run arguments, the metric map each
// workload fills, order statistics, and a host clock.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports: the operations it attempted and how many failed
/// (an operation whose output check failed counts as failed), whether the
/// run as a whole is sound, and its metrics by name.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
};

/// Set by SIGINT/SIGTERM; workloads stop at the next operation boundary,
/// clean up, and the run exits without a result.
extern volatile std::sig_atomic_t g_interrupted;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest percentile of a sample that still has at least ten samples
/// beyond it: returns {value, percentile}; {median, 50} below 40 samples,
/// where such a percentile would be no tail.
inline std::pair<double, double> tail(std::vector<double> v) {
  if (v.size() < 40) return {median(v), 50.0};
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() - 11;  // ten samples strictly above
  return {v[idx], 100.0 * static_cast<double>(idx + 1) /
                      static_cast<double>(v.size())};
}

/// SplitMix64 step: the benchmark's own seeded stream (submission orders,
/// derived seeds). Independent of the program's generators.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Peak resident size in MB from a getrusage() ru_maxrss (KiB on Linux).
inline double maxrss_mb(long maxrss_kib) {
  return static_cast<double>(maxrss_kib) / 1024.0;
}

Outcome run_sim_workload(const Args& args);
Outcome run_sweep_workload(const Args& args);
int run_self_test();

}  // namespace perfbench
