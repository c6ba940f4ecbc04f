#pragma once

// The simulation workloads: one round runs the three configurations the
// paper compares (native, SDR, intra) through apps::run_app.

#include <array>
#include <cstdint>
#include <string>

#include "apps/runner.hpp"
#include "checks.hpp"

namespace perfbench {

struct SimSpec {
  bool amg = false;  ///< AMG-GMRES (Fig. 6b) instead of HPCCG (Fig. 5)
  int shards = 0;    ///< 0 = the default engine
  int native_logical = 16;
  int rep_logical = 16;  ///< logical ranks of SDR and intra, at degree 2
  int nx = 24;           ///< local block nx = ny
  int nz_native = 24;
  int nz_rep = 24;
  int iterations = 2;  ///< CG iterations, or GMRES restarts
};

/// The spec of a named simulation workload; throws on an unknown name.
SimSpec sim_spec(const std::string& workload);

/// Host-side counters of one configuration run, read from outside the
/// program (the counters it already exports), in traced rounds only.
struct LayerSample {
  std::uint64_t fiber_switches = 0;
  std::uint64_t heap_bypass = 0;
  std::uint64_t wakeups_elided = 0;
  std::uint64_t spmv_ns = 0;
  std::uint64_t vector_ns = 0;
  std::uint64_t kernel_ns = 0;  ///< every kernel family
  std::uint64_t blocks_allocated = 0;
  std::uint64_t blocks_reused = 0;
};

struct ConfigRun {
  VirtualResult v;
  repmpi::apps::RunResult r;
  double host_s = 0;
  LayerSample layers;
};

using RoundRuns = std::array<ConfigRun, kConfigs>;

RoundRuns run_round(const SimSpec& spec, std::uint64_t seed, bool trace);
Round virtual_of(const RoundRuns& runs);

}  // namespace perfbench
