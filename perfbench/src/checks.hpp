#pragma once

// Output checks of the simulation workloads, kept apart from the code that
// runs them so the self-test can feed them perturbed results. Each check
// returns, per configuration, whether that configuration's run failed; the
// caller counts a failed configuration run as a failed operation.

#include <array>
#include <cstdint>
#include <string>

namespace perfbench {

enum Config { kNative = 0, kSdr = 1, kIntra = 2 };
constexpr int kConfigs = 3;
inline const char* config_name(int c) {
  static const char* const names[kConfigs] = {"native", "sdr", "intra"};
  return names[c];
}

/// A solver's numeric outcome, as the application reports it.
struct Solve {
  double rnorm0 = 0;
  double rnorm = 0;
  double xsum = 0;  ///< HPCCG only
  int iterations = 0;
};

/// The virtual-time outcome of one configuration run: everything the
/// simulation promises to reproduce bit for bit.
struct VirtualResult {
  Solve solve;
  double wallclock = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

using Round = std::array<VirtualResult, kConfigs>;
using Failed = std::array<bool, kConfigs>;

/// Relative tolerance between a configuration's HPCCG residuals / solution
/// sum and the serial reference CG. The two sum in different orders, so they
/// agree to rounding, not bitwise, and CG carries rounding differences
/// forward: after 15 iterations on the 48x48x768 system the final residual
/// differs by 1.0e-10 and the solution sum by 8e-12 (relative).
constexpr double kSerialTolerance = 1e-8;

bool same_bits(double a, double b);
bool same_virtual(const VirtualResult& a, const VirtualResult& b);

/// HPCCG (Fig. 5 fixed resources): every configuration within
/// kSerialTolerance of the serial CG on residuals and solution sum, with the
/// same iteration count; SDR and intra (same decomposition) bitwise equal;
/// every configuration bitwise equal to the same configuration in `first`,
/// the run's first round.
Failed check_hpccg(const Round& round, const Solve& serial,
                   const Round& first);

/// AMG-GMRES (Fig. 6 fixed problem): rnorm0, rnorm and iterations bitwise
/// equal across configurations; every configuration's virtual result
/// bitwise equal to the other engine's (`other_engine`); the final residual
/// not above the initial one; intra efficiency above SDR efficiency.
Failed check_amg(const Round& round, const Round& other_engine);

}  // namespace perfbench
