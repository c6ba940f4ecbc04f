#include "checks.hpp"

#include <bit>
#include <cmath>

namespace perfbench {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

namespace {

bool same_solve(const Solve& a, const Solve& b) {
  return same_bits(a.rnorm0, b.rnorm0) && same_bits(a.rnorm, b.rnorm) &&
         same_bits(a.xsum, b.xsum) && a.iterations == b.iterations;
}

bool near(double got, double want) {
  return std::isfinite(got) &&
         std::abs(got - want) <= kSerialTolerance * std::abs(want);
}

}  // namespace

bool same_virtual(const VirtualResult& a, const VirtualResult& b) {
  return same_solve(a.solve, b.solve) && same_bits(a.wallclock, b.wallclock) &&
         a.messages == b.messages && a.bytes == b.bytes;
}

Failed check_hpccg(const Round& round, const Solve& serial,
                   const Round& first) {
  Failed failed{};
  for (int c = 0; c < kConfigs; ++c) {
    const Solve& s = round[c].solve;
    if (!near(s.rnorm0, serial.rnorm0) || !near(s.rnorm, serial.rnorm) ||
        !near(s.xsum, serial.xsum) || s.iterations != serial.iterations)
      failed[c] = true;
    if (!same_virtual(round[c], first[c])) failed[c] = true;
  }
  if (!same_solve(round[kSdr].solve, round[kIntra].solve))
    failed[kIntra] = true;
  return failed;
}

Failed check_amg(const Round& round, const Round& other_engine) {
  Failed failed{};
  const Solve& ref = round[kNative].solve;
  for (int c = 0; c < kConfigs; ++c) {
    const Solve& s = round[c].solve;
    if (!same_bits(s.rnorm0, ref.rnorm0) || !same_bits(s.rnorm, ref.rnorm) ||
        s.iterations != ref.iterations)
      failed[c] = true;
    if (!same_virtual(round[c], other_engine[c])) failed[c] = true;
    // Restarted GMRES minimizes the residual over a space that contains
    // the current iterate, so it cannot raise it.
    if (!(s.rnorm <= s.rnorm0)) failed[c] = true;
  }
  // Both replicated runs use twice the native resources, so the efficiency
  // ordering is the wall-clock ordering.
  if (!(round[kIntra].wallclock < round[kSdr].wallclock)) failed[kIntra] = true;
  return failed;
}

}  // namespace perfbench
