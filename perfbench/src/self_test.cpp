// Self-test of the output checks: real results of small runs must pass, and
// the same results with one residual moved by one ulp, or one engine result
// differing by one bit, must be reported as a failed operation.

#include <bit>
#include <cmath>
#include <iostream>
#include <limits>

#include "common.hpp"
#include "serial_cg.hpp"
#include "sim_workloads.hpp"

namespace perfbench {

namespace {

int count(const Failed& f) { return f[kNative] + f[kSdr] + f[kIntra]; }

double one_ulp_up(double v) {
  return std::nextafter(v, std::numeric_limits<double>::infinity());
}

double flip_low_bit(double v) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^ 1u);
}

struct Expect {
  int errors = 0;
  void operator()(const char* what, const Failed& got, int config) {
    const bool ok =
        config < 0 ? count(got) == 0 : got[config] && count(got) == 1;
    std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
    if (!ok) ++errors;
  }
};

}  // namespace

int run_self_test() {
  Expect expect;

  SimSpec hpccg;
  hpccg.native_logical = 4;
  hpccg.rep_logical = 2;
  hpccg.nx = 8;
  hpccg.nz_native = 8;
  hpccg.nz_rep = 16;
  hpccg.iterations = 5;
  const Round h = virtual_of(run_round(hpccg, 1, false));
  const Solve serial = serial_cg(8, 8, 32, 5);
  std::cout << "hpccg checks:\n";
  expect("unperturbed round passes", check_hpccg(h, serial, h), -1);
  Round bad = h;
  bad[kIntra].solve.rnorm = one_ulp_up(bad[kIntra].solve.rnorm);
  expect("intra rnorm +1 ulp fails intra", check_hpccg(bad, serial, h), kIntra);
  bad = h;
  bad[kNative].solve.rnorm0 = one_ulp_up(bad[kNative].solve.rnorm0);
  expect("native rnorm0 +1 ulp fails native", check_hpccg(bad, serial, h),
         kNative);
  bad = h;
  bad[kNative].solve.xsum *= 1 + 100 * kSerialTolerance;
  expect("native xsum 100x the tolerance off the serial CG fails native",
         check_hpccg(bad, serial, bad), kNative);

  SimSpec amg;
  amg.amg = true;
  amg.native_logical = amg.rep_logical = 4;
  amg.nx = amg.nz_native = amg.nz_rep = 16;
  amg.iterations = 1;
  const Round a = virtual_of(run_round(amg, 1, false));
  SimSpec sharded = amg;
  sharded.shards = 2;
  const Round s = virtual_of(run_round(sharded, 1, false));
  std::cout << "amg checks:\n";
  expect("engines agree", check_amg(a, s), -1);
  bad = a;
  bad[kSdr].wallclock = flip_low_bit(bad[kSdr].wallclock);
  expect("sdr wallclock one bit off the other engine fails sdr",
         check_amg(bad, s), kSdr);
  bad = a;
  bad[kNative].bytes ^= 1;
  expect("native bytes one bit off the other engine fails native",
         check_amg(bad, s), kNative);
  bad = a;
  bad[kIntra].solve.rnorm = one_ulp_up(bad[kIntra].solve.rnorm);
  expect("intra rnorm +1 ulp fails intra", check_amg(bad, s), kIntra);

  std::cout << (expect.errors == 0 ? "self-test: ok\n" : "self-test: FAILED\n");
  return expect.errors == 0 ? 0 : 1;
}

}  // namespace perfbench
