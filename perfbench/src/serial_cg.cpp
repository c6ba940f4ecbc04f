#include "serial_cg.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

namespace {

/// y = A*x for the 27-point operator on an nx*ny*nz grid (x-fastest).
void apply(int nx, int ny, int nz, const std::vector<double>& x,
           std::vector<double>& y) {
  const auto at = [nx, ny](int i, int j, int k) {
    return (static_cast<std::size_t>(k) * static_cast<std::size_t>(ny) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(nx) +
           static_cast<std::size_t>(i);
  };
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        // 27 on the diagonal; the loop below also subtracts x itself.
        double sum = 28.0 * x[at(i, j, k)];
        for (int kk = std::max(k - 1, 0); kk <= std::min(k + 1, nz - 1); ++kk)
          for (int jj = std::max(j - 1, 0); jj <= std::min(j + 1, ny - 1); ++jj)
            for (int ii = std::max(i - 1, 0); ii <= std::min(i + 1, nx - 1);
                 ++ii)
              sum -= x[at(ii, jj, kk)];
        y[at(i, j, k)] = sum;
      }
    }
  }
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

Solve serial_cg(int nx, int ny, int nz, int iterations) {
  const std::size_t n = static_cast<std::size_t>(nx) *
                        static_cast<std::size_t>(ny) *
                        static_cast<std::size_t>(nz);
  std::vector<double> x(n, 0.0), b(n), r(n), p(n), ap(n);
  apply(nx, ny, nz, std::vector<double>(n, 1.0), b);
  r = b;
  p = r;
  double rtrans = dot(r, r);
  Solve out;
  out.rnorm0 = std::sqrt(rtrans);
  for (int it = 0; it < iterations; ++it) {
    apply(nx, ny, nz, p, ap);
    const double alpha = rtrans / dot(p, ap);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double old = rtrans;
    rtrans = dot(r, r);
    const double beta = rtrans / old;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    ++out.iterations;
  }
  out.rnorm = std::sqrt(rtrans);
  for (double v : x) out.xsum += v;
  return out;
}

}  // namespace perfbench
