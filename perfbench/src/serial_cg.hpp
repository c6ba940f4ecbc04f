#pragma once

#include "checks.hpp"

namespace perfbench {

/// Reference for the HPCCG checks, written apart from the program: plain
/// serial CG on the global nx*ny*nz grid with its own matrix-free 27-point
/// operator (diagonal 27, every in-domain neighbour -1, couplings outside
/// the domain dropped), right-hand side b = A*ones, x0 = 0, and exactly
/// `iterations` iterations with no convergence test — the same algebra the
/// distributed run performs, summed in a different order.
Solve serial_cg(int nx, int ny, int nz, int iterations);

}  // namespace perfbench
