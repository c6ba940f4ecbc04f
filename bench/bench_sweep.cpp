// Scenario sweep — the workload the paper's evaluation is actually made of.
//
// Every figure and ablation aggregates dozens of *independent* simulations
// (node counts × replication degrees × failure patterns). This bench runs
// exactly such a grid — (logical processes) × (replication degree) ×
// (failure scenario) of intra-parallelized HPCCG — and fans the cells across
// a support::TaskPool, one whole simulation per worker thread. It is the
// scenario-diversity scaling demonstration: virtual-time results per cell
// are bit-identical whatever the thread count, while wall-clock shrinks
// with --jobs.
//
// Per-cell metrics are the fixed-problem efficiencies (Fig. 6 protocol:
// E = T_native / T_cell / degree) and crash slowdowns, all deterministic.
// host_pool_speedup records (sum of per-cell wall) / (elapsed wall) — the
// scenario-parallel speedup achieved on this host. Exact when workers fit
// in free cores; on an oversubscribed host the per-cell walls are inflated
// by timesharing, so treat it as an upper bound there.
//
// The grid and the cell body are the sweep tools' (tools/sweep_common.hpp):
// repmpi_sweep runs the same cells as separate processes, this bench runs
// them as threads in one process.

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/backend.hpp"
#include "sim/simulator.hpp"
#include "support/compute_cache.hpp"
#include "support/task_pool.hpp"
#include "sweep_common.hpp"

namespace repmpi::bench {
namespace {

/// One grid cell and what its run measured.
struct CellOutcome {
  tools::Cell cell;
  double wallclock = 0;
  double wall_host_s = 0;
  sim::SubstrateTotals substrate{};  ///< events/messages/switches/bypass delta
  support::ComputeCacheStats cache{};
  kernels::KernelTotals kernels{};   ///< host kernel-family ns delta
};

void run_measured(CellOutcome& o, int nx, int iters) {
  // The cell runs entirely on this worker thread, so the thread-local
  // substrate totals delta is exactly this simulation's event/message count
  // (tasks never interleave on a thread).
  const sim::SubstrateTotals before = sim::substrate_totals();
  const kernels::KernelTotals kt_before = kernels::kernel_totals();
  const auto start = std::chrono::steady_clock::now();
  const tools::CellRun run = tools::run_cell(o.cell, nx, iters);
  const auto end = std::chrono::steady_clock::now();
  o.substrate = sim::substrate_totals();
  o.substrate -= before;
  o.kernels = kernels::kernel_totals();
  o.kernels -= kt_before;
  o.wall_host_s = std::chrono::duration<double>(end - start).count();
  o.cache = run.result.compute_cache;
  o.wallclock = run.result.wallclock;
}

REPMPI_BENCH(sweep, "scenario sweep: nodes x degree x failures on task pool") {
  const Options& opt = ctx.opt();
  const int nx = static_cast<int>(opt.get_int("nx", 24));
  const int iters = static_cast<int>(opt.get_int("iters", 4));
  const unsigned jobs = static_cast<unsigned>(
      std::max(1L, opt.get_int("jobs", support::TaskPool::default_jobs())));

  print_header(ctx.out(),
               "Scenario sweep — (logical procs) x (degree) x (failures)",
               "the parameter-sweep methodology behind every figure "
               "(Ropars et al., IPDPS'15, Sections V-VI)",
               "independent scenarios scale with the worker count; per-cell "
               "efficiencies match a serial run bit for bit");

  // The sweep tools' grid: native references (degree 1) first, then every
  // replicated cell. Cells are independent simulations — ideal TaskPool
  // citizens.
  std::vector<CellOutcome> cells;
  for (const tools::Cell& c : tools::make_grid()) cells.push_back({.cell = c});

  const auto sweep_start = std::chrono::steady_clock::now();
  bool ran_on_workers = false;
  {
    support::TaskPool pool(
        std::min<unsigned>(jobs, static_cast<unsigned>(cells.size())));
    ran_on_workers = pool.num_threads() > 1;
    for (CellOutcome& o : cells)
      pool.submit([&o, nx, iters] { run_measured(o, nx, iters); });
    pool.wait();
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - sweep_start)
                             .count();

  // Efficiencies against the native reference of the same logical count
  // (fixed-problem protocol: the replicated run burns degree x resources).
  std::map<int, double> native_wall;
  for (const CellOutcome& o : cells)
    if (o.cell.degree == 1) native_wall[o.cell.logical] = o.wallclock;

  Table t({"logical", "degree", "failure", "time (s)", "efficiency"});
  double serial_estimate = 0;
  for (const CellOutcome& o : cells) {
    const tools::Cell& c = o.cell;
    serial_estimate += o.wall_host_s;
    const double efficiency =
        c.degree == 1 ? 1.0
                      : apps::efficiency_fixed_problem(
                            native_wall[c.logical], o.wallclock, c.degree);
    t.add_row({std::to_string(c.logical), std::to_string(c.degree),
               c.scenario, Table::fmt(o.wallclock, 4), fmt_eff(efficiency)});
    if (c.degree > 1) {
      ctx.metric("eff_l" + std::to_string(c.logical) + "_d" +
                     std::to_string(c.degree) + "_" + c.scenario,
                 efficiency);
    }
  }
  t.print(ctx.out());

  // Attribute the cells' substrate traffic and compute-cache activity to
  // this bench's thread, where the driver's before/after snapshot sees it —
  // but only when the cells really ran on pool workers (and thus fed
  // *their* thread-local totals); in inline mode they already counted here.
  if (ran_on_workers) {
    for (const CellOutcome& o : cells) {
      sim::add_substrate(o.substrate);
      support::add_compute_cache_totals(o.cache);
      kernels::add_kernel_totals(o.kernels);
    }
  }

  const double speedup = elapsed > 0 ? serial_estimate / elapsed : 1.0;
  ctx.out() << "\n" << cells.size() << " scenarios on " << jobs
            << " worker(s): " << Table::fmt(elapsed, 2) << " s elapsed, "
            << Table::fmt(serial_estimate, 2)
            << " s of simulation (pool speedup x" << Table::fmt(speedup, 2)
            << ")\n";
  ctx.metric("host_pool_speedup", speedup);
  ctx.metric("host_jobs", static_cast<double>(jobs));
  return 0;
}

}  // namespace
}  // namespace repmpi::bench
