#include "sim_workloads.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <vector>

#include "apps/amg.hpp"
#include "apps/hpccg.hpp"
#include "common.hpp"
#include "kernels/backend.hpp"
#include "kernels/sparse.hpp"
#include "kernels/vector_ops.hpp"
#include "serial_cg.hpp"
#include "sim/simulator.hpp"
#include "support/payload.hpp"

namespace perfbench {

namespace apps = repmpi::apps;
namespace kernels = repmpi::kernels;

SimSpec sim_spec(const std::string& workload) {
  SimSpec s;
  if (workload == "hpccg_compute") {
    // Fig. 5 fixed resources: 16 native ranks of 48^3, or 8 logical ranks
    // at degree 2 of 48^2x96 — the same 48x48x768 global system.
    s.native_logical = 16;
    s.rep_logical = 8;
    s.nx = 48;
    s.nz_native = 48;
    s.nz_rep = 96;
    s.iterations = 15;
  } else if (workload == "amg_gmres" || workload == "amg_gmres_sharded") {
    // Fig. 6b fixed problem: 16 logical ranks of 24^3 in every
    // configuration, GMRES(10) with 2 restarts.
    s.amg = true;
    s.shards = workload == "amg_gmres_sharded" ? 2 : 0;
    s.native_logical = s.rep_logical = 16;
    s.nx = s.nz_native = s.nz_rep = 24;
    s.iterations = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return s;
}

namespace {

apps::AmgParams amg_params(const SimSpec& spec) {
  apps::AmgParams p;
  p.stencil = kernels::Stencil::k7pt;
  p.solver = apps::AmgParams::Solver::kGMRES;
  p.nx = p.ny = p.nz = spec.nx;
  p.iterations = spec.iterations;
  p.gmres_restart = 10;
  return p;
}

apps::RunConfig run_config(const SimSpec& spec, int config,
                           std::uint64_t seed) {
  apps::RunConfig cfg;
  cfg.mode = config == kNative ? apps::RunMode::kNative
             : config == kSdr  ? apps::RunMode::kReplicated
                               : apps::RunMode::kIntra;
  cfg.num_logical = config == kNative ? spec.native_logical : spec.rep_logical;
  cfg.degree = 2;
  cfg.shards = spec.shards;
  cfg.seed = seed;
  return cfg;
}

ConfigRun run_config_once(const SimSpec& spec, int config, std::uint64_t seed,
                          bool trace) {
  const apps::RunConfig cfg = run_config(spec, config, seed);
  Solve solve;
  bool captured = false;
  apps::AppMain app;
  if (spec.amg) {
    const apps::AmgParams p = amg_params(spec);
    app = [p, &solve, &captured](apps::AppContext& ctx) {
      const apps::AmgResult r = apps::amg(ctx, p);
      if (!captured) {
        solve = {r.rnorm0, r.rnorm, 0.0, r.iterations};
        captured = true;
      }
    };
  } else {
    apps::HpccgParams p;
    p.nx = p.ny = spec.nx;
    p.nz = config == kNative ? spec.nz_native : spec.nz_rep;
    p.iterations = spec.iterations;
    p.intra_waxpby = false;  // Fig. 5b: ddot and sparsemv are shared
    app = [p, &solve, &captured](apps::AppContext& ctx) {
      const apps::HpccgResult r = apps::hpccg(ctx, p);
      if (!captured) {
        solve = {r.rnorm0, r.rnorm, r.xsum, r.iterations};
        captured = true;
      }
    };
  }

  ConfigRun out;
  repmpi::sim::SubstrateTotals sub0;
  kernels::KernelTotals ker0;
  repmpi::support::Payload::PoolStats pool0;
  if (trace) {
    sub0 = repmpi::sim::substrate_totals();
    ker0 = kernels::kernel_totals();
    pool0 = repmpi::support::Payload::pool_stats();
  }
  const double t0 = now_s();
  out.r = apps::run_app(cfg, app);
  out.host_s = now_s() - t0;
  if (trace) {
    repmpi::sim::SubstrateTotals sub = repmpi::sim::substrate_totals();
    sub -= sub0;
    kernels::KernelTotals ker = kernels::kernel_totals();
    ker -= ker0;
    const repmpi::support::Payload::PoolStats pool =
        repmpi::support::Payload::pool_stats();
    LayerSample& l = out.layers;
    l.fiber_switches = sub.fiber_switches;
    l.heap_bypass = sub.heap_bypass;
    l.wakeups_elided = sub.wakeups_elided;
    l.spmv_ns = ker.ns[static_cast<int>(kernels::KernelFamily::kSpmv)];
    l.vector_ns = ker.ns[static_cast<int>(kernels::KernelFamily::kVector)];
    for (std::uint64_t ns : ker.ns) l.kernel_ns += ns;
    l.blocks_allocated = pool.blocks_allocated - pool0.blocks_allocated;
    l.blocks_reused = pool.blocks_reused - pool0.blocks_reused;
  }
  out.v.solve = solve;
  out.v.wallclock = out.r.wallclock;
  out.v.messages = out.r.net_messages;
  out.v.bytes = out.r.net_bytes;
  return out;
}

/// Every distinct local operator the workload's configurations use: the
/// interior and the two z-boundary variants of each block shape, at every
/// multigrid level for AMG. These are what the process-wide operator memo
/// holds after the first run.
struct OperatorShape {
  kernels::Stencil stencil;
  int nx, ny, nz;
  bool lower, upper;
};

std::vector<OperatorShape> operator_shapes(const SimSpec& spec) {
  std::set<std::tuple<int, int, int>> blocks;
  blocks.insert({spec.nx, spec.nx, spec.nz_native});
  blocks.insert({spec.nx, spec.nx, spec.nz_rep});
  const int levels = spec.amg ? apps::AmgParams{}.levels : 1;
  const kernels::Stencil stencil =
      spec.amg ? kernels::Stencil::k7pt : kernels::Stencil::k27pt;
  std::vector<OperatorShape> shapes;
  for (const auto& [nx, ny, nz] : blocks) {
    for (int l = 0; l < levels; ++l) {
      for (const auto& [lo, up] :
           {std::pair{false, true}, std::pair{true, true},
            std::pair{true, false}}) {
        shapes.push_back({stencil, nx >> l, ny >> l, nz >> l, lo, up});
      }
    }
  }
  return shapes;
}

/// Set-up: builds each distinct local operator from scratch, one at a time.
double time_operator_build(const std::vector<OperatorShape>& shapes) {
  const double t0 = now_s();
  for (const OperatorShape& s : shapes) {
    const kernels::CsrMatrix a = kernels::build_grid_matrix(
        s.stencil, s.nx, s.ny, s.nz, s.lower, s.upper);
    if (a.rows() <= 0) throw std::runtime_error("empty operator");
  }
  return now_s() - t0;
}

/// Achieved rate of the benchmark's own kernel calls on the workload's
/// interior local operator, in computed bytes (the program's cost model)
/// per second. Runs each kernel for at least `min_s` seconds.
std::pair<double, double> kernel_gbps(const SimSpec& spec, double min_s) {
  const std::shared_ptr<const kernels::CsrMatrix> a =
      kernels::grid_matrix_cached(
          spec.amg ? kernels::Stencil::k7pt : kernels::Stencil::k27pt,
          spec.nx, spec.nx, spec.nz_native, true, true);
  std::vector<double> x(a->vector_len(), 1.0), y(a->interior());
  const auto gbps = [min_s](double bytes_per_call, auto&& call) {
    std::uint64_t calls = 0;
    const double t0 = now_s();
    double t = t0;
    while (t - t0 < min_s) {
      call();
      ++calls;
      t = now_s();
    }
    return bytes_per_call * static_cast<double>(calls) / (t - t0) / 1e9;
  };
  const double spmv =
      gbps(kernels::sparsemv_cost(a->rows(), a->nnz()).mem_bytes,
           [&] { kernels::sparsemv(*a, x, y); });
  double sink = 0;
  const double dot = gbps(kernels::ddot_cost(y.size()).mem_bytes, [&] {
    double d = 0;
    kernels::ddot(y, y, &d);
    sink += d;
  });
  if (!(sink > 0)) throw std::runtime_error("ddot probe returned nothing");
  return {spmv, dot};
}

}  // namespace

RoundRuns run_round(const SimSpec& spec, std::uint64_t seed, bool trace) {
  RoundRuns runs;
  for (int c = 0; c < kConfigs; ++c)
    runs[c] = run_config_once(spec, c, seed, trace);
  return runs;
}

Round virtual_of(const RoundRuns& runs) {
  Round round;
  for (int c = 0; c < kConfigs; ++c) round[c] = runs[c].v;
  return round;
}

namespace {

/// One untimed round on `spec`'s engine, run in a forked child that sends
/// its virtual results back through a pipe. The child's memory stays out of
/// this process's peak resident size, so `peak_rss_mb` covers the
/// workload's own engine only. Called before any simulation thread exists.
Round reference_round(const SimSpec& spec, std::uint64_t seed) {
  static_assert(std::is_trivially_copyable_v<Round>);
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    int rc = 1;
    try {
      const Round r = virtual_of(run_round(spec, seed, false));
      const char* p = reinterpret_cast<const char*>(&r);
      std::size_t left = sizeof r;
      while (left > 0) {
        const ssize_t n = ::write(fds[1], p, left);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        p += n;
        left -= static_cast<std::size_t>(n);
      }
      rc = left == 0 ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: reference round: %s\n", e.what());
    }
    ::_exit(rc);
  }
  ::close(fds[1]);
  Round r{};
  char* p = reinterpret_cast<char*>(&r);
  std::size_t got = 0;
  while (got < sizeof r) {
    const ssize_t n = ::read(fds[0], p + got, sizeof r - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof r || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("reference round on the other engine failed");
  return r;
}

double round_host_s(const RoundRuns& r) {
  double s = 0;
  for (const ConfigRun& c : r) s += c.host_s;
  return s;
}

/// Median over the traced rounds of one configuration's `get(run)`.
template <typename Get>
double config_median(const std::vector<RoundRuns>& traced, int c, Get get) {
  std::vector<double> v;
  for (const RoundRuns& r : traced) v.push_back(static_cast<double>(get(r[c])));
  return median(v);
}

/// Median over the traced rounds of `get(run)` summed over a round.
template <typename Get>
double round_median(const std::vector<RoundRuns>& traced, Get get) {
  std::vector<double> v;
  for (const RoundRuns& r : traced) {
    double sum = 0;
    for (const ConfigRun& run : r) sum += static_cast<double>(get(run));
    v.push_back(sum);
  }
  return median(v);
}

/// Per-layer metrics from the traced rounds: medians for host timings and
/// for compute-cache counts (cost-aware publishing decides on measured host
/// time, so they move from run to run), the last round's value for counts
/// that repeat exactly.
void report_layers(const SimSpec& spec, const std::vector<RoundRuns>& traced,
                   Outcome& out) {
  const RoundRuns& last = traced.back();
  const auto count = [](auto v) { return static_cast<double>(v); };
  for (int c = 0; c < kConfigs; ++c) {
    const std::string sfx = std::string(".") + config_name(c);
    const ConfigRun& run = last[c];
    const auto med = [&traced, c](auto get) {
      return config_median(traced, c, get);
    };
    out.set(std::string(config_name(c)) + "_s",
            med([](const auto& r) { return r.host_s; }), "s");
    out.set("sim.events" + sfx, count(run.r.events), "count");
    out.set("sim.fiber_switches" + sfx, count(run.layers.fiber_switches),
            "count");
    out.set("sim.heap_bypass" + sfx, count(run.layers.heap_bypass), "count");
    out.set("sim.wakeups_elided" + sfx, count(run.layers.wakeups_elided),
            "count");
    // Host time outside kernels per event, on the default engine only:
    // under sharding kernel time is summed over threads.
    out.set("sim.ns_per_event" + sfx,
            spec.shards != 0 ? 0.0 : med([&count](const auto& r) {
              return (r.host_s * 1e9 - count(r.layers.kernel_ns)) /
                     count(r.r.events);
            }),
            "ns");
    out.set("net.messages" + sfx, count(run.r.net_messages), "count");
    out.set("net.bytes" + sfx, count(run.r.net_bytes), "B");
    out.set("kernels.spmv_ns" + sfx,
            med([](const auto& r) { return r.layers.spmv_ns; }), "ns");
    out.set("kernels.vector_ns" + sfx,
            med([](const auto& r) { return r.layers.vector_ns; }), "ns");
    out.set("kernels.share" + sfx, med([&count](const auto& r) {
              return count(r.layers.kernel_ns) / 1e9 / r.host_s;
            }),
            "ratio");
    if (c == kNative) continue;
    const auto cache = [&med](auto get) {
      return med([get](const auto& r) { return get(r.r.compute_cache); });
    };
    out.set("compute_cache.hits" + sfx,
            cache([](const auto& s) { return s.hits; }), "count");
    out.set("compute_cache.misses" + sfx,
            cache([](const auto& s) { return s.misses; }), "count");
    out.set("compute_cache.uncached" + sfx,
            cache([](const auto& s) { return s.uncached; }), "count");
    out.set("compute_cache.shared_mb" + sfx, cache([&count](const auto& s) {
              return count(s.shared_bytes) / 1e6;
            }),
            "MB");
    out.set("compute_cache.hit_ratio" + sfx, cache([&count](const auto& s) {
              const double lookups = count(s.hits + s.misses);
              return lookups > 0 ? count(s.hits) / lookups : 0.0;
            }),
            "ratio");
  }
  out.set("shard.windows",
          round_median(traced, [](const auto& r) { return r.r.shard_windows; }),
          "count");
  out.set("shard.cross_messages", round_median(traced, [](const auto& r) {
            return r.r.shard_cross_messages;
          }),
          "count");
  out.set("payload.blocks_allocated", round_median(traced, [](const auto& r) {
            return r.layers.blocks_allocated;
          }),
          "count");
  out.set("payload.blocks_reused", round_median(traced, [](const auto& r) {
            return r.layers.blocks_reused;
          }),
          "count");
  const repmpi::intra::IntraStats& is = last[kIntra].r.intra_total;
  out.set("intra.sections", count(is.sections), "count");
  out.set("intra.tasks_executed", count(is.tasks_executed), "count");
  out.set("intra.tasks_received", count(is.tasks_received), "count");
  out.set("intra.update_bytes", count(is.update_bytes_sent), "B");
}

}  // namespace

Outcome run_sim_workload(const Args& args) {
  const SimSpec spec = sim_spec(args.workload);
  Outcome out;

  // Set-up: build the workload's inputs, its distinct local operators,
  // from scratch. Timed before the first round and again after every round,
  // so that its median spans the run as run_s does; the host's speed drifts
  // over tens of seconds. Then warm the process-wide operator memo.
  const std::vector<OperatorShape> shapes = operator_shapes(spec);
  std::vector<double> setup;
  const auto time_setup = [&shapes, &setup] {
    for (double spent = 0; spent < 0.02;) {
      setup.push_back(time_operator_build(shapes));
      spent += setup.back();
    }
  };
  time_setup();
  const double t_ref = now_s();
  for (const OperatorShape& s : shapes)
    kernels::grid_matrix_cached(s.stencil, s.nx, s.ny, s.nz, s.lower, s.upper);

  // References for the output checks (untimed): the serial CG for HPCCG,
  // one round on the other engine for AMG, in a child process.
  Solve serial;
  Round other_engine{};
  if (spec.amg) {
    SimSpec other = spec;
    other.shards = spec.shards == 0 ? 2 : 0;
    other_engine = reference_round(other, args.seed);
  } else {
    serial = serial_cg(spec.nx, spec.nx, spec.native_logical * spec.nz_native,
                       spec.iterations);
  }

  std::fprintf(stderr, "set-up %.4f s (median of %zu); references %.2f s\n",
               median(setup), setup.size(), now_s() - t_ref);

  // Timed rounds: whole rounds until the time is up. A traced run
  // alternates untraced and traced rounds, so both see the same host state.
  std::vector<RoundRuns> untraced, traced;
  Round first{};
  const double t_start = now_s();
  for (int i = 0;; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    const RoundRuns runs = run_round(spec, args.seed, trace_this);
    const Round round = virtual_of(runs);
    if (i == 0) first = round;
    const Failed failed = spec.amg ? check_amg(round, other_engine)
                                   : check_hpccg(round, serial, first);
    for (int c = 0; c < kConfigs; ++c) {
      ++out.attempted;
      if (failed[c]) {
        ++out.failed;
        std::cerr << "perfbench: " << args.workload << ": round " << i << " "
                  << config_name(c) << " failed its output check\n";
      }
    }
    // Traced rounds must reproduce the untraced first round's virtual time.
    for (int c = 0; c < kConfigs; ++c)
      if (trace_this && !same_virtual(round[c], first[c])) out.correct = false;
    std::fprintf(stderr,
                 "round %d%s: native %.3f s, sdr %.3f s, intra %.3f s\n", i,
                 trace_this ? " (traced)" : "", runs[kNative].host_s,
                 runs[kSdr].host_s, runs[kIntra].host_s);
    (trace_this ? traced : untraced).push_back(runs);
    if (g_interrupted) return out;
    time_setup();
    const bool enough = !args.trace || !traced.empty();
    if (enough && now_s() - t_start >= args.seconds) break;
  }

  std::vector<double> run_s;
  for (const RoundRuns& r : untraced) run_s.push_back(round_host_s(r));
  if (!args.trace) {
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    out.set("setup_s", median(setup), "s");
    out.set("run_s", median(run_s), "s");
    out.set("peak_rss_mb", maxrss_mb(ru.ru_maxrss), "MB");
    return out;
  }

  report_layers(spec, traced, out);
  std::vector<double> traced_s;
  for (const RoundRuns& r : traced) traced_s.push_back(round_host_s(r));
  out.set("trace.run_s", median(traced_s), "s");
  out.set("trace.cost_s", median(traced_s) - median(run_s), "s");
  const auto [spmv, dot] = kernel_gbps(spec, 0.25);
  out.set("kernels.spmv_gbps", spmv, "GB/s");
  out.set("kernels.ddot_gbps", dot, "GB/s");
  return out;
}

}  // namespace perfbench
