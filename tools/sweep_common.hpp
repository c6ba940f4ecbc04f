#pragma once

// Shared by repmpi_sweep (one-shot batch sweeps), the sweep service tools
// (repmpi_sweepd / repmpi_sweepctl) and the in-process sweep bench: the
// scenario grid, the one definition of what a cell runs, cell-key parsing,
// and the diffable per-cell dump. The dump format is a contract — two
// equivalent result sets (clean vs killed-and-resumed, one-shot vs
// daemon-served) must print byte-identical text, which is how the chaos CI
// job asserts crash recovery lost and corrupted nothing.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "apps/hpccg.hpp"
#include "apps/runner.hpp"
#include "support/result_index.hpp"

namespace repmpi::tools {

struct Cell {
  int logical = 0;
  int degree = 0;
  std::string scenario;  // none / early_crash / late_crash

  std::string key() const {
    return "hpccg.l" + std::to_string(logical) + ".d" +
           std::to_string(degree) + "." + scenario;
  }
};

/// The sweep grid: native references first, then every replicated
/// (logical × degree × failure) cell.
inline std::vector<Cell> make_grid() {
  std::vector<Cell> cells;
  const int logicals[] = {2, 4};
  const int degrees[] = {2, 3};
  const char* scenarios[] = {"none", "early_crash", "late_crash"};
  for (int l : logicals) cells.push_back({l, 1, "none"});
  for (int l : logicals)
    for (int d : degrees)
      for (const char* s : scenarios) cells.push_back({l, d, s});
  return cells;
}

/// What one cell run reports: the simulation result plus the determinism
/// fingerprint (the solver's numeric outcome, captured from the first rank
/// to report — the same probe as the app crash-sweep tests).
struct CellRun {
  apps::RunResult result;
  double fingerprint = 0;
};

/// Runs one cell in-process: the scenario's fault plan, the run
/// configuration and the HPCCG problem (nx × nx × 2nx, `iters` iterations).
/// `repmpi_sweep --worker` and the in-process sweep bench both call this, so
/// a cell means the same simulation wherever it runs.
inline CellRun run_cell(const Cell& cell, int nx, int iters) {
  fault::FaultPlan plan;
  if (cell.scenario == "early_crash") {
    // A replica (plane 1 of logical rank 0) dies right after its 2nd task.
    plan.add({.world_rank = cell.logical,
              .site = fault::CrashSite::kAfterTaskExec, .nth = 2});
  } else if (cell.scenario == "late_crash") {
    // Same replica dies mid-update deep into the run.
    plan.add({.world_rank = cell.logical,
              .site = fault::CrashSite::kBetweenArgSends, .nth = 4 * iters});
  }

  apps::RunConfig cfg;
  cfg.mode = cell.degree == 1 ? apps::RunMode::kNative : apps::RunMode::kIntra;
  cfg.num_logical = cell.logical;
  cfg.degree = cell.degree;
  if (!plan.empty()) cfg.faults = &plan;

  apps::HpccgParams p;
  p.nx = p.ny = nx;
  p.nz = 2 * nx;
  p.iterations = iters;

  CellRun out;
  bool captured = false;
  out.result = apps::run_app(cfg, [&](apps::AppContext& ctx) {
    const apps::HpccgResult hr = apps::hpccg(ctx, p);
    if (!captured) {
      out.fingerprint = hr.rnorm + hr.xsum;
      captured = true;
    }
  });
  return out;
}

inline bool parse_key(const std::string& key, Cell* out) {
  int l = 0, d = 0;
  char scenario[32] = {};
  if (std::sscanf(key.c_str(), "hpccg.l%d.d%d.%31s", &l, &d, scenario) != 3)
    return false;
  out->logical = l;
  out->degree = d;
  out->scenario = scenario;
  return out->key() == key;
}

/// Extracts `"name": <number>` from a metrics blob; NaN when absent.
inline double blob_number(const std::string& blob, const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  const auto pos = blob.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(blob.c_str() + pos + needle.size(), nullptr);
}

/// Prints the diffable dump of an index's latest-per-key results: one line
/// per cell, key-sorted, deterministic fields only (no attempts/wall/host
/// data) — two dumps of equivalent result sets diff clean regardless of
/// crashes, retries, or which service incarnation ran each cell.
inline void dump_cells(const support::ResultIndex& index) {
  const std::vector<const support::IndexedResult*> latest = index.all();
  // Native reference walls for the efficiency column (fixed-problem
  // protocol, as in the sweep bench).
  std::map<int, double> native_wall;
  for (const support::IndexedResult* e : latest) {
    const support::ResultRecord& r = e->record;
    Cell c;
    if (r.status == support::CellStatus::kOk && parse_key(r.key, &c) &&
        c.degree == 1)
      native_wall[c.logical] = blob_number(r.blob, "wallclock");
  }

  for (const support::IndexedResult* e : latest) {
    const support::ResultRecord& r = e->record;
    const std::string& key = r.key;
    if (r.status != support::CellStatus::kOk) {
      std::printf("%s failed=%s code=%d\n", key.c_str(),
                  support::to_string(r.status), r.code);
      continue;
    }
    std::string blob = r.blob;
    while (!blob.empty() && (blob.back() == '\n' || blob.back() == '\r'))
      blob.pop_back();
    Cell c;
    double eff = std::nan("");
    if (parse_key(key, &c)) {
      if (c.degree == 1) {
        eff = 1.0;
      } else if (native_wall.count(c.logical) > 0) {
        eff = apps::efficiency_fixed_problem(
            native_wall[c.logical], blob_number(blob, "wallclock"), c.degree);
      }
    }
    if (std::isnan(eff)) {
      std::printf("%s ok %s efficiency=n/a\n", key.c_str(), blob.c_str());
    } else {
      std::printf("%s ok %s efficiency=%.17g\n", key.c_str(), blob.c_str(),
                  eff);
    }
  }
}

}  // namespace repmpi::tools
