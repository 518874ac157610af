// Figure 4 / Section 7.1: destabilizing the leakage correlation on n100.
// A TSC-aware floorplan is generated; the Gaussian activity sampling
// locates the most stable correlation regions; dummy thermal TSVs are
// inserted there until the sweet-spot stop criterion fires.
//
// The paper's example drops the correlation coefficient from 0.461 to
// 0.324 (~30% less likely for an attacker to succeed).  This harness
// reports the same before/after numbers, the insertion history, and the
// relative reduction.
#include <filesystem>
#include <iostream>

#include "bench_util.hpp"
#include "benchgen/generator.hpp"
#include "core/map_io.hpp"
#include "floorplan/floorplanner.hpp"
#include "thermal/grid_solver.hpp"

using namespace tsc3d;

namespace {

/// Solve at verification resolution and dump the Fig. 4 panels.
GridD thermal_panel(const Floorplan3D& fp, std::size_t g) {
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = g;
  const thermal::GridSolver solver(fp.tech(), cfg);
  const std::vector<GridD> power{fp.power_map(0, g, g),
                                 fp.power_map(1, g, g)};
  return solver.solve_steady(power, fp.tsv_density_map(g, g))
      .die_temperature[0];
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed",
                                                         std::size_t{3}));
  const std::size_t moves = flags.get("moves", std::size_t{0});
  const std::size_t samples = flags.get("samples", std::size_t{12});

  Floorplan3D fp = benchgen::generate("n100", seed);

  floorplan::FloorplannerOptions opt =
      floorplan::Floorplanner::tsc_aware_setup();
  opt.anneal.total_moves = moves;
  opt.anneal.stages = 30;
  opt.anneal.full_eval_interval = 200;
  opt.dummy.samples_per_iteration = samples;
  opt.dummy.max_iterations = 10;
  opt.dummy.islands_per_iteration = 2;
  opt.dummy.tsvs_per_island = 16;
  // Dummy insertion is exercised separately below; disable it inside the
  // flow so we can report the clean before/after split.
  opt.dummy_insertion = false;

  const floorplan::Floorplanner planner(opt);
  Rng rng(seed);
  std::cout << "=== Figure 4 / Sec. 7.1: dummy-TSV post-processing on n100 "
               "===\n";
  std::cout << "floorplanning (TSC-aware, " << moves << " moves)...\n";
  const floorplan::FloorplanMetrics fm = planner.run(fp, rng);
  std::cout << "floorplan legal: " << (fm.legal ? "yes" : "no")
            << ", r1 = " << bench::fmt(fm.correlation[0])
            << ", r2 = " << bench::fmt(fm.correlation[1]) << "\n\n";

  // Panels (b) and (c): the power map and the pre-insertion thermal map.
  const std::filesystem::path panel_dir =
      flags.get("out", std::string("fig4_maps"));
  std::filesystem::create_directories(panel_dir);
  const std::size_t g = 64;
  write_csv(fp.power_density_map(0, g, g), panel_dir / "power_die0.csv");
  write_pgm(fp.power_density_map(0, g, g), panel_dir / "power_die0.pgm");
  const GridD before_map = thermal_panel(fp, g);
  write_csv(before_map, panel_dir / "thermal_before.csv");
  write_pgm(before_map, panel_dir / "thermal_before.pgm");

  // Post-processing: activity sampling + correlation-driven insertion.
  ThermalConfig sampling_cfg = opt.thermal;
  sampling_cfg.grid_nx = sampling_cfg.grid_ny = opt.sampling_grid;
  thermal::ThermalEngine engine(fp.tech(), sampling_cfg);
  const tsv::DummyInsertResult res =
      tsv::insert_dummy_tsvs(fp, engine, rng, opt.dummy);

  // Panel (d): the thermal map after insertion.
  const GridD after_map = thermal_panel(fp, g);
  write_csv(after_map, panel_dir / "thermal_after.csv");
  write_pgm(after_map, panel_dir / "thermal_after.pgm");
  std::cout << "map panels written to " << panel_dir.string()
            << "/ (CSV + PGM)\n\n";

  bench::Table table({"iteration", "avg correlation"});
  for (std::size_t i = 0; i < res.correlation_history.size(); ++i)
    table.add(i, res.correlation_history[i]);
  table.print();

  const double drop =
      res.correlation_before > 0.0
          ? (res.correlation_before - res.correlation_after) /
                res.correlation_before
          : 0.0;
  std::cout << "\ncorrelation before insertion : "
            << bench::fmt(res.correlation_before) << "\n";
  std::cout << "correlation after insertion  : "
            << bench::fmt(res.correlation_after) << "\n";
  std::cout << "relative reduction           : " << bench::fmt(100.0 * drop, 1)
            << " %  (paper example: 0.461 -> 0.324, ~30 %)\n";
  std::cout << "dummy TSVs inserted          : " << res.tsvs_inserted << " in "
            << res.islands_inserted << " islands over " << res.iterations
            << " iterations\n";
  std::cout << "stability before/after       : "
            << bench::fmt(res.stability_before) << " / "
            << bench::fmt(res.stability_after) << "\n";

  // Shape check: insertion must not increase the correlation.
  const bool ok = res.correlation_after <= res.correlation_before + 1e-9;
  std::cout << "\nstop criterion respected (corr never increased): "
            << (ok ? "YES" : "NO") << "\n";
  return ok ? 0 : 1;
}
