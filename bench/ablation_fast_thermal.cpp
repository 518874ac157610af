// Section 6 ablation: the fast (power-blurring) thermal analysis that
// drives the paper's floorplanning loop versus the detailed grid solver
// (tsc3d's loop and its verification both solve the detailed model).
// The paper: "we found this fast analysis to be inferior
// to the detailed analysis of HotSpot, especially for diverse
// arrangements of TSVs.  Thus, we also verify the final correlation
// after floorplanning."
//
// Reported: per-pattern field correlation and mean absolute error of the
// fast estimate, plus the error of the correlation coefficient itself.
#include <iostream>

#include "bench_util.hpp"
#include "benchgen/generator.hpp"
#include "floorplan/annealer.hpp"
#include "leakage/pearson.hpp"
#include "thermal/power_blur.hpp"
#include "thermal/thermal_engine.hpp"
#include "tsv/planner.hpp"

using namespace tsc3d;

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed",
                                                         std::size_t{4}));

  Floorplan3D fp = benchgen::generate("n100", seed);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 32;
  thermal::ThermalEngine engine(fp.tech(), cfg);
  const thermal::PowerBlur blur(engine, 10);

  Rng rng(seed);
  floorplan::LayoutState state = floorplan::LayoutState::initial(fp, rng);
  state.apply_to(fp);

  std::cout << "=== Sec. 6 ablation: fast power blurring vs detailed solver "
               "===\n\n";
  bench::Table table({"TSV pattern", "field corr", "MAE [K]",
                      "r1 detailed", "r1 fast", "|r1 error|"});

  struct PatternResult {
    std::string name;
    double r_err = 0.0;
  };
  std::vector<PatternResult> outcomes;

  const std::vector<std::string> patterns = {"none", "signal", "regular",
                                             "islands", "diverse"};
  for (const std::string& pattern : patterns) {
    tsv::clear_tsvs(fp, TsvKind::signal);
    Rng prng(seed + 7);
    if (pattern == "signal") {
      tsv::place_signal_tsvs(fp);
    } else if (pattern == "regular") {
      tsv::add_regular_grid(fp, 10, 10);
    } else if (pattern == "islands") {
      tsv::add_islands(fp, 6, 25, prng);
    } else if (pattern == "diverse") {
      tsv::add_islands(fp, 3, 36, prng);
      tsv::add_irregular(fp, 60, prng);
    }

    std::vector<GridD> power{fp.power_map(0, 32, 32),
                             fp.power_map(1, 32, 32)};
    const GridD tsvs = fp.tsv_density_map(32, 32);
    const thermal::ThermalResult detailed = engine.solve_steady(power, tsvs);
    const std::vector<GridD> fast = blur.estimate(power, tsvs);

    const double field_corr =
        leakage::pearson(fast[0], detailed.die_temperature[0]);
    double mae = 0.0;
    for (std::size_t i = 0; i < fast[0].size(); ++i)
      mae += std::abs(fast[0][i] - detailed.die_temperature[0][i]);
    mae /= static_cast<double>(fast[0].size());
    const double r_detailed =
        leakage::pearson(power[0], detailed.die_temperature[0]);
    const double r_fast = leakage::pearson(power[0], fast[0]);

    table.add(pattern, field_corr, mae, r_detailed, r_fast,
              std::abs(r_detailed - r_fast));
    outcomes.push_back({pattern, std::abs(r_detailed - r_fast)});
  }
  table.print();

  double uniform_err = 0.0, diverse_err = 0.0;
  for (const auto& o : outcomes) {
    if (o.name == "none" || o.name == "regular") uniform_err += o.r_err / 2.0;
    if (o.name == "diverse" || o.name == "islands")
      diverse_err += o.r_err / 2.0;
  }
  std::cout << "\nmean |r1 error| on homogeneous patterns: "
            << bench::fmt(uniform_err) << "\n";
  std::cout << "mean |r1 error| on diverse TSV patterns : "
            << bench::fmt(diverse_err) << "\n";
  std::cout << "fast analysis degrades for diverse TSVs (paper's rationale "
               "for post-floorplanning verification): "
            << (diverse_err >= uniform_err * 0.8 ? "CONSISTENT"
                                                 : "NOT OBSERVED")
            << "\n";
  return 0;
}
