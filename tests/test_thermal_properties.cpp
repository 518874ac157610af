// Property tests of the thermal solver: invariants that must hold for
// every grid size, die count, integration flavor, and TSV density --
// plus the closed-loop (feedback) transient API.
#include <cmath>
#include <gtest/gtest.h>
#include <ostream>

#include "core/rng.hpp"
#include "thermal/grid_solver.hpp"

namespace tsc3d::thermal {
namespace {

TechnologyConfig tech_for(std::size_t dies, IntegrationFlavor flavor) {
  TechnologyConfig tech;
  tech.die_width_um = tech.die_height_um = 2000.0;
  tech.num_dies = dies;
  if (flavor == IntegrationFlavor::monolithic) tech = make_monolithic(tech);
  return tech;
}

std::vector<GridD> random_power(std::size_t dies, std::size_t n, Rng& rng,
                                double total_w) {
  std::vector<GridD> maps;
  double sum = 0.0;
  for (std::size_t d = 0; d < dies; ++d) {
    GridD map(n, n);
    for (auto& v : map) {
      v = rng.uniform(0.0, 1.0);
      sum += v;
    }
    maps.push_back(std::move(map));
  }
  for (auto& map : maps) map *= total_w / sum;
  return maps;
}

struct Config {
  std::size_t grid;
  std::size_t dies;
  IntegrationFlavor flavor;
};

// gtest prints a parameter into the listed test name, and by default it
// dumps the raw bytes, padding included, which differ between builds.
// Print the fields instead, e.g. "g16_d3_tsv".
void PrintTo(const Config& c, std::ostream* os) {
  *os << "g" << c.grid << "_d" << c.dies
      << (c.flavor == IntegrationFlavor::monolithic ? "_mono" : "_tsv");
}

class ConservationSweep : public ::testing::TestWithParam<Config> {};

TEST_P(ConservationSweep, DissipatedPowerLeavesThroughTheTwoPaths) {
  const auto& p = GetParam();
  const auto tech = tech_for(p.dies, p.flavor);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = p.grid;
  cfg.tolerance_k = 1e-6;
  const GridSolver solver(tech, cfg);
  Rng rng(p.grid + p.dies);
  const auto power = random_power(p.dies, p.grid, rng, 3.0);
  const GridD tsv(p.grid, p.grid, 0.1);
  const auto res = solver.solve_steady(power, tsv);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.heat_to_sink_w + res.heat_to_package_w, 3.0, 0.02);
  // Everything sits above ambient; the peak is finite and sane.
  for (const auto& map : res.die_temperature) {
    EXPECT_GE(map.min(), cfg.ambient_k - 1e-9);
    EXPECT_LT(map.max(), 1000.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, ConservationSweep,
    ::testing::Values(Config{8, 2, IntegrationFlavor::tsv_based},
                      Config{16, 2, IntegrationFlavor::tsv_based},
                      Config{16, 3, IntegrationFlavor::tsv_based},
                      Config{16, 2, IntegrationFlavor::monolithic},
                      Config{16, 4, IntegrationFlavor::monolithic},
                      Config{24, 2, IntegrationFlavor::tsv_based}));

TEST(ThermalProperties, SuperpositionOfRises) {
  // The network is linear: temperature RISES superpose.
  const auto tech = tech_for(2, IntegrationFlavor::tsv_based);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 12;
  cfg.tolerance_k = 1e-7;
  const GridSolver solver(tech, cfg);
  const GridD tsv(12, 12, 0.05);
  Rng rng(3);
  const auto pa = random_power(2, 12, rng, 1.0);
  const auto pb = random_power(2, 12, rng, 2.0);
  std::vector<GridD> pab = pa;
  for (std::size_t d = 0; d < 2; ++d) pab[d] += pb[d];

  const auto ra = solver.solve_steady(pa, tsv);
  const auto rb = solver.solve_steady(pb, tsv);
  const auto rab = solver.solve_steady(pab, tsv);
  for (std::size_t d = 0; d < 2; ++d) {
    for (std::size_t i = 0; i < ra.die_temperature[d].size(); ++i) {
      const double rise_sum = (ra.die_temperature[d][i] - cfg.ambient_k) +
                              (rb.die_temperature[d][i] - cfg.ambient_k);
      const double rise_joint = rab.die_temperature[d][i] - cfg.ambient_k;
      EXPECT_NEAR(rise_joint, rise_sum, 0.02 * std::max(1.0, rise_sum));
    }
  }
}

TEST(ThermalProperties, MirrorSymmetry) {
  // A power map mirrored in x yields the mirrored thermal map (uniform
  // TSV density preserves the symmetry).
  const auto tech = tech_for(2, IntegrationFlavor::tsv_based);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.tolerance_k = 1e-7;
  const GridSolver solver(tech, cfg);
  const GridD tsv(16, 16, 0.1);
  Rng rng(5);
  auto power = random_power(2, 16, rng, 2.0);

  auto mirrored = power;
  for (std::size_t d = 0; d < 2; ++d)
    for (std::size_t iy = 0; iy < 16; ++iy)
      for (std::size_t ix = 0; ix < 16; ++ix)
        mirrored[d].at(ix, iy) = power[d].at(15 - ix, iy);

  const auto res = solver.solve_steady(power, tsv);
  const auto res_m = solver.solve_steady(mirrored, tsv);
  for (std::size_t d = 0; d < 2; ++d)
    for (std::size_t iy = 0; iy < 16; ++iy)
      for (std::size_t ix = 0; ix < 16; ++ix)
        EXPECT_NEAR(res_m.die_temperature[d].at(ix, iy),
                    res.die_temperature[d].at(15 - ix, iy), 1e-3);
}

TEST(ThermalProperties, MonotoneInPower) {
  // Adding power anywhere can cool nothing (conductance network with
  // fixed boundary temperatures is monotone).
  const auto tech = tech_for(2, IntegrationFlavor::tsv_based);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 12;
  cfg.tolerance_k = 1e-7;
  const GridSolver solver(tech, cfg);
  const GridD tsv(12, 12, 0.0);
  Rng rng(7);
  const auto power = random_power(2, 12, rng, 2.0);
  auto more = power;
  more[0].at(6, 6) += 0.5;
  const auto res = solver.solve_steady(power, tsv);
  const auto res_more = solver.solve_steady(more, tsv);
  for (std::size_t d = 0; d < 2; ++d)
    for (std::size_t i = 0; i < res.die_temperature[d].size(); ++i)
      EXPECT_GE(res_more.die_temperature[d][i],
                res.die_temperature[d][i] - 1e-6);
}

TEST(TransientFeedback, CallbackSeesAmbientFirstThenWarming) {
  const auto tech = tech_for(2, IntegrationFlavor::tsv_based);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 8;
  const GridSolver solver(tech, cfg);
  const GridD tsv(8, 8, 0.0);
  std::vector<double> seen_max;
  const auto cb = [&](double, const std::vector<GridD>& die_temp) {
    double peak = 0.0;
    for (const auto& map : die_temp) peak = std::max(peak, map.max());
    seen_max.push_back(peak);
    return std::vector<GridD>(2, GridD(8, 8, 2.0 / (8.0 * 8.0)));
  };
  (void)solver.solve_transient_feedback(cb, tsv, 0.1, 0.005);
  ASSERT_GE(seen_max.size(), 3u);
  EXPECT_NEAR(seen_max.front(), cfg.ambient_k, 1e-9);
  // Under constant power the observed peak must rise monotonically.
  for (std::size_t i = 1; i < seen_max.size(); ++i)
    EXPECT_GE(seen_max[i], seen_max[i - 1] - 1e-9);
  EXPECT_GT(seen_max.back(), cfg.ambient_k + 0.5);
}

TEST(TransientFeedback, MatchesOpenLoopWhenFeedbackIgnored) {
  const auto tech = tech_for(2, IntegrationFlavor::tsv_based);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 8;
  const GridSolver solver(tech, cfg);
  const GridD tsv(8, 8, 0.0);
  const auto power = [&](double) {
    return std::vector<GridD>(2, GridD(8, 8, 1.0 / 64.0));
  };
  const auto open = solver.solve_transient(power, tsv, 0.05, 0.005);
  const auto closed = solver.solve_transient_feedback(
      [&](double t, const std::vector<GridD>&) { return power(t); }, tsv,
      0.05, 0.005);
  ASSERT_EQ(open.trace.size(), closed.trace.size());
  for (std::size_t i = 0; i < open.trace.size(); ++i)
    EXPECT_DOUBLE_EQ(open.trace[i].die_peak_k[0],
                     closed.trace[i].die_peak_k[0]);
}

TEST(TransientFeedback, ControllerCanActuallyCoolTheStack) {
  // Closed-loop sanity: a bang-bang controller that cuts power when the
  // observed peak crosses a threshold must keep the stack cooler than
  // the uncontrolled run.
  const auto tech = tech_for(2, IntegrationFlavor::tsv_based);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 8;
  const GridSolver solver(tech, cfg);
  const GridD tsv(8, 8, 0.0);
  const double threshold = 310.0;
  const auto controlled = solver.solve_transient_feedback(
      [&](double, const std::vector<GridD>& die_temp) {
        double peak = 0.0;
        for (const auto& map : die_temp) peak = std::max(peak, map.max());
        const double watts = peak > threshold ? 0.5 : 4.0;
        return std::vector<GridD>(2, GridD(8, 8, watts / (2.0 * 64.0)));
      },
      tsv, 0.5, 0.005);
  const auto uncontrolled = solver.solve_transient(
      [&](double) {
        return std::vector<GridD>(2, GridD(8, 8, 4.0 / (2.0 * 64.0)));
      },
      tsv, 0.5, 0.005);
  EXPECT_LT(controlled.final_state.peak_k, uncontrolled.final_state.peak_k);
  // And it hovers near the threshold rather than collapsing to ambient.
  EXPECT_GT(controlled.final_state.peak_k, cfg.ambient_k + 2.0);
}

}  // namespace
}  // namespace tsc3d::thermal
