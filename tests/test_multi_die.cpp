// Tests of the >2-die generality (the paper's Sec. 8 future-work
// direction): stack construction, thermal solve, fast estimation, and
// layout state across taller stacks.
#include <gtest/gtest.h>

#include "floorplan/annealer.hpp"
#include "benchgen/generator.hpp"
#include "thermal/grid_solver.hpp"
#include "thermal/power_blur.hpp"

namespace tsc3d {
namespace {

TechnologyConfig tech_with_dies(std::size_t dies) {
  TechnologyConfig t;
  t.num_dies = dies;
  t.die_width_um = t.die_height_um = 2000.0;
  return t;
}

ThermalConfig small_cfg() {
  ThermalConfig c;
  c.grid_nx = c.grid_ny = 12;
  return c;
}

TEST(MultiDie, ThreeDieSolveConservesEnergy) {
  const thermal::GridSolver solver(tech_with_dies(3), small_cfg());
  std::vector<GridD> power(3, GridD(12, 12, 0.0));
  power[0].at(6, 6) = 1.0;
  power[1].at(3, 3) = 1.0;
  power[2].at(9, 9) = 1.0;
  const thermal::ThermalResult res =
      solver.solve_steady(power, GridD(12, 12, 0.0));
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.die_temperature.size(), 3u);
  EXPECT_NEAR(res.heat_to_sink_w + res.heat_to_package_w, 3.0, 0.05);
}

TEST(MultiDie, MiddleDieHotterThanTopForSamePower) {
  // Heat injected mid-stack has a longer path to the sink than heat
  // injected in the top die.
  const thermal::GridSolver solver(tech_with_dies(3), small_cfg());
  const GridD tsv(12, 12, 0.0);
  std::vector<GridD> mid(3, GridD(12, 12, 0.0));
  mid[1].at(6, 6) = 2.0;
  std::vector<GridD> top(3, GridD(12, 12, 0.0));
  top[2].at(6, 6) = 2.0;
  EXPECT_GT(solver.solve_steady(mid, tsv).peak_k,
            solver.solve_steady(top, tsv).peak_k);
}

TEST(MultiDie, PowerBlurHandlesThreeDies) {
  const thermal::GridSolver solver(tech_with_dies(3), small_cfg());
  const thermal::PowerBlur blur(solver.engine(), 4);
  std::vector<GridD> power(3, GridD(12, 12, 0.0));
  power[1].at(6, 6) = 1.5;
  const std::vector<GridD> est = blur.estimate(power, GridD(12, 12, 0.0));
  ASSERT_EQ(est.size(), 3u);
  // The heated die is the hottest in the estimate too.
  EXPECT_GE(est[1].max(), est[0].max() - 1e-9);
  EXPECT_GT(est[1].max(), 293.15);
}

TEST(MultiDie, LayoutStateSpreadsModulesOverFourDies) {
  benchgen::BenchmarkSpec spec;
  spec.name = "quad";
  spec.soft_modules = 40;
  spec.num_nets = 60;
  spec.num_terminals = 4;
  spec.outline_mm2 = 4.0;
  spec.power_w = 4.0;
  Floorplan3D fp = benchgen::generate(spec, 11);
  fp.tech().num_dies = 4;
  Rng rng(2);
  const floorplan::LayoutState s = floorplan::LayoutState::initial(fp, rng);
  ASSERT_EQ(s.die_sp.size(), 4u);
  for (const auto& sp : s.die_sp) EXPECT_GT(sp.size(), 0u);
  s.apply_to(fp);
  // Area roughly balanced: no die holds more than half the total.
  double total = 0.0;
  std::vector<double> per_die(4, 0.0);
  for (const Module& m : fp.modules()) {
    per_die[m.die] += m.area_um2;
    total += m.area_um2;
  }
  for (const double a : per_die) EXPECT_LT(a, 0.5 * total);
}

TEST(MultiDie, StackLayerOrderingForFourDies) {
  const thermal::LayerStack s =
      thermal::build_stack(tech_with_dies(4), small_cfg());
  // Die layer indices strictly increase bottom to top.
  for (std::size_t d = 1; d < 4; ++d)
    EXPECT_GT(s.layer_of_die[d], s.layer_of_die[d - 1]);
  // Every inter-die bond layer is a TSV layer.
  std::size_t tsv_layers = 0;
  for (const auto& l : s.layers) tsv_layers += l.tsv_layer ? 1 : 0;
  // 3 bonds + 3 traversed upper bulks.
  EXPECT_EQ(tsv_layers, 6u);
}

}  // namespace
}  // namespace tsc3d
