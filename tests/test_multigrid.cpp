// Tests of the geometric multigrid solver backend (thermal/multigrid.hpp)
// and the SolverPolicy dispatch: multigrid results must agree with the
// SOR backend within the engine's documented accuracy contract (1e-3 K
// at tolerance_k = 1e-6 -- the same bound the warm/cold tests use),
// converge in far fewer fine-level sweeps on cold solves, fall back to
// SOR on grids that cannot coarsen, and stay BITWISE deterministic
// across thread counts.  The *Parallel suite also runs under TSan on CI.
#include <gtest/gtest.h>

#include <cmath>

#include "thermal/multigrid.hpp"
#include "thermal/thermal_engine.hpp"

namespace tsc3d::thermal {
namespace {

TechnologyConfig test_tech() {
  TechnologyConfig t;
  t.die_width_um = 2000.0;
  t.die_height_um = 2000.0;
  return t;
}

ThermalConfig test_thermal(std::size_t grid, SolverBackend backend,
                           double tolerance = 1e-6) {
  ThermalConfig c;
  c.grid_nx = c.grid_ny = grid;
  c.solver = backend;
  c.tolerance_k = tolerance;
  return c;
}

std::vector<GridD> test_power(std::size_t grid) {
  std::vector<GridD> power(2, GridD(grid, grid, 0.0));
  power[0].at(grid / 2, grid / 2) = 2.0;
  power[0].at(2, 3) = 0.7;
  power[1].at(grid - 3, grid - 2) = 1.1;
  return power;
}

GridD test_tsv(std::size_t grid) {
  GridD tsv(grid, grid, 0.1);
  tsv.at(4, 4) = 0.8;
  tsv.at(grid - 5, 6) = 0.5;
  return tsv;
}

double max_abs_diff(const ThermalResult& a, const ThermalResult& b) {
  EXPECT_EQ(a.layer_temperature.size(), b.layer_temperature.size());
  double max_diff = 0.0;
  for (std::size_t l = 0; l < a.layer_temperature.size(); ++l)
    for (std::size_t c = 0; c < a.layer_temperature[l].size(); ++c)
      max_diff = std::max(max_diff, std::abs(a.layer_temperature[l][c] -
                                             b.layer_temperature[l][c]));
  return max_diff;
}

void expect_bitwise_equal(const ThermalResult& a, const ThermalResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.vcycles, b.vcycles);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.residual_k, b.residual_k);  // exact: same update sequence
  EXPECT_EQ(a.peak_k, b.peak_k);
  ASSERT_EQ(a.layer_temperature.size(), b.layer_temperature.size());
  for (std::size_t l = 0; l < a.layer_temperature.size(); ++l) {
    ASSERT_EQ(a.layer_temperature[l].size(), b.layer_temperature[l].size());
    for (std::size_t c = 0; c < a.layer_temperature[l].size(); ++c)
      ASSERT_EQ(a.layer_temperature[l][c], b.layer_temperature[l][c])
          << "layer " << l << " cell " << c;
  }
}

// --- correctness ---------------------------------------------------------

TEST(ThermalEngineMultigrid, AgreesWithSorWithinAccuracyContract) {
  // The documented contract: at tolerance_k = 1e-6, any two converged
  // solves of the same problem agree within 1e-3 K -- across warm/cold
  // starts (PR 2) and now across backends.
  constexpr std::size_t g = 32;
  const auto power = test_power(g);
  const GridD tsv = test_tsv(g);
  ThermalEngine sor(test_tech(), test_thermal(g, SolverBackend::sor));
  ThermalEngine mg(test_tech(), test_thermal(g, SolverBackend::multigrid));
  const ThermalResult rs = sor.solve_steady(power, tsv);
  const ThermalResult rm = mg.solve_steady(power, tsv);
  ASSERT_TRUE(rs.converged);
  ASSERT_TRUE(rm.converged);
  EXPECT_EQ(rs.vcycles, 0u);
  EXPECT_GT(rm.vcycles, 0u);
  EXPECT_LE(max_abs_diff(rs, rm), 1e-3);
  EXPECT_NEAR(rs.peak_k, rm.peak_k, 1e-3);
  EXPECT_NEAR(rs.heat_to_sink_w + rs.heat_to_package_w,
              rm.heat_to_sink_w + rm.heat_to_package_w, 1e-3);
}

TEST(ThermalEngineMultigrid, ColdSolveUsesFarFewerSweepsThanSor) {
  constexpr std::size_t g = 32;
  const auto power = test_power(g);
  const GridD tsv = test_tsv(g);
  ThermalEngine sor(test_tech(), test_thermal(g, SolverBackend::sor));
  ThermalEngine mg(test_tech(), test_thermal(g, SolverBackend::multigrid));
  const ThermalResult rs = sor.solve_steady(power, tsv);
  const ThermalResult rm = mg.solve_steady(power, tsv);
  ASSERT_TRUE(rs.converged);
  ASSERT_TRUE(rm.converged);
  // SOR needs hundreds of sweeps cold; the V-cycle a few dozen.  A 4x
  // margin keeps the assertion robust while still proving the point.
  EXPECT_LT(rm.iterations * 4, rs.iterations);
  EXPECT_EQ(mg.stats().vcycles, rm.vcycles);
}

TEST(ThermalEngineMultigrid, WarmStartAgreesAndReportsReuse) {
  constexpr std::size_t g = 20;
  auto power = test_power(g);
  const GridD tsv = test_tsv(g);
  ThermalEngine mg(test_tech(), test_thermal(g, SolverBackend::multigrid));
  const ThermalResult cold = mg.solve_steady(power, tsv);
  power[0].at(5, 7) = 0.4;
  const ThermalResult warm = mg.solve_steady(power, tsv);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_TRUE(warm.assembly_reused);
  ASSERT_TRUE(warm.converged);

  ThermalEngine fresh(test_tech(), test_thermal(g, SolverBackend::multigrid));
  const ThermalResult ref = fresh.solve_steady(power, tsv);
  EXPECT_LE(max_abs_diff(warm, ref), 1e-3);
  (void)cold;
}

TEST(ThermalEngineMultigrid, NonCoarsenableGridFallsBackToSorBitwise) {
  // 6x6 would coarsen to 3x3, below the minimum extent: no hierarchy,
  // and the dispatch must degrade to plain SOR -- bitwise, since it is
  // the identical sweep sequence.  (Maps are hand-made: the shared
  // fixtures index outside a grid this small.)
  constexpr std::size_t g = 6;
  std::vector<GridD> power(2, GridD(g, g, 0.0));
  power[0].at(3, 3) = 2.0;
  power[1].at(1, 4) = 0.9;
  GridD tsv(g, g, 0.1);
  tsv.at(2, 2) = 0.7;
  ThermalEngine sor(test_tech(), test_thermal(g, SolverBackend::sor));
  ThermalEngine mg(test_tech(), test_thermal(g, SolverBackend::multigrid));
  const ThermalResult rs = sor.solve_steady(power, tsv);
  const ThermalResult rm = mg.solve_steady(power, tsv);
  EXPECT_EQ(rm.vcycles, 0u);
  expect_bitwise_equal(rs, rm);
}

TEST(ThermalEngineMultigrid, MgLevelsCapsTheHierarchyDepth) {
  // The grid caps the depth: 18x18 halves once, to 9x9, and the odd
  // extent stops the coarsening there.  The resulting two-grid cycle
  // needs more cycles than a full-depth one, but it converges without
  // stalling and keeps the cross-backend contract.
  constexpr std::size_t g = 18;
  const auto power = test_power(g);
  const GridD tsv = test_tsv(g);
  ThermalEngine shallow(test_tech(), test_thermal(g, SolverBackend::multigrid));
  const ThermalResult r = shallow.solve_steady(power, tsv);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.vcycles, 0u);
  EXPECT_FALSE(r.mg_stalled);

  ThermalEngine sor(test_tech(), test_thermal(g, SolverBackend::sor));
  EXPECT_LT(max_abs_diff(r, sor.solve_steady(power, tsv)), 1e-3);
}

TEST(ThermalEngineMultigrid, HierarchyCoarsensConservatively) {
  // The aggregated coarse operator must preserve total boundary
  // conductance and capacitance (parallel paths add): build a hierarchy
  // from a hand-made uniform assembly and check the invariants.
  Assembly fine;
  fine.nx = fine.ny = 8;
  fine.nl = 2;
  const std::size_t n = fine.num_nodes();
  fine.g_xm.assign(n, 0.0);
  fine.g_xp.assign(n, 0.0);
  fine.g_ym.assign(n, 0.0);
  fine.g_yp.assign(n, 0.0);
  fine.g_zm.assign(n, 0.0);
  fine.g_zp.assign(n, 0.0);
  fine.cap.assign(n, 3.0);
  fine.bound_rhs.assign(n, 1.5);
  fine.g_sink.assign(fine.nx * fine.ny, 2.0);
  fine.g_pkg.assign(fine.nx * fine.ny, 0.5);
  for (std::size_t l = 0; l < fine.nl; ++l)
    for (std::size_t iy = 0; iy < fine.ny; ++iy)
      for (std::size_t ix = 0; ix < fine.nx; ++ix) {
        const std::size_t i = (l * fine.ny + iy) * fine.nx + ix;
        if (ix > 0) fine.g_xm[i] = 1.0;
        if (ix + 1 < fine.nx) fine.g_xp[i] = 1.0;
        if (iy > 0) fine.g_ym[i] = 1.0;
        if (iy + 1 < fine.ny) fine.g_yp[i] = 1.0;
        if (l + 1 < fine.nl) fine.g_zp[i] = 4.0;
        if (l > 0) fine.g_zm[i] = 4.0;
      }
  fine.diag_static.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    fine.diag_static[i] = fine.g_xm[i] + fine.g_xp[i] + fine.g_ym[i] +
                          fine.g_yp[i] + fine.g_zm[i] + fine.g_zp[i];

  MultigridHierarchy h;
  h.build(fine);
  ASSERT_TRUE(h.usable());
  EXPECT_EQ(h.levels().size(), 1u);  // 8 -> 4, then 2 < kMinExtent
  const Assembly& c = h.levels()[0].a;
  EXPECT_EQ(c.nx, 4u);
  EXPECT_EQ(c.ny, 4u);
  EXPECT_EQ(c.nl, 2u);

  auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  // Parallel-path aggregates are exactly preserved...
  EXPECT_DOUBLE_EQ(sum(c.g_sink), sum(fine.g_sink));
  EXPECT_DOUBLE_EQ(sum(c.g_pkg), sum(fine.g_pkg));
  EXPECT_DOUBLE_EQ(sum(c.cap), sum(fine.cap));
  EXPECT_DOUBLE_EQ(sum(c.g_zp), sum(fine.g_zp));
  EXPECT_DOUBLE_EQ(sum(c.bound_rhs), sum(fine.bound_rhs));
  // ...and uniform lateral conductance is invariant under 2x coarsening
  // (k * t * H / W with H and W both doubled).
  for (std::size_t l = 0; l < c.nl; ++l)
    for (std::size_t iy = 0; iy < c.ny; ++iy)
      for (std::size_t ix = 0; ix + 1 < c.nx; ++ix)
        EXPECT_DOUBLE_EQ(c.g_xp[(l * c.ny + iy) * c.nx + ix], 1.0);
}

// --- tolerance scale -----------------------------------------------------

TEST(ThermalEngineMultigrid, ToleranceScheduleTradesSweepsForAccuracy) {
  constexpr std::size_t g = 20;
  const auto power = test_power(g);
  const GridD tsv = test_tsv(g);
  for (const SolverBackend backend :
       {SolverBackend::sor, SolverBackend::multigrid}) {
    ThermalEngine exact(test_tech(), test_thermal(g, backend, 1e-6));
    const ThermalResult tight = exact.solve_steady(power, tsv);

    ThermalEngine coarse(test_tech(), test_thermal(g, backend, 1e-6));
    coarse.set_tolerance_scale(1000.0);
    EXPECT_DOUBLE_EQ(coarse.policy().tolerance_scale, 1000.0);
    const ThermalResult loose = coarse.solve_steady(power, tsv);
    ASSERT_TRUE(loose.converged);
    EXPECT_LT(loose.iterations, tight.iterations);
    // Looser stopping, but still a convergent iteration on the same
    // fixed point: the fields stay close.
    EXPECT_LE(max_abs_diff(tight, loose), 0.5);

    // Tightening back restores the contract accuracy.
    coarse.set_tolerance_scale(1.0);
    const ThermalResult again =
        coarse.solve_steady(power, tsv, ThermalEngine::Start::cold);
    ASSERT_TRUE(again.converged);
    EXPECT_LE(max_abs_diff(tight, again), 1e-3);
  }
}

TEST(ThermalEngineMultigrid, ToleranceScaleClampsBelowOne) {
  ThermalEngine engine(test_tech(),
                       test_thermal(16, SolverBackend::sor, 1e-4));
  engine.set_tolerance_scale(0.01);  // must clamp: never tighter than cfg
  EXPECT_DOUBLE_EQ(engine.policy().tolerance_scale, 1.0);
  engine.set_tolerance_scale(8.0);
  EXPECT_DOUBLE_EQ(engine.policy().tolerance_scale, 8.0);
}

// --- thread determinism (runs under TSan on CI) --------------------------

TEST(ThermalEngineMultigridParallel, ColdSolveBitwiseAcrossThreadCounts) {
  constexpr std::size_t g = 20;
  const auto power = test_power(g);
  const GridD tsv = test_tsv(g);
  ThermalEngine serial(test_tech(), test_thermal(g, SolverBackend::multigrid));
  const ThermalResult reference = serial.solve_steady(power, tsv);
  ASSERT_TRUE(reference.converged);
  ASSERT_GT(reference.vcycles, 0u);

  for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
    ThermalEngine sharded(test_tech(),
                          test_thermal(g, SolverBackend::multigrid),
                          {.threads = threads, .min_nodes_per_thread = 1});
    EXPECT_EQ(sharded.threads(), threads);
    expect_bitwise_equal(reference, sharded.solve_steady(power, tsv));
  }
}

TEST(ThermalEngineMultigridParallel, WarmSequenceBitwiseAcrossThreads) {
  ThermalEngine serial(test_tech(),
                       test_thermal(20, SolverBackend::multigrid));
  ThermalEngine sharded(test_tech(),
                        test_thermal(20, SolverBackend::multigrid),
                        {.threads = 4, .min_nodes_per_thread = 1});
  auto power = test_power(20);
  const GridD tsv = test_tsv(20);
  for (int step = 0; step < 4; ++step) {
    power[0].at(5 + static_cast<std::size_t>(step), 7) = 0.4 + 0.3 * step;
    expect_bitwise_equal(serial.solve_steady(power, tsv),
                         sharded.solve_steady(power, tsv));
  }
  EXPECT_EQ(serial.stats().total_sweeps, sharded.stats().total_sweeps);
  EXPECT_EQ(serial.stats().vcycles, sharded.stats().vcycles);
}

}  // namespace
}  // namespace tsc3d::thermal
