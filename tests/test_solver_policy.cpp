// Tests of backend auto-selection (thermal.solver = auto, EngineRole)
// and the solver-policy edge cases around it: auto resolves per engine
// role (fast_loop -> SOR, sampling/verify -> multigrid) while explicit
// backends force; non-coarsenable grids fall back to SOR bitwise; a
// single-level hierarchy degenerates without divergence; stalled
// V-cycles (strongly z-coupled monolithic stacks) hand the solve back
// to SOR and still meet the cross-backend accuracy contract, and a
// stalled transient stays on SOR to its end; and the multigrid
// transient path stays bitwise across thread counts (the *Parallel
// suite also runs under TSan on CI) and agrees with the SOR transient
// within the documented 1e-3 K bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "thermal/multigrid.hpp"
#include "thermal/thermal_engine.hpp"

namespace tsc3d::thermal {
namespace {

TechnologyConfig test_tech(std::size_t dies = 2) {
  TechnologyConfig t;
  t.die_width_um = 2000.0;
  t.die_height_um = 2000.0;
  t.num_dies = dies;
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

std::vector<GridD> test_power(std::size_t grid, std::size_t dies = 2) {
  std::vector<GridD> power(dies, GridD(grid, grid, 0.0));
  power[0].at(grid / 2, grid / 2) = 2.0;
  power[0].at(2, 3) = 0.7;
  power[1].at(grid - 3, grid - 2) = 1.1;
  return power;
}

GridD test_tsv(std::size_t grid) {
  GridD tsv(grid, grid, 0.1);
  tsv.at(4, 4) = 0.8;
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
  EXPECT_EQ(a.fmg_started, b.fmg_started);
  EXPECT_EQ(a.mg_stalled, b.mg_stalled);
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

// --- auto-selection ------------------------------------------------------

TEST(SolverPolicy, ResolveBackendMatrix) {
  // auto resolves by role; explicit backends are forced for every role.
  EXPECT_EQ(resolve_backend(SolverBackend::auto_select, EngineRole::fast_loop),
            SolverBackend::sor);
  EXPECT_EQ(resolve_backend(SolverBackend::auto_select, EngineRole::sampling),
            SolverBackend::multigrid);
  EXPECT_EQ(resolve_backend(SolverBackend::auto_select, EngineRole::verify),
            SolverBackend::multigrid);
  for (const EngineRole role :
       {EngineRole::fast_loop, EngineRole::sampling, EngineRole::verify}) {
    EXPECT_EQ(resolve_backend(SolverBackend::sor, role), SolverBackend::sor);
    EXPECT_EQ(resolve_backend(SolverBackend::multigrid, role),
              SolverBackend::multigrid);
  }
}

TEST(SolverPolicy, EngineResolvesAutoByRole) {
  const auto cfg = test_thermal(16, SolverBackend::auto_select);
  const auto power = test_power(16);
  const GridD tsv = test_tsv(16);

  // verify -> multigrid: cold solves V-cycle (FMG-seeded).
  ThermalEngine verify(test_tech(), cfg, {}, EngineRole::verify);
  const ThermalResult rv = verify.solve_steady(power, tsv);
  ASSERT_TRUE(rv.converged);
  EXPECT_GT(rv.vcycles, 0u);
  EXPECT_TRUE(rv.fmg_started);

  // fast_loop -> SOR: never a V-cycle, never an FMG start.
  ThermalEngine fast(test_tech(), cfg, {}, EngineRole::fast_loop);
  const ThermalResult rf = fast.solve_steady(power, tsv);
  ASSERT_TRUE(rf.converged);
  EXPECT_EQ(rf.vcycles, 0u);
  EXPECT_FALSE(rf.fmg_started);

  // Same physics either way.
  EXPECT_LT(max_abs_diff(rv, rf), 1e-3);
}

TEST(SolverPolicy, AutoFastLoopEngineMatchesForcedSorBitwise) {
  const auto power = test_power(16);
  const GridD tsv = test_tsv(16);
  ThermalEngine auto_fast(test_tech(),
                          test_thermal(16, SolverBackend::auto_select), {},
                          EngineRole::fast_loop);
  ThermalEngine forced(test_tech(), test_thermal(16, SolverBackend::sor));
  expect_bitwise_equal(auto_fast.solve_steady(power, tsv),
                       forced.solve_steady(power, tsv));
}

// --- degenerate hierarchies ----------------------------------------------

TEST(SolverPolicy, AutoOnNonCoarsenableGridFallsBackToSorBitwise) {
  // 6x6 halves below kMinExtent, so no coarse level exists: the verify
  // engine's multigrid resolution must degrade to the SOR loop with the
  // identical update sequence (same omega, same ordering).
  constexpr std::size_t g = 6;
  const auto power = test_power(g);
  const GridD tsv = test_tsv(g);
  ThermalEngine auto_verify(test_tech(),
                            test_thermal(g, SolverBackend::auto_select), {},
                            EngineRole::verify);
  ThermalEngine forced(test_tech(), test_thermal(g, SolverBackend::sor));
  const ThermalResult ra = auto_verify.solve_steady(power, tsv);
  EXPECT_EQ(ra.vcycles, 0u);
  EXPECT_FALSE(ra.fmg_started);  // FMG needs a usable hierarchy
  expect_bitwise_equal(ra, forced.solve_steady(power, tsv));
}

TEST(SolverPolicy, SingleLevelHierarchyDegeneratesWithoutDivergence) {
  // A 30x30 grid halves once, to 15x15, and stops: a LARGE coarsest
  // level, which the fixed-budget coarsest smoother cannot solve
  // accurately -- the cycle's contraction degrades, which is exactly
  // what the stall detector is for.  The contract here is graceful
  // degradation, not speed: the solve must converge (V-cycles, then
  // SOR fallback if they stall) and stay inside the accuracy contract.
  constexpr std::size_t g = 30;
  const auto power = test_power(g);
  const GridD tsv = test_tsv(g);
  ThermalEngine mg(test_tech(), test_thermal(g, SolverBackend::multigrid));
  const ThermalResult rm = mg.solve_steady(power, tsv);
  ASSERT_TRUE(rm.converged);
  EXPECT_GT(rm.vcycles, 0u);

  ThermalEngine sor(test_tech(), test_thermal(g, SolverBackend::sor));
  EXPECT_LT(max_abs_diff(rm, sor.solve_steady(power, tsv)), 1e-3);
}

TEST(SolverPolicy, FmgDisabledColdSolveStillConvergesAndAgrees) {
  // Every cold multigrid solve is FMG-seeded.  Plain V-cycles from a
  // flat ambient start remain reachable: install an all-ambient field
  // and warm-start from it, the arithmetic of a cold solve without the
  // seed.
  const ThermalConfig cfg = test_thermal(32, SolverBackend::multigrid);
  const auto power = test_power(32);
  const GridD tsv = test_tsv(32);
  ThermalEngine engine(test_tech(), cfg);
  const ThermalResult rf = engine.solve_steady(power, tsv);
  ASSERT_TRUE(rf.converged);
  EXPECT_TRUE(rf.fmg_started);

  FieldSnapshot ambient = engine.save_field();
  std::fill(ambient.temp.begin(), ambient.temp.end(), cfg.ambient_k);
  engine.restore_field(ambient);
  const ThermalResult rp = engine.solve_steady(power, tsv);
  ASSERT_TRUE(rp.converged);
  EXPECT_FALSE(rp.fmg_started);
  // The FMG seed exists to shrink the V-cycle loop.
  EXPECT_LE(rf.vcycles, rp.vcycles);
  EXPECT_LT(max_abs_diff(rp, rf), 1e-3);
}

TEST(SolverPolicy, MultigridBudgetExhaustionReportsNotConverged) {
  ThermalConfig cfg = test_thermal(16, SolverBackend::multigrid);
  cfg.max_iterations = 3;  // less than one cycle's 2 * kSmoothSweeps
  cfg.tolerance_k = 1e-13;
  ThermalEngine engine(test_tech(), cfg);
  const ThermalResult res =
      engine.solve_steady(test_power(16), test_tsv(16));
  EXPECT_FALSE(res.converged);
  EXPECT_GT(res.iterations, 0u);
  EXPECT_GT(res.residual_k, 0.0);
}

// --- stall fallback (monolithic stacks) ----------------------------------

TEST(SolverPolicy, StalledVcyclesFallBackToSorAndConverge) {
  // Monolithic bonding couples adjacent layers through sub-um ILD, so
  // vertical conductance dwarfs lateral and the point-smoothed V-cycle
  // stops contracting; the engine must detect that and finish with SOR
  // sweeps -- converged, and still inside the 1e-3 K contract.
  const TechnologyConfig tech = make_monolithic(test_tech(4));
  const auto power = test_power(16, 4);
  const GridD tsv = test_tsv(16);
  ThermalEngine mg(tech, test_thermal(16, SolverBackend::multigrid));
  const ThermalResult rm = mg.solve_steady(power, tsv);
  ASSERT_TRUE(rm.converged);
  EXPECT_TRUE(rm.mg_stalled);
  EXPECT_EQ(mg.stats().mg_stalls, 1u);

  ThermalEngine sor(tech, test_thermal(16, SolverBackend::sor));
  const ThermalResult rs = sor.solve_steady(power, tsv);
  ASSERT_TRUE(rs.converged);
  EXPECT_LT(max_abs_diff(rm, rs), 1e-3);
}

TEST(SolverPolicy, TsvStackDoesNotTripTheStallDetector) {
  ThermalEngine mg(test_tech(), test_thermal(32, SolverBackend::multigrid));
  const ThermalResult res = mg.solve_steady(test_power(32), test_tsv(32));
  ASSERT_TRUE(res.converged);
  EXPECT_FALSE(res.mg_stalled);
  EXPECT_EQ(mg.stats().mg_stalls, 0u);
}

TEST(SolverPolicy, TransientStallIsStickyForTheRestOfTheTransient) {
  // A monolithic transient stalls like a monolithic steady solve.  The
  // implicit-Euler operator is the same every step, so the stall is
  // sticky: the step that stalls finishes on SOR, and every later step
  // runs SOR alone.  The whole transient therefore counts one stall and
  // only the first step's cycles (one that sets the contraction
  // reference plus kMgStallCycles that fail it).
  const TechnologyConfig tech = make_monolithic(test_tech(4));
  constexpr std::size_t g = 16;
  const auto power = test_power(g, 4);
  const GridD tsv = test_tsv(g);
  ThermalEngine mg(tech, test_thermal(g, SolverBackend::multigrid));
  const TransientResult rm =
      mg.solve_transient([&](double) { return power; }, tsv, 1.0, 0.25);
  ASSERT_EQ(rm.unconverged_steps, 0u);
  EXPECT_TRUE(rm.final_state.mg_stalled);
  EXPECT_EQ(rm.final_state.vcycles, 4u);
  EXPECT_EQ(mg.stats().vcycles, 4u);
  EXPECT_EQ(mg.stats().mg_stalls, 1u);

  ThermalEngine sor(tech, test_thermal(g, SolverBackend::sor));
  const TransientResult rs =
      sor.solve_transient([&](double) { return power; }, tsv, 1.0, 0.25);
  ASSERT_EQ(rs.unconverged_steps, 0u);
  EXPECT_LT(max_abs_diff(rm.final_state, rs.final_state), 1e-3);

  // The stall does not outlive the transient: a cold steady solve on
  // the same engine V-cycles again and stalls on its own.
  const ThermalResult steady =
      mg.solve_steady(power, tsv, ThermalEngine::Start::cold);
  ASSERT_TRUE(steady.converged);
  EXPECT_GT(steady.vcycles, 0u);
  EXPECT_TRUE(steady.mg_stalled);
  EXPECT_EQ(mg.stats().mg_stalls, 2u);
}

// --- transient multigrid (runs under TSan on CI) -------------------------

void expect_transient_bitwise_equal(const TransientResult& a,
                                    const TransientResult& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.unconverged_steps, b.unconverged_steps);
  expect_bitwise_equal(a.final_state, b.final_state);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t s = 0; s < a.trace.size(); ++s)
    for (std::size_t d = 0; d < a.trace[s].die_peak_k.size(); ++d) {
      ASSERT_EQ(a.trace[s].die_peak_k[d], b.trace[s].die_peak_k[d]);
      ASSERT_EQ(a.trace[s].die_mean_k[d], b.trace[s].die_mean_k[d]);
    }
}

TEST(ThermalEngineTransientMultigridParallel, StiffStepsBitwiseAcrossThreads) {
  // dt far above the stack's thermal time constants leaves (G + C/dt)
  // close to the steady operator -- the regime where per-step SOR grinds
  // and the V-cycle path earns its keep.  The sharded fine sweep must
  // keep the whole trajectory bitwise identical to serial.
  constexpr std::size_t g = 16;
  const auto power = test_power(g);
  const GridD tsv = test_tsv(g);
  ThermalEngine serial(test_tech(), test_thermal(g, SolverBackend::multigrid));
  const TransientResult reference = serial.solve_transient(
      [&](double) { return power; }, tsv, 1.0, 0.25);
  ASSERT_EQ(reference.unconverged_steps, 0u);
  ASSERT_GT(reference.final_state.vcycles, 0u);  // the cycles engaged

  for (const std::size_t threads : {2u, 4u}) {
    ThermalEngine sharded(test_tech(),
                          test_thermal(g, SolverBackend::multigrid),
                          {.threads = threads, .min_nodes_per_thread = 1});
    expect_transient_bitwise_equal(
        reference, sharded.solve_transient([&](double) { return power; },
                                           tsv, 1.0, 0.25));
  }
}

TEST(ThermalEngineTransientMultigridParallel, AgreesWithSorTransient) {
  constexpr std::size_t g = 16;
  const auto power = test_power(g);
  const GridD tsv = test_tsv(g);
  ThermalEngine mg(test_tech(), test_thermal(g, SolverBackend::multigrid));
  const TransientResult rm = mg.solve_transient(
      [&](double) { return power; }, tsv, 1.0, 0.25);
  ThermalEngine sor(test_tech(), test_thermal(g, SolverBackend::sor));
  const TransientResult rs = sor.solve_transient(
      [&](double) { return power; }, tsv, 1.0, 0.25);
  ASSERT_EQ(rm.unconverged_steps, 0u);
  ASSERT_EQ(rs.unconverged_steps, 0u);
  EXPECT_LT(max_abs_diff(rm.final_state, rs.final_state), 1e-3);
  // The point of V-cycling stiff steps: fewer fine-level sweeps total.
  EXPECT_LT(rm.total_iterations, rs.total_iterations);
}

TEST(ThermalEngineTransientMultigridParallel, EquilibriumFastPathSkipsCycles) {
  // The single plain smoothing sweep that opens each step doubles as
  // the convergence measure, and its max update is bounded below by the
  // physical per-step temperature change -- so the no-V-cycle fast path
  // is reachable exactly when the trajectory sits at equilibrium.  An
  // ambient-start zero-power hold must therefore cost one sweep per
  // step and never engage a cycle.
  constexpr std::size_t g = 16;
  const std::vector<GridD> power(2, GridD(g, g, 0.0));
  const GridD tsv = test_tsv(g);
  ThermalEngine mg(test_tech(),
                   test_thermal(g, SolverBackend::multigrid, 1e-4));
  const TransientResult res = mg.solve_transient(
      [&](double) { return power; }, tsv, 0.05, 0.01);
  EXPECT_EQ(res.unconverged_steps, 0u);
  EXPECT_EQ(res.final_state.vcycles, 0u);
  EXPECT_EQ(res.total_iterations, res.steps);
}

}  // namespace
}  // namespace tsc3d::thermal
