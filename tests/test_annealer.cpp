// Tests of LayoutState and the simulated-annealing engine on small
// instances (kept tiny so the suite stays fast).
#include <gtest/gtest.h>

#include <stdexcept>

#include "benchgen/generator.hpp"
#include "floorplan/annealer.hpp"

namespace tsc3d::floorplan {
namespace {

/// A reduced n100-style instance: ~24 modules on a small outline.
Floorplan3D small_instance(std::uint64_t seed) {
  benchgen::BenchmarkSpec spec;
  spec.name = "tiny";
  spec.soft_modules = 24;
  spec.num_nets = 40;
  spec.num_terminals = 8;
  spec.outline_mm2 = 4.0;
  spec.power_w = 2.0;
  return benchgen::generate(spec, seed);
}

ThermalConfig fast_cfg() {
  ThermalConfig c;
  c.grid_nx = c.grid_ny = 16;
  return c;
}

/// The in-loop engine the flow gives every chain, at the test grid.
thermal::ThermalEngine fast_engine(const Floorplan3D& fp) {
  return thermal::ThermalEngine(fp.tech(), fast_cfg(), {},
                                thermal::EngineRole::fast_loop);
}

TEST(LayoutState, InitialCoversAllModules) {
  Floorplan3D fp = small_instance(1);
  Rng rng(1);
  const LayoutState s = LayoutState::initial(fp, rng);
  std::size_t total = 0;
  for (const SequencePair& sp : s.die_sp) total += sp.size();
  EXPECT_EQ(total, fp.modules().size());
  EXPECT_EQ(s.die_of.size(), fp.modules().size());
  for (std::size_t i = 0; i < s.die_of.size(); ++i)
    EXPECT_TRUE(s.die_sp[s.die_of[i]].contains(i));
}

TEST(LayoutState, ThermalDesignRuleSendsHotModulesUp) {
  Floorplan3D fp = small_instance(2);
  Rng rng(2);
  const LayoutState s = LayoutState::initial(fp, rng, true);
  // Mean power density on the top die must exceed the bottom die's.
  double dens[2] = {0.0, 0.0};
  double area[2] = {0.0, 0.0};
  for (std::size_t i = 0; i < s.die_of.size(); ++i) {
    dens[s.die_of[i]] += fp.modules()[i].power_w;
    area[s.die_of[i]] += fp.modules()[i].area_um2;
  }
  EXPECT_GT(dens[1] / area[1], dens[0] / area[0]);
}

TEST(LayoutState, ApplyWritesShapesAndDies) {
  Floorplan3D fp = small_instance(3);
  Rng rng(3);
  const LayoutState s = LayoutState::initial(fp, rng);
  s.apply_to(fp);
  for (std::size_t i = 0; i < fp.modules().size(); ++i) {
    const Module& m = fp.modules()[i];
    EXPECT_EQ(m.die, s.die_of[i]);
    EXPECT_GT(m.shape.w, 0.0);
    EXPECT_NEAR(m.shape.area(), m.area_um2, m.area_um2 * 1e-9);
  }
  // Sequence-pair packings never overlap.
  const LegalityReport rep = fp.check_legality();
  EXPECT_EQ(rep.overlap_count, 0u);
}

TEST(LayoutState, ApplyRequiresTracking) {
  // Every state the annealer publishes carries layout stamps; a state
  // assembled by hand must allocate them before apply_to().
  Floorplan3D fp = small_instance(3);
  Rng rng(3);
  const LayoutState tracked = LayoutState::initial(fp, rng);
  LayoutState bare;
  bare.die_sp = tracked.die_sp;
  bare.width = tracked.width;
  bare.height = tracked.height;
  bare.die_of = tracked.die_of;
  EXPECT_THROW(bare.apply_to(fp), std::logic_error);
  bare.init_tracking(bare.die_sp.size());
  EXPECT_NO_THROW(bare.apply_to(fp));
}

class AnnealerFixture : public ::testing::Test {
 protected:
  AnnealerFixture() : fp_(small_instance(4)), engine_(fast_engine(fp_)) {}

  CostEvaluator::Options eval_options(bool tsc) {
    CostEvaluator::Options o;
    o.weights = tsc ? tsc_aware_weights() : power_aware_weights();
    o.leakage_grid = 16;
    return o;
  }

  Floorplan3D fp_;
  thermal::ThermalEngine engine_;
};

TEST_F(AnnealerFixture, FindsLegalFloorplan) {
  CostEvaluator eval(fp_, engine_, eval_options(false));
  AnnealOptions opt;
  opt.total_moves = 4000;
  opt.stages = 20;
  opt.full_eval_interval = 200;
  Annealer annealer(fp_, eval, opt);
  Rng rng(7);
  LayoutState state = LayoutState::initial(fp_, rng);
  const AnnealStats stats = annealer.run(state, rng);
  EXPECT_GT(stats.moves, 0u);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_TRUE(stats.found_legal);
  const LegalityReport rep = fp_.check_legality();
  EXPECT_TRUE(rep.legal) << "overlaps=" << rep.overlap_count
                         << " outline=" << rep.outline_violations;
}

TEST_F(AnnealerFixture, ImprovesOverInitialCost) {
  CostEvaluator eval(fp_, engine_, eval_options(false));
  Rng rng(8);
  LayoutState state = LayoutState::initial(fp_, rng);
  state.apply_to(fp_);
  const double initial = eval.evaluate_full().total;
  AnnealOptions opt;
  opt.total_moves = 4000;
  opt.stages = 20;
  opt.full_eval_interval = 200;
  Annealer annealer(fp_, eval, opt);
  const AnnealStats stats = annealer.run(state, rng);
  EXPECT_LT(stats.best_cost, initial);
}

TEST_F(AnnealerFixture, EscalationRaisesOutlineWeightWhileIllegal) {
  // A crowded instance (85% utilization) with a minimal budget: stages
  // that end illegal must escalate the evaluator's outline weight.
  benchgen::BenchmarkSpec spec;
  spec.name = "crowded";
  spec.soft_modules = 30;
  spec.num_nets = 40;
  spec.num_terminals = 4;
  spec.outline_mm2 = 4.0;
  spec.power_w = 2.0;
  benchgen::GeneratorOptions gen;
  gen.target_utilization = 0.85;
  Floorplan3D fp = benchgen::generate(spec, 17, gen);
  thermal::ThermalEngine engine = fast_engine(fp);
  CostEvaluator::Options o;
  o.leakage_grid = 16;
  CostEvaluator eval(fp, engine, o);
  const double w0 = eval.outline_weight();

  AnnealOptions opt;
  opt.total_moves = 600;  // deliberately too small to finish legal
  opt.stages = 12;
  opt.full_eval_interval = 200;
  opt.repair_fraction = 0.0;  // isolate the escalation mechanism
  Annealer annealer(fp, eval, opt);
  Rng rng(18);
  LayoutState state = LayoutState::initial(fp, rng);
  const AnnealStats stats = annealer.run(state, rng);
  if (!stats.found_legal) {
    EXPECT_GT(eval.outline_weight(), w0);
  }
}

TEST_F(AnnealerFixture, EscalationCanBeDisabled) {
  CostEvaluator eval(fp_, engine_, eval_options(false));
  const double w0 = eval.outline_weight();
  AnnealOptions opt;
  opt.total_moves = 500;
  opt.stages = 10;
  opt.outline_escalation = 1.0;
  opt.repair_fraction = 0.0;
  Annealer annealer(fp_, eval, opt);
  Rng rng(19);
  LayoutState state = LayoutState::initial(fp_, rng);
  (void)annealer.run(state, rng);
  EXPECT_DOUBLE_EQ(eval.outline_weight(), w0);
}

TEST_F(AnnealerFixture, RepairPhaseRunsOnlyWhenIllegal) {
  // Roomy instance: SA finds a legal plan, so no repair moves are spent.
  CostEvaluator eval(fp_, engine_, eval_options(false));
  AnnealOptions opt;
  opt.total_moves = 4000;
  opt.stages = 20;
  opt.full_eval_interval = 200;
  Annealer annealer(fp_, eval, opt);
  Rng rng(20);
  LayoutState state = LayoutState::initial(fp_, rng);
  const AnnealStats stats = annealer.run(state, rng);
  if (stats.found_legal) {
    EXPECT_EQ(stats.repair_moves, 0u);
  }
}

TEST_F(AnnealerFixture, CrowdedInstanceBecomesLegalWithFullMachinery) {
  // The end-to-end claim: escalation + repair recover legality on a
  // crowded instance where a plain weight would leave overhang.
  benchgen::BenchmarkSpec spec;
  spec.name = "crowded2";
  spec.soft_modules = 30;
  spec.num_nets = 40;
  spec.num_terminals = 4;
  spec.outline_mm2 = 4.0;
  spec.power_w = 2.0;
  benchgen::GeneratorOptions gen;
  gen.target_utilization = 0.80;
  Floorplan3D fp = benchgen::generate(spec, 23, gen);
  thermal::ThermalEngine engine = fast_engine(fp);
  CostEvaluator::Options o;
  o.leakage_grid = 16;
  CostEvaluator eval(fp, engine, o);
  AnnealOptions opt;
  opt.total_moves = 8000;
  opt.stages = 25;
  opt.full_eval_interval = 300;
  Annealer annealer(fp, eval, opt);
  Rng rng(24);
  LayoutState state = LayoutState::initial(fp, rng);
  const AnnealStats stats = annealer.run(state, rng);
  EXPECT_TRUE(stats.found_legal);
  EXPECT_TRUE(fp.check_legality().legal);
}

TEST_F(AnnealerFixture, DeterministicGivenSeed) {
  AnnealOptions opt;
  opt.total_moves = 1500;
  opt.stages = 10;
  opt.full_eval_interval = 100;

  auto run_once = [&](std::uint64_t seed) {
    Floorplan3D fp = small_instance(4);
    thermal::ThermalEngine engine = fast_engine(fp);
    CostEvaluator::Options o;
    o.leakage_grid = 16;
    CostEvaluator eval(fp, engine, o);
    Annealer annealer(fp, eval, opt);
    Rng rng(seed);
    LayoutState state = LayoutState::initial(fp, rng);
    return annealer.run(state, rng).best_cost;
  };
  EXPECT_DOUBLE_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));
}

}  // namespace
}  // namespace tsc3d::floorplan
