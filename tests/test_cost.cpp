// Tests of the multi-objective cost evaluator (Sec. 7 setups).
#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/cost.hpp"

namespace tsc3d::floorplan {
namespace {

class CostFixture : public ::testing::Test {
 protected:
  CostFixture()
      : fp_(make_instance()),
        engine_(fp_.tech(), thermal_cfg(), {},
                thermal::EngineRole::fast_loop) {
    Rng rng(1);
    LayoutState s = LayoutState::initial(fp_, rng);
    s.apply_to(fp_);
  }

  static Floorplan3D make_instance() {
    benchgen::BenchmarkSpec spec;
    spec.name = "cost_test";
    spec.soft_modules = 16;
    spec.num_nets = 30;
    spec.num_terminals = 4;
    spec.outline_mm2 = 4.0;
    spec.power_w = 2.0;
    return benchgen::generate(spec, 3);
  }
  static ThermalConfig thermal_cfg() {
    ThermalConfig c;
    c.grid_nx = c.grid_ny = 16;
    return c;
  }
  CostEvaluator::Options options(CostWeights w) {
    CostEvaluator::Options o;
    o.weights = w;
    o.leakage_grid = 16;
    return o;
  }

  Floorplan3D fp_;
  thermal::ThermalEngine engine_;
};

TEST_F(CostFixture, FullEvaluationPopulatesAllTerms) {
  CostEvaluator eval(fp_, engine_, options(tsc_aware_weights()));
  const CostBreakdown c = eval.evaluate_full();
  EXPECT_GT(c.bbox_area_ratio, 0.0);
  EXPECT_GT(c.wirelength_um, 0.0);
  EXPECT_GT(c.delay_ns, 0.0);
  EXPECT_GT(c.peak_k_rise, 0.0);
  EXPECT_GT(c.power_w, 0.0);
  EXPECT_GE(c.num_volumes, 1.0);
  ASSERT_EQ(c.correlation.size(), 2u);
  ASSERT_EQ(c.entropy.size(), 2u);
  EXPECT_GT(c.total, 0.0);
}

TEST_F(CostFixture, NormalizationMakesFirstTotalOrderOfWeightSum) {
  // Every term is normalized to its first-evaluation value, so the first
  // total approximates the sum of active weights.
  CostEvaluator eval(fp_, engine_, options(power_aware_weights()));
  const CostBreakdown c = eval.evaluate_full();
  const CostWeights w = power_aware_weights();
  const double weight_sum = w.area + w.wirelength + w.delay + w.peak_temp +
                            w.power + w.volumes +
                            w.outline * c.outline_penalty;
  EXPECT_NEAR(c.total, weight_sum, 0.6);
}

TEST_F(CostFixture, CheapEvalTracksGeometryChanges) {
  CostEvaluator eval(fp_, engine_, options(power_aware_weights()));
  const CostBreakdown before = eval.evaluate_full();
  // Stretch a module far outside the outline: cheap terms must react.
  // Direct mutations must be announced (see "incremental layout
  // tracking" in core/floorplan.hpp) so the cached cheap terms refresh.
  fp_.modules()[0].shape.x = fp_.tech().die_width_um * 2.0;
  fp_.note_module_moved(0);
  const CostBreakdown after = eval.evaluate_cheap();
  EXPECT_GT(after.outline_penalty, before.outline_penalty);
  EXPECT_GT(after.wirelength_um, before.wirelength_um);
  EXPECT_FALSE(after.fits_outline);
}

TEST_F(CostFixture, CheapEvalCarriesCachedExpensiveTerms) {
  CostEvaluator eval(fp_, engine_, options(power_aware_weights()));
  const CostBreakdown full = eval.evaluate_full();
  const CostBreakdown cheap = eval.evaluate_cheap();
  EXPECT_DOUBLE_EQ(cheap.power_w, full.power_w);
  EXPECT_DOUBLE_EQ(cheap.num_volumes, full.num_volumes);
  EXPECT_DOUBLE_EQ(cheap.peak_k_rise, full.peak_k_rise);
}

TEST_F(CostFixture, EntropyIsLiveInCheapPathForTscWeights) {
  CostEvaluator eval(fp_, engine_, options(tsc_aware_weights()));
  (void)eval.evaluate_full();
  // Move every module of die 0 into one corner: the power map collapses
  // and the (live) entropy term must change in the cheap evaluation.
  const CostBreakdown before = eval.evaluate_cheap();
  for (Module& m : fp_.modules()) {
    if (m.die == 0) {
      m.shape.x = 0.0;
      m.shape.y = 0.0;
    }
  }
  fp_.invalidate_layout_caches();  // bulk move outside apply_to
  const CostBreakdown after = eval.evaluate_cheap();
  EXPECT_NE(before.entropy[0], after.entropy[0]);
}

TEST_F(CostFixture, ThermalEvalRefreshesCorrelation) {
  CostEvaluator eval(fp_, engine_, options(tsc_aware_weights()));
  (void)eval.evaluate_full();
  // Pile all die-0 power into one hotspot: the solved correlation must
  // move on the next thermal evaluation.
  const CostBreakdown before = eval.evaluate_thermal();
  for (Module& m : fp_.modules()) {
    if (m.die == 0) {
      m.shape.x = 100.0;
      m.shape.y = 100.0;
    }
  }
  fp_.invalidate_layout_caches();  // bulk move outside apply_to
  const CostBreakdown after = eval.evaluate_thermal();
  EXPECT_NE(before.correlation[0], after.correlation[0]);
}

TEST_F(CostFixture, WeightsGateTerms) {
  CostWeights none;
  none.area = none.outline = none.wirelength = none.delay = 0.0;
  none.peak_temp = none.power = none.volumes = 0.0;
  none.correlation = none.entropy = none.power_gradient = 0.0;
  CostEvaluator eval(fp_, engine_, options(none));
  const CostBreakdown c = eval.evaluate_full();
  EXPECT_DOUBLE_EQ(c.total, 0.0);
}

TEST_F(CostFixture, ThermalTermSolvesOnWarmEngine) {
  // The in-loop thermal term comes from grid solves on the evaluator's
  // engine: the term is populated, and every refresh after the first
  // solve warm-starts from the previous field.
  CostEvaluator eval(fp_, engine_, options(tsc_aware_weights()));
  const CostBreakdown c = eval.evaluate_full();
  EXPECT_GT(c.peak_k_rise, 0.0);
  ASSERT_EQ(c.correlation.size(), 2u);
  EXPECT_EQ(engine_.stats().steady_solves, 1u);
  EXPECT_EQ(engine_.stats().warm_starts, 0u);
  (void)eval.evaluate_thermal();
  EXPECT_EQ(engine_.stats().steady_solves, 2u);
  EXPECT_EQ(engine_.stats().warm_starts, 1u);
}

TEST_F(CostFixture, DetailedEngineGridMismatchThrows) {
  ThermalConfig coarse;
  coarse.grid_nx = coarse.grid_ny = 8;  // != leakage_grid (16)
  thermal::ThermalEngine engine(fp_.tech(), coarse);
  EXPECT_THROW((CostEvaluator{fp_, engine, options(tsc_aware_weights())}),
               std::invalid_argument);
}

TEST_F(CostFixture, PresetWeightsMatchPaperSetups) {
  const CostWeights pa = power_aware_weights();
  EXPECT_DOUBLE_EQ(pa.correlation, 0.0);
  EXPECT_DOUBLE_EQ(pa.entropy, 0.0);
  const CostWeights tsc = tsc_aware_weights();
  EXPECT_GT(tsc.correlation, 0.0);
  EXPECT_GT(tsc.entropy, 0.0);
  // Classical criteria stay active in the TSC setup (Sec. 7: "we consider
  // the same criteria as for (i)").
  EXPECT_GT(tsc.area, 0.0);
  EXPECT_GT(tsc.wirelength, 0.0);
  EXPECT_GT(tsc.delay, 0.0);
  EXPECT_GT(tsc.peak_temp, 0.0);
}

}  // namespace
}  // namespace tsc3d::floorplan
