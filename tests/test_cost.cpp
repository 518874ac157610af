// Tests of the multi-objective cost evaluator (Sec. 7 setups).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "benchgen/generator.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/cost.hpp"
#include "floorplan/move_transaction.hpp"

namespace tsc3d::floorplan {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every double of a breakdown as its bit pattern, in field order.
std::vector<std::uint64_t> breakdown_bits(const CostBreakdown& c) {
  std::vector<std::uint64_t> out;
  for (const double v : {c.bbox_area_ratio, c.outline_penalty,
                         c.wirelength_um, c.delay_ns, c.peak_k_rise,
                         c.power_w, c.num_volumes, c.power_gradient, c.total})
    out.push_back(bits(v));
  for (const double v : c.correlation) out.push_back(bits(v));
  for (const double v : c.entropy) out.push_back(bits(v));
  out.push_back(c.fits_outline ? 1u : 0u);
  return out;
}

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

TEST_F(CostFixture, RejectedMoveEntropyHasFreshCallBits) {
  // The per-die entropy memo serves the committed content a rejected
  // move rolls back to; each served value must carry the bits of a fresh
  // power_map + spatial_entropy call, on the trial layout and after the
  // rollback alike.
  const CostEvaluator::Options o = options(tsc_aware_weights());
  CostEvaluator eval(fp_, engine_, o);
  MoveTransaction tx(fp_, eval);
  Rng rng(5);
  LayoutState s = LayoutState::initial(fp_, rng);
  s.apply_to(fp_);
  (void)eval.evaluate_full();
  const auto fresh = [&](std::size_t d) {
    return bits(leakage::spatial_entropy(fp_.power_map(d, 16, 16),
                                         o.entropy_options));
  };
  const std::vector<double> committed = eval.evaluate_cheap().entropy;
  std::size_t rescored = 0;
  for (int k = 0; k < 20; ++k) {
    // An intra-die swap, staged and rejected as the annealer does.
    MoveRecord rec;
    rec.kind = MoveRecord::Kind::swap_both;
    rec.die_a = rng.index(2);
    SequencePair& sp = s.die_sp[rec.die_a];
    ASSERT_GE(sp.size(), 2u);
    const std::size_t i = rng.index(sp.size());
    std::size_t j = rng.index(sp.size() - 1);
    if (j >= i) ++j;
    rec.module_a = sp.positive()[i];
    rec.module_b = sp.positive()[j];
    tx.open(s);
    sp.swap_both(rec.module_a, rec.module_b);
    s.touch_die(rec.die_a);
    tx.stage();
    const CostBreakdown trial = eval.evaluate_cheap();
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(bits(trial.entropy[d]), fresh(d));
      rescored += bits(trial.entropy[d]) != bits(committed[d]);
    }
    tx.rollback(rec);
    const CostBreakdown back = eval.evaluate_cheap();
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(bits(back.entropy[d]), fresh(d));
      EXPECT_EQ(bits(back.entropy[d]), bits(committed[d]));
    }
  }
  EXPECT_GT(rescored, 0u);  // the trial layouts did change the maps
}

TEST_F(CostFixture, VoltageRefreshRescoresTheChangedMaps) {
  // Module power, and so the power map, scales with voltage_index.  Start
  // the modules at alternating extreme levels so the refresh inside the
  // first full evaluation moves some of them but not all (a uniform
  // rescale would leave Eq. 3 unchanged); the entropy it reports, and the
  // one the next cheap evaluation serves, must be a fresh call's on the
  // new maps, never the memoized value of the old ones.
  const std::size_t top = fp_.tech().voltages.size() - 1;
  for (std::size_t i = 0; i < fp_.modules().size(); ++i)
    fp_.modules()[i].voltage_index = i % 2 == 0 ? top : 0;
  const std::vector<Module> before_refresh = fp_.modules();
  std::vector<GridD> old_maps;
  for (std::size_t d = 0; d < 2; ++d)
    old_maps.push_back(fp_.power_map(d, 16, 16));
  CostEvaluator::Options o = options(tsc_aware_weights());
  o.cross_check_interval = 1;
  CostEvaluator eval(fp_, engine_, o);
  const CostBreakdown full = eval.evaluate_full();
  const CostBreakdown cheap = eval.evaluate_cheap();
  std::size_t rescored = 0;
  for (std::size_t d = 0; d < 2; ++d) {
    const double fresh = leakage::spatial_entropy(fp_.power_map(d, 16, 16),
                                                  o.entropy_options);
    EXPECT_EQ(bits(full.entropy[d]), bits(fresh));
    EXPECT_EQ(bits(cheap.entropy[d]), bits(fresh));
    rescored += bits(fresh) != bits(leakage::spatial_entropy(
                                   old_maps[d], o.entropy_options));
  }
  std::size_t moved = 0;
  for (std::size_t i = 0; i < fp_.modules().size(); ++i)
    moved += fp_.modules()[i].voltage_index != before_refresh[i].voltage_index;
  EXPECT_GT(moved, 0u);
  EXPECT_GT(rescored, 0u);  // a stale memo hit would have shown
}

TEST_F(CostFixture, RestoredEvaluatorGivesTheSameBreakdownBits) {
  // The memo is never checkpointed: a fresh evaluator restored from a
  // snapshot rescores every die and must land on the same bits as the
  // evaluator whose memo is warm.
  const CostEvaluator::Options o = options(tsc_aware_weights());
  CostEvaluator warm(fp_, engine_, o);
  (void)warm.evaluate_full();
  (void)warm.evaluate_cheap();
  CostEvaluator restored(fp_, engine_, o);
  restored.restore_checkpoint_state(warm.checkpoint_state());
  EXPECT_EQ(breakdown_bits(restored.evaluate_cheap()),
            breakdown_bits(warm.evaluate_cheap()));
  EXPECT_EQ(breakdown_bits(restored.evaluate_cheap()),
            breakdown_bits(warm.evaluate_cheap()));
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
