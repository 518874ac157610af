// Tests of the correlation-driven dummy-TSV insertion loop (Sec. 6.2).
#include <gtest/gtest.h>

#include "tsv/dummy_inserter.hpp"

namespace tsc3d::tsv {
namespace {

/// A deliberately leaky design: a strong isolated hotspot on die 0 whose
/// thermal response tracks its power closely.
Floorplan3D leaky_design() {
  TechnologyConfig tech;
  tech.die_width_um = tech.die_height_um = 2000.0;
  Floorplan3D fp(tech);
  auto add = [&](const char* name, Rect r, double p, std::size_t die) {
    Module m;
    m.name = name;
    m.shape = r;
    m.area_um2 = r.area();
    m.power_w = p;
    m.die = die;
    fp.modules().push_back(m);
  };
  add("hot", {1400, 1400, 400, 400}, 2.0, 0);
  add("a", {100, 100, 600, 600}, 0.3, 0);
  add("b", {100, 900, 600, 600}, 0.3, 0);
  add("top0", {200, 200, 700, 700}, 0.5, 1);
  add("top1", {1100, 1100, 700, 700}, 0.5, 1);
  return fp;
}

ThermalConfig sampling_cfg() {
  ThermalConfig c;
  c.grid_nx = c.grid_ny = 16;
  return c;
}

TEST(DummyInserter, ReducesAverageCorrelation) {
  Floorplan3D fp = leaky_design();
  thermal::ThermalEngine engine(fp.tech(), sampling_cfg());
  Rng rng(42);
  DummyInsertOptions opt;
  opt.samples_per_iteration = 8;
  opt.max_iterations = 6;
  opt.islands_per_iteration = 2;
  opt.tsvs_per_island = 32;
  const DummyInsertResult res = insert_dummy_tsvs(fp, engine, rng, opt);
  // The stop criterion guarantees the final correlation never exceeds
  // the starting one.
  EXPECT_LE(res.correlation_after, res.correlation_before + 1e-9);
  // On this leaky design at least one batch must help.
  EXPECT_GT(res.tsvs_inserted, 0u);
  EXPECT_EQ(fp.tsv_count(TsvKind::dummy), res.tsvs_inserted);
}

TEST(DummyInserter, HistoryTracksIterations) {
  Floorplan3D fp = leaky_design();
  thermal::ThermalEngine engine(fp.tech(), sampling_cfg());
  Rng rng(1);
  DummyInsertOptions opt;
  opt.samples_per_iteration = 6;
  opt.max_iterations = 3;
  const DummyInsertResult res = insert_dummy_tsvs(fp, engine, rng, opt);
  EXPECT_EQ(res.correlation_history.size(), res.iterations + 1);
  EXPECT_LE(res.iterations, 3u);
}

TEST(DummyInserter, RollsBackPastSweetSpot) {
  // With the chip already saturated in TSVs, more dummies can't help; the
  // loop must stop quickly and leave few (or no) extra TSVs behind.
  Floorplan3D fp = leaky_design();
  Tsv blanket;
  blanket.position = {1000.0, 1000.0};
  blanket.count = 40000;  // covers everything
  blanket.kind = TsvKind::signal;
  fp.tsvs().push_back(blanket);
  thermal::ThermalEngine engine(fp.tech(), sampling_cfg());
  Rng rng(2);
  DummyInsertOptions opt;
  opt.samples_per_iteration = 6;
  opt.max_iterations = 5;
  opt.saturation = 0.9;
  const DummyInsertResult res = insert_dummy_tsvs(fp, engine, rng, opt);
  EXPECT_LE(res.iterations, 2u);
}

TEST(DummyInserter, FocusRegionsRestrictPlacement) {
  Floorplan3D fp = leaky_design();
  thermal::ThermalEngine engine(fp.tech(), sampling_cfg());
  Rng rng(3);
  DummyInsertOptions opt;
  opt.samples_per_iteration = 6;
  opt.max_iterations = 4;
  const Rect focus{1200.0, 1200.0, 800.0, 800.0};  // around the hotspot
  opt.focus_regions.push_back(focus);
  (void)insert_dummy_tsvs(fp, engine, rng, opt);
  for (const Tsv& t : fp.tsvs()) {
    if (t.kind == TsvKind::dummy) {
      EXPECT_TRUE(focus.contains(t.position));
    }
  }
}

TEST(DummyInserter, RejectsTooFewSamples) {
  Floorplan3D fp = leaky_design();
  thermal::ThermalEngine engine(fp.tech(), sampling_cfg());
  Rng rng(4);
  DummyInsertOptions opt;
  opt.samples_per_iteration = 1;
  EXPECT_THROW(insert_dummy_tsvs(fp, engine, rng, opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace tsc3d::tsv
