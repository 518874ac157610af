// Tests of the fast power-blurring thermal estimator against the
// detailed grid solver it is calibrated from.
#include <gtest/gtest.h>

#include "leakage/pearson.hpp"
#include "thermal/grid_solver.hpp"
#include "thermal/power_blur.hpp"

namespace tsc3d::thermal {
namespace {

TechnologyConfig test_tech() {
  TechnologyConfig t;
  t.die_width_um = 2000.0;
  t.die_height_um = 2000.0;
  return t;
}

ThermalConfig test_cfg(std::size_t grid = 16) {
  ThermalConfig c;
  c.grid_nx = c.grid_ny = grid;
  return c;
}

class PowerBlurTest : public ::testing::Test {
 protected:
  PowerBlurTest()
      : solver_(test_tech(), test_cfg()), blur_(solver_.engine(), 6) {}
  GridSolver solver_;
  PowerBlur blur_;
};

TEST_F(PowerBlurTest, ZeroPowerGivesAmbient) {
  const std::vector<GridD> power(2, GridD(16, 16, 0.0));
  const std::vector<GridD> t = blur_.estimate(power, GridD(16, 16, 0.0));
  for (const GridD& map : t)
    for (const double v : map) EXPECT_NEAR(v, 293.15, 0.01);
}

TEST_F(PowerBlurTest, CenteredImpulseMatchesDetailedSolver) {
  // The kernel was calibrated on exactly this case; the estimate must
  // reproduce it closely near the impulse.
  std::vector<GridD> power(2, GridD(16, 16, 0.0));
  power[0].at(8, 8) = 0.1;
  const GridD tsv(16, 16, 0.0);
  const ThermalResult detailed = solver_.solve_steady(power, tsv);
  const std::vector<GridD> fast = blur_.estimate(power, tsv);
  for (std::size_t d = 0; d < 2; ++d) {
    for (std::size_t off = 0; off <= 4; ++off) {
      EXPECT_NEAR(fast[d].at(8 + off, 8),
                  detailed.die_temperature[d].at(8 + off, 8), 0.05)
          << "die " << d << " offset " << off;
    }
  }
}

TEST_F(PowerBlurTest, EstimateCorrelatesWithDetailedSolver) {
  // A realistic multi-source map: the fast estimate should track the
  // detailed solution closely (rank correlation of the fields).
  std::vector<GridD> power(2, GridD(16, 16, 0.0));
  power[0].at(3, 3) = 0.8;
  power[0].at(12, 10) = 1.5;
  power[1].at(6, 13) = 1.0;
  const GridD tsv(16, 16, 0.0);
  const ThermalResult detailed = solver_.solve_steady(power, tsv);
  const std::vector<GridD> fast = blur_.estimate(power, tsv);
  for (std::size_t d = 0; d < 2; ++d) {
    const double r =
        leakage::pearson(fast[d], detailed.die_temperature[d]);
    EXPECT_GT(r, 0.95) << "die " << d;
  }
}

TEST_F(PowerBlurTest, TsvDensityLowersBottomDieEstimate) {
  std::vector<GridD> power(2, GridD(16, 16, 0.0));
  power[0].at(8, 8) = 2.0;
  const double bare = blur_.peak(power, GridD(16, 16, 0.0));
  const double piped = blur_.peak(power, GridD(16, 16, 1.0));
  EXPECT_LT(piped, bare);
}

TEST_F(PowerBlurTest, FarFieldPositive) {
  // Any watt injected anywhere raises the whole chip somewhat.
  for (const bool tsv : {false, true}) {
    for (std::size_t s = 0; s < 2; ++s)
      for (std::size_t d = 0; d < 2; ++d)
        EXPECT_GT(blur_.far_field(s, d, tsv), 0.0);
  }
}

TEST_F(PowerBlurTest, LinearityInPower) {
  std::vector<GridD> p1(2, GridD(16, 16, 0.0));
  p1[1].at(5, 5) = 1.0;
  std::vector<GridD> p3(2, GridD(16, 16, 0.0));
  p3[1].at(5, 5) = 3.0;
  const GridD tsv(16, 16, 0.0);
  const double rise1 = blur_.peak(p1, tsv) - 293.15;
  const double rise3 = blur_.peak(p3, tsv) - 293.15;
  EXPECT_NEAR(rise3 / rise1, 3.0, 1e-6);
}

TEST_F(PowerBlurTest, InputValidation) {
  EXPECT_THROW(blur_.estimate({GridD(16, 16, 0.0)}, GridD(16, 16, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(blur_.estimate(std::vector<GridD>(2, GridD(8, 8, 0.0)),
                              GridD(8, 8, 0.0)),
               std::invalid_argument);
}

TEST_F(PowerBlurTest, FastAnalysisIsInferiorForDiverseTsvArrangements) {
  // The paper found the fast analysis "inferior to the detailed analysis
  // of HotSpot, especially for diverse arrangements of TSVs" -- verify
  // that the fast/detailed gap grows with an irregular TSV pattern.
  std::vector<GridD> power(2, GridD(16, 16, 0.0));
  power[0].at(4, 4) = 1.0;
  power[0].at(11, 11) = 1.0;
  GridD uniform_tsv(16, 16, 0.3);
  GridD diverse_tsv(16, 16, 0.0);
  for (std::size_t i = 0; i < 16; ++i) diverse_tsv[i * 7 % 256] = 1.0;

  auto gap = [&](const GridD& tsv) {
    const ThermalResult det = solver_.solve_steady(power, tsv);
    const std::vector<GridD> fast = blur_.estimate(power, tsv);
    double err = 0.0;
    for (std::size_t i = 0; i < fast[0].size(); ++i)
      err += std::abs(fast[0][i] - det.die_temperature[0][i]);
    return err;
  };
  EXPECT_GE(gap(diverse_tsv), gap(uniform_tsv) * 0.5);
}

}  // namespace
}  // namespace tsc3d::thermal
