// Tests for runtime thermal management (mitigation/dtm.hpp): the scalar
// Kalman filter of [14] and the closed-loop throttling controller.
#include "mitigation/dtm.hpp"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "thermal/grid_solver.hpp"

namespace tsc3d::mitigation {
namespace {

TEST(ScalarKalman, ConvergesToConstantSignal) {
  ScalarKalman kf(300.0, 0.0, 1.0);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    kf.predict();
    kf.update(310.0 + rng.gaussian(0.0, 1.0));
  }
  EXPECT_NEAR(kf.state_k(), 310.0, 0.5);
  // With zero process noise the variance must collapse.
  EXPECT_LT(kf.variance(), 0.1);
}

TEST(ScalarKalman, TracksARamp) {
  ScalarKalman kf(300.0, 0.5, 0.25);
  double truth = 300.0;
  Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    truth += 0.05;
    kf.predict();
    kf.update(truth + rng.gaussian(0.0, 0.5));
  }
  EXPECT_NEAR(kf.state_k(), truth, 1.0);
}

TEST(ScalarKalman, FiltersNoiseBelowRawReadings) {
  // The estimator's RMSE must beat the raw sensor's over a noisy
  // constant signal.
  Rng rng(5);
  ScalarKalman kf(305.0, 0.01, 4.0);
  double kf_se = 0.0, raw_se = 0.0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const double reading = 305.0 + rng.gaussian(0.0, 2.0);
    kf.predict();
    kf.update(reading);
    kf_se += (kf.state_k() - 305.0) * (kf.state_k() - 305.0);
    raw_se += (reading - 305.0) * (reading - 305.0);
  }
  EXPECT_LT(std::sqrt(kf_se / n), std::sqrt(raw_se / n));
}

TEST(ScalarKalman, ExactSensorIsAdoptedOutright) {
  ScalarKalman kf(300.0, 0.1, 0.0);
  kf.predict();
  kf.update(333.0);
  EXPECT_DOUBLE_EQ(kf.state_k(), 333.0);
  EXPECT_DOUBLE_EQ(kf.variance(), 0.0);
}

TEST(ScalarKalman, NegativeVarianceThrows) {
  EXPECT_THROW(ScalarKalman(300.0, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ScalarKalman(300.0, 1.0, -1.0), std::invalid_argument);
}

TEST(RampKalman, TracksARampWithoutLag) {
  // The constant-velocity model must track a ramp with zero steady-state
  // lag -- the property the random-walk filter lacks.
  RampKalman kf(300.0, 0.01, 0.01, 1.0);
  double truth = 300.0;
  Rng rng(6);
  // Average the tail: the instantaneous slope estimate fluctuates with
  // the read noise, its mean must sit on the true slope.
  double slope_acc = 0.0;
  int slope_n = 0;
  for (int i = 0; i < 1200; ++i) {
    truth += 0.2;
    kf.predict();
    kf.update(truth + rng.gaussian(0.0, 1.0));
    if (i >= 600) {
      slope_acc += kf.slope_k_per_period();
      ++slope_n;
    }
  }
  EXPECT_NEAR(kf.state_k(), truth, 1.0);
  EXPECT_NEAR(slope_acc / slope_n, 0.2, 0.05);
}

TEST(RampKalman, ExtrapolationUsesTheSlope) {
  RampKalman kf(300.0, 0.01, 0.01, 0.5);
  double truth = 300.0;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    truth += 0.1;
    kf.predict();
    kf.update(truth + rng.gaussian(0.0, 0.5));
  }
  EXPECT_NEAR(kf.extrapolate(10.0), truth + 1.0, 1.0);
}

TEST(RampKalman, ExactSensorAdoptsReading) {
  RampKalman kf(300.0, 0.1, 0.1, 0.0);
  kf.predict();
  kf.update(310.0);
  EXPECT_DOUBLE_EQ(kf.state_k(), 310.0);
}

TEST(RampKalman, NegativeVarianceThrows) {
  EXPECT_THROW(RampKalman(300.0, -1.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(RampKalman(300.0, 1.0, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(RampKalman(300.0, 1.0, 1.0, -1.0), std::invalid_argument);
}

/// A hot design that will cross a conservative trigger quickly.
Floorplan3D hot_design() {
  TechnologyConfig tech;
  tech.die_width_um = tech.die_height_um = 2000.0;
  Floorplan3D fp(tech);
  for (int i = 0; i < 3; ++i) {
    Module m;
    m.name = "m" + std::to_string(i);
    m.shape = {200.0 + 600.0 * i, 400.0, 500.0, 1000.0};
    m.area_um2 = m.shape.area();
    m.power_w = i == 0 ? 4.0 : 1.0;  // m0 is the hotspot
    m.die = static_cast<std::size_t>(i % 2);
    fp.modules().push_back(m);
  }
  return fp;
}

thermal::GridSolver small_solver(const Floorplan3D& fp) {
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 12;
  return {fp.tech(), cfg};
}

TEST(Dtm, ThrottlingLimitsPeakTemperature) {
  const auto fp = hot_design();
  const auto solver = small_solver(fp);
  DtmOptions off;
  off.trigger_k = 1e6;  // never throttle
  off.release_k = 1e6 - 1.0;
  DtmOptions on;
  on.trigger_k = 320.0;
  on.release_k = 318.0;
  on.throttle_scale = 0.4;
  on.throttled_fraction = 0.5;
  Rng rng_a(7), rng_b(7);
  const auto uncontrolled = run_dtm(fp, solver.engine(), 1.0, 0.01, rng_a, off);
  const auto controlled = run_dtm(fp, solver.engine(), 1.0, 0.01, rng_b, on);
  EXPECT_LT(controlled.peak_k, uncontrolled.peak_k);
  EXPECT_GT(controlled.throttled_time_s, 0.0);
  EXPECT_GT(controlled.performance_loss, 0.0);
  EXPECT_DOUBLE_EQ(uncontrolled.performance_loss, 0.0);
}

TEST(Dtm, KalmanBeatsRawSensorOnEstimateRmse) {
  // Run long enough that the saturating heating transient (where any
  // level+slope model pays a curvature penalty) does not dominate the
  // steady phase the filter denoises.
  const auto fp = hot_design();
  const auto solver = small_solver(fp);
  DtmOptions raw;
  raw.use_kalman = false;
  raw.sensor_noise_k = 1.5;
  raw.trigger_k = 1e6;
  raw.release_k = 1e6 - 1.0;
  raw.control_period_s = 0.02;
  DtmOptions kalman = raw;
  kalman.use_kalman = true;
  // Slope process noise scales with the square of the control period
  // (the slope state is per-period); 0.02 s periods need a larger value
  // than the 0.01 s default assumes.
  kalman.kalman_slope_var = 2.0;
  Rng rng_a(11), rng_b(11);
  const auto r_raw = run_dtm(fp, solver.engine(), 4.0, 0.02, rng_a, raw);
  const auto r_kf = run_dtm(fp, solver.engine(), 4.0, 0.02, rng_b, kalman);
  EXPECT_LT(r_kf.estimate_rmse_k, r_raw.estimate_rmse_k);
}

TEST(Dtm, ProactiveControllerActsEarlier) {
  // With lookahead the controller throttles before the trigger is truly
  // crossed, cutting the time spent above it.
  const auto fp = hot_design();
  const auto solver = small_solver(fp);
  DtmOptions reactive;
  reactive.trigger_k = 316.0;
  reactive.release_k = 314.0;
  reactive.lookahead_periods = 0.0;
  reactive.sensor_noise_k = 0.05;
  DtmOptions proactive = reactive;
  proactive.lookahead_periods = 3.0;
  Rng rng_a(13), rng_b(13);
  const auto r_re = run_dtm(fp, solver.engine(), 1.0, 0.01, rng_a, reactive);
  const auto r_pro = run_dtm(fp, solver.engine(), 1.0, 0.01, rng_b, proactive);
  EXPECT_LE(r_pro.time_over_trigger_s, r_re.time_over_trigger_s + 1e-9);
}

TEST(Dtm, HysteresisBoundsControlActions) {
  const auto fp = hot_design();
  const auto solver = small_solver(fp);
  DtmOptions opt;
  opt.trigger_k = 316.0;
  opt.release_k = 310.0;  // wide hysteresis band
  opt.sensor_noise_k = 0.1;
  Rng rng(17);
  const auto result = run_dtm(fp, solver.engine(), 1.0, 0.01, rng, opt);
  // With a wide band the controller cannot chatter every period.
  EXPECT_LT(result.control_actions, 20u);
}

TEST(Dtm, SensorReadsEveryStepWhenDtEqualsControlPeriod) {
  // dt == control period: the controller must read exactly once per step.
  // (The pre-fix accounting advanced the control deadline by one period
  // per read, so any step overshooting a deadline dragged the schedule
  // permanently behind.)  Binary-friendly times keep the test exact.
  const auto fp = hot_design();
  const auto solver = small_solver(fp);
  DtmOptions opt;
  opt.trigger_k = 1e6;  // observe only, never throttle
  opt.release_k = 1e6 - 1.0;
  opt.control_period_s = 0.25;
  Rng rng(23);
  const auto result = run_dtm(fp, solver.engine(), 5.0, 0.25, rng, opt);
  EXPECT_EQ(result.sensor_reads, 20u);
  EXPECT_TRUE(result.thermal_converged);
}

TEST(Dtm, SensorReadCadenceFollowsControlPeriod) {
  // dt = 0.25 s, period = 0.75 s, duration 7.5 s: the first read fires at
  // the first step (t = 0.25, at or past the initial deadline of 0), the
  // deadline then rebases to 0.75, 1.5, 2.25, ... so reads land at 0.25,
  // 0.75, 1.5, 2.25, ..., 7.5 -- eleven in total.
  const auto fp = hot_design();
  const auto solver = small_solver(fp);
  DtmOptions opt;
  opt.trigger_k = 1e6;
  opt.release_k = 1e6 - 1.0;
  opt.control_period_s = 0.75;
  Rng rng(29);
  const auto result = run_dtm(fp, solver.engine(), 7.5, 0.25, rng, opt);
  EXPECT_EQ(result.sensor_reads, 11u);
}

TEST(Dtm, FinalStepTemperatureIsAccounted) {
  // The peak of the run must reflect the LAST step's solved temperatures
  // too (the pre-fix accounting only ever saw previous-step fields, so
  // the hottest instant of a monotone heating run went missing).
  const auto fp = hot_design();
  const auto solver = small_solver(fp);
  DtmOptions opt;
  opt.trigger_k = 1e6;
  opt.release_k = 1e6 - 1.0;
  Rng rng(31);
  const auto result = run_dtm(fp, solver.engine(), 0.5, 0.01, rng, opt);
  // Reference: the same open-loop transient's final state.
  const GridD tsv = fp.tsv_density_map(solver.nx(), solver.ny());
  std::vector<GridD> nominal;
  for (std::size_t d = 0; d < fp.tech().num_dies; ++d)
    nominal.push_back(fp.power_map(d, solver.nx(), solver.ny()));
  const auto open_loop = solver.solve_transient(
      [&](double) { return nominal; }, tsv, 0.5, 0.01);
  double final_peak = 0.0;
  for (std::size_t d = 0; d < fp.tech().num_dies; ++d)
    final_peak =
        std::max(final_peak, open_loop.final_state.die_temperature[d].max());
  EXPECT_GE(result.peak_k + 1e-9, final_peak);
}

TEST(Dtm, AccountedTimeNeverExceedsDuration) {
  // duration = 0.4 s at dt = 0.25 s takes ceil = 2 solver steps; the
  // second step must only contribute the 0.15 s remainder, so a run that
  // is over-trigger (and throttled) throughout reports at most the
  // requested duration, not steps * dt.
  const auto fp = hot_design();
  const auto solver = small_solver(fp);
  DtmOptions opt;
  opt.trigger_k = 200.0;  // below ambient: always over, always throttling
  opt.release_k = 199.0;
  opt.control_period_s = 0.25;
  Rng rng(37);
  const auto result = run_dtm(fp, solver.engine(), 0.4, 0.25, rng, opt);
  EXPECT_NEAR(result.time_over_trigger_s, 0.4, 1e-12);
  EXPECT_LE(result.throttled_time_s, 0.4 + 1e-12);
  EXPECT_LE(result.performance_loss, 1.0 - opt.throttle_scale + 1e-12);
}

TEST(Dtm, InvalidOptionsThrow) {
  const auto fp = hot_design();
  const auto solver = small_solver(fp);
  Rng rng(19);
  EXPECT_THROW((void)run_dtm(fp, solver.engine(), 0.0, 0.01, rng),
               std::invalid_argument);
  DtmOptions bad;
  bad.control_period_s = 0.001;
  EXPECT_THROW((void)run_dtm(fp, solver.engine(), 1.0, 0.01, rng, bad),
               std::invalid_argument);
  bad = {};
  bad.throttle_scale = 0.0;
  EXPECT_THROW((void)run_dtm(fp, solver.engine(), 1.0, 0.01, rng, bad),
               std::invalid_argument);
  bad = {};
  bad.release_k = bad.trigger_k + 1.0;
  EXPECT_THROW((void)run_dtm(fp, solver.engine(), 1.0, 0.01, rng, bad),
               std::invalid_argument);
}

void expect_bitwise_equal(const DtmResult& a, const DtmResult& b) {
  EXPECT_EQ(a.time_over_trigger_s, b.time_over_trigger_s);
  EXPECT_EQ(a.peak_k, b.peak_k);
  EXPECT_EQ(a.throttled_time_s, b.throttled_time_s);
  EXPECT_EQ(a.performance_loss, b.performance_loss);
  EXPECT_EQ(a.estimate_rmse_k, b.estimate_rmse_k);
  EXPECT_EQ(a.control_actions, b.control_actions);
  EXPECT_EQ(a.sensor_reads, b.sensor_reads);
  EXPECT_EQ(a.thermal_converged, b.thermal_converged);
}

TEST(Dtm, CheckpointReuseIsBitwiseEquivalent) {
  // A DTM parameter sweep re-runs the same t = 0+ heating step; the
  // checkpoint replaces that solve on the second run and must change
  // NOTHING about the results -- same RNG stream, same controller
  // trajectory, same temperatures, bit for bit.
  const auto fp = hot_design();
  DtmOptions opt;
  opt.trigger_k = 316.0;
  opt.release_k = 314.0;
  opt.sensor_noise_k = 0.5;

  DtmCheckpoint checkpoint;
  Rng rng_a(31), rng_b(31);
  const auto solver_a = small_solver(fp);
  const auto fresh = run_dtm(fp, solver_a.engine(), 1.0, 0.01, rng_a, opt,
                             &checkpoint);
  EXPECT_FALSE(fresh.checkpoint_reused);
  EXPECT_TRUE(fresh.checkpoint_captured);
  ASSERT_TRUE(checkpoint.valid);

  const auto solver_b = small_solver(fp);
  const auto reused = run_dtm(fp, solver_b.engine(), 1.0, 0.01, rng_b, opt,
                              &checkpoint);
  EXPECT_TRUE(reused.checkpoint_reused);
  EXPECT_FALSE(reused.checkpoint_captured);
  expect_bitwise_equal(fresh, reused);

  // And with different controller parameters (the sweep case): reuse
  // still fires -- the first step is controller-independent -- and the
  // result matches a fresh run under the same parameters exactly.
  DtmOptions proactive = opt;
  proactive.lookahead_periods = 3.0;
  proactive.trigger_k = 320.0;
  proactive.release_k = 318.0;
  Rng rng_c(31), rng_d(31);
  const auto swept = run_dtm(fp, small_solver(fp).engine(), 1.0, 0.01, rng_c,
                             proactive, &checkpoint);
  EXPECT_TRUE(swept.checkpoint_reused);
  const auto swept_fresh =
      run_dtm(fp, small_solver(fp).engine(), 1.0, 0.01, rng_d, proactive);
  expect_bitwise_equal(swept, swept_fresh);
}

TEST(Dtm, CheckpointMismatchFallsBackToFreshSolve) {
  const auto fp = hot_design();
  DtmOptions opt;
  opt.trigger_k = 1e6;
  opt.release_k = 1e6 - 1.0;
  opt.control_period_s = 0.05;  // above both dt values used below

  DtmCheckpoint checkpoint;
  Rng rng_a(37);
  (void)run_dtm(fp, small_solver(fp).engine(), 1.0, 0.01, rng_a, opt,
                &checkpoint);
  ASSERT_TRUE(checkpoint.valid);

  // A different dt invalidates the checkpoint: the run must fall back
  // (and recapture), matching a checkpoint-free run bitwise.
  Rng rng_b(37), rng_c(37);
  const auto other_dt = run_dtm(fp, small_solver(fp).engine(), 1.0, 0.02,
                                rng_b, opt, &checkpoint);
  EXPECT_FALSE(other_dt.checkpoint_reused);
  EXPECT_TRUE(other_dt.checkpoint_captured);
  const auto plain =
      run_dtm(fp, small_solver(fp).engine(), 1.0, 0.02, rng_c, opt);
  expect_bitwise_equal(other_dt, plain);
  EXPECT_EQ(checkpoint.dt_s, 0.02);  // recaptured for the new sweep
}

TEST(Dtm, CheckpointlessRunsUnaffectedByApi) {
  // nullptr checkpoint (every pre-existing caller): identical to a run
  // that captures -- capturing is observation only.
  const auto fp = hot_design();
  DtmOptions opt;
  opt.trigger_k = 316.0;
  opt.release_k = 314.0;
  DtmCheckpoint checkpoint;
  Rng rng_a(41), rng_b(41);
  const auto with = run_dtm(fp, small_solver(fp).engine(), 0.5, 0.01, rng_a,
                            opt, &checkpoint);
  const auto without =
      run_dtm(fp, small_solver(fp).engine(), 0.5, 0.01, rng_b, opt);
  EXPECT_FALSE(without.checkpoint_captured);
  expect_bitwise_equal(with, without);
}

}  // namespace
}  // namespace tsc3d::mitigation
