#include "mitigation/dtm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace tsc3d::mitigation {

ScalarKalman::ScalarKalman(double initial_k, double process_var,
                           double measurement_var)
    : x_(initial_k), q_(process_var), r_(measurement_var) {
  if (process_var < 0.0 || measurement_var < 0.0)
    throw std::invalid_argument("ScalarKalman: negative variance");
}

void ScalarKalman::predict() { p_ += q_; }

void ScalarKalman::update(double z_k) {
  // With r == 0 the reading is exact: adopt it outright.
  if (r_ == 0.0) {
    x_ = z_k;
    p_ = 0.0;
    return;
  }
  const double k = p_ / (p_ + r_);
  x_ += k * (z_k - x_);
  p_ *= (1.0 - k);
}

RampKalman::RampKalman(double initial_k, double temp_process_var,
                       double slope_process_var, double measurement_var)
    : x_(initial_k),
      qx_(temp_process_var),
      qv_(slope_process_var),
      r_(measurement_var) {
  if (temp_process_var < 0.0 || slope_process_var < 0.0 ||
      measurement_var < 0.0)
    throw std::invalid_argument("RampKalman: negative variance");
}

void RampKalman::predict() {
  // F = [[1, 1], [0, 1]]: x += v per control period.
  x_ += v_;
  const double p00 = p00_ + 2.0 * p01_ + p11_ + qx_;
  const double p01 = p01_ + p11_;
  const double p11 = p11_ + qv_;
  p00_ = p00;
  p01_ = p01;
  p11_ = p11;
}

void RampKalman::update(double z_k) {
  if (!initialized_) {
    // Track-initiation: adopt the first reading as the level (a cold
    // simulation start is a step the constant-velocity model would
    // otherwise convert into a huge phantom slope).
    initialized_ = true;
    x_ = z_k;
    v_ = 0.0;
    p00_ = r_ > 0.0 ? r_ : 0.0;
    p01_ = 0.0;
    return;
  }
  if (r_ == 0.0) {
    // Exact reading: adopt the level, learn the slope from the jump.
    v_ += 0.5 * (z_k - x_);
    x_ = z_k;
    p00_ = p01_ = 0.0;
    return;
  }
  const double s = p00_ + r_;
  const double k0 = p00_ / s;
  const double k1 = p01_ / s;
  const double innovation = z_k - x_;
  x_ += k0 * innovation;
  v_ += k1 * innovation;
  const double p00 = (1.0 - k0) * p00_;
  const double p01 = (1.0 - k0) * p01_;
  const double p11 = p11_ - k1 * p01_;
  p00_ = p00;
  p01_ = p01;
  p11_ = p11;
}

std::vector<bool> throttleable_modules(const Floorplan3D& fp,
                                       const DtmOptions& options) {
  // Hottest modules first (by nominal power density).
  std::vector<std::size_t> order(fp.modules().size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return fp.modules()[a].power_density() > fp.modules()[b].power_density();
  });
  const auto throttled_count = static_cast<std::size_t>(
      options.throttled_fraction * static_cast<double>(order.size()) + 0.5);
  std::vector<bool> throttleable(fp.modules().size(), false);
  for (std::size_t i = 0; i < std::min(throttled_count, order.size()); ++i)
    throttleable[order[i]] = true;
  return throttleable;
}

DtmResult run_dtm(const Floorplan3D& fp, thermal::ThermalEngine& engine,
                  double duration_s, double dt_s, Rng& rng,
                  const DtmOptions& options, DtmCheckpoint* checkpoint) {
  if (duration_s <= 0.0 || dt_s <= 0.0)
    throw std::invalid_argument("run_dtm: non-positive time");
  if (options.control_period_s < dt_s)
    throw std::invalid_argument("run_dtm: control period below dt");
  if (options.throttle_scale <= 0.0 || options.throttle_scale > 1.0)
    throw std::invalid_argument("run_dtm: throttle_scale out of (0, 1]");
  if (options.release_k > options.trigger_k)
    throw std::invalid_argument("run_dtm: release above trigger");

  const std::size_t nx = engine.nx(), ny = engine.ny();
  const double ambient_k = engine.config().ambient_k;
  const std::size_t dies = fp.tech().num_dies;
  const GridD tsv_density = fp.tsv_density_map(nx, ny);

  const std::vector<bool> throttleable = throttleable_modules(fp, options);

  std::vector<double> nominal(fp.modules().size());
  for (std::size_t i = 0; i < nominal.size(); ++i)
    nominal[i] = fp.effective_power(i);

  // Controller state, mutated by the feedback callback.
  RampKalman filter(ambient_k, options.kalman_process_var,
                    options.kalman_slope_var,
                    options.sensor_noise_k * options.sensor_noise_k);
  bool throttled = false;
  double next_control_s = 0.0;
  double prev_estimate_k = 0.0;
  bool have_prev_estimate = false;
  DtmResult result;
  double rmse_acc = 0.0;
  std::size_t rmse_n = 0;
  /// Throttle state in effect during each step, for the post-hoc time
  /// accounting below.
  std::vector<bool> step_throttled;
  step_throttled.reserve(static_cast<std::size_t>(duration_s / dt_s) + 2);

  const auto power_at = [&](double time_s,
                            const std::vector<GridD>& die_temp_prev) {
    // Peak over all dies of the state the sensor can observe at this
    // instant (the field the previous step produced).
    double observed_peak = ambient_k;
    for (const auto& map : die_temp_prev)
      observed_peak = std::max(observed_peak, map.max());

    if (time_s >= next_control_s) {
      // Advance the control clock until it is strictly ahead of the
      // simulation clock.  The single `+= period` of the old code fell
      // permanently behind once a step overshot a period boundary (e.g.
      // dt close to the period), silently turning the controller into a
      // read-every-step one.
      while (next_control_s <= time_s)
        next_control_s += options.control_period_s;
      ++result.sensor_reads;
      // Noisy sensor read of the observed peak.
      const double reading =
          observed_peak + rng.gaussian(0.0, options.sensor_noise_k);
      double estimate;
      double decision_value;
      if (options.use_kalman) {
        filter.predict();
        filter.update(reading);
        estimate = filter.state_k();
        // Proactive lead straight from the filter's slope state [14].
        decision_value = options.lookahead_periods > 0.0
                             ? filter.extrapolate(options.lookahead_periods)
                             : estimate;
      } else {
        estimate = reading;
        decision_value = estimate;
        // Raw mode: finite-difference extrapolation of the readings.
        if (options.lookahead_periods > 0.0 && have_prev_estimate)
          decision_value +=
              options.lookahead_periods * (estimate - prev_estimate_k);
      }
      rmse_acc += (estimate - observed_peak) * (estimate - observed_peak);
      ++rmse_n;
      prev_estimate_k = estimate;
      have_prev_estimate = true;

      const bool was_throttled = throttled;
      if (!throttled && decision_value > options.trigger_k) throttled = true;
      if (throttled && decision_value < options.release_k) throttled = false;
      if (was_throttled != throttled) ++result.control_actions;
    }
    step_throttled.push_back(throttled);

    std::vector<double> power = nominal;
    if (throttled)
      for (std::size_t i = 0; i < power.size(); ++i)
        if (throttleable[i]) power[i] *= options.throttle_scale;
    std::vector<GridD> maps;
    maps.reserve(dies);
    for (std::size_t d = 0; d < dies; ++d)
      maps.push_back(fp.power_map(d, nx, ny, &power));
    return maps;
  };

  // --- step 1 (t = 0+), checkpointable ---------------------------------
  // The first step's controller decision is computed up front (same RNG
  // draws and filter updates as the in-solve callback would make), so a
  // checkpointed field can stand in for the solve itself whenever the
  // decision -- and therefore the step-1 power -- matches bitwise.
  const auto total_steps =
      static_cast<std::size_t>(std::ceil(duration_s / dt_s));
  const std::vector<GridD> ambient_maps(dies, GridD(nx, ny, ambient_k));
  const std::vector<GridD> first_power = power_at(dt_s, ambient_maps);

  thermal::TransientSample first_sample;
  bool first_converged = true;
  if (checkpoint != nullptr && checkpoint->valid &&
      checkpoint->dt_s == dt_s && checkpoint->ambient_k == ambient_k &&
      checkpoint->nx == nx && checkpoint->ny == ny &&
      checkpoint->tsv == tsv_density.data() &&
      checkpoint->first_power == first_power) {
    engine.restore_field(checkpoint->field);
    first_sample = checkpoint->first_sample;
    first_converged = checkpoint->first_step_converged;
    result.checkpoint_reused = true;
  } else {
    const auto first_cb = [&](double, const std::vector<GridD>&) {
      return first_power;  // decision already made; do not redraw RNG
    };
    const thermal::TransientResult sim1 = engine.solve_transient_feedback(
        first_cb, tsv_density, dt_s, dt_s, /*record_stride=*/1);
    first_sample = sim1.trace.front();
    first_converged = sim1.unconverged_steps == 0;
    if (checkpoint != nullptr) {
      checkpoint->valid = true;
      checkpoint->dt_s = dt_s;
      checkpoint->ambient_k = ambient_k;
      checkpoint->nx = nx;
      checkpoint->ny = ny;
      checkpoint->tsv = tsv_density.data();
      checkpoint->first_power = first_power;
      checkpoint->field = engine.save_field();
      checkpoint->first_sample = first_sample;
      checkpoint->first_step_converged = first_converged;
      result.checkpoint_captured = true;
    }
  }

  // --- steps 2..N: continuation from the step-1 field ------------------
  // A warm transient recomputes the same implicit-Euler system and steps
  // from the installed field, so splitting the run is bitwise-identical
  // to the single solve_transient_feedback call it replaces -- including
  // the controller's time arithmetic: the callback reconstructs each
  // global timestamp as the same (step + 1) * dt_s product the monolithic
  // run computed (adding dt_s to the engine's relative time can be 1 ulp
  // off and shift a control read), and the continuation's step count is
  // pinned to exactly total_steps - 1 by asking for a mid-step t_end
  // (ceil() of a near-integer quotient could otherwise round a step up).
  thermal::TransientResult sim;
  if (total_steps > 1) {
    std::size_t cont_step = 0;  // continuation steps completed so far
    const auto rest_cb = [&](double /*time_s*/,
                             const std::vector<GridD>& die_temp_prev) {
      ++cont_step;
      return power_at(static_cast<double>(cont_step + 1) * dt_s,
                      die_temp_prev);
    };
    const double cont_end_s =
        (static_cast<double>(total_steps - 1) - 0.5) * dt_s;
    sim = engine.solve_transient_feedback(
        rest_cb, tsv_density, cont_end_s, dt_s, /*record_stride=*/1,
        thermal::ThermalEngine::Start::warm);
  }
  result.thermal_converged = first_converged && sim.unconverged_steps == 0;

  // Time accounting from the per-step trace: sample k holds the
  // temperatures at the END of step k, so each step's share of the
  // duration is attributed to the temperature that step actually
  // produced.  (The old callback-side accounting attributed the PREVIOUS
  // step's temperatures to the current timestamp and never assessed the
  // final step's outcome.)  The solver takes ceil(duration/dt) steps, so
  // the last step only covers the remainder of the duration.
  const std::size_t accounted = std::min(total_steps, sim.trace.size() + 1);
  for (std::size_t k = 0; k < accounted; ++k) {
    const thermal::TransientSample& sample =
        k == 0 ? first_sample : sim.trace[k - 1];
    const double step_dt =
        k + 1 == total_steps
            ? duration_s - static_cast<double>(total_steps - 1) * dt_s
            : dt_s;
    double peak = ambient_k;
    for (const double v : sample.die_peak_k) peak = std::max(peak, v);
    result.peak_k = std::max(result.peak_k, peak);
    if (peak > options.trigger_k) result.time_over_trigger_s += step_dt;
    if (k < step_throttled.size() && step_throttled[k]) {
      result.throttled_time_s += step_dt;
      result.performance_loss += (1.0 - options.throttle_scale) * step_dt;
    }
  }
  result.performance_loss /= duration_s;
  result.estimate_rmse_k =
      rmse_n > 0 ? std::sqrt(rmse_acc / static_cast<double>(rmse_n)) : 0.0;
  return result;
}

}  // namespace tsc3d::mitigation
