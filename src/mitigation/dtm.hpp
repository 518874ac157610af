// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Runtime thermal management for 3D ICs, after Zhu et al. [13] and the
// Kalman predictor-based proactive DTM of Fu et al. [14].  The paper
// leans on this infrastructure twice: 3D ICs "will require runtime
// capabilities for thermal management, based on embedded on-chip thermal
// sensors" (Sec. 1) -- and those same sensors are the attacker's thermal
// side channel (Sec. 2.1).  Implementing the DTM loop therefore gives us
// both the defender's temperature control and the realistic noisy-sensor
// substrate the attacks read through.
//
// Components:
//  * ScalarKalman     -- per-sensor random-walk Kalman filter; the
//                        predictor of [14] that sees through read noise.
//  * DtmController    -- reactive or proactive threshold throttling: when
//                        the (predicted) hottest sensor exceeds the
//                        trigger, the hottest modules' power is scaled
//                        down (DVFS-style) until the stack cools.
//  * run_dtm          -- closed-loop transient simulation of the
//                        controller against a floorplan.
#pragma once

#include <cstddef>
#include <vector>

#include "core/floorplan.hpp"
#include "core/grid.hpp"
#include "core/rng.hpp"
#include "thermal/thermal_engine.hpp"

namespace tsc3d::mitigation {

/// One-dimensional random-walk Kalman filter: state x = temperature of a
/// sensor site, process noise q (thermal drift between control periods),
/// measurement noise r (sensor read noise).
class ScalarKalman {
 public:
  ScalarKalman(double initial_k, double process_var, double measurement_var);

  /// Time update: variance grows by the process noise.
  void predict();
  /// Measurement update with reading z [K].
  void update(double z_k);

  [[nodiscard]] double state_k() const { return x_; }
  [[nodiscard]] double variance() const { return p_; }

 private:
  double x_;
  double p_ = 1.0;
  double q_;
  double r_;
};

/// Two-state (temperature, slope) constant-velocity Kalman filter -- the
/// predictor of [14].  Unlike the random-walk ScalarKalman it tracks the
/// heating/cooling ramps of thermal transients without steady-state lag,
/// and extrapolate() provides the proactive lookahead directly.
class RampKalman {
 public:
  RampKalman(double initial_k, double temp_process_var,
             double slope_process_var, double measurement_var);

  void predict();
  void update(double z_k);

  [[nodiscard]] double state_k() const { return x_; }
  [[nodiscard]] double slope_k_per_period() const { return v_; }
  /// Predicted temperature `periods` control periods ahead.
  [[nodiscard]] double extrapolate(double periods) const {
    return x_ + periods * v_;
  }

 private:
  double x_;
  double v_ = 0.0;
  bool initialized_ = false;  ///< first update adopts the reading outright
  // Covariance [[p00, p01], [p01, p11]].  The prior is deliberately
  // uninformed (large) so the filter adapts quickly during the steep
  // initial heating transient instead of trusting the initial guess.
  double p00_ = 25.0, p01_ = 0.0, p11_ = 25.0;
  double qx_, qv_, r_;
};

struct DtmOptions {
  double trigger_k = 345.0;        ///< throttle when estimate exceeds this
  double release_k = 342.0;        ///< un-throttle below this (hysteresis)
  double throttle_scale = 0.5;     ///< power multiplier while throttled
  /// Fraction of modules (hottest first, by power density) throttled.
  double throttled_fraction = 0.3;
  double control_period_s = 0.01;  ///< sensor read + decision cadence
  double sensor_noise_k = 0.5;     ///< Gaussian read noise per sample
  bool use_kalman = true;          ///< [14]-style predictor vs raw reads
  double kalman_process_var = 0.05;  ///< temperature process noise
  /// Slope process noise.  Thermal transients are saturating
  /// exponentials, so the slope genuinely changes between control
  /// periods; a too-small value makes the filter cling to stale slopes
  /// and overshoot the knee of the heating curve.
  double kalman_slope_var = 0.5;
  /// Proactive lead: throttle when the extrapolation this many control
  /// periods ahead crosses the trigger.  0 = reactive [13].  With the
  /// Kalman predictor the filter's own slope state is extrapolated; with
  /// raw reads a finite difference of consecutive readings is used.
  double lookahead_periods = 1.0;
};

/// Closed-loop outcome.
struct DtmResult {
  double time_over_trigger_s = 0.0;  ///< true peak above trigger_k
  double peak_k = 0.0;               ///< true peak over the whole run
  double throttled_time_s = 0.0;     ///< time spent throttled
  double performance_loss = 0.0;     ///< mean power reduction fraction
  /// RMSE of the controller's estimate against the peak it could observe
  /// at read time (the field the previous solver step produced).
  double estimate_rmse_k = 0.0;
  std::size_t control_actions = 0;   ///< throttle state toggles
  std::size_t sensor_reads = 0;      ///< control-period sensor samples
  bool thermal_converged = true;     ///< every solver step converged
  bool checkpoint_reused = false;    ///< t=0+ field came from a checkpoint
  bool checkpoint_captured = false;  ///< this run filled the checkpoint
};

/// Cross-run checkpoint of the t = 0+ solver state: the temperature
/// field after the FIRST implicit-Euler step.  DTM parameter sweeps
/// (trigger, lookahead, Kalman tuning, ...) re-run the same heating
/// transient from ambient; the first step's power is
/// controller-independent whenever the controller does not throttle at
/// the initial ambient read, so its (cold, expensive) solve can be done
/// once and replayed.  run_dtm validates the checkpoint against the
/// current run -- grid shape, dt, TSV map, ambient, and the BITWISE
/// step-1 power maps the current controller actually produces -- and
/// silently falls back to a fresh solve on any mismatch, so reuse never
/// changes results (tests assert bitwise-equal DtmResult either way).
/// Reuse it only with the same floorplan + engine configuration.
struct DtmCheckpoint {
  bool valid = false;
  double dt_s = 0.0;
  double ambient_k = 0.0;
  std::size_t nx = 0, ny = 0;
  std::vector<double> tsv;                ///< density map of the run
  std::vector<GridD> first_power;         ///< step-1 per-die power maps
  thermal::FieldSnapshot field;           ///< field after step 1
  thermal::TransientSample first_sample;  ///< step-1 trace entry
  bool first_step_converged = true;
};

/// The controller's throttle set: per-module flags, true for the hottest
/// `throttled_fraction` of modules by nominal power density.  This is
/// the EXACT selection run_dtm's controller acts on, exposed so other
/// consumers (the campaign runner's statically throttled floorplans)
/// throttle the identical modules.
[[nodiscard]] std::vector<bool> throttleable_modules(
    const Floorplan3D& fp, const DtmOptions& options = {});

/// Simulate `duration_s` of the DTM loop on the floorplan's nominal
/// activity.  The controller reads the hottest die's peak through a noisy
/// sensor each control period and throttles the hottest modules.
/// The solver takes ceil(duration_s / dt_s) steps; time accounting is
/// clamped to `duration_s`, but when duration_s is not a multiple of
/// dt_s the last (partial) interval is assessed at the temperature the
/// full final step produced (slightly past duration_s) -- pick dt_s
/// dividing duration_s for exact-window metrics.
///
/// `checkpoint` (optional) warm-starts parameter sweeps: an invalid
/// checkpoint is filled from this run's first transient step, a valid
/// matching one replaces that step's solve (see DtmCheckpoint); the
/// result reports which happened and is bitwise-identical either way.
[[nodiscard]] DtmResult run_dtm(const Floorplan3D& fp,
                                thermal::ThermalEngine& engine,
                                double duration_s, double dt_s, Rng& rng,
                                const DtmOptions& options = {},
                                DtmCheckpoint* checkpoint = nullptr);

}  // namespace tsc3d::mitigation
