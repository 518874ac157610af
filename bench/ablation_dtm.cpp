// Refs [13], [14] substrate: runtime thermal management over the noisy
// on-chip sensors the attacker also reads.  Two experiments on a hot
// floorplan:
//
//  1. Sensor tracking (open loop): RMSE of the peak-temperature estimate
//     from raw reads vs the Kalman predictor of [14].
//  2. Throttling (closed loop): no DTM vs reactive raw-read throttling
//     [13] vs proactive Kalman throttling [14]; peak temperature, time
//     above trigger, performance loss, and controller toggles.
//
// Expected shape (as in [14]): the predictor filters read noise in open
// loop, and proactive throttling cuts the time spent above the trigger
// for a comparable performance loss.
#include <iostream>

#include "bench_util.hpp"
#include "benchgen/generator.hpp"
#include "floorplan/annealer.hpp"
#include "mitigation/dtm.hpp"
#include "tsv/planner.hpp"

using namespace tsc3d;

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto seed =
      static_cast<std::uint64_t>(flags.get("seed", std::size_t{7}));
  const double duration = flags.get("duration", 3.0);

  std::cout << "=== Refs [13]/[14]: runtime thermal management ===\n\n";

  benchgen::BenchmarkSpec spec;
  spec.name = "dtm";
  spec.soft_modules = 40;
  spec.num_nets = 80;
  spec.num_terminals = 8;
  spec.outline_mm2 = 4.0;
  spec.power_w = 8.0;  // deliberately hot
  Floorplan3D fp = benchgen::generate(spec, seed);
  Rng rng(seed);
  floorplan::LayoutState state = floorplan::LayoutState::initial(fp, rng);
  state.apply_to(fp);
  tsv::place_signal_tsvs(fp);

  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  thermal::ThermalEngine engine(fp.tech(), cfg);

  // --- experiment 1: open-loop tracking ------------------------------
  std::cout << "-- sensor tracking (no throttling, noise 1.5 K) --\n";
  mitigation::DtmOptions track;
  track.trigger_k = 1e9;
  track.release_k = 1e9 - 1.0;
  track.sensor_noise_k = 1.5;
  track.control_period_s = 0.02;
  track.use_kalman = false;
  // Parameter sweeps re-run the same t = 0+ heating step; a checkpoint
  // (one per dt) solves it once and replays it bitwise across settings.
  mitigation::DtmCheckpoint track_ckpt;
  Rng rng_raw(seed + 1), rng_kf(seed + 1);
  const auto t_raw =
      run_dtm(fp, engine, duration, 0.02, rng_raw, track, &track_ckpt);
  track.use_kalman = true;
  track.kalman_slope_var = 2.0;
  const auto t_kf =
      run_dtm(fp, engine, duration, 0.02, rng_kf, track, &track_ckpt);
  std::cout << "  raw reads      : RMSE " << bench::fmt(t_raw.estimate_rmse_k, 3)
            << " K\n  Kalman [14]    : RMSE "
            << bench::fmt(t_kf.estimate_rmse_k, 3) << " K\n\n";

  // --- experiment 2: closed-loop throttling --------------------------
  // Uncontrolled peak first; the trigger sits 5 K below it.
  const double peak_unc = t_raw.peak_k;
  const double trigger = peak_unc - 5.0;

  // "none": trigger armed but throttling is a no-op, so time-over-trigger
  // is measured against the same threshold.
  mitigation::DtmOptions none;
  none.trigger_k = trigger;
  none.release_k = trigger - 4.0;
  none.throttle_scale = 1.0;
  none.sensor_noise_k = 1.0;
  none.control_period_s = 0.05;

  mitigation::DtmOptions reactive = none;
  reactive.throttle_scale = 0.5;
  reactive.throttled_fraction = 0.4;
  reactive.use_kalman = false;
  reactive.lookahead_periods = 0.0;

  mitigation::DtmOptions proactive = reactive;
  proactive.use_kalman = true;
  proactive.kalman_slope_var = 2.0;
  proactive.lookahead_periods = 2.0;

  mitigation::DtmCheckpoint sweep_ckpt;
  Rng rng_n(seed + 2), rng_re(seed + 2), rng_pro(seed + 2);
  const auto r_none =
      run_dtm(fp, engine, duration, 0.01, rng_n, none, &sweep_ckpt);
  const auto r_re =
      run_dtm(fp, engine, duration, 0.01, rng_re, reactive, &sweep_ckpt);
  const auto r_pro =
      run_dtm(fp, engine, duration, 0.01, rng_pro, proactive, &sweep_ckpt);

  bench::Table table({"controller", "peak T [K]", "time > trigger [ms]",
                      "perf loss [%]", "toggles"});
  table.add("none", r_none.peak_k, 1e3 * r_none.time_over_trigger_s,
            100.0 * (1.0 - 1.0), r_none.control_actions);
  table.add("reactive raw [13]", r_re.peak_k, 1e3 * r_re.time_over_trigger_s,
            100.0 * r_re.performance_loss, r_re.control_actions);
  table.add("proactive Kalman [14]", r_pro.peak_k,
            1e3 * r_pro.time_over_trigger_s, 100.0 * r_pro.performance_loss,
            r_pro.control_actions);
  table.print();

  std::cout << "\ncheckpoint: t=0+ field reused by "
            << (t_kf.checkpoint_reused ? 1 : 0) +
                   (r_re.checkpoint_reused ? 1 : 0) +
                   (r_pro.checkpoint_reused ? 1 : 0)
            << "/3 sweep continuation runs (bitwise-identical results)\n"
            << "trigger: " << bench::fmt(trigger, 1)
            << " K (uncontrolled peak - 5 K)\n"
            << "predictor tracks the peak better than raw reads: "
            << (t_kf.estimate_rmse_k < t_raw.estimate_rmse_k ? "YES" : "NO")
            << "\nthrottling contains the peak: "
            << (r_re.peak_k < r_none.peak_k ? "YES" : "NO")
            << "\nproactive control does not spend longer above trigger: "
            << (r_pro.time_over_trigger_s <= r_re.time_over_trigger_s + 0.05
                    ? "YES"
                    : "NO")
            << "\n";
  return 0;
}
