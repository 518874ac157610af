#include "floorplan/floorplanner.hpp"

#include <algorithm>
#include <chrono>

#include "leakage/activity.hpp"
#include "leakage/pearson.hpp"
#include "tsv/planner.hpp"

namespace tsc3d::floorplan {

Floorplanner::Floorplanner(FloorplannerOptions options)
    : opt_(std::move(options)) {}

FloorplannerOptions Floorplanner::power_aware_setup() {
  FloorplannerOptions o;
  o.mode = FlowMode::power_aware;
  o.voltage.objective = power::VoltageObjective::power_aware;
  o.dummy_insertion = false;
  return o;
}

FloorplannerOptions Floorplanner::tsc_aware_setup() {
  FloorplannerOptions o;
  o.mode = FlowMode::tsc_aware;
  o.voltage.objective = power::VoltageObjective::tsc_aware;
  o.dummy_insertion = true;
  // Leakage terms need fresh thermal estimates to provide a usable
  // gradient to the annealer: refresh the in-loop thermal analysis every
  // few moves (warm-started solves make this affordable; the voltage
  // assignment stays on the slower full-eval cadence).
  o.anneal.thermal_eval_interval = 10;
  return o;
}

FloorplanMetrics Floorplanner::run(Floorplan3D& fp, Rng& rng) const {
  return run(fp, rng, ExplorationHooks{});
}

FloorplanMetrics Floorplanner::run(Floorplan3D& fp, Rng& rng,
                                   const ExplorationHooks& hooks) const {
  const auto t_start = std::chrono::steady_clock::now();
  FloorplanMetrics metrics;
  const ExplorationCheckpoint* resume = hooks.resume;

  // --- annealing setup with the mode's weights ---------------------------
  ChainSetup setup;
  setup.fast_thermal = opt_.thermal;
  setup.fast_thermal.grid_nx = setup.fast_thermal.grid_ny = opt_.fast_grid;
  setup.engine_parallel = opt_.parallel;
  setup.eval.weights = opt_.mode == FlowMode::power_aware
                           ? power_aware_weights()
                           : tsc_aware_weights();
  setup.eval.voltage_objective = opt_.voltage.objective;
  setup.eval.timing = opt_.timing;
  setup.eval.voltage = opt_.voltage;
  setup.eval.leakage_grid = opt_.fast_grid;
  setup.eval.entropy_options = opt_.entropy;
  setup.eval.cross_check_interval = opt_.cross_check_interval;
  setup.anneal = opt_.anneal;
  setup.chains = opt_.chains;

  // --- simulated annealing ------------------------------------------------
  LayoutState state;
  if (resume == nullptr) {
    state = LayoutState::initial(fp, rng, opt_.hot_modules_to_top);
    if (opt_.auto_clock_factor > 0.0) {
      // Timing budget derived from the initial layout (all modules at the
      // nominal voltage); see FloorplannerOptions::auto_clock_factor.
      state.apply_to(fp);
      const power::ElmoreTiming initial_timing(fp, opt_.timing);
      fp.tech().clock_period_ns = std::max(
          opt_.auto_clock_factor * initial_timing.analyze().critical_delay_ns,
          1e-3);
    }
  } else {
    // Resume: the initial-layout construction and the auto-clock
    // derivation consumed RNG in the original run; the clock comes back
    // from the checkpoint, and the orchestrator restores every RNG
    // position (chain 0's is `rng`'s).
    fp.tech().clock_period_ns = resume->clock_period_ns;
  }
  ChainOrchestrator orchestrator(std::move(setup));
  metrics.chains = orchestrator.run(fp, state, rng, &hooks);
  metrics.anneal = metrics.chains.chains[metrics.chains.winner];
  metrics.legal = fp.check_legality().legal;

  // --- final TSV placement and voltage assignment -----------------------
  tsv::place_signal_tsvs(fp);
  const power::ElmoreTiming timing(fp, opt_.timing);
  power::VoltageOptions vopt = opt_.voltage;
  power::VoltageAssigner assigner(fp, timing, vopt);
  const power::VoltageAssignment va = assigner.assign();
  metrics.voltage_volumes = va.num_volumes();

  // --- post-processing: dummy thermal TSVs (Sec. 6.2) --------------------
  const bool do_dummy =
      opt_.dummy_insertion && opt_.mode == FlowMode::tsc_aware;
  if (do_dummy) {
    ThermalConfig sampling_cfg = opt_.thermal;
    sampling_cfg.grid_nx = sampling_cfg.grid_ny = opt_.sampling_grid;
    thermal::ThermalEngine sampling_engine(fp.tech(), sampling_cfg,
                                           opt_.parallel,
                                           thermal::EngineRole::sampling);
    metrics.dummy = tsv::insert_dummy_tsvs(fp, sampling_engine, rng,
                                           opt_.dummy);
  }

  // --- detailed verification (Fig. 3, bottom) -----------------------------
  ThermalConfig verify_cfg = opt_.thermal;
  verify_cfg.grid_nx = verify_cfg.grid_ny = opt_.verify_grid;
  thermal::ThermalEngine verify_engine(fp.tech(), verify_cfg, opt_.parallel,
                                       thermal::EngineRole::verify);
  const std::size_t g = opt_.verify_grid;
  std::vector<GridD> power_maps;
  for (std::size_t d = 0; d < fp.tech().num_dies; ++d)
    power_maps.push_back(fp.power_map(d, g, g));
  const thermal::ThermalResult verified =
      verify_engine.solve_steady(power_maps, fp.tsv_density_map(g, g));

  for (std::size_t d = 0; d < fp.tech().num_dies; ++d) {
    metrics.correlation.push_back(
        leakage::pearson(power_maps[d], verified.die_temperature[d]));
    metrics.entropy.push_back(
        leakage::spatial_entropy(power_maps[d], opt_.entropy));
  }
  metrics.peak_k = verified.peak_k;
  metrics.power_w = fp.total_power();
  metrics.critical_delay_ns = timing.analyze().critical_delay_ns;
  metrics.wirelength_m = fp.hpwl() * 1e-6;
  metrics.signal_tsvs = fp.tsv_count(TsvKind::signal);
  metrics.dummy_tsvs = fp.tsv_count(TsvKind::dummy);

  metrics.runtime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_start)
          .count();
  return metrics;
}

}  // namespace tsc3d::floorplan
