#include "floorplan/floorplanner.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "leakage/activity.hpp"
#include "leakage/pearson.hpp"
#include "thermal/power_blur.hpp"
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
  // gradient to the annealer: refresh the fast thermal analysis every few
  // moves (power blurring makes this affordable; the voltage assignment
  // stays on the slower full-eval cadence).
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

  // --- cost evaluator options with the mode's weights -------------------
  ThermalConfig fast_cfg = opt_.thermal;
  fast_cfg.grid_nx = fast_cfg.grid_ny = opt_.fast_grid;
  CostEvaluator::Options eval_opt;
  eval_opt.weights = opt_.mode == FlowMode::power_aware
                         ? power_aware_weights()
                         : tsc_aware_weights();
  eval_opt.voltage_objective = opt_.voltage.objective;
  eval_opt.timing = opt_.timing;
  eval_opt.voltage = opt_.voltage;
  eval_opt.leakage_grid = opt_.fast_grid;
  eval_opt.entropy_options = opt_.entropy;
  eval_opt.cross_check_interval = opt_.cross_check_interval;

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
    // Resume: the initial-layout construction, the auto-clock derivation
    // and (for tempering) the orchestrator seed draw all consumed RNG in
    // the original run; their outcomes -- and the stream position after
    // them -- come back from the checkpoint instead of being replayed.
    fp.tech().clock_period_ns = resume->clock_period_ns;
    rng.set_state(resume->flow_rng);
  }
  if (opt_.chains.chains > 1) {
    if (resume != nullptr && !resume->tempering)
      throw std::invalid_argument(
          "Floorplanner: single-chain checkpoint cannot resume a tempering "
          "run");
    // Parallel tempering: K chains, each with its own design copy and
    // thermal/cost machinery, exchange states on a temperature ladder.
    ChainSetup setup;
    setup.fast_thermal = fast_cfg;
    setup.blur_radius = opt_.blur_radius;
    setup.detailed_inner_thermal = opt_.detailed_inner_thermal;
    setup.engine_parallel = opt_.parallel;
    setup.eval = eval_opt;
    setup.anneal = opt_.anneal;
    setup.chains = opt_.chains;
    ChainOrchestrator orchestrator(std::move(setup));
    if (hooks.save || resume != nullptr) {
      const std::uint64_t seed = resume == nullptr ? rng() : 0;
      metrics.chains = orchestrator.run(fp, state, seed, &hooks, rng.state());
    } else {
      metrics.chains = orchestrator.run(fp, state, rng());
    }
    metrics.anneal = metrics.chains.chains[metrics.chains.winner];
  } else {
    if (resume != nullptr && (resume->tempering || resume->chains.size() != 1))
      throw std::invalid_argument(
          "Floorplanner: tempering checkpoint cannot resume a single-chain "
          "run");
    // Single chain: one fast engine serves the whole in-loop resolution
    // (power-blur calibration and, optionally, the detailed in-loop
    // solves); its cached assembly and warm-start state persist across
    // the annealing run.
    thermal::ThermalEngine fast_engine(fp.tech(), fast_cfg, opt_.parallel,
                                       thermal::EngineRole::fast_loop);
    const thermal::PowerBlur blur(fast_engine, opt_.blur_radius);
    if (opt_.detailed_inner_thermal) eval_opt.detailed_engine = &fast_engine;
    CostEvaluator evaluator(fp, blur, eval_opt);
    Annealer annealer(fp, evaluator, opt_.anneal);
    thermal::ThermalEngine* engine = eval_opt.detailed_engine;
    AnnealSession session;
    if (resume != nullptr) {
      restore_chain(resume->chains[0], session, state, rng, evaluator,
                    engine, fp);
    } else {
      session = annealer.begin(state, rng);
    }
    const std::size_t save_interval =
        std::max<std::size_t>(1, hooks.checkpoint_interval);
    while (annealer.run_stage(session, rng)) {
      // Checkpoint at the stage boundary (no bracket open, no move
      // half-applied); the final boundary always saves so a crash during
      // finish() resumes with zero stages left to redo.
      if (hooks.save && (session.stage % save_interval == 0 ||
                         session.stage >= opt_.anneal.stages)) {
        ExplorationCheckpoint ck;
        ck.tempering = false;
        ck.clock_period_ns = fp.tech().clock_period_ns;
        ck.flow_rng = rng.state();
        ck.chains.push_back(
            capture_chain(session, rng, evaluator, engine, fp));
        hooks.save(ck);
      }
    }
    metrics.anneal = annealer.finish(session, rng);
  }
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
