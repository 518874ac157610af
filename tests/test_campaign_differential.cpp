// Differential layer for the campaign adapters (src/campaign/
// scenario.cpp): every adapter -- floorplan rebuild, DTM / noise-
// injection mitigation, the five attack mappings, and the leakage
// summary -- is pinned BITWISE against a direct call to the standalone
// entry point it wraps, with the same inputs and seeds.  Any drift
// between "what the campaign reports" and "what the tool computes when
// invoked directly" fails here, not in a reviewer's spot check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "attack/attacks.hpp"
#include "attack/covert_channel.hpp"
#include "attack/heating_fault.hpp"
#include "campaign/matrix.hpp"
#include "campaign/options.hpp"
#include "campaign/scenario.hpp"
#include "config/config_file.hpp"
#include "core/rng.hpp"
#include "leakage/activity.hpp"
#include "leakage/mutual_information.hpp"
#include "leakage/pearson.hpp"
#include "leakage/spatial_entropy.hpp"
#include "leakage/svf.hpp"
#include "mitigation/dtm.hpp"
#include "mitigation/noise_injection.hpp"
#include "service/result_io.hpp"
#include "service/worker.hpp"
#include "thermal/grid_solver.hpp"

namespace tsc3d::campaign {
namespace {

namespace fs = std::filesystem;

constexpr const char* kConfig =
    "[floorplanning]\n"
    "sa_moves = 1200\n"
    "sa_stages = 8\n"
    "fast_grid = 16\n"
    "verify_grid = 24\n"
    "sampling_grid = 16\n";

/// A fresh directory private to this test process.  Under `ctest -j`
/// every test runs in its own process and each one builds the fixtures
/// below, so a shared path would be removed under a sibling's feet.
fs::path process_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// One real exploration, run once and shared by every test: the
/// adapters are exercised against the floorplan a campaign would
/// actually evaluate, not a synthetic fixture.
struct Exploration {
  service::JobSpec job;
  service::StoredResult stored;
  Floorplan3D floorplan;
};

const Exploration& exploration() {
  static const Exploration exp = [] {
    const fs::path dir = process_dir("campaign_diff_exploration");

    Exploration e;
    e.job.benchmark = "n100";
    e.job.seed = 1;
    e.job.config_text = kConfig;
    const service::WorkReport report =
        service::run_job(e.job, dir / "job.ckp", dir / "job.res", nullptr, 4);
    if (!report.ok)
      throw std::runtime_error("fixture exploration failed: " + report.error);
    const service::ArtifactContext ctx = service::job_context(e.job);
    const service::ResultLoad load =
        service::load_result_file(dir / "job.res", &ctx);
    if (!load.ok)
      throw std::runtime_error("fixture result unreadable: " + load.reason);
    e.stored = load.result;
    e.floorplan = rebuild_floorplan(
        e.job, config::ConfigFile::parse(kConfig, "fixture"), e.stored);
    return e;
  }();
  return exp;
}

CampaignOptions small_options() {
  CampaignOptions opt;
  opt.attack_grid = 8;
  opt.monitoring_trials = 2;
  opt.covert_bits = 4;
  opt.dtm_duration_s = 0.05;
  opt.dtm_dt_s = 0.005;
  opt.injection_budget = 0.10;
  opt.leakage_phases = 3;
  return opt;
}

ThermalConfig scenario_thermal(const CampaignOptions& opt) {
  ThermalConfig thermal;
  thermal.grid_nx = opt.attack_grid;
  thermal.grid_ny = opt.attack_grid;
  return thermal;
}

/// The adapters' deterministic victim/sender choice, replicated.
std::vector<std::size_t> by_area(const Floorplan3D& fp) {
  std::vector<std::size_t> order(fp.modules().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double aa = fp.modules()[a].area_um2;
    const double ab = fp.modules()[b].area_um2;
    if (aa != ab) return aa > ab;
    return a < b;
  });
  return order;
}

// --- rebuild ------------------------------------------------------------

TEST(CampaignDifferential, RebuildReproducesStoredMetricsBitwise) {
  const Exploration& e = exploration();
  // Same formula the flow used when it stored the result (floorplanner
  // metrics: wirelength_m = hpwl() * 1e-6).  Bitwise, not approximate.
  EXPECT_EQ(e.floorplan.hpwl() * 1e-6, e.stored.wirelength_m);
  EXPECT_EQ(e.floorplan.modules().size(), e.stored.placement.size());
  EXPECT_EQ(e.floorplan.tsvs().size(), e.stored.tsvs.size());
  EXPECT_EQ(e.floorplan.tech().clock_period_ns, e.stored.clock_period_ns);
}

// --- mitigation adapters ------------------------------------------------

TEST(CampaignDifferential, NoneMitigationIsTheIdentity) {
  const Exploration& e = exploration();
  const CampaignOptions opt = small_options();
  const MitigationOutcome out =
      apply_mitigation(e.floorplan, scenario_thermal(opt),
                       MitigationKind::none, opt, 42);
  EXPECT_EQ(out.overhead_w, 0.0);
  EXPECT_EQ(out.performance_loss, 0.0);
  ASSERT_EQ(out.floorplan.modules().size(), e.floorplan.modules().size());
  for (std::size_t i = 0; i < out.floorplan.modules().size(); ++i)
    EXPECT_EQ(out.floorplan.modules()[i].power_w,
              e.floorplan.modules()[i].power_w);
}

TEST(CampaignDifferential, DtmAdapterMatchesDirectRunDtm) {
  const Exploration& e = exploration();
  const CampaignOptions opt = small_options();
  const ThermalConfig thermal = scenario_thermal(opt);
  const std::uint64_t seed = 1234567;

  // Direct call, same inputs and seed the adapter uses.
  thermal::ThermalEngine engine(e.floorplan.tech(), thermal);
  Rng rng(seed);
  const mitigation::DtmOptions dtm_opt;
  const mitigation::DtmResult direct = mitigation::run_dtm(
      e.floorplan, engine, opt.dtm_duration_s, opt.dtm_dt_s, rng, dtm_opt);

  const MitigationOutcome out = apply_mitigation(
      e.floorplan, thermal, MitigationKind::dtm, opt, seed);
  EXPECT_EQ(out.performance_loss, direct.performance_loss);
  EXPECT_EQ(out.peak_k, direct.peak_k);
  EXPECT_EQ(out.overhead_w, 0.0);

  // The static throttle applies the controller's exact selection at
  // dtm_opt.throttle_scale -- or leaves every module untouched when the
  // controller never throttled.
  const std::vector<bool> throttled =
      mitigation::throttleable_modules(e.floorplan, dtm_opt);
  ASSERT_EQ(out.floorplan.modules().size(), e.floorplan.modules().size());
  for (std::size_t i = 0; i < throttled.size(); ++i) {
    const double base = e.floorplan.modules()[i].power_w;
    const double expected = (direct.throttled_time_s > 0.0 && throttled[i])
                                ? base * dtm_opt.throttle_scale
                                : base;
    EXPECT_EQ(out.floorplan.modules()[i].power_w, expected) << "module " << i;
  }
}

TEST(CampaignDifferential, InjectionAdapterMatchesDirectRunNoiseInjection) {
  const Exploration& e = exploration();
  const CampaignOptions opt = small_options();
  const ThermalConfig thermal = scenario_thermal(opt);

  thermal::ThermalEngine engine(e.floorplan.tech(), thermal);
  mitigation::InjectionOptions inj_opt;
  inj_opt.budget_fraction = opt.injection_budget;
  const mitigation::InjectionResult direct =
      mitigation::run_noise_injection(e.floorplan, engine, inj_opt);

  const MitigationOutcome out = apply_mitigation(
      e.floorplan, thermal, MitigationKind::noise_injection, opt, 9);
  EXPECT_EQ(out.overhead_w, direct.power_overhead_w);
  EXPECT_EQ(out.peak_k, direct.peak_k_after);

  // One injector pseudo-module per nonzero bin, wattage preserved
  // exactly (voltage index 0 <=> power scale 1).
  std::size_t nonzero_bins = 0;
  double injected = 0.0;
  for (const GridD& grid : direct.injected_power_w)
    for (std::size_t iy = 0; iy < grid.ny(); ++iy)
      for (std::size_t ix = 0; ix < grid.nx(); ++ix)
        if (grid.at(ix, iy) > 0.0) {
          ++nonzero_bins;
          injected += grid.at(ix, iy);
        }
  ASSERT_EQ(out.floorplan.modules().size(),
            e.floorplan.modules().size() + nonzero_bins);
  double adapter_injected = 0.0;
  for (std::size_t i = e.floorplan.modules().size();
       i < out.floorplan.modules().size(); ++i) {
    const Module& m = out.floorplan.modules()[i];
    EXPECT_EQ(m.voltage_index, 0u);
    EXPECT_FALSE(m.soft);
    adapter_injected += m.power_w;
  }
  EXPECT_EQ(adapter_injected, injected);  // same order, bitwise-equal sum
}

// --- attack adapters ----------------------------------------------------

TEST(CampaignDifferential, LocalizationMatchesDirectAttack) {
  const Exploration& e = exploration();
  const CampaignOptions opt = small_options();
  const thermal::GridSolver solver(e.floorplan.tech(),
                                   scenario_thermal(opt));
  Rng rng(7);
  const attack::LocalizationResult direct = attack::run_localization_attack(
      e.floorplan, solver, rng, attack::AttackOptions{});
  EXPECT_EQ(run_attack(e.floorplan, solver, AttackKind::localization, opt, 7),
            direct.success_rate());
}

TEST(CampaignDifferential, CharacterizationMatchesDirectAttack) {
  const Exploration& e = exploration();
  const CampaignOptions opt = small_options();
  const thermal::GridSolver solver(e.floorplan.tech(),
                                   scenario_thermal(opt));
  Rng rng(8);
  const attack::CharacterizationResult direct =
      attack::run_characterization_attack(e.floorplan, solver, rng,
                                          attack::AttackOptions{});
  EXPECT_EQ(
      run_attack(e.floorplan, solver, AttackKind::characterization, opt, 8),
      std::clamp(direct.r2, 0.0, 1.0));
}

TEST(CampaignDifferential, MonitoringMatchesDirectAttack) {
  const Exploration& e = exploration();
  const CampaignOptions opt = small_options();
  const thermal::GridSolver solver(e.floorplan.tech(),
                                   scenario_thermal(opt));
  const std::vector<std::size_t> order = by_area(e.floorplan);
  Rng rng(9);
  const attack::MonitoringResult direct = attack::run_monitoring_attack(
      e.floorplan, solver, order[0], order[1], opt.monitoring_trials, rng,
      attack::AttackOptions{});
  EXPECT_EQ(run_attack(e.floorplan, solver, AttackKind::monitoring, opt, 9),
            direct.accuracy());
}

TEST(CampaignDifferential, CovertChannelMatchesDirectAttack) {
  const Exploration& e = exploration();
  const CampaignOptions opt = small_options();
  const thermal::GridSolver solver(e.floorplan.tech(),
                                   scenario_thermal(opt));
  const std::vector<std::size_t> order = by_area(e.floorplan);
  Rng rng(10);
  attack::CovertChannelOptions cc_opt;
  cc_opt.bits = opt.covert_bits;
  const attack::CovertChannelResult direct =
      attack::run_covert_channel(e.floorplan, solver, order[0], rng, cc_opt);
  EXPECT_EQ(
      run_attack(e.floorplan, solver, AttackKind::covert_channel, opt, 10),
      std::clamp(1.0 - 2.0 * direct.bit_error_rate, 0.0, 1.0));
}

TEST(CampaignDifferential, HeatingFaultMatchesDirectAttack) {
  const Exploration& e = exploration();
  const CampaignOptions opt = small_options();
  const thermal::GridSolver solver(e.floorplan.tech(),
                                   scenario_thermal(opt));
  const std::vector<std::size_t> order = by_area(e.floorplan);
  const attack::HeatingFaultOptions hf_opt;
  const attack::HeatingFaultResult direct =
      attack::run_heating_fault_attack(e.floorplan, solver, order[0], hf_opt);
  double expected;
  if (direct.fault_induced) {
    expected = 1.0;
  } else {
    const double span =
        hf_opt.fault_threshold_k - direct.victim_peak_k_nominal;
    expected = span <= 0.0
                   ? 1.0
                   : std::clamp((direct.victim_peak_k_attacked -
                                 direct.victim_peak_k_nominal) /
                                    span,
                                0.0, 1.0);
  }
  EXPECT_EQ(
      run_attack(e.floorplan, solver, AttackKind::heating_fault, opt, 11),
      expected);
}

// --- leakage adapter ----------------------------------------------------

TEST(CampaignDifferential, LeakageSummaryMatchesDirectMetricCalls) {
  const Exploration& e = exploration();
  const CampaignOptions opt = small_options();
  const thermal::GridSolver solver(e.floorplan.tech(),
                                   scenario_thermal(opt));
  const std::uint64_t seed = 77;

  const std::size_t nx = solver.nx(), ny = solver.ny();
  const std::size_t dies = e.floorplan.tech().num_dies;
  const GridD tsv_density = e.floorplan.tsv_density_map(nx, ny);
  std::vector<GridD> power;
  for (std::size_t d = 0; d < dies; ++d)
    power.push_back(e.floorplan.power_map(d, nx, ny));
  const thermal::ThermalResult nominal =
      solver.solve_steady(power, tsv_density);

  LeakageSummary direct;
  for (std::size_t d = 0; d < dies; ++d) {
    direct.pearson_abs_max = std::max(
        direct.pearson_abs_max,
        std::abs(leakage::pearson(power[d], nominal.die_temperature[d])));
    direct.mi_max = std::max(
        direct.mi_max,
        leakage::mutual_information(power[d], nominal.die_temperature[d]));
    direct.spatial_entropy_max = std::max(
        direct.spatial_entropy_max, leakage::spatial_entropy(power[d]));
  }
  leakage::SvfAccumulator svf;
  const leakage::ActivityModel model;
  Rng rng(seed);
  for (std::size_t phase = 0; phase < opt.leakage_phases; ++phase) {
    const std::vector<double> activity = model.sample(e.floorplan, rng);
    std::vector<GridD> phase_power;
    for (std::size_t d = 0; d < dies; ++d)
      phase_power.push_back(e.floorplan.power_map(d, nx, ny, &activity));
    const thermal::ThermalResult observed =
        solver.solve_steady(phase_power, tsv_density);
    std::vector<double> side;
    for (std::size_t d = 0; d < dies; ++d)
      side.insert(side.end(), observed.die_temperature[d].data().begin(),
                  observed.die_temperature[d].data().end());
    svf.add_phase(activity, side);
  }
  direct.svf = svf.svf();

  EXPECT_EQ(measure_leakage(e.floorplan, solver, opt, seed), direct);
}

// --- end-to-end cross-check against the single-slice entry points ------

TEST(CampaignDifferential, EvaluateScenarioComposesTheAdaptersExactly) {
  const Exploration& e = exploration();
  const CampaignOptions opt = small_options();

  service::JobSpec job = e.job;
  job.scenario = "localization";
  job.mitigation = "noise_injection";
  job.flavor = "power_aware";

  const fs::path dir = process_dir("campaign_diff_evaluate");
  const ScenarioResult res = evaluate_scenario(job, opt, dir / "e.ckp",
                                               dir / "e.res", nullptr, 4);

  // Exploration side: the stored metrics verbatim.
  EXPECT_EQ(res.legal, e.stored.legal);
  EXPECT_EQ(res.wirelength_m, e.stored.wirelength_m);
  EXPECT_EQ(res.power_w, e.stored.power_w);
  EXPECT_EQ(res.peak_k, e.stored.peak_k);

  // Scenario side: the adapter composition with the scenario's own
  // per-stage seeds, reproduced step by step.
  const ScenarioContext ctx = scenario_context(job, opt);
  const ThermalConfig thermal = scenario_thermal(opt);
  const MitigationOutcome mitigated =
      apply_mitigation(e.floorplan, thermal, MitigationKind::noise_injection,
                       opt, scenario_seed(ctx, "mitigation"));
  const thermal::GridSolver solver(mitigated.floorplan.tech(), thermal);
  EXPECT_EQ(res.mitigation_overhead_w, mitigated.overhead_w);
  EXPECT_EQ(res.attack_success,
            run_attack(mitigated.floorplan, solver, AttackKind::localization,
                       opt, scenario_seed(ctx, "attack")));
  EXPECT_EQ(measure_leakage(mitigated.floorplan, solver, opt,
                            scenario_seed(ctx, "leakage")),
            (LeakageSummary{res.pearson_abs_max, res.mi_max, res.svf,
                            res.spatial_entropy_max}));
  EXPECT_EQ(res.leakage, res.attack_success);
  EXPECT_EQ(res.overhead,
            res.power_w * (1.0 + res.mitigation_performance_loss) +
                res.mitigation_overhead_w);
}

}  // namespace
}  // namespace tsc3d::campaign
