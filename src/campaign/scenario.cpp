#include "campaign/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/attacks.hpp"
#include "attack/covert_channel.hpp"
#include "attack/heating_fault.hpp"
#include "campaign/matrix.hpp"
#include "config/apply.hpp"
#include "leakage/activity.hpp"
#include "leakage/mutual_information.hpp"
#include "leakage/pearson.hpp"
#include "leakage/spatial_entropy.hpp"
#include "leakage/svf.hpp"
#include "mitigation/dtm.hpp"
#include "mitigation/noise_injection.hpp"
#include "service/serialize.hpp"

namespace tsc3d::campaign {

namespace {

std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  return service::fnv1a64(&v, sizeof(v), h);
}

std::uint64_t hash_f64(std::uint64_t h, double v) {
  return service::fnv1a64(&v, sizeof(v), h);
}

std::uint64_t hash_str(std::uint64_t h, const std::string& s) {
  // Length-prefixed so ("ab","c") never collides with ("a","bc").
  h = hash_u64(h, s.size());
  return service::fnv1a64(s.data(), s.size(), h);
}

/// Module indices sorted by area descending, index ascending on ties --
/// the deterministic "largest modules" the attack adapters pick victims
/// and senders from.  Matches the block-level attacker of Sec. 5: the
/// big, well-known IP blocks are the natural targets.
std::vector<std::size_t> modules_by_area(const Floorplan3D& fp) {
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

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

}  // namespace

std::uint64_t scenario_params_hash(const CampaignOptions& opt) {
  std::uint64_t h = service::fnv1a64("tsc3d-scenario-params v1");
  h = hash_u64(h, opt.attack_grid);
  h = hash_u64(h, opt.monitoring_trials);
  h = hash_u64(h, opt.covert_bits);
  h = hash_f64(h, opt.dtm_duration_s);
  h = hash_f64(h, opt.dtm_dt_s);
  h = hash_f64(h, opt.injection_budget);
  h = hash_u64(h, opt.leakage_phases);
  return h;
}

ScenarioContext scenario_context(const service::JobSpec& job,
                                 const CampaignOptions& opt) {
  if (!job.is_scenario())
    throw std::invalid_argument(
        "scenario_context: job carries no scenario annotation");
  // Validate the annotations up front: a job file with a typo'd axis
  // name must fail here, not deep inside evaluation.
  (void)parse_attack(job.scenario);
  (void)parse_mitigation(job.mitigation.empty() ? "none" : job.mitigation);
  (void)parse_flavor(job.flavor.empty() ? "power_aware" : job.flavor);
  ScenarioContext ctx;
  ctx.exploration = service::job_context(exploration_spec(job));
  ctx.attack = job.scenario;
  ctx.mitigation = job.mitigation.empty() ? "none" : job.mitigation;
  ctx.flavor = job.flavor.empty() ? "power_aware" : job.flavor;
  ctx.params_hash = scenario_params_hash(opt);
  return ctx;
}

namespace {

/// Digest of the scenario identity WITHOUT the producer's code version:
/// the root of every stage seed, so a kCodeVersion bump that leaves the
/// floorplans bitwise unchanged leaves every scenario's streams unchanged
/// too.
std::uint64_t identity_digest(const ScenarioContext& ctx) {
  std::uint64_t h = service::fnv1a64("tsc3d-scenario v2");
  h = hash_u64(h, ctx.exploration.design_hash);
  h = hash_u64(h, ctx.exploration.config_hash);
  h = hash_u64(h, ctx.exploration.seed);
  h = hash_str(h, ctx.attack);
  h = hash_str(h, ctx.mitigation);
  h = hash_str(h, ctx.flavor);
  h = hash_u64(h, ctx.params_hash);
  return h;
}

}  // namespace

std::uint64_t scenario_key(const ScenarioContext& ctx) {
  return hash_str(identity_digest(ctx), ctx.exploration.code_version);
}

std::uint64_t scenario_seed(const ScenarioContext& ctx,
                            const std::string& purpose) {
  return hash_str(identity_digest(ctx), purpose);
}

Floorplan3D rebuild_floorplan(const service::JobSpec& exploration,
                              const config::ConfigFile& cfg,
                              const service::StoredResult& stored) {
  Floorplan3D fp = service::build_design(exploration, cfg);
  if (stored.placement.size() != fp.modules().size())
    throw std::runtime_error(
        "rebuild_floorplan: stored placement has " +
        std::to_string(stored.placement.size()) + " modules, design has " +
        std::to_string(fp.modules().size()));
  for (std::size_t i = 0; i < stored.placement.size(); ++i) {
    const service::PlacedModule& p = stored.placement[i];
    Module& m = fp.modules()[i];
    m.die = static_cast<std::size_t>(p.die);
    m.shape = Rect{p.x, p.y, p.w, p.h};
    m.voltage_index = static_cast<std::size_t>(p.voltage_index);
  }
  fp.tsvs().clear();
  for (const service::StoredTsv& t : stored.tsvs) {
    Tsv tsv;
    tsv.position = Point{t.x, t.y};
    tsv.count = static_cast<std::size_t>(t.count);
    tsv.kind = t.kind == 0 ? TsvKind::signal : TsvKind::dummy;
    tsv.net = static_cast<NetId>(t.net);
    fp.tsvs().push_back(tsv);
  }
  if (stored.clock_period_ns > 0.0)
    fp.tech().clock_period_ns = stored.clock_period_ns;
  fp.invalidate_layout_caches();
  return fp;
}

MitigationOutcome apply_mitigation(const Floorplan3D& fp,
                                   const ThermalConfig& thermal,
                                   MitigationKind kind,
                                   const CampaignOptions& opt,
                                   std::uint64_t seed) {
  MitigationOutcome out;
  out.floorplan = fp;
  if (kind == MitigationKind::none) return out;

  thermal::ThermalEngine engine(fp.tech(), thermal);
  if (kind == MitigationKind::dtm) {
    Rng rng(seed);
    const mitigation::DtmOptions dtm_opt;
    const mitigation::DtmResult result = mitigation::run_dtm(
        fp, engine, opt.dtm_duration_s, opt.dtm_dt_s, rng, dtm_opt);
    out.performance_loss = result.performance_loss;
    out.peak_k = result.peak_k;
    if (result.throttled_time_s > 0.0) {
      // The attacker observes the throttled operating point: scale the
      // controller's EXACT throttle set (same selection run_dtm acts
      // on) down to the throttled power level.
      const std::vector<bool> throttled =
          mitigation::throttleable_modules(fp, dtm_opt);
      for (std::size_t i = 0; i < throttled.size(); ++i)
        if (throttled[i])
          out.floorplan.modules()[i].power_w *= dtm_opt.throttle_scale;
      out.floorplan.invalidate_layout_caches();
    }
    return out;
  }

  // Noise injection: run the smoothing controller, then make the dummy
  // activity part of the floorplan the attacker sees by adding one
  // injector pseudo-module per nonzero bin of the injected-power map.
  mitigation::InjectionOptions inj_opt;
  inj_opt.budget_fraction = opt.injection_budget;
  const mitigation::InjectionResult result =
      mitigation::run_noise_injection(fp, engine, inj_opt);
  out.overhead_w = result.power_overhead_w;
  out.peak_k = result.peak_k_after;
  const double die_w = fp.tech().die_width_um;
  const double die_h = fp.tech().die_height_um;
  for (std::size_t d = 0; d < result.injected_power_w.size(); ++d) {
    const GridD& grid = result.injected_power_w[d];
    if (grid.empty()) continue;
    const double bin_w = die_w / static_cast<double>(grid.nx());
    const double bin_h = die_h / static_cast<double>(grid.ny());
    for (std::size_t iy = 0; iy < grid.ny(); ++iy)
      for (std::size_t ix = 0; ix < grid.nx(); ++ix) {
        const double watts = grid.at(ix, iy);
        if (watts <= 0.0) continue;
        Module inj;
        inj.id = out.floorplan.modules().size();
        inj.name = "inj_d" + std::to_string(d) + "_" + std::to_string(ix) +
                   "_" + std::to_string(iy);
        inj.area_um2 = bin_w * bin_h;
        inj.soft = false;
        // Voltage index 0 has power_scale 1.0, so effective_power()
        // reproduces the injected wattage exactly.
        inj.power_w = watts;
        inj.voltage_index = 0;
        inj.die = d;
        inj.shape = Rect{static_cast<double>(ix) * bin_w,
                         static_cast<double>(iy) * bin_h, bin_w, bin_h};
        out.floorplan.modules().push_back(inj);
      }
  }
  out.floorplan.invalidate_layout_caches();
  return out;
}

double run_attack(const Floorplan3D& fp, const thermal::GridSolver& solver,
                  AttackKind kind, const CampaignOptions& opt,
                  std::uint64_t seed) {
  Rng rng(seed);
  const attack::AttackOptions attack_opt;
  switch (kind) {
    case AttackKind::localization: {
      const attack::LocalizationResult r =
          attack::run_localization_attack(fp, solver, rng, attack_opt);
      return r.success_rate();
    }
    case AttackKind::characterization: {
      const attack::CharacterizationResult r =
          attack::run_characterization_attack(fp, solver, rng, attack_opt);
      return clamp01(r.r2);
    }
    case AttackKind::monitoring: {
      const std::vector<std::size_t> order = modules_by_area(fp);
      if (order.size() < 2)
        throw std::runtime_error("monitoring attack needs >= 2 modules");
      const attack::MonitoringResult r = attack::run_monitoring_attack(
          fp, solver, order[0], order[1], opt.monitoring_trials, rng,
          attack_opt);
      return r.accuracy();
    }
    case AttackKind::covert_channel: {
      const std::vector<std::size_t> order = modules_by_area(fp);
      if (order.empty())
        throw std::runtime_error("covert channel needs >= 1 module");
      attack::CovertChannelOptions cc_opt;
      cc_opt.bits = opt.covert_bits;
      const attack::CovertChannelResult r =
          attack::run_covert_channel(fp, solver, order[0], rng, cc_opt);
      // BER 0.5 is a coin flip (no channel); BER 0 is a perfect one.
      return clamp01(1.0 - 2.0 * r.bit_error_rate);
    }
    case AttackKind::heating_fault: {
      const std::vector<std::size_t> order = modules_by_area(fp);
      if (order.empty())
        throw std::runtime_error("heating fault needs >= 1 module");
      const attack::HeatingFaultOptions hf_opt;
      const attack::HeatingFaultResult r =
          attack::run_heating_fault_attack(fp, solver, order[0], hf_opt);
      if (r.fault_induced) return 1.0;
      // Partial credit: how far toward the fault threshold the attack
      // pushed the victim from its resting temperature.
      const double span = hf_opt.fault_threshold_k - r.victim_peak_k_nominal;
      if (span <= 0.0) return 1.0;  // already faulting at rest
      return clamp01((r.victim_peak_k_attacked - r.victim_peak_k_nominal) /
                     span);
    }
  }
  throw std::invalid_argument("run_attack: invalid AttackKind");
}

LeakageSummary measure_leakage(const Floorplan3D& fp,
                               const thermal::GridSolver& solver,
                               const CampaignOptions& opt,
                               std::uint64_t seed) {
  const std::size_t nx = solver.nx(), ny = solver.ny();
  const std::size_t dies = fp.tech().num_dies;
  const GridD tsv_density = fp.tsv_density_map(nx, ny);

  std::vector<GridD> power;
  power.reserve(dies);
  for (std::size_t d = 0; d < dies; ++d)
    power.push_back(fp.power_map(d, nx, ny));
  const thermal::ThermalResult nominal =
      solver.solve_steady(power, tsv_density);

  LeakageSummary summary;
  for (std::size_t d = 0; d < dies; ++d) {
    summary.pearson_abs_max =
        std::max(summary.pearson_abs_max,
                 std::abs(leakage::pearson(power[d],
                                           nominal.die_temperature[d])));
    summary.mi_max = std::max(
        summary.mi_max,
        leakage::mutual_information(power[d], nominal.die_temperature[d]));
    summary.spatial_entropy_max = std::max(
        summary.spatial_entropy_max, leakage::spatial_entropy(power[d]));
  }

  // SVF over Gaussian activity phases: the oracle trace is the sampled
  // per-module power vector, the side trace the concatenated per-die
  // thermal maps that activity produces.
  leakage::SvfAccumulator svf;
  const leakage::ActivityModel model;
  Rng rng(seed);
  for (std::size_t phase = 0; phase < opt.leakage_phases; ++phase) {
    const std::vector<double> activity = model.sample(fp, rng);
    std::vector<GridD> phase_power;
    phase_power.reserve(dies);
    for (std::size_t d = 0; d < dies; ++d)
      phase_power.push_back(fp.power_map(d, nx, ny, &activity));
    const thermal::ThermalResult observed =
        solver.solve_steady(phase_power, tsv_density);
    std::vector<double> side;
    side.reserve(dies * nx * ny);
    for (std::size_t d = 0; d < dies; ++d)
      side.insert(side.end(), observed.die_temperature[d].data().begin(),
                  observed.die_temperature[d].data().end());
    svf.add_phase(activity, side);
  }
  summary.svf = svf.svf();
  return summary;
}

ScenarioResult evaluate_scenario(
    const service::JobSpec& job, const CampaignOptions& opt,
    const std::filesystem::path& checkpoint_file,
    const std::filesystem::path& exploration_result_file,
    service::ResultCache* exploration_cache,
    std::size_t checkpoint_interval) {
  const ScenarioContext ctx = scenario_context(job, opt);
  const service::JobSpec exploration = exploration_spec(job);
  const config::ConfigFile cfg =
      config::ConfigFile::parse(exploration.config_text, "<scenario config>");

  // Exploration result: cache hit, or run it here.  Deterministic
  // either way, so concurrent workers racing on a shared exploration
  // duplicate work at most -- the stored bytes are identical.
  service::StoredResult stored;
  bool have = false;
  if (exploration_cache != nullptr) {
    if (std::optional<service::StoredResult> hit =
            exploration_cache->probe(ctx.exploration)) {
      stored = *hit;
      have = true;
    }
  }
  if (!have) {
    const service::WorkReport report =
        service::run_job(exploration, checkpoint_file,
                         exploration_result_file, exploration_cache,
                         checkpoint_interval);
    if (!report.ok)
      throw std::runtime_error("scenario exploration failed: " +
                               report.error);
    const service::ResultLoad load = service::load_result_file(
        exploration_result_file, &ctx.exploration);
    if (!load.ok)
      throw std::runtime_error("scenario exploration result unreadable: " +
                               load.reason);
    stored = load.result;
  }

  const Floorplan3D fp = rebuild_floorplan(exploration, cfg, stored);

  // Scenario-grid thermal configuration: the config's [thermal] keys
  // with the campaign's analysis resolution.
  ThermalConfig thermal;
  config::apply_thermal(cfg, thermal);
  thermal.grid_nx = opt.attack_grid;
  thermal.grid_ny = opt.attack_grid;

  const MitigationOutcome mitigated =
      apply_mitigation(fp, thermal, parse_mitigation(ctx.mitigation), opt,
                       scenario_seed(ctx, "mitigation"));

  const thermal::GridSolver solver(mitigated.floorplan.tech(), thermal);
  const double success =
      run_attack(mitigated.floorplan, solver, parse_attack(ctx.attack), opt,
                 scenario_seed(ctx, "attack"));
  const LeakageSummary leak = measure_leakage(
      mitigated.floorplan, solver, opt, scenario_seed(ctx, "leakage"));

  ScenarioResult result;
  result.context = ctx;
  result.legal = stored.legal;
  result.wirelength_m = stored.wirelength_m;
  result.power_w = stored.power_w;
  result.critical_delay_ns = stored.critical_delay_ns;
  result.peak_k = stored.peak_k;
  result.mitigation_overhead_w = mitigated.overhead_w;
  result.mitigation_performance_loss = mitigated.performance_loss;
  result.mitigation_peak_k = mitigated.peak_k;
  result.attack_success = success;
  result.pearson_abs_max = leak.pearson_abs_max;
  result.mi_max = leak.mi_max;
  result.svf = leak.svf;
  result.spatial_entropy_max = leak.spatial_entropy_max;
  result.leakage = success;
  result.overhead = stored.power_w * (1.0 + mitigated.performance_loss) +
                    mitigated.overhead_w;
  return result;
}

}  // namespace tsc3d::campaign
