#include "config/apply.hpp"

#include <sstream>

namespace tsc3d::config {

namespace {

/// Split a comma-separated config value into trimmed, non-empty items.
std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::istringstream in(value);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto first = item.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const auto last = item.find_last_not_of(" \t");
    items.push_back(item.substr(first, last - first + 1));
  }
  return items;
}

}  // namespace

void apply_technology(const ConfigFile& cfg, TechnologyConfig& tech) {
  const std::string flavor =
      cfg.get_string("technology.flavor",
                     tech.flavor == IntegrationFlavor::monolithic
                         ? "monolithic"
                         : "tsv");
  if (flavor == "monolithic") {
    tech = make_monolithic(tech);
  } else if (flavor == "tsv") {
    tech.flavor = IntegrationFlavor::tsv_based;
  } else {
    throw ConfigError("technology.flavor must be 'tsv' or 'monolithic', got '" +
                      flavor + "'");
  }
  tech.num_dies = cfg.get_size("technology.num_dies", tech.num_dies);
  tech.die_width_um =
      cfg.get_double("technology.die_width_um", tech.die_width_um);
  tech.die_height_um =
      cfg.get_double("technology.die_height_um", tech.die_height_um);
  tech.die_thickness_um =
      cfg.get_double("technology.die_thickness_um", tech.die_thickness_um);
  tech.monolithic_tier_thickness_um =
      cfg.get_double("technology.monolithic_tier_thickness_um",
                     tech.monolithic_tier_thickness_um);
  tech.clock_period_ns =
      cfg.get_double("technology.clock_period_ns", tech.clock_period_ns);
  tech.tsv.diameter_um =
      cfg.get_double("technology.tsv_diameter_um", tech.tsv.diameter_um);
  tech.tsv.pitch_um =
      cfg.get_double("technology.tsv_pitch_um", tech.tsv.pitch_um);
  tech.tsv.keepout_um =
      cfg.get_double("technology.tsv_keepout_um", tech.tsv.keepout_um);
  tech.validate();
}

void apply_thermal(const ConfigFile& cfg, ThermalConfig& thermal) {
  thermal.grid_nx = cfg.get_size("thermal.grid_nx", thermal.grid_nx);
  thermal.grid_ny = cfg.get_size("thermal.grid_ny", thermal.grid_ny);
  thermal.ambient_k = cfg.get_double("thermal.ambient_k", thermal.ambient_k);
  thermal.k_silicon = cfg.get_double("thermal.k_silicon", thermal.k_silicon);
  thermal.k_bond = cfg.get_double("thermal.k_bond", thermal.k_bond);
  thermal.k_ild = cfg.get_double("thermal.k_ild", thermal.k_ild);
  thermal.k_tim = cfg.get_double("thermal.k_tim", thermal.k_tim);
  thermal.r_convec_k_per_w =
      cfg.get_double("thermal.r_convec_k_per_w", thermal.r_convec_k_per_w);
  thermal.r_package_k_per_w =
      cfg.get_double("thermal.r_package_k_per_w", thermal.r_package_k_per_w);
  thermal.sor_omega = cfg.get_double("thermal.sor_omega", thermal.sor_omega);
  thermal.tolerance_k =
      cfg.get_double("thermal.tolerance_k", thermal.tolerance_k);
  thermal.max_iterations =
      cfg.get_size("thermal.max_iterations", thermal.max_iterations);
  const std::string solver = cfg.get_string(
      "thermal.solver",
      thermal.solver == SolverBackend::multigrid
          ? "multigrid"
          : (thermal.solver == SolverBackend::sor ? "sor" : "auto"));
  if (solver == "sor") {
    thermal.solver = SolverBackend::sor;
  } else if (solver == "multigrid") {
    thermal.solver = SolverBackend::multigrid;
  } else if (solver == "auto") {
    thermal.solver = SolverBackend::auto_select;
  } else {
    throw ConfigError(
        "thermal.solver must be 'auto', 'sor' or 'multigrid', got '" +
        solver + "'");
  }
  thermal.validate();
}

floorplan::FloorplannerOptions make_floorplanner_options(
    const ConfigFile& cfg, const std::string& mode_override) {
  // Read the file's mode even when it is overridden, so that it never
  // counts as an unused key.
  const std::string file_mode = cfg.get_string("floorplanning.mode", "power");
  const std::string& mode =
      mode_override.empty() ? file_mode : mode_override;
  floorplan::FloorplannerOptions opt;
  if (mode == "tsc") {
    opt = floorplan::Floorplanner::tsc_aware_setup();
  } else if (mode == "power") {
    opt = floorplan::Floorplanner::power_aware_setup();
  } else {
    throw ConfigError("floorplanning.mode must be 'power' or 'tsc', got '" +
                      mode + "'");
  }
  opt.anneal.total_moves =
      cfg.get_size("floorplanning.sa_moves", opt.anneal.total_moves);
  opt.anneal.stages =
      cfg.get_size("floorplanning.sa_stages", opt.anneal.stages);
  opt.fast_grid = cfg.get_size("floorplanning.fast_grid", opt.fast_grid);
  opt.verify_grid =
      cfg.get_size("floorplanning.verify_grid", opt.verify_grid);
  opt.sampling_grid =
      cfg.get_size("floorplanning.sampling_grid", opt.sampling_grid);
  opt.dummy_insertion =
      cfg.get_bool("floorplanning.dummy_insertion", opt.dummy_insertion);
  opt.dummy.max_iterations = cfg.get_size(
      "floorplanning.dummy_max_iterations", opt.dummy.max_iterations);
  opt.dummy.samples_per_iteration = cfg.get_size(
      "floorplanning.dummy_samples", opt.dummy.samples_per_iteration);
  opt.hot_modules_to_top = cfg.get_bool("floorplanning.hot_modules_to_top",
                                        opt.hot_modules_to_top);
  opt.auto_clock_factor = cfg.get_double("floorplanning.auto_clock_factor",
                                         opt.auto_clock_factor);
  opt.anneal.inner_tolerance_scale =
      cfg.get_double("floorplanning.inner_tolerance_scale",
                     opt.anneal.inner_tolerance_scale);
  opt.parallel.threads =
      cfg.get_size("floorplanning.threads", opt.parallel.threads);
  opt.chains.chains = cfg.get_size("floorplanning.chains", opt.chains.chains);
  opt.chains.exchange_interval =
      cfg.get_size("floorplanning.chain_exchange_interval",
                   opt.chains.exchange_interval);
  opt.chains.ladder_ratio = cfg.get_double("floorplanning.chain_ladder_ratio",
                                           opt.chains.ladder_ratio);
  opt.cross_check_interval = cfg.get_size(
      "floorplanning.cross_check_interval", opt.cross_check_interval);
  apply_thermal(cfg, opt.thermal);
  return opt;
}

service::ServiceOptions make_service_options(const ConfigFile& cfg) {
  service::ServiceOptions opt;
  opt.queue_dir = cfg.get_string("service.queue_dir", opt.queue_dir);
  opt.cache_dir = cfg.get_string("service.cache_dir", opt.cache_dir);
  opt.cache = cfg.get_bool("service.cache", opt.cache);
  opt.checkpoint_interval = cfg.get_size("service.checkpoint_interval",
                                         opt.checkpoint_interval);
  opt.claim_lease_s =
      cfg.get_double("service.claim_lease_s", opt.claim_lease_s);
  if (opt.checkpoint_interval == 0)
    throw ConfigError("service.checkpoint_interval must be >= 1");
  if (opt.claim_lease_s < 0.0)
    throw ConfigError("service.claim_lease_s must be >= 0");
  return opt;
}

campaign::CampaignOptions make_campaign_options(const ConfigFile& cfg) {
  campaign::CampaignOptions opt;
  opt.benchmark = cfg.get_string("campaign.benchmark", opt.benchmark);

  try {
    if (std::string v = cfg.get_string("campaign.attacks", ""); !v.empty()) {
      opt.attacks.clear();
      for (const std::string& name : split_list(v))
        opt.attacks.push_back(campaign::parse_attack(name));
    }
    if (std::string v = cfg.get_string("campaign.mitigations", "");
        !v.empty()) {
      opt.mitigations.clear();
      for (const std::string& name : split_list(v))
        opt.mitigations.push_back(campaign::parse_mitigation(name));
    }
    if (std::string v = cfg.get_string("campaign.flavors", ""); !v.empty()) {
      opt.flavors.clear();
      for (const std::string& name : split_list(v))
        opt.flavors.push_back(campaign::parse_flavor(name));
    }
  } catch (const std::invalid_argument& e) {
    throw ConfigError(std::string("[campaign] ") + e.what());
  }

  // seeds = "A" (single seed) or "A-B" (inclusive range).
  if (const std::string v = cfg.get_string("campaign.seeds", ""); !v.empty()) {
    const auto dash = v.find('-');
    try {
      if (dash == std::string::npos) {
        opt.seed_lo = opt.seed_hi = std::stoull(v);
      } else {
        opt.seed_lo = std::stoull(v.substr(0, dash));
        opt.seed_hi = std::stoull(v.substr(dash + 1));
      }
    } catch (const std::exception&) {
      throw ConfigError("campaign.seeds must be 'A' or 'A-B', got '" + v +
                        "'");
    }
    if (opt.seed_hi < opt.seed_lo)
      throw ConfigError("campaign.seeds range is empty: '" + v + "'");
  }

  opt.attack_grid = cfg.get_size("campaign.attack_grid", opt.attack_grid);
  opt.monitoring_trials =
      cfg.get_size("campaign.monitoring_trials", opt.monitoring_trials);
  opt.covert_bits = cfg.get_size("campaign.covert_bits", opt.covert_bits);
  opt.dtm_duration_s =
      cfg.get_double("campaign.dtm_duration_s", opt.dtm_duration_s);
  opt.dtm_dt_s = cfg.get_double("campaign.dtm_dt_s", opt.dtm_dt_s);
  opt.injection_budget =
      cfg.get_double("campaign.injection_budget", opt.injection_budget);
  opt.leakage_phases =
      cfg.get_size("campaign.leakage_phases", opt.leakage_phases);
  opt.report_dir = cfg.get_string("campaign.report_dir", opt.report_dir);

  if (opt.attack_grid < 4)
    throw ConfigError("campaign.attack_grid must be >= 4");
  if (opt.leakage_phases < 3)
    throw ConfigError("campaign.leakage_phases must be >= 3 (SVF needs it)");
  if (opt.dtm_duration_s <= 0.0 || opt.dtm_dt_s <= 0.0)
    throw ConfigError("campaign.dtm_duration_s / dtm_dt_s must be > 0");
  if (opt.injection_budget < 0.0)
    throw ConfigError("campaign.injection_budget must be >= 0");
  if (opt.monitoring_trials == 0)
    throw ConfigError("campaign.monitoring_trials must be >= 1");
  if (opt.covert_bits == 0)
    throw ConfigError("campaign.covert_bits must be >= 1");
  return opt;
}

}  // namespace tsc3d::config
