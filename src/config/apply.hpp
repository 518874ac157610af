// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Mapping from a parsed ConfigFile onto the library's option structs.
// Every recognized key mirrors one documented field; unrecognized keys
// are reported via ConfigFile::unused_keys() so a typo in a config never
// silently reverts to a default.
#pragma once

#include <string>

#include "campaign/options.hpp"
#include "config/config_file.hpp"
#include "core/config.hpp"
#include "floorplan/floorplanner.hpp"
#include "service/options.hpp"

namespace tsc3d::config {

/// Overlay [technology] keys on `tech`:
///   flavor (tsv | monolithic), num_dies, die_width_um, die_height_um,
///   die_thickness_um, monolithic_tier_thickness_um, clock_period_ns,
///   tsv_diameter_um, tsv_pitch_um, tsv_keepout_um.
void apply_technology(const ConfigFile& cfg, TechnologyConfig& tech);

/// Overlay [thermal] keys on `thermal`:
///   grid_nx, grid_ny, ambient_k, k_silicon, k_bond, k_ild, k_tim,
///   r_convec_k_per_w, r_package_k_per_w, sor_omega, tolerance_k,
///   max_iterations.
void apply_thermal(const ConfigFile& cfg, ThermalConfig& thermal);

/// Build FloorplannerOptions from [floorplanning] keys:
///   mode (power | tsc), sa_moves, sa_stages, fast_grid, verify_grid,
///   sampling_grid, dummy_insertion, dummy_max_iterations,
///   dummy_samples, hot_modules_to_top, auto_clock_factor, threads
///   (sweep threads per thermal engine), chains (parallel-tempering
///   chains), chain_exchange_interval, chain_ladder_ratio.
/// The preset for `mode` is applied first, then individual overrides.
/// A non-empty `mode_override` (power | tsc, as tsc3d_cli's --mode)
/// picks the preset instead of the file's mode; the file's other keys
/// still overlay it.
[[nodiscard]] floorplan::FloorplannerOptions make_floorplanner_options(
    const ConfigFile& cfg, const std::string& mode_override = {});

/// Build batch-service options from [service] keys:
///   queue_dir, cache_dir, cache, checkpoint_interval, claim_lease_s.
[[nodiscard]] service::ServiceOptions make_service_options(
    const ConfigFile& cfg);

/// Build campaign-matrix options from [campaign] keys:
///   benchmark, attacks, mitigations, flavors (comma-separated lists),
///   seeds ("A" or "A-B"), attack_grid, monitoring_trials, covert_bits,
///   dtm_duration_s, dtm_dt_s, injection_budget, leakage_phases,
///   report_dir.
[[nodiscard]] campaign::CampaignOptions make_campaign_options(
    const ConfigFile& cfg);

}  // namespace tsc3d::config
