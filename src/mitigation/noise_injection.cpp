#include "mitigation/noise_injection.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "leakage/pearson.hpp"

namespace tsc3d::mitigation {

double thermal_roughness(const GridD& thermal) {
  const double mean = thermal.mean();
  double acc = 0.0;
  for (double v : thermal) acc += (v - mean) * (v - mean);
  return std::sqrt(acc / static_cast<double>(thermal.size()));
}

namespace {

/// Pick the `sites` coolest bin indices of a thermal map.
std::vector<std::size_t> coolest_bins(const GridD& thermal,
                                      std::size_t sites) {
  std::vector<std::size_t> order(thermal.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  sites = std::min(sites, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(sites),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return thermal[a] < thermal[b];
                    });
  order.resize(sites);
  return order;
}

}  // namespace

InjectionResult run_noise_injection(const Floorplan3D& fp,
                                    thermal::ThermalEngine& engine,
                                    const InjectionOptions& options,
                                    const std::vector<double>* module_power_w) {
  if (options.budget_fraction < 0.0)
    throw std::invalid_argument("run_noise_injection: negative budget");
  if (options.spend_fraction <= 0.0 || options.spend_fraction > 1.0)
    throw std::invalid_argument(
        "run_noise_injection: spend_fraction must be in (0, 1]");
  if (options.sites_per_die == 0)
    throw std::invalid_argument("run_noise_injection: no injector sites");

  const std::size_t nx = engine.nx(), ny = engine.ny();
  const std::size_t dies = fp.tech().num_dies;
  const GridD tsv_density = fp.tsv_density_map(nx, ny);

  // True activity: what the attacker wants to recover.
  std::vector<GridD> true_power;
  true_power.reserve(dies);
  double nominal_total = 0.0;
  for (std::size_t d = 0; d < dies; ++d) {
    true_power.push_back(fp.power_map(d, nx, ny, module_power_w));
    nominal_total += true_power.back().sum();
  }

  InjectionResult result;
  result.injected_power_w.assign(dies, GridD(nx, ny, 0.0));

  // Baseline solve: correlations the attacker enjoys without mitigation.
  auto thermal_res = engine.solve_steady(true_power, tsv_density);
  result.peak_k_before = thermal_res.peak_k;
  for (std::size_t d = 0; d < dies; ++d) {
    result.correlation_before.push_back(
        leakage::pearson(true_power[d], thermal_res.die_temperature[d]));
    result.roughness_before.push_back(
        thermal_roughness(thermal_res.die_temperature[d]));
  }

  // Water-filling controller: per iteration, spend part of the remaining
  // budget on the coolest injector sites of each die, proportional to
  // their depth below the die's mean temperature.  Over-filling a few
  // sites mints new hotspots, so (by default) an iteration that worsens
  // the mean roughness is rolled back and the controller stops -- the
  // injection analogue of the paper's dummy-TSV sweet spot (Sec. 6.2).
  double budget = options.budget_fraction * nominal_total;
  std::vector<GridD> total_power = true_power;
  const auto mean_roughness = [&](const thermal::ThermalResult& res) {
    double acc = 0.0;
    for (std::size_t d = 0; d < dies; ++d)
      acc += thermal_roughness(res.die_temperature[d]);
    return acc / static_cast<double>(dies);
  };
  double roughness = mean_roughness(thermal_res);
  for (std::size_t it = 0; it < options.iterations && budget > 1e-12; ++it) {
    const double spend_total = budget * options.spend_fraction;
    const double spend_per_die = spend_total / static_cast<double>(dies);
    // Remember this batch so a worsening step can be rolled back.
    std::vector<std::pair<std::pair<std::size_t, std::size_t>, double>> batch;
    for (std::size_t d = 0; d < dies; ++d) {
      const GridD& t = thermal_res.die_temperature[d];
      const auto sites = coolest_bins(t, options.sites_per_die);
      const double mean = t.mean();
      double depth_sum = 0.0;
      for (const auto i : sites) depth_sum += std::max(mean - t[i], 0.0);
      for (const auto i : sites) {
        const double share =
            depth_sum > 0.0
                ? std::max(mean - t[i], 0.0) / depth_sum
                : 1.0 / static_cast<double>(sites.size());
        const double dp = spend_per_die * share;
        result.injected_power_w[d][i] += dp;
        total_power[d][i] += dp;
        batch.push_back({{d, i}, dp});
      }
    }
    auto next_res = engine.solve_steady(total_power, tsv_density);
    const double next_roughness = mean_roughness(next_res);
    if (options.stop_at_sweet_spot && next_roughness > roughness) {
      for (const auto& [site, dp] : batch) {
        result.injected_power_w[site.first][site.second] -= dp;
        total_power[site.first][site.second] -= dp;
      }
      break;
    }
    budget -= spend_total;
    result.power_overhead_w += spend_total;
    thermal_res = std::move(next_res);
    roughness = next_roughness;
  }

  result.peak_k_after = thermal_res.peak_k;
  for (std::size_t d = 0; d < dies; ++d) {
    result.correlation_after.push_back(
        leakage::pearson(true_power[d], thermal_res.die_temperature[d]));
    result.roughness_after.push_back(
        thermal_roughness(thermal_res.die_temperature[d]));
  }
  return result;
}

}  // namespace tsc3d::mitigation
