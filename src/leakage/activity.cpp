#include "leakage/activity.hpp"

#include <algorithm>
#include <stdexcept>

namespace tsc3d::leakage {

std::vector<double> ActivityModel::sample(const Floorplan3D& fp,
                                          Rng& rng) const {
  std::vector<double> power(fp.modules().size(), 0.0);
  for (std::size_t i = 0; i < fp.modules().size(); ++i) {
    const double nominal = fp.effective_power(i);
    power[i] = std::max(0.0, rng.gaussian(nominal, sigma_fraction * nominal));
  }
  return power;
}

StabilitySampling run_stability_sampling(const Floorplan3D& fp,
                                         thermal::ThermalEngine& engine,
                                         std::size_t samples, Rng& rng,
                                         const ActivityModel& model) {
  if (samples < 2)
    throw std::invalid_argument(
        "run_stability_sampling: need at least 2 samples");
  const std::size_t nx = engine.nx();
  const std::size_t ny = engine.ny();
  const std::size_t dies = fp.tech().num_dies;

  std::vector<StabilityAccumulator> acc(dies, StabilityAccumulator(nx, ny));
  std::vector<double> corr_sum(dies, 0.0);
  const GridD tsv = fp.tsv_density_map(nx, ny);

  for (std::size_t s = 0; s < samples; ++s) {
    const std::vector<double> activity = model.sample(fp, rng);
    std::vector<GridD> power;
    power.reserve(dies);
    for (std::size_t d = 0; d < dies; ++d)
      power.push_back(fp.power_map(d, nx, ny, &activity));
    const thermal::ThermalResult res = engine.solve_steady(power, tsv);
    for (std::size_t d = 0; d < dies; ++d) {
      acc[d].add(power[d], res.die_temperature[d]);
      corr_sum[d] += pearson(power[d], res.die_temperature[d]);
    }
  }

  StabilitySampling out;
  out.samples = samples;
  for (std::size_t d = 0; d < dies; ++d) {
    out.stability.push_back(acc[d].stability());
    out.mean_abs_stability.push_back(acc[d].mean_abs_stability());
    out.mean_correlation.push_back(corr_sum[d] /
                                   static_cast<double>(samples));
  }
  return out;
}

std::vector<double> nominal_correlations(
    const Floorplan3D& fp, const std::vector<GridD>& die_temperature) {
  std::vector<double> r;
  r.reserve(die_temperature.size());
  for (std::size_t d = 0; d < die_temperature.size(); ++d) {
    const GridD power =
        fp.power_map(d, die_temperature[d].nx(), die_temperature[d].ny());
    r.push_back(pearson(power, die_temperature[d]));
  }
  return r;
}

}  // namespace tsc3d::leakage
