// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Activity sampling and leakage analysis (Sec. 6.2): "To impersonate an
// attacker triggering various activity patterns by alternating the inputs
// at runtime, we model the power profiles of all modules as Gaussian
// distributions ... the module's nominal power value as mean and a
// standard deviation of 10%.  We stepwise evaluate all the steady-state
// temperatures ... and sample the correlation stability (Eq. 2) in 100
// runs over the whole 3D IC."
#pragma once

#include <cstddef>
#include <vector>

#include "core/floorplan.hpp"
#include "core/rng.hpp"
#include "leakage/pearson.hpp"
#include "thermal/thermal_engine.hpp"

namespace tsc3d::leakage {

/// Gaussian per-module activity model.
struct ActivityModel {
  double sigma_fraction = 0.10;  ///< std dev as fraction of nominal power

  /// Draw one activity sample: absolute power per module [W], based on the
  /// module's voltage-scaled nominal power, truncated at zero.
  [[nodiscard]] std::vector<double> sample(const Floorplan3D& fp,
                                           Rng& rng) const;
};

/// Result of a stability-sampling campaign over one floorplan.
struct StabilitySampling {
  /// Per-die correlation-stability maps r_{d,x,y} (Eq. 2).
  std::vector<GridD> stability;
  /// Mean |r_{d,x,y}| per die -- the quantity the dummy-TSV loop monitors.
  std::vector<double> mean_abs_stability;
  /// Average per-sample steady-state correlation r_d (Eq. 1) per die.
  std::vector<double> mean_correlation;
  std::size_t samples = 0;
};

/// Run `samples` Gaussian activity samples through the detailed thermal
/// solver and accumulate the per-die stability maps.  This mirrors the
/// paper's 100-run HotSpot sweeps.  Successive samples are 10% power
/// perturbations of each other, so the engine's warm-started solves make
/// the campaign cheap.
[[nodiscard]] StabilitySampling run_stability_sampling(
    const Floorplan3D& fp, thermal::ThermalEngine& engine,
    std::size_t samples, Rng& rng, const ActivityModel& model = {});

/// Nominal (steady-state, average-activity) leakage summary of a
/// floorplan: per-die Eq. 1 correlation given precomputed thermal maps.
[[nodiscard]] std::vector<double> nominal_correlations(
    const Floorplan3D& fp, const std::vector<GridD>& die_temperature);

}  // namespace tsc3d::leakage
