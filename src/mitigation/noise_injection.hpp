// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// The competing mitigation the paper argues against: runtime dummy-
// activity injection, after Gu et al. [18].  Their controllers "inject
// dummy activities when-/wherever considered necessary and, hence, aim
// for smooth thermal profiles to hinder thermal profiling of module
// activities."  The paper's critique (Sec. 1):
//
//   (a) the injection principle causes further power dissipation, which
//       may be prohibitive for thermal- and power-constrained 3D ICs;
//   (b) "the best leakage-mitigation rates are only achievable for the
//       highest injection rates."
//
// We implement the baseline faithfully so that critique can be measured:
// a greedy controller distributes a dummy-power budget over injector
// sites placed in the coolest regions of each die, iteratively
// re-solving the steady state and filling the deepest thermal valleys --
// the water-filling strategy an ideal smoothing controller converges to.
// bench/baseline_injection sweeps the budget and reports correlation vs
// power overhead vs peak temperature, next to the floorplanning-based
// mitigation's design point.
#pragma once

#include <cstddef>
#include <vector>

#include "core/floorplan.hpp"
#include "core/grid.hpp"
#include "thermal/thermal_engine.hpp"

namespace tsc3d::mitigation {

struct InjectionOptions {
  /// Dummy-power budget as a fraction of the design's nominal power
  /// (Gu et al.'s "injection rate").
  double budget_fraction = 0.10;
  /// Injector sites available per die (thermal-noise generators are
  /// physical blocks; their number is bounded).
  std::size_t sites_per_die = 16;
  /// Controller iterations: each iteration re-solves the steady state
  /// and tops up the coolest sites.
  std::size_t iterations = 6;
  /// Fraction of the remaining budget spent per iteration.
  double spend_fraction = 0.5;
  /// Stop (and roll back the last batch) once an iteration makes the
  /// mean thermal roughness WORSE -- over-filling few sites mints new
  /// hotspots.  Mirrors the sweet-spot stop criterion the paper uses for
  /// dummy-TSV insertion (Sec. 6.2).  Disable to model a naive
  /// controller that blindly burns its whole budget.
  bool stop_at_sweet_spot = true;
};

/// Outcome of one injection campaign on one activity pattern.
struct InjectionResult {
  /// Dummy power added per die, as a map aligned with the solver grid.
  std::vector<GridD> injected_power_w;
  double power_overhead_w = 0.0;   ///< total dummy power spent
  double peak_k_before = 0.0;
  double peak_k_after = 0.0;
  /// Per-die Eq. 1 correlation of the TRUE power map with the thermal
  /// map, before and after injection.  (The attacker wants the true
  /// activity; dummy power is noise to them.)  NOTE: on hotspot-dominated
  /// designs this may RISE under injection -- flattening the cool
  /// background makes the thermal map's shape MORE like the power map's.
  /// Gu et al.'s actual objective is profile smoothness (roughness below)
  /// and activity indistinguishability, which injection does improve;
  /// bench/baseline_injection measures all three.
  std::vector<double> correlation_before;
  std::vector<double> correlation_after;
  /// Per-die thermal roughness (stddev of the map [K]) -- the quantity
  /// the smoothing controller actually minimizes.
  std::vector<double> roughness_before;
  std::vector<double> roughness_after;
};

/// Run the smoothing controller on the floorplan's nominal activity.
/// `module_power_w` optionally supplies one activity sample (as in the
/// stability campaigns); nominal effective power is used otherwise.
/// The controller's iterative re-solves share the engine's cached
/// conductance network and warm-start from each other.
[[nodiscard]] InjectionResult run_noise_injection(
    const Floorplan3D& fp, thermal::ThermalEngine& engine,
    const InjectionOptions& options = {},
    const std::vector<double>* module_power_w = nullptr);

/// Thermal-profile smoothness: standard deviation of the map [K].  The
/// quantity Gu et al.'s controllers minimize.
[[nodiscard]] double thermal_roughness(const GridD& thermal);

}  // namespace tsc3d::mitigation
