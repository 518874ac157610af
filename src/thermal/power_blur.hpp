// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// PowerBlur: Corblivar-style fast thermal analysis via "power blurring".
// The steady-state thermal map of each die is approximated as the
// convolution of the per-die power maps with impulse-response kernels,
// which are calibrated once against the detailed ThermalEngine (the
// fast-vs-detailed split the paper uses, Sec. 6: there the fast analysis
// drives the floorplanning loop and HotSpot-style verification runs
// afterwards).  tsc3d's loop solves the detailed model on a warm-started
// engine instead; PowerBlur stays as the paper's fast model for the
// Sec. 6 comparison (bench/ablation_fast_thermal).
//
// Kernels are calibrated per (source die, target die) pair for two TSV
// regimes (no TSVs / full TSV coverage) and linearly blended per source
// bin by the local TSV density -- this captures the paper's key physical
// effect: TSVs act as vertical heat pipes that locally reshape the
// response.  The paper notes the fast analysis is "inferior to the
// detailed analysis ... especially for diverse arrangements of TSVs";
// the same qualitative gap exists here by construction.
#pragma once

#include <cstddef>
#include <vector>

#include "core/grid.hpp"
#include "thermal/thermal_engine.hpp"

namespace tsc3d::thermal {

class PowerBlur {
 public:
  /// Calibrate kernels against `engine`.  `kernel_radius` is the kernel
  /// half-width in grid bins of the engine's resolution.  Calibration
  /// runs one impulse-response solve per (TSV regime, source die); the
  /// engine reuses the assembled network within each regime and
  /// warm-starts successive solves.
  explicit PowerBlur(ThermalEngine& engine, std::size_t kernel_radius = 12);

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  [[nodiscard]] std::size_t kernel_radius() const { return radius_; }

  /// Fast steady-state estimate: one temperature map per die [K].
  /// Inputs use the solver's grid resolution.
  [[nodiscard]] std::vector<GridD> estimate(
      const std::vector<GridD>& die_power_w, const GridD& tsv_density) const;

  /// Convenience: peak temperature over all dies of estimate().
  [[nodiscard]] double peak(const std::vector<GridD>& die_power_w,
                            const GridD& tsv_density) const;

  /// Calibrated far-field response [K/W] from source die s to target die d
  /// (uniform chip-level heating per watt); exposed for tests.
  [[nodiscard]] double far_field(std::size_t source, std::size_t target,
                                 bool with_tsv) const;

 private:
  struct Kernel {
    std::vector<double> taps;  // (2r+1)^2 local deviations [K/W]
    double far = 0.0;          // uniform far-field response [K/W]
  };

  [[nodiscard]] const Kernel& kernel(std::size_t source, std::size_t target,
                                     bool with_tsv) const;

  std::size_t num_dies_ = 0;
  std::size_t nx_ = 0, ny_ = 0;
  std::size_t radius_ = 0;
  double ambient_k_ = 0.0;
  // Indexed [tsv_case][source * num_dies + target].
  std::vector<std::vector<Kernel>> kernels_;
};

}  // namespace tsc3d::thermal
