// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// GridSolver: a HotSpot-style finite-volume thermal solver on the layered
// 3D-IC stack.  This is our stand-in for HotSpot 6.0 [22]: same physics
// (heat equation discretized on a per-layer grid, conductances derived
// from material properties, convection atop the heatsink, a lumped
// secondary path into the package), same role (detailed/verification
// analysis, Sec. 6), and the same interface shape (power maps in, thermal
// maps out).
//
// GridSolver is a thin compatibility facade over ThermalEngine (see
// thermal/thermal_engine.hpp), which owns the cached conductance network
// and the solver state.  The facade keeps the legacy semantics: every
// steady-state solve cold-starts from ambient, so results are a pure
// function of the inputs regardless of call history.  Callers with
// solve-in-a-loop workloads should hold a ThermalEngine (or use
// `engine()`) to get assembly reuse plus warm-started solves; the loop
// entry points (stability sampling, dummy-TSV insertion, DTM, noise
// injection, PowerBlur calibration) take only an engine.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/config.hpp"
#include "core/grid.hpp"
#include "thermal/stack.hpp"
#include "thermal/thermal_engine.hpp"

namespace tsc3d::thermal {

class GridSolver {
 public:
  /// The facade is the verification/reporting entry point, so its engine
  /// carries EngineRole::verify: `thermal.solver = auto` resolves it to
  /// the multigrid backend.
  GridSolver(const TechnologyConfig& tech, const ThermalConfig& cfg)
      : engine_(tech, cfg, {}, EngineRole::verify) {}

  [[nodiscard]] std::size_t nx() const { return engine_.nx(); }
  [[nodiscard]] std::size_t ny() const { return engine_.ny(); }
  [[nodiscard]] const LayerStack& stack() const { return engine_.stack(); }

  /// The underlying engine.  Mutable even through a const GridSolver:
  /// the facade's const methods already mutate engine scratch state; the
  /// GridSolver API just guarantees history-independent results.  Like
  /// the engine itself, this is not thread-safe.
  [[nodiscard]] ThermalEngine& engine() const { return engine_; }

  /// Steady-state solve.  `die_power_w` holds one nx-by-ny map per die with
  /// power in watts per bin; `tsv_density` holds the fraction of each bin
  /// covered by TSV cells (affects the bond and upper-bulk layers).
  [[nodiscard]] ThermalResult solve_steady(
      const std::vector<GridD>& die_power_w, const GridD& tsv_density) const {
    return engine_.solve_steady(die_power_w, tsv_density,
                                ThermalEngine::Start::cold);
  }

  /// Transient solve with implicit Euler.  `power_at` is sampled once per
  /// step; a snapshot is recorded every `record_stride` steps.  The initial
  /// condition is the ambient temperature everywhere.
  [[nodiscard]] TransientResult solve_transient(
      const std::function<std::vector<GridD>(double time_s)>& power_at,
      const GridD& tsv_density, double t_end_s, double dt_s,
      std::size_t record_stride = 1) const {
    return engine_.solve_transient(power_at, tsv_density, t_end_s, dt_s,
                                   record_stride);
  }

  /// Closed-loop variant: the power callback additionally receives the
  /// previous step's per-die temperature maps, so runtime controllers
  /// (DTM throttling, noise injectors, covert-channel receivers with
  /// feedback) can react to the thermal state they caused.
  using FeedbackPower = ThermalEngine::FeedbackPower;
  [[nodiscard]] TransientResult solve_transient_feedback(
      const FeedbackPower& power_at, const GridD& tsv_density,
      double t_end_s, double dt_s, std::size_t record_stride = 1) const {
    return engine_.solve_transient_feedback(power_at, tsv_density, t_end_s,
                                            dt_s, record_stride);
  }

 private:
  mutable ThermalEngine engine_;
};

}  // namespace tsc3d::thermal
