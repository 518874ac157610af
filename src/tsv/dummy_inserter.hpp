// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Correlation-driven insertion of dummy thermal TSVs (Sec. 6.2 / 7.1):
// "Continuing the runtime sampling process, we iteratively insert dummy
// thermal TSVs where the most stable correlations occur, as long as the
// resulting average correlation is reduced.  This stop criterion
// represents the final 'sweet spot' where further TSV insertion would
// increase the overall correlation again."
//
// Each iteration re-runs the Gaussian activity sampling, locates the bins
// with the most stable power-temperature correlation, drops an island of
// dummy TSVs there, and re-evaluates.  The last batch is rolled back when
// the average correlation stops improving.
#pragma once

#include <cstddef>
#include <vector>

#include "core/floorplan.hpp"
#include "core/rng.hpp"
#include "leakage/activity.hpp"
#include "thermal/thermal_engine.hpp"

namespace tsc3d::tsv {

struct DummyInsertOptions {
  std::size_t samples_per_iteration = 20;  ///< activity samples per step
  std::size_t islands_per_iteration = 3;   ///< dummy islands added per step
  std::size_t tsvs_per_island = 32;        ///< TSVs per dummy island
  std::size_t max_iterations = 12;
  /// Skip bins whose TSV coverage already exceeds this fraction.
  double saturation = 0.8;
  /// Optional focus: only consider stability peaks inside this die-0
  /// region (empty = whole chip).  Supports the paper's alternative of
  /// protecting critical modules only (end of Sec. 7.1).
  std::vector<Rect> focus_regions;
};

/// Trace of one insertion campaign.
struct DummyInsertResult {
  std::size_t iterations = 0;
  std::size_t tsvs_inserted = 0;       ///< net of the rolled-back batch
  std::size_t islands_inserted = 0;
  double correlation_before = 0.0;     ///< avg per-die Eq.1 corr, nominal
  double correlation_after = 0.0;
  double stability_before = 0.0;       ///< mean |r_{x,y}| before
  double stability_after = 0.0;
  std::vector<double> correlation_history;  ///< avg corr per iteration
};

/// Run the insertion loop on `fp` (adds TsvKind::dummy entries).  The
/// per-iteration sampling campaigns reuse the engine's solver state
/// (warm-started solves; the conductance network is rebuilt only when a
/// TSV batch actually lands).
[[nodiscard]] DummyInsertResult insert_dummy_tsvs(
    Floorplan3D& fp, thermal::ThermalEngine& engine, Rng& rng,
    const DummyInsertOptions& options = {});

}  // namespace tsc3d::tsv
