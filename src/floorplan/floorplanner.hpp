// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Floorplanner: the complete flow of Fig. 3.
//
//   3D floorplanning input
//     -> [SA loop, driven by ChainOrchestrator for any chain count]
//        layout generation -> TSV placement -> leakage-aware
//        power/thermal management (voltage assignment) -> in-loop thermal
//        analysis (warm-started detailed solves at the fast grid) ->
//        leakage analysis (Eq. 1 correlation + Eq. 3 spatial entropy) ->
//        evaluation of timing paths -> cost -> adapt solution
//     -> [post-processing] sampling of Gaussian-distributed activities ->
//        correlation-based insertion of dummy thermal TSVs (sweet-spot
//        stop criterion)
//     -> detailed thermal analysis (HotSpot-style grid solver) ->
//        verification of correlation
//
// Two presets reproduce the paper's experimental setups: power-aware
// floorplanning (PA, the baseline) and TSC-aware floorplanning.
#pragma once

#include <cstddef>
#include <vector>

#include "core/floorplan.hpp"
#include "core/rng.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/chain_orchestrator.hpp"
#include "floorplan/cost.hpp"
#include "floorplan/exploration_checkpoint.hpp"
#include "tsv/dummy_inserter.hpp"

namespace tsc3d::floorplan {

enum class FlowMode {
  power_aware,  ///< setup (i) of Sec. 7
  tsc_aware,    ///< setup (ii) of Sec. 7
};

struct FloorplannerOptions {
  FlowMode mode = FlowMode::power_aware;
  AnnealOptions anneal;
  power::TimingOptions timing;
  power::VoltageOptions voltage;
  leakage::SpatialEntropyOptions entropy;

  /// Grid resolution of the in-loop analysis (thermal solves and
  /// leakage estimation).
  std::size_t fast_grid = 32;
  /// Grid resolution of the detailed verification solve.
  std::size_t verify_grid = 64;
  /// Grid resolution of the activity-sampling solves (dummy-TSV loop).
  std::size_t sampling_grid = 32;

  ThermalConfig thermal;  ///< material/boundary parameters (grids overridden)
  tsv::DummyInsertOptions dummy;
  /// Run the dummy-TSV post-processing (TSC mode only by default; set
  /// explicitly to override).
  bool dummy_insertion = true;
  /// Apply Corblivar's thermal design rule at initialization.
  bool hot_modules_to_top = true;
  /// If > 0, derive the clock period from the initial layout's nominal
  /// critical delay: clock = factor * delay.  A factor below 1 leaves
  /// some modules timing-critical after SA shrinks the wirelength, so
  /// voltage assignment has real slack structure to work with (cf. the
  /// red high-voltage modules of Fig. 4a).  0 keeps the configured clock.
  double auto_clock_factor = 0.9;
  /// Worker threads for every ThermalEngine the flow creates (fast,
  /// sampling, verification): large single solves shard their sweeps.
  /// threads == 1 keeps everything serial; threaded results are bitwise
  /// identical.
  thermal::ParallelConfig parallel;
  /// Parallel-tempering annealing: chains.chains > 1 runs that many
  /// concurrent chains plus periodic replica exchange instead of one
  /// plain SA chain (see chain_orchestrator.hpp).  Note total thread use
  /// is chains.chains * parallel.threads when both are raised.
  ChainOptions chains;
  /// Cross-check cadence for the incremental move evaluation (0 = never):
  /// every Nth cheap evaluation recomputes the layout terms by full
  /// rescan and throws on divergence.
  /// Debug builds default to 256, release to 0.
#ifndef NDEBUG
  std::size_t cross_check_interval = 256;
#else
  std::size_t cross_check_interval = 0;
#endif
};

/// Everything Table 2 reports for one floorplanning run, plus traces.
struct FloorplanMetrics {
  // --- leakage (verified with the detailed solver) ----------------------
  std::vector<double> correlation;  ///< Eq. 1 per die (r1, r2)
  std::vector<double> entropy;      ///< Eq. 3 per die (S1, S2)
  // --- design cost --------------------------------------------------------
  double power_w = 0.0;
  double critical_delay_ns = 0.0;
  double wirelength_m = 0.0;
  double peak_k = 0.0;
  std::size_t signal_tsvs = 0;
  std::size_t dummy_tsvs = 0;
  std::size_t voltage_volumes = 0;
  double runtime_s = 0.0;
  bool legal = false;
  // --- traces ---------------------------------------------------------------
  AnnealStats anneal;   ///< the winning chain's stats
  tsv::DummyInsertResult dummy;
  /// Per-chain trace: one entry per chain, a single chain included.
  ChainReport chains;
};

class Floorplanner {
 public:
  explicit Floorplanner(FloorplannerOptions options = {});

  /// Run the full flow on `fp` (modules get placed, TSVs and voltages
  /// assigned).  Deterministic for a given floorplan + rng state.
  FloorplanMetrics run(Floorplan3D& fp, Rng& rng) const;

  /// Checkpointing variant (see exploration_checkpoint.hpp): `hooks.save`
  /// snapshots every chain at the orchestrator's stage barriers;
  /// `hooks.resume` continues from a snapshot instead of initializing
  /// (throwing std::invalid_argument when its chain count differs from
  /// options().chains.chains) -- the resumed flow's final layout,
  /// metrics (runtime aside) and RNG position are bitwise-identical to an
  /// uninterrupted run's.  The caller guarantees the checkpoint belongs
  /// to this exact (design, options, seed); the batch service does so by
  /// hashing all three into the checkpoint file identity (docs/JOBS.md).
  FloorplanMetrics run(Floorplan3D& fp, Rng& rng,
                       const ExplorationHooks& hooks) const;

  [[nodiscard]] const FloorplannerOptions& options() const { return opt_; }

  /// Preset option sets for the two experimental setups of Sec. 7.
  [[nodiscard]] static FloorplannerOptions power_aware_setup();
  [[nodiscard]] static FloorplannerOptions tsc_aware_setup();

 private:
  FloorplannerOptions opt_;
};

}  // namespace tsc3d::floorplan
