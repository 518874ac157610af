// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Multi-objective floorplanning cost (Sec. 7 setups):
//
//  * power-aware (PA): packing density, wirelength, critical delay, peak
//    temperature, and voltage assignment (overall power + number of
//    volumes), all weighted equally -- the paper's competitive baseline.
//  * TSC-aware: the same criteria PLUS the average Eq.-1 correlation
//    coefficients and the average spatial entropies; the voltage
//    objective switches to volume count + power-gradient uniformity.
//
// Terms are adaptively normalized to the value of the first evaluation so
// the weights express relative importance, as in Corblivar.  Cheap terms
// (packing, outline, wirelength, delay) are evaluated per move; expensive
// terms (voltage assignment, in-loop thermal, correlation, entropy) are
// refreshed at a configurable cadence (see annealer.hpp).  The in-loop
// thermal term is a detailed steady solve at leakage_grid resolution on
// the evaluator's warm-started ThermalEngine: successive layouts differ
// by one move, so each solve starts from the previous field.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/floorplan.hpp"
#include "leakage/spatial_entropy.hpp"
#include "power/timing.hpp"
#include "power/voltage.hpp"
#include "thermal/thermal_engine.hpp"

namespace tsc3d::floorplan {

/// Relative weights of the cost terms.  Zero disables a term.
struct CostWeights {
  double area = 1.0;         ///< packing bounding-box area
  double outline = 8.0;      ///< fixed-outline violation (hard-ish)
  double wirelength = 1.0;
  double delay = 1.0;
  double peak_temp = 1.0;
  double power = 1.0;        ///< overall power after voltage assignment
  double volumes = 1.0;      ///< number of voltage volumes
  double correlation = 0.0;  ///< avg per-die Eq. 1 correlation
  double entropy = 0.0;      ///< avg per-die spatial entropy
  double power_gradient = 0.0;  ///< intra/inter volume density stddev
};

/// The PA setup: all classical criteria weighted equally (Sec. 7 (i)).
[[nodiscard]] CostWeights power_aware_weights();

/// The TSC setup: classical criteria plus leakage terms (Sec. 7 (ii)).
[[nodiscard]] CostWeights tsc_aware_weights();

/// All raw term values of one evaluation.
struct CostBreakdown {
  double bbox_area_ratio = 0.0;   ///< sum of die bbox areas / outline areas
  double outline_penalty = 0.0;   ///< relative overhang beyond the outline
  double wirelength_um = 0.0;
  double delay_ns = 0.0;
  double peak_k_rise = 0.0;       ///< peak temperature above ambient (fast)
  double power_w = 0.0;
  double num_volumes = 0.0;
  double power_gradient = 0.0;
  std::vector<double> correlation;  ///< per die, in-loop thermal solve
  std::vector<double> entropy;      ///< per die
  double total = 0.0;
  bool fits_outline = false;

  [[nodiscard]] bool operator==(const CostBreakdown&) const = default;
};

/// Evaluator bound to one floorplan database.  The annealer mutates the
/// floorplan (via LayoutState::apply_to) and calls evaluate_*().
class CostEvaluator {
 public:
  struct Options {
    CostWeights weights;
    power::VoltageObjective voltage_objective =
        power::VoltageObjective::power_aware;
    power::TimingOptions timing;
    power::VoltageOptions voltage;
    std::size_t leakage_grid = 32;  ///< in-loop analysis grid resolution
    leakage::SpatialEntropyOptions entropy_options;
    /// The cheap terms are served from the floorplan's incremental caches
    /// (per-die bounds fed by the packer, per-net HPWL boxes, per-net
    /// Elmore stage delays), bitwise-equal to a full rescan as long as
    /// layout writes go through LayoutState::apply_to / note_module_moved
    /// (see floorplan.hpp, "incremental layout tracking").  Every Nth
    /// measure_cheap, recompute them by full rescan -- and each die's
    /// memoized entropy from a fresh power map -- and throw
    /// std::logic_error on any bitwise mismatch (a mismatch means some
    /// code moved modules without announcing it).  0 disables; defaults
    /// on in debug builds.
#ifndef NDEBUG
    std::size_t cross_check_interval = 256;
#else
    std::size_t cross_check_interval = 0;
#endif
  };

  /// `engine` solves the in-loop thermal term; it must outlive the
  /// evaluator and its grid must match `options.leakage_grid` (throws
  /// std::invalid_argument otherwise).
  CostEvaluator(Floorplan3D& fp, thermal::ThermalEngine& engine,
                Options options);

  /// Cheap terms only; thermal and voltage terms are carried over from
  /// the last refresh (their cached raw values are reused).
  [[nodiscard]] CostBreakdown evaluate_cheap();

  /// Cheap terms + TSV planning + in-loop thermal + correlation refresh;
  /// voltage-assignment terms stay cached.  Cheap enough to run every
  /// few moves when the setup weights the correlation.
  [[nodiscard]] CostBreakdown evaluate_thermal();

  /// All terms: additionally re-runs the voltage assignment.
  [[nodiscard]] CostBreakdown evaluate_full();

  // --- trial (speculative) evaluation ------------------------------------
  // One bracket around a speculative move (see
  // floorplan/move_transaction.hpp): trial_begin() opens the journaling
  // trial on the floorplan AND the timing engine, so every incremental
  // cache cell the staged move dirties is captured before its first
  // rewrite; trial_rollback() restores them bitwise and trial_commit()
  // drops the journals.  The evaluator's own state needs no journal: the
  // expensive-term caches are refresh-cadence state (a refresh taken
  // while scoring a rejected move is kept by design), and the per-die
  // layout-term cache and entropy memo below are keyed on VALUES (the
  // cached bounds, the power-map bits), so they self-heal after a
  // rollback.  Trials do not nest.

  /// Open the speculative bracket (floorplan + timing journaling on).
  void trial_begin();
  /// Keep the staged move: drop the journals.
  void trial_commit();
  /// Reject the staged move: restore every journaled cache cell bitwise.
  void trial_rollback();
  /// True while a trial bracket is open.
  [[nodiscard]] bool in_trial() const;

  [[nodiscard]] const Options& options() const { return opt_; }

  // --- checkpointing ------------------------------------------------------
  // The evaluator state a resumed annealing session must carry to stay
  // bitwise-identical to an uninterrupted run: the adaptive normalizers
  // (frozen at the first full evaluation), the cached raw values of the
  // expensive terms between refreshes, the escalated outline weight, and
  // the cross-check cadence counter.  The evaluator keeps all of it but
  // the outline weight (which lives in its options) in one Resumable
  // record, so a checkpoint copies that record whole.  The value-keyed
  // per-die layout-term cache and entropy memo are deliberately absent --
  // they self-heal from the repacked layout with identical arithmetic.

  /// Adaptive normalizers: each term's value at the first full
  /// evaluation (guarded away from zero).
  struct Normalizers {
    double area = 1.0, wl = 1.0, delay = 1.0, peak = 1.0, power = 1.0,
           volumes = 1.0, corr = 1.0, entropy = 1.0, gradient = 1.0;
    bool ready = false;

    [[nodiscard]] bool operator==(const Normalizers&) const = default;
  };

  /// The evaluator's resumable values besides the outline weight.
  struct Resumable {
    /// Cached raw values of the expensive terms between refreshes.
    double peak_rise = 0.0, power = 0.0, volumes = 0.0, gradient = 0.0;
    std::vector<double> correlation, entropy;
    bool have_expensive = false;
    std::uint64_t cheap_evals = 0;  ///< cross-check cadence counter
    Normalizers norm;

    [[nodiscard]] bool operator==(const Resumable&) const = default;
  };

  /// Everything restore_checkpoint_state() needs (see above).
  struct CheckpointState {
    double outline_weight = 0.0;
    Resumable state;

    [[nodiscard]] bool operator==(const CheckpointState&) const = default;
  };

  /// Snapshot the resumable state.  Throws std::logic_error while a
  /// trial bracket is open (checkpoints live at stage boundaries, never
  /// mid-bracket).
  [[nodiscard]] CheckpointState checkpoint_state() const;
  /// Restore a snapshot taken by checkpoint_state().  Same bracket rule.
  void restore_checkpoint_state(const CheckpointState& st);

  /// Forward a tolerance-schedule scale to the in-loop engine:
  /// subsequent thermal solves stop at tolerance_k * max(1, scale).  The
  /// annealer drives this per step -- coarse solves while the search is
  /// hot and the proposed move is large, full accuracy toward
  /// convergence -- while verification engines (owned elsewhere) always
  /// keep scale 1.
  void set_thermal_tolerance_scale(double scale);

  /// Current fixed-outline violation weight.  The annealer escalates it
  /// when the search lingers in illegal (overhanging) regions of the
  /// space -- the standard fixed-outline SA remedy.
  [[nodiscard]] double outline_weight() const { return opt_.weights.outline; }
  /// Multiply the outline weight.  Safe between evaluations because
  /// combine() applies the weights fresh on every call and every raw-term
  /// cache in this class stores weight-INDEPENDENT values -- no cache
  /// invalidation is needed.  Throws std::logic_error while a trial
  /// bracket is open: the staged move would be priced under the new
  /// weight against a current cost priced under the old one.
  void scale_outline_weight(double factor);

 private:
  void measure_cheap(CostBreakdown& c);
  /// The cheap layout terms (bbox/outline, wirelength, delay) by full
  /// rescan: the oracle behind cross_check_interval.
  void measure_layout_terms_full(CostBreakdown& c) const;
  /// The same terms from the incremental caches; bitwise-equal to the
  /// full rescan under the tracking invariant.
  void measure_layout_terms_incremental(CostBreakdown& c);
  void measure_thermal(CostBreakdown& c);
  void measure_voltage(CostBreakdown& c);
  [[nodiscard]] double combine(const CostBreakdown& c) const;
  void init_normalizers(const CostBreakdown& c);

  Floorplan3D& fp_;
  thermal::ThermalEngine& engine_;
  Options opt_;
  /// Net topology is static during annealing; the timing engine is built
  /// once and reads module positions live.
  power::ElmoreTiming timing_;

  // --- delta-form per-die layout terms (see measure_layout_terms_... ) --
  // The area and outline contributions of each die, cached against the
  // die bounds they were derived from.  A move touches one or two dies;
  // the untouched dies' bounds come back bitwise-identical from
  // die_bounds(), so their terms are reused and only the touched dies
  // re-run the (identical) arithmetic.  Keyed on VALUES (bounds + the
  // fixed outline), not on epochs, so the cache is self-healing under
  // trial rollback -- a restored bound simply hits again.
  struct DieTermCache {
    double width = -1.0, height = -1.0;  ///< bounds the entry was built from
    double area_ratio = 0.0;             ///< (w * h) / outline area
    double over_w = 0.0, over_h = 0.0;   ///< relative outline overhang
  };
  std::vector<DieTermCache> die_terms_;
  double die_terms_outline_w_ = -1.0;  ///< outline the cache was built for
  double die_terms_outline_h_ = -1.0;

  // --- per-die entropy memo ----------------------------------------------
  // Each die's Eq. 3 entropy, keyed on the exact bits of the power map it
  // was scored on, so a hit returns what spatial_entropy() would.  Two
  // slots per die: a miss overwrites only slot 1 and a hit there swaps it
  // into slot 0.  Slot 0 thus holds content asked for again after it was
  // scored -- the committed layout, which every rejected move rolls back
  // to -- and keeps it through any run of rejected moves on that die.
  struct EntropyMemo {
    GridD map;             ///< the key, compared bit for bit
    double entropy = 0.0;  ///< spatial_entropy(map, entropy_options)
  };
  std::vector<std::array<EntropyMemo, 2>> entropy_memo_;
  /// Spatial entropy of die `d`'s power map `map`: from the memo, or on a
  /// miss from leakage::spatial_entropy.
  [[nodiscard]] double die_entropy(std::size_t d, const GridD& map);

  Resumable state_;  ///< see "checkpointing" above
};

}  // namespace tsc3d::floorplan
