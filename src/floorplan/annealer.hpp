// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Simulated-annealing engine over the 3D layout state: one sequence pair
// per die plus the inter-die module assignment.  Moves cover intra-die
// reordering (sequence swaps), soft-module resizing / hard-module
// rotation, and inter-die transfers and exchanges -- so the full 3D
// design space is explored, as the paper emphasizes ("not only by
// carefully inserting dummy TSVs, but more so by thoroughly exploring
// the 3D design space", Sec. 7.3).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/floorplan.hpp"
#include "core/rng.hpp"
#include "floorplan/cost.hpp"
#include "floorplan/sequence_pair.hpp"

namespace tsc3d::floorplan {

struct MoveRecord;  // full definition in floorplan/move_transaction.hpp

/// The mutable floorplanning state the annealer works on.
///
/// Incremental packing: each die carries a content version (bumped by
/// touch_die whenever its sequences, a member's extents, or its module
/// set change) drawn from a counter shared by every copy of the state
/// ("family").  apply_to() stamps the floorplan with the (family,
/// version) it wrote per die and, on the next call, skips any die whose
/// stamp still matches -- those module positions are bitwise-untouched
/// by construction, since an unchanged (family, version) pair uniquely
/// identifies the die content that produced them.  The per-die Packing
/// is cached at its version, so clean dies cost nothing at all, and a
/// rejected move's rollback (MoveTransaction) restores the pre-move
/// versions so its dies stay clean.  The shared counter is atomic, so
/// states exchanged between parallel-tempering chains stay sound;
/// version VALUES may depend on scheduling, but only stamp EQUALITY is
/// ever consulted, and equal stamps imply identical content -- results
/// stay deterministic.
struct LayoutState {
  std::vector<SequencePair> die_sp;    ///< one sequence pair per die
  std::vector<double> width;           ///< chosen extents per module id
  std::vector<double> height;
  std::vector<std::size_t> die_of;     ///< die assignment per module id

  /// Build an initial state from the floorplan's modules.  If
  /// `hot_modules_to_top` is set, the hotter half (by power density) goes
  /// to the die adjacent to the heatsink -- Corblivar's thermal design
  /// rule (Sec. 7.2).
  [[nodiscard]] static LayoutState initial(const Floorplan3D& fp, Rng& rng,
                                           bool hot_modules_to_top = true);

  /// Pack every die whose stamp no longer matches `fp` and write shapes +
  /// die assignments + per-die bounds for exactly those dies; dies whose
  /// stamp matches are skipped (their positions in `fp` are already this
  /// state's, bitwise).  Throws std::logic_error for a state without a
  /// tracking family (see init_tracking()).
  void apply_to(Floorplan3D& fp) const;

  /// Mark die `d` dirty: bumps its content version to a fresh value and
  /// drops its cached packing.  Every mutation of die_sp[d], of a member
  /// module's width/height, or of the die's member set MUST be announced
  /// here (the annealer's moves and undos do).
  void touch_die(std::size_t d);

  /// Allocate a fresh tracking family covering `dies` dies (initial()
  /// and restore_layout() call this; exposed for tests building states
  /// by hand).
  void init_tracking(std::size_t dies);

  // --- incremental-packing bookkeeping (see class comment) --------------
  std::uint64_t family = 0;                 ///< 0 = no tracking yet
  std::vector<std::uint64_t> die_version;   ///< content version per die
  /// Shared, monotone version source for the whole copy-family.
  std::shared_ptr<std::atomic<std::uint64_t>> version_counter;
  /// Cached packing per die, valid while packing_version == die_version.
  mutable std::vector<Packing> packing_cache;
  mutable std::vector<std::uint64_t> packing_version;  ///< 0 = invalid
};

struct AnnealOptions {
  double initial_accept = 0.85;   ///< target acceptance at T0
  /// Geometric stage cooling factor; 0 (default) derives the factor so
  /// the temperature decays to final_temp_ratio * T0 over the stages.
  double cooling = 0.0;
  double final_temp_ratio = 1e-3;
  std::size_t stages = 50;
  /// Total SA moves; 0 = auto-scale with the design size
  /// (8000 + 150 * #modules).
  std::size_t total_moves = 0;
  std::size_t full_eval_interval = 150;  ///< moves between voltage refresh
  /// Moves between fast-thermal/correlation refreshes.  0 disables the
  /// intermediate level (thermal terms then refresh with the full eval).
  std::size_t thermal_eval_interval = 0;
  /// Fraction of the stages run greedily (T ~ 0) at the end.
  double greedy_tail = 0.15;
  double transfer_prob = 0.12;    ///< inter-die transfer moves
  double exchange_prob = 0.08;    ///< inter-die exchange moves
  double resize_prob = 0.20;      ///< soft resize / hard rotate moves
  /// Fixed-outline pressure: whenever a stage ends without the outline
  /// met, the outline weight is multiplied by this factor (1 disables),
  /// up to outline_cap_factor times its starting value.
  double outline_escalation = 1.35;
  double outline_cap_factor = 256.0;
  /// If the annealed search never met the outline, run this fraction of
  /// total_moves as a greedy legalization pass that accepts only moves
  /// reducing the outline violation (ties broken by total cost).
  double repair_fraction = 0.25;
  /// Adaptive tolerance for the in-loop thermal solves: the
  /// maximum factor by which the engine's stopping tolerance is loosened
  /// while the search is hot.  Per refresh the annealer sets
  ///
  ///   scale = 1 + (inner_tolerance_scale - 1) * sqrt(T / T0) * move_size
  ///
  /// (the square root because geometric cooling collapses T/T0 within a
  /// few stages, long before the search stops making K-scale moves)
  /// where move_size in (0, 1] grades the proposed move's thermal reach
  /// (resize < intra-die swap < transfer < exchange): early, large moves
  /// change the cost by whole Kelvin and rank correctly under a coarse
  /// solve, while the cooled-down endgame tightens back to the
  /// configured tolerance_k.  Authoritative evaluations (session begin,
  /// tempering-exchange refreshes, the final install) always run at
  /// scale 1.  1 disables the schedule; the verification solve is on a
  /// separate engine and never sees it.  Deterministic: the scale is a
  /// pure function of (stage, move), not of timing.
  double inner_tolerance_scale = 32.0;
};

struct AnnealStats {
  std::size_t moves = 0;
  std::size_t accepted = 0;
  std::size_t full_evals = 0;
  std::size_t repair_moves = 0;  ///< greedy legalization moves run
  double initial_temperature = 0.0;
  double best_cost = 0.0;
  bool found_legal = false;   ///< some visited state fit the outline
  CostBreakdown best_breakdown;

  [[nodiscard]] bool operator==(const AnnealStats&) const = default;
};

/// The value bookkeeping of an annealing run -- everything but the
/// layout states.  Checkpoints store it as is (exploration_checkpoint.hpp).
struct AnnealProgress {
  CostBreakdown current;          ///< cost of *state under the session's fp
  CostBreakdown best_cost;
  bool best_legal = false;
  double initial_outline_weight = 0.0;
  double temperature = 0.0;       ///< current stage temperature (ladder-scalable)
  double cooling = 0.0;
  std::size_t total_moves = 0;
  std::size_t moves_per_stage = 0;
  std::size_t annealed_stages = 0;
  std::size_t stage = 0;          ///< next stage to run
  std::size_t since_full = 0;
  std::size_t since_thermal = 0;
  /// Set after *state was replaced from outside (a tempering exchange):
  /// the next run_stage re-applies the state and refreshes `current`
  /// with a full evaluation before annealing on.
  bool refresh_pending = false;
  AnnealStats stats;

  [[nodiscard]] bool operator==(const AnnealProgress&) const = default;
};

/// Resumable annealing run: everything `Annealer::run` used to keep in
/// locals, so an external driver (the parallel-tempering orchestrator)
/// can interleave stages with cross-chain state exchanges.  Produced by
/// Annealer::begin, advanced by run_stage, closed by finish; plain run()
/// composes the three and behaves exactly as before.
struct AnnealSession : AnnealProgress {
  LayoutState* state = nullptr;   ///< the state being annealed (chain-owned)
  LayoutState best;
};

class Annealer {
 public:
  Annealer(Floorplan3D& fp, CostEvaluator& evaluator,
           AnnealOptions options = {});

  /// Anneal `state` in place; on return `state` is the best solution
  /// found and has been applied to the floorplan.
  AnnealStats run(LayoutState& state, Rng& rng);

  // --- staged interface (see AnnealSession) -----------------------------
  /// Evaluate `state`, calibrate the initial temperature with a probe
  /// walk, and return a session positioned before the first stage.
  AnnealSession begin(LayoutState& state, Rng& rng);
  /// Run one stage of moves (plus cooling and outline escalation).
  /// Returns false without consuming randomness once all stages ran.
  bool run_stage(AnnealSession& session, Rng& rng);
  /// Greedy legalization tail (if needed) + install the best state into
  /// `*session.state` and the floorplan; returns the final stats.
  AnnealStats finish(AnnealSession& session, Rng& rng);

 private:
  /// Apply one random move and fill `rec` with enough data to roll it
  /// back.  rec.kind == none means no move was possible.
  void random_move(LayoutState& state, Rng& rng, MoveRecord& rec) const;
  /// Thermal reach of a move kind, in (0, 1] (see
  /// AnnealOptions::inner_tolerance_scale).
  static double move_size_factor(const MoveRecord& rec);
  /// Evaluation cadence of the annealing moves: full / thermal / cheap
  /// by the session's interval counters.
  CostBreakdown evaluate_move(AnnealSession& session, double move_factor);
  /// Install the tolerance schedule for an in-stage thermal refresh:
  /// scale = 1 + (max - 1) * sqrt(T / T0) * move_factor.
  void apply_tolerance_schedule(const AnnealSession& session,
                                double move_factor);
  /// Re-apply + fully re-evaluate the state after a tempering exchange.
  void stage_refresh(AnnealSession& session);
  /// Stage-end cooling + fixed-outline weight escalation.
  void stage_cool_and_escalate(AnnealSession& session);
  /// Fold an accepted breakdown into the session's best tracking.
  static void track_best(AnnealSession& session, const CostBreakdown& c);

  Floorplan3D& fp_;
  CostEvaluator& eval_;
  AnnealOptions opt_;
};

}  // namespace tsc3d::floorplan
