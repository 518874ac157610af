// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Transactional trial moves: a speculative evaluate/commit/rollback
// bracket around one annealing move, the annealer's only move pipeline.
// Most moves are rejected, so a rejection must not pay a re-pack and
// cache rebuild.  A MoveTransaction journals every floorplan/evaluator
// cache cell the speculative move touches (first touch only -- see
// Floorplan3D::begin_trial and ElmoreTiming::begin_trial) and, on
// rollback, restores them bitwise AND restores the LayoutState's die
// content versions, so the floorplan's layout stamps still match the
// state and the next apply_to() skips the untouched dies entirely.
//
// Phase machine:
//
//   idle --open()--> open --stage()--> staged --commit()----> idle
//                      |                        \-rollback()-> idle
//                      \--abort()--> idle   (kind-none moves: nothing
//                                            was staged, nothing to undo)
//
// Determinism contract: staging, commit, and rollback consume no
// randomness, and rollback restores every value a subsequent evaluation
// can observe -- after every stage the floorplan equals a from-scratch
// pack of the state (tests/test_incremental_eval.cpp pins this per
// stage, with the evaluator's full-rescan cross-check on every move).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/floorplan.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/cost.hpp"

namespace tsc3d::floorplan {

/// Record of one annealing move: enough data to roll it back.  Filled
/// by Annealer::random_move.
struct MoveRecord {
  enum class Kind { none, swap_pos, swap_neg, swap_both, resize, transfer,
                    exchange };
  Kind kind = Kind::none;
  std::size_t die_a = 0, die_b = 0;
  std::size_t slot_i = 0, slot_j = 0;
  std::size_t module_a = 0, module_b = 0;
  double old_w = 0.0, old_h = 0.0;
  std::size_t old_pos_slot = 0, old_neg_slot = 0;
  std::size_t old_pos_slot_b = 0, old_neg_slot_b = 0;

  /// Restore the pre-move die content WITHOUT re-dirtying the restored
  /// dies: the caller restores the die versions too (MoveTransaction
  /// rollback), so stamps minted before the move match again and the
  /// next apply_to() skips the dies outright.
  void revert_slots(LayoutState& s) const;
};

/// One speculative move against (state, floorplan, evaluator).  Reusable:
/// open/stage/commit|rollback|abort cycles any number of times.  Phase
/// misuse (double open, commit without stage, ...) throws std::logic_error
/// -- the bracket is a correctness boundary, not a hint.
class MoveTransaction {
 public:
  MoveTransaction(Floorplan3D& fp, CostEvaluator& eval)
      : fp_(fp), eval_(eval) {}

  /// Open a transaction over `state` BEFORE the move mutates it: snapshots
  /// the per-die content versions so rollback can restore them.
  void open(LayoutState& state);

  /// Publish the (already state-mutated) move to the floorplan under a
  /// trial bracket: every cache cell apply_to() dirties is journaled and
  /// restorable.  After stage() the evaluator measures the trial layout.
  void stage();

  /// Keep the move: drop the journals, the trial layout becomes current.
  void commit();

  /// Reject the move: restore the state's content and die versions and
  /// every journaled floorplan/timing cache cell, bitwise.  The floorplan
  /// stamps match the state again, so the next apply_to() is a no-op for
  /// every die this move touched.
  void rollback(const MoveRecord& rec);

  /// Close a transaction whose move came back kind-none: nothing was
  /// staged, nothing to undo.
  void abort();

 private:
  enum class Phase { idle, open, staged };

  Floorplan3D& fp_;
  CostEvaluator& eval_;
  LayoutState* state_ = nullptr;
  std::vector<std::uint64_t> base_versions_;  ///< die versions at open()
  Phase phase_ = Phase::idle;
};

}  // namespace tsc3d::floorplan
