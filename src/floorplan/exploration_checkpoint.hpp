// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Durable annealing checkpoints: everything a resumed exploration needs
// to continue bitwise-identically to an uninterrupted run.  A checkpoint
// is taken at the orchestrator's stage barrier -- where no trial bracket
// is open and no move is half-applied -- for any chain count, and
// covers, per chain:
//
//   * the layout state and the tracked best (sequence pairs, extents,
//     die assignment),
//   * the session's AnnealProgress, stored as is (temperatures, cadence
//     counters, stats, the current/best cost breakdowns),
//   * the RNG stream position (including a pending cached gaussian),
//   * the CostEvaluator's own CheckpointState (escalated outline weight
//     plus its Resumable record: adaptive normalizers, cached expensive
//     terms, cross-check cadence),
//   * the in-loop engine's warm-start temperature field, and
//   * the per-module voltage assignment the last full evaluation wrote
//     into the floorplan.
//
// Every checkpoint also carries the exchange RNG, the completed-stage/
// round counters and the exchange stats (idle for a single chain).
// Chain 0 runs on the flow's own RNG, so chains[0].rng is also the
// position the post-processing continues from.  The restored
// layout gets a FRESH tracking family, so the first apply_to() fully
// repacks every die -- bitwise-identical positions, since positions are
// a pure function of sequences and extents (tests/test_incremental_eval.cpp
// checks every stage against a from-scratch pack).
//
// The on-disk encoding (versioned, checksummed, validated against the
// job identity) lives in src/service/checkpoint_io.hpp, which lists each
// of these records' fields once, in member order; this header is the
// in-memory contract between the annealing stack and that service layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/floorplan.hpp"
#include "core/rng.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/chain_orchestrator.hpp"
#include "floorplan/cost.hpp"
#include "thermal/thermal_engine.hpp"

namespace tsc3d::floorplan {

/// Value snapshot of a LayoutState: the per-die sequence pairs (both
/// sequences), module extents and die assignment.  Tracking bookkeeping
/// is NOT captured -- restore_layout() allocates a fresh family.
struct LayoutStateImage {
  /// One die's sequence pair.
  struct DieSequences {
    std::vector<std::size_t> positive;
    std::vector<std::size_t> negative;

    [[nodiscard]] bool operator==(const DieSequences&) const = default;
  };

  std::vector<DieSequences> die_sp;  ///< per die
  std::vector<double> width;
  std::vector<double> height;
  std::vector<std::size_t> die_of;

  [[nodiscard]] bool operator==(const LayoutStateImage&) const = default;
};

[[nodiscard]] LayoutStateImage capture_layout(const LayoutState& state);
/// Rebuild a LayoutState, with a fresh tracking family, from an image.
/// Throws std::invalid_argument on inconsistent sequences (see
/// SequencePair::restore).
[[nodiscard]] LayoutState restore_layout(const LayoutStateImage& image);

/// One chain's complete resumable state (see file comment).
struct ChainCheckpoint {
  LayoutStateImage state;
  LayoutStateImage best;
  AnnealProgress progress;            ///< the session's own bookkeeping
  Rng::State rng;
  CostEvaluator::CheckpointState eval;
  thermal::FieldSnapshot field;      ///< in-loop engine warm field
  std::vector<std::uint64_t> voltage_index;  ///< per module, from the fp

  [[nodiscard]] bool operator==(const ChainCheckpoint&) const = default;
};

/// A whole exploration at a checkpointable boundary: the flow-level
/// clock budget plus one ChainCheckpoint per chain (the chain count is
/// chains.size()).
struct ExplorationCheckpoint {
  double clock_period_ns = 0.0; ///< auto-derived timing budget
  std::vector<ChainCheckpoint> chains;
  // --- replica exchange -------------------------------------------------
  Rng::State exchange_rng;
  std::uint64_t done_stages = 0;
  std::uint64_t round = 0;
  ExchangeStats exchange;

  [[nodiscard]] bool operator==(const ExplorationCheckpoint&) const = default;
};

/// Checkpoint plumbing for Floorplanner::run: `save` (when set) is
/// called at every stage barrier where the completed stage count is a
/// multiple of `checkpoint_interval`, plus the final barrier before
/// finish(); `resume` (when set) skips initialization
/// and continues from the checkpoint instead.  The caller owns matching
/// the resume checkpoint to the (design, options, seed) of the run --
/// the service layer does so by hashing all three into the file identity.
struct ExplorationHooks {
  std::size_t checkpoint_interval = 1;  ///< stages between saves
  std::function<void(const ExplorationCheckpoint&)> save;
  const ExplorationCheckpoint* resume = nullptr;
};

/// Snapshot one chain at a stage boundary.  `engine` is the evaluator's
/// in-loop engine; `fp` is the chain's floorplan (for the voltage
/// assignment).  Throws std::logic_error if the evaluator has an open
/// trial bracket or the engine has not solved yet (begin() always has).
[[nodiscard]] ChainCheckpoint capture_chain(const AnnealSession& session,
                                            const Rng& rng,
                                            const CostEvaluator& eval,
                                            const thermal::ThermalEngine& engine,
                                            const Floorplan3D& fp);

/// Restore one chain: rebuilds `state_storage` and `session` (pointing
/// at it), repositions `rng`, reinstates the evaluator/engine/voltage
/// state, and applies the restored layout to `fp` so the first
/// post-resume move sees exactly the positions the capture-time run saw.
void restore_chain(const ChainCheckpoint& ck, AnnealSession& session,
                   LayoutState& state_storage, Rng& rng, CostEvaluator& eval,
                   thermal::ThermalEngine& engine, Floorplan3D& fp);

}  // namespace tsc3d::floorplan
