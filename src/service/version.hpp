// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Version identity of the batch exploration service's on-disk
// artifacts.
//
//   * kCodeVersion names the RESULT-AFFECTING code revision.  It is part
//     of every artifact's identity: a checkpoint written by a different
//     code version is discarded (clean restart, never a silent mix of
//     two algorithms), and a cached result from one never answers a
//     query for another.  Bump it whenever a change can alter any
//     annealing result bitwise -- move logic, cost terms, RNG use,
//     default options -- and leave it alone for pure refactors, so the
//     cache survives them.
//   * kCheckpointFormatVersion / kResultFormatVersion name the byte
//     LAYOUTS.  Bump on any encoding change; readers reject other
//     versions instead of misparsing them.
#pragma once

namespace tsc3d::service {

// tsc3d-11: every run anneals through the chain orchestrator, and the
// in-loop thermal term always comes from the chain's own warm-started
// engine (the power-blurring loop is gone).
//   * Tempering runs change: chain 0 now draws from the caller's RNG,
//     the dummy-TSV stage continues from chain 0's RNG position, and the
//     winner's voltages and TSVs are handed back with its layout.
//   * Single-chain runs keep their moves and placements on the designs
//     measured; the in-loop engine now starts cold instead of warmed by
//     the blur calibration, so the final scale-1 re-measure -- and with
//     it AnnealStats::best_cost -- moves in its last digits.
inline constexpr const char* kCodeVersion = "tsc3d-11";

// Checkpoint format 3: no tempering flag and no flow RNG (the chain count
// is the chain list's length, and chain 0 runs on the flow RNG), and no
// warm-field flag (every capture follows an in-loop solve).
inline constexpr unsigned kCheckpointFormatVersion = 3;
inline constexpr unsigned kResultFormatVersion = 1;
inline constexpr unsigned kScenarioFormatVersion = 1;

}  // namespace tsc3d::service
