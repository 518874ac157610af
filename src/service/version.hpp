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

// tsc3d-10: thermal.solver defaults to auto (per-role backend selection)
// and cold multigrid solves are FMG-seeded -- verification/sampling
// temperatures, and thus cached results, change within solver accuracy.
inline constexpr const char* kCodeVersion = "tsc3d-10";

// Checkpoint format 2: a layout image no longer stores a tracking flag
// (every restored layout is tracked).
inline constexpr unsigned kCheckpointFormatVersion = 2;
inline constexpr unsigned kResultFormatVersion = 1;
inline constexpr unsigned kScenarioFormatVersion = 1;

}  // namespace tsc3d::service
