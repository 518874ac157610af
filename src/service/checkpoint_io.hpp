// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Durable on-disk encoding of floorplan::ExplorationCheckpoint, plus the
// artifact identity every service file carries.
//
// A checkpoint is one service frame (service/frame.hpp: magic
// "TSC3DCKP", kCheckpointFormatVersion, size, FNV-1a checksum) whose
// payload is the ArtifactContext followed by the ExplorationCheckpoint.
// The checkpoint stores the annealer's and the evaluator's own state
// records (AnnealProgress, CostEvaluator::CheckpointState), and each
// record's fields are listed once, in checkpoint_io.cpp, for both
// directions (service/serialize.hpp).
//
// Loading follows the DtmCheckpoint discipline: EVERY defect -- missing
// file, wrong magic, unknown format version, truncated payload, checksum
// mismatch, or an identity (design/config/seed/code-version) that does
// not match the job being resumed -- yields {ok = false, reason}, and
// the caller starts the run fresh.  The identity is checked before the
// rest of the payload is decoded.  A checkpoint can cost redo work,
// never correctness.  Writes are atomic and durable (temp file, sync,
// rename), so a crash mid-write leaves the previous checkpoint intact.
#pragma once

#include <filesystem>
#include <string>

#include "floorplan/exploration_checkpoint.hpp"
#include "service/serialize.hpp"

namespace tsc3d::service {

/// Identity of one exploration: what produced an artifact and for which
/// question.  Two artifacts are interchangeable iff all four match.
struct ArtifactContext {
  std::uint64_t design_hash = 0;  ///< content hash of the design source
  std::uint64_t config_hash = 0;  ///< hash of the canonical config text
  std::uint64_t seed = 0;
  std::string code_version;       ///< kCodeVersion of the producer

  [[nodiscard]] bool operator==(const ArtifactContext&) const = default;
};

/// Cache key: a single 64-bit digest of the full context.  Collisions
/// are tolerated -- every artifact stores the full context and probes
/// compare it, so a collision degrades to a miss, never a wrong answer.
[[nodiscard]] std::uint64_t context_key(const ArtifactContext& ctx);

/// The context's encoding, shared by every artifact payload that opens
/// with one (checkpoints, results, and scenario results' exploration
/// fields).
template <class IO, RecordOf<ArtifactContext> R>
void fields(IO& io, R& ctx) {
  io(ctx.design_hash, ctx.config_hash, ctx.seed, ctx.code_version);
}

/// Write atomically and durably (see service::write_file_atomic); throws
/// std::runtime_error on I/O failure.
void save_checkpoint_file(const std::filesystem::path& path,
                          const ArtifactContext& context,
                          const floorplan::ExplorationCheckpoint& checkpoint);

struct CheckpointLoad {
  bool ok = false;
  std::string reason;  ///< why the load was rejected (ok == false)
  floorplan::ExplorationCheckpoint checkpoint;
};

/// Load + validate against `expect` (see file comment).  Never throws on
/// bad content; a defective file is a clean miss with a reason.
[[nodiscard]] CheckpointLoad load_checkpoint_file(
    const std::filesystem::path& path, const ArtifactContext& expect);

}  // namespace tsc3d::service
