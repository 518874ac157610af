// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// On-disk encoding of one finished exploration: the Table-2 metrics, the
// final placement (per-module die/position/extents/voltage), the TSV
// list and the final RNG stream position, all under the producing
// ArtifactContext.  Everything stored is a deterministic function of the
// context -- wall-clock runtime is deliberately NOT stored -- so two
// runs of the same job produce byte-identical files, and the resume and
// cache tests compare result files bitwise.
//
// A result is one service frame (service/frame.hpp: magic "TSC3DRES",
// kResultFormatVersion, size, FNV-1a checksum) around the payload.
// Loading is fail-soft like every frame: any defect is a miss with a
// reason, never an exception or a wrong result.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/floorplan.hpp"
#include "core/rng.hpp"
#include "floorplan/floorplanner.hpp"
#include "service/checkpoint_io.hpp"

namespace tsc3d::service {

/// One module's final placement.
struct PlacedModule {
  std::uint64_t die = 0;
  double x = 0.0, y = 0.0, w = 0.0, h = 0.0;
  std::uint64_t voltage_index = 0;

  [[nodiscard]] bool operator==(const PlacedModule&) const = default;
};

/// One TSV island.
struct StoredTsv {
  double x = 0.0, y = 0.0;
  std::uint64_t count = 0;
  std::uint64_t kind = 0;  ///< TsvKind as integer
  std::uint64_t net = 0;

  [[nodiscard]] bool operator==(const StoredTsv&) const = default;
};

/// The deterministic outcome of one exploration.
struct StoredResult {
  ArtifactContext context;
  bool legal = false;
  std::vector<double> correlation;
  std::vector<double> entropy;
  double power_w = 0.0;
  double critical_delay_ns = 0.0;
  double wirelength_m = 0.0;
  double peak_k = 0.0;
  std::uint64_t signal_tsvs = 0;
  std::uint64_t dummy_tsvs = 0;
  std::uint64_t voltage_volumes = 0;
  double clock_period_ns = 0.0;  ///< auto-derived timing budget
  std::vector<PlacedModule> placement;
  std::vector<StoredTsv> tsvs;
  Rng::State final_rng;  ///< flow RNG position after the full run

  [[nodiscard]] bool operator==(const StoredResult&) const = default;
};

/// Assemble a StoredResult from a finished run.
[[nodiscard]] StoredResult make_stored_result(
    const ArtifactContext& context, const Floorplan3D& fp,
    const floorplan::FloorplanMetrics& metrics, const Rng& rng);

/// Write atomically and durably (see service::write_file_atomic); throws
/// std::runtime_error on I/O failure.
void save_result_file(const std::filesystem::path& path,
                      const StoredResult& result);

struct ResultLoad {
  bool ok = false;
  std::string reason;
  StoredResult result;
};

/// Load + validate framing and (when `expect` is non-null) the stored
/// context; defects are clean misses.
[[nodiscard]] ResultLoad load_result_file(const std::filesystem::path& path,
                                          const ArtifactContext* expect);

}  // namespace tsc3d::service
