// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// On-disk encoding of one finished scenario evaluation, plus the
// content-addressed scenario cache.  A scenario result is one service
// frame (service/frame.hpp: magic "TSC3DSCN", kScenarioFormatVersion,
// size, FNV-1a checksum) around the payload.  Loading is fail-soft --
// EVERY defect (missing file, bad magic, unknown version, truncation,
// checksum mismatch, context mismatch, trailing bytes) yields
// {ok = false, reason}, never an exception or a wrong accept -- and
// writes are atomic and durable.  Scenario results are runtime-free
// deterministic functions of their ScenarioContext, so reruns produce
// byte-identical files and the campaign report can be byte-compared.
#pragma once

#include <filesystem>
#include <optional>
#include <string>

#include "campaign/scenario.hpp"

namespace tsc3d::campaign {

/// Write atomically and durably (see service::write_file_atomic); throws
/// std::runtime_error on I/O failure.
void save_scenario_file(const std::filesystem::path& path,
                        const ScenarioResult& result);

struct ScenarioLoad {
  bool ok = false;
  std::string reason;
  ScenarioResult result;
};

/// Load + validate framing and (when `expect` is non-null) the embedded
/// context; defects are clean misses.
[[nodiscard]] ScenarioLoad load_scenario_file(
    const std::filesystem::path& path, const ScenarioContext* expect);

/// Content-addressed scenario cache: <hex(scenario_key)>.scn files in a
/// flat directory (shareable with the exploration ResultCache's dir --
/// extensions differ).  Probes re-validate the embedded context, so key
/// collisions and stale files degrade to misses, never wrong hits.
class ScenarioCache {
 public:
  explicit ScenarioCache(std::filesystem::path dir);

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

  [[nodiscard]] std::filesystem::path path_for(
      const ScenarioContext& ctx) const;

  [[nodiscard]] std::optional<ScenarioResult> probe(
      const ScenarioContext& ctx) const;

  void store(const ScenarioResult& result) const;

 private:
  std::filesystem::path dir_;
};

}  // namespace tsc3d::campaign
