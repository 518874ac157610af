#include "campaign/scenario_io.hpp"

#include <iomanip>
#include <sstream>

#include "service/frame.hpp"
#include "service/version.hpp"

namespace tsc3d::campaign {

// --- the scenario result's records, in on-disk order --------------------

template <class IO, service::RecordOf<ScenarioContext> R>
void fields(IO& io, R& c) {
  io(c.exploration, c.attack, c.mitigation, c.flavor, c.params_hash);
}

template <class IO, service::RecordOf<ScenarioResult> R>
void fields(IO& io, R& r) {
  io(r.context, r.legal, r.wirelength_m, r.power_w, r.critical_delay_ns,
     r.peak_k, r.mitigation_overhead_w, r.mitigation_performance_loss,
     r.mitigation_peak_k, r.attack_success, r.pearson_abs_max, r.mi_max,
     r.svf, r.spatial_entropy_max, r.leakage, r.overhead);
}

namespace {

constexpr service::FrameFormat kFrame{
    {'T', 'S', 'C', '3', 'D', 'S', 'C', 'N'}, service::kScenarioFormatVersion,
    "scenario"};

}  // namespace

void save_scenario_file(const std::filesystem::path& path,
                        const ScenarioResult& res) {
  service::ByteWriter payload;
  payload(res);
  service::write_frame(path, kFrame, payload);
}

ScenarioLoad load_scenario_file(const std::filesystem::path& path,
                                const ScenarioContext* expect) {
  ScenarioLoad out;
  ScenarioResult res;
  out.reason = service::read_record(path, kFrame, expect, res);
  out.ok = out.reason.empty();
  if (out.ok) out.result = std::move(res);
  return out;
}

ScenarioCache::ScenarioCache(std::filesystem::path dir)
    : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::filesystem::path ScenarioCache::path_for(
    const ScenarioContext& ctx) const {
  std::ostringstream hex;
  hex << std::hex << std::setw(16) << std::setfill('0') << scenario_key(ctx);
  return dir_ / (hex.str() + ".scn");
}

std::optional<ScenarioResult> ScenarioCache::probe(
    const ScenarioContext& ctx) const {
  const ScenarioLoad load = load_scenario_file(path_for(ctx), &ctx);
  if (!load.ok) return std::nullopt;
  return load.result;
}

void ScenarioCache::store(const ScenarioResult& result) const {
  save_scenario_file(path_for(result.context), result);
}

}  // namespace tsc3d::campaign
