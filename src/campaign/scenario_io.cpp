#include "campaign/scenario_io.hpp"

#include <iomanip>
#include <sstream>

#include "service/frame.hpp"
#include "service/version.hpp"

namespace tsc3d::campaign {

namespace {

constexpr service::FrameFormat kFrame{
    {'T', 'S', 'C', '3', 'D', 'S', 'C', 'N'}, service::kScenarioFormatVersion,
    "scenario"};

void put_scenario_context(service::ByteWriter& w,
                          const ScenarioContext& ctx) {
  service::put_context(w, ctx.exploration);
  w.str(ctx.attack);
  w.str(ctx.mitigation);
  w.str(ctx.flavor);
  w.u64(ctx.params_hash);
}

ScenarioContext get_scenario_context(service::ByteReader& r) {
  ScenarioContext ctx;
  ctx.exploration = service::get_context(r);
  ctx.attack = r.str();
  ctx.mitigation = r.str();
  ctx.flavor = r.str();
  ctx.params_hash = r.u64();
  return ctx;
}

}  // namespace

void save_scenario_file(const std::filesystem::path& path,
                        const ScenarioResult& res) {
  service::ByteWriter payload;
  put_scenario_context(payload, res.context);
  payload.boolean(res.legal);
  payload.f64(res.wirelength_m);
  payload.f64(res.power_w);
  payload.f64(res.critical_delay_ns);
  payload.f64(res.peak_k);
  payload.f64(res.mitigation_overhead_w);
  payload.f64(res.mitigation_performance_loss);
  payload.f64(res.mitigation_peak_k);
  payload.f64(res.attack_success);
  payload.f64(res.pearson_abs_max);
  payload.f64(res.mi_max);
  payload.f64(res.svf);
  payload.f64(res.spatial_entropy_max);
  payload.f64(res.leakage);
  payload.f64(res.overhead);
  service::write_frame(path, kFrame, payload);
}

ScenarioLoad load_scenario_file(const std::filesystem::path& path,
                                const ScenarioContext* expect) {
  ScenarioLoad out;
  ScenarioResult res;
  out.reason = service::read_frame(path, kFrame, [&](service::ByteReader& r) {
    res.context = get_scenario_context(r);
    if (expect != nullptr && !(res.context == *expect))
      return std::string("context mismatch");
    res.legal = r.boolean();
    res.wirelength_m = r.f64();
    res.power_w = r.f64();
    res.critical_delay_ns = r.f64();
    res.peak_k = r.f64();
    res.mitigation_overhead_w = r.f64();
    res.mitigation_performance_loss = r.f64();
    res.mitigation_peak_k = r.f64();
    res.attack_success = r.f64();
    res.pearson_abs_max = r.f64();
    res.mi_max = r.f64();
    res.svf = r.f64();
    res.spatial_entropy_max = r.f64();
    res.leakage = r.f64();
    res.overhead = r.f64();
    return std::string{};
  });
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
