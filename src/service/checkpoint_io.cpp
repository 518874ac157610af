#include "service/checkpoint_io.hpp"

#include "service/frame.hpp"
#include "service/version.hpp"

namespace tsc3d::service {

namespace {

constexpr FrameFormat kFrame{{'T', 'S', 'C', '3', 'D', 'C', 'K', 'P'},
                             kCheckpointFormatVersion, "checkpoint"};

// --- field-level encoders/decoders for the floorplan structs -----------

void put_breakdown(ByteWriter& w, const floorplan::CostBreakdown& c) {
  w.f64(c.bbox_area_ratio);
  w.f64(c.outline_penalty);
  w.f64(c.wirelength_um);
  w.f64(c.delay_ns);
  w.f64(c.peak_k_rise);
  w.f64(c.power_w);
  w.f64(c.num_volumes);
  w.f64(c.power_gradient);
  w.vec_f64(c.correlation);
  w.vec_f64(c.entropy);
  w.f64(c.total);
  w.boolean(c.fits_outline);
}

floorplan::CostBreakdown get_breakdown(ByteReader& r) {
  floorplan::CostBreakdown c;
  c.bbox_area_ratio = r.f64();
  c.outline_penalty = r.f64();
  c.wirelength_um = r.f64();
  c.delay_ns = r.f64();
  c.peak_k_rise = r.f64();
  c.power_w = r.f64();
  c.num_volumes = r.f64();
  c.power_gradient = r.f64();
  c.correlation = r.vec_f64();
  c.entropy = r.vec_f64();
  c.total = r.f64();
  c.fits_outline = r.boolean();
  return c;
}

void put_stats(ByteWriter& w, const floorplan::AnnealStats& s) {
  w.u64(s.moves);
  w.u64(s.accepted);
  w.u64(s.full_evals);
  w.u64(s.repair_moves);
  w.f64(s.initial_temperature);
  w.f64(s.best_cost);
  w.boolean(s.found_legal);
  put_breakdown(w, s.best_breakdown);
}

floorplan::AnnealStats get_stats(ByteReader& r) {
  floorplan::AnnealStats s;
  s.moves = static_cast<std::size_t>(r.u64());
  s.accepted = static_cast<std::size_t>(r.u64());
  s.full_evals = static_cast<std::size_t>(r.u64());
  s.repair_moves = static_cast<std::size_t>(r.u64());
  s.initial_temperature = r.f64();
  s.best_cost = r.f64();
  s.found_legal = r.boolean();
  s.best_breakdown = get_breakdown(r);
  return s;
}

void put_eval(ByteWriter& w,
              const floorplan::CostEvaluator::CheckpointState& e) {
  w.f64(e.outline_weight);
  w.f64(e.peak_rise);
  w.f64(e.power);
  w.f64(e.volumes);
  w.f64(e.gradient);
  w.vec_f64(e.correlation);
  w.vec_f64(e.entropy);
  w.boolean(e.have_expensive);
  w.u64(e.cheap_evals);
  w.f64(e.norm_area);
  w.f64(e.norm_wl);
  w.f64(e.norm_delay);
  w.f64(e.norm_peak);
  w.f64(e.norm_power);
  w.f64(e.norm_volumes);
  w.f64(e.norm_corr);
  w.f64(e.norm_entropy);
  w.f64(e.norm_gradient);
  w.boolean(e.norm_ready);
}

floorplan::CostEvaluator::CheckpointState get_eval(ByteReader& r) {
  floorplan::CostEvaluator::CheckpointState e;
  e.outline_weight = r.f64();
  e.peak_rise = r.f64();
  e.power = r.f64();
  e.volumes = r.f64();
  e.gradient = r.f64();
  e.correlation = r.vec_f64();
  e.entropy = r.vec_f64();
  e.have_expensive = r.boolean();
  e.cheap_evals = r.u64();
  e.norm_area = r.f64();
  e.norm_wl = r.f64();
  e.norm_delay = r.f64();
  e.norm_peak = r.f64();
  e.norm_power = r.f64();
  e.norm_volumes = r.f64();
  e.norm_corr = r.f64();
  e.norm_entropy = r.f64();
  e.norm_gradient = r.f64();
  e.norm_ready = r.boolean();
  return e;
}

void put_layout(ByteWriter& w, const floorplan::LayoutStateImage& img) {
  w.u64(img.positive.size());
  for (std::size_t d = 0; d < img.positive.size(); ++d) {
    w.vec_size(img.positive[d]);
    w.vec_size(img.negative[d]);
  }
  w.vec_f64(img.width);
  w.vec_f64(img.height);
  w.vec_size(img.die_of);
}

floorplan::LayoutStateImage get_layout(ByteReader& r) {
  floorplan::LayoutStateImage img;
  const std::uint64_t dies = r.u64();
  img.positive.reserve(static_cast<std::size_t>(dies));
  img.negative.reserve(static_cast<std::size_t>(dies));
  for (std::uint64_t d = 0; d < dies; ++d) {
    img.positive.push_back(r.vec_size());
    img.negative.push_back(r.vec_size());
  }
  img.width = r.vec_f64();
  img.height = r.vec_f64();
  img.die_of = r.vec_size();
  return img;
}

void put_chain(ByteWriter& w, const floorplan::ChainCheckpoint& c) {
  put_layout(w, c.state);
  put_layout(w, c.best);
  put_breakdown(w, c.current);
  put_breakdown(w, c.best_cost);
  w.boolean(c.best_legal);
  w.f64(c.initial_outline_weight);
  w.f64(c.temperature);
  w.f64(c.cooling);
  w.u64(c.total_moves);
  w.u64(c.moves_per_stage);
  w.u64(c.annealed_stages);
  w.u64(c.stage);
  w.u64(c.since_full);
  w.u64(c.since_thermal);
  w.boolean(c.refresh_pending);
  put_stats(w, c.stats);
  put_rng(w, c.rng);
  put_eval(w, c.eval);
  w.vec_f64(c.field.temp);
  w.vec_u64(c.voltage_index);
}

floorplan::ChainCheckpoint get_chain(ByteReader& r) {
  floorplan::ChainCheckpoint c;
  c.state = get_layout(r);
  c.best = get_layout(r);
  c.current = get_breakdown(r);
  c.best_cost = get_breakdown(r);
  c.best_legal = r.boolean();
  c.initial_outline_weight = r.f64();
  c.temperature = r.f64();
  c.cooling = r.f64();
  c.total_moves = r.u64();
  c.moves_per_stage = r.u64();
  c.annealed_stages = r.u64();
  c.stage = r.u64();
  c.since_full = r.u64();
  c.since_thermal = r.u64();
  c.refresh_pending = r.boolean();
  c.stats = get_stats(r);
  c.rng = get_rng(r);
  c.eval = get_eval(r);
  c.field.temp = r.vec_f64();
  c.voltage_index = r.vec_u64();
  return c;
}

/// The reason `got` does not identify the job `expect` names, or "".
std::string context_mismatch(const ArtifactContext& got,
                             const ArtifactContext& expect) {
  if (got.design_hash != expect.design_hash) return "design hash mismatch";
  if (got.config_hash != expect.config_hash) return "config hash mismatch";
  if (got.seed != expect.seed) return "seed mismatch";
  if (got.code_version != expect.code_version) return "code version mismatch";
  return {};
}

}  // namespace

void put_context(ByteWriter& w, const ArtifactContext& ctx) {
  w.u64(ctx.design_hash);
  w.u64(ctx.config_hash);
  w.u64(ctx.seed);
  w.str(ctx.code_version);
}

ArtifactContext get_context(ByteReader& r) {
  ArtifactContext ctx;
  ctx.design_hash = r.u64();
  ctx.config_hash = r.u64();
  ctx.seed = r.u64();
  ctx.code_version = r.str();
  return ctx;
}

std::uint64_t context_key(const ArtifactContext& ctx) {
  ByteWriter w;
  put_context(w, ctx);
  return fnv1a64(w.bytes().data(), w.bytes().size());
}

void save_checkpoint_file(const std::filesystem::path& path,
                          const ArtifactContext& context,
                          const floorplan::ExplorationCheckpoint& ck) {
  ByteWriter payload;
  put_context(payload, context);
  payload.f64(ck.clock_period_ns);
  payload.u64(ck.chains.size());
  for (const floorplan::ChainCheckpoint& c : ck.chains) put_chain(payload, c);
  put_rng(payload, ck.exchange_rng);
  payload.u64(ck.done_stages);
  payload.u64(ck.round);
  payload.u64(ck.exchange.rounds);
  payload.u64(ck.exchange.attempts);
  payload.u64(ck.exchange.accepts);

  write_frame(path, kFrame, payload);
}

CheckpointLoad load_checkpoint_file(const std::filesystem::path& path,
                                    const ArtifactContext& expect) {
  CheckpointLoad out;
  floorplan::ExplorationCheckpoint ck;
  out.reason = read_frame(path, kFrame, [&](ByteReader& r) {
    std::string mismatch = context_mismatch(get_context(r), expect);
    if (!mismatch.empty()) return mismatch;
    ck.clock_period_ns = r.f64();
    const std::uint64_t chains = r.u64();
    ck.chains.reserve(static_cast<std::size_t>(chains));
    for (std::uint64_t k = 0; k < chains; ++k)
      ck.chains.push_back(get_chain(r));
    ck.exchange_rng = get_rng(r);
    ck.done_stages = r.u64();
    ck.round = r.u64();
    ck.exchange.rounds = static_cast<std::size_t>(r.u64());
    ck.exchange.attempts = static_cast<std::size_t>(r.u64());
    ck.exchange.accepts = static_cast<std::size_t>(r.u64());
    return std::string{};
  });
  out.ok = out.reason.empty();
  if (out.ok) out.checkpoint = std::move(ck);
  return out;
}

}  // namespace tsc3d::service
