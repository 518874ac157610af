#include "service/checkpoint_io.hpp"

#include "service/frame.hpp"
#include "service/version.hpp"

namespace tsc3d::service {

// --- the checkpoint's records, in on-disk order -------------------------

template <class IO, RecordOf<floorplan::CostBreakdown> R>
void fields(IO& io, R& c) {
  io(c.bbox_area_ratio, c.outline_penalty, c.wirelength_um, c.delay_ns,
     c.peak_k_rise, c.power_w, c.num_volumes, c.power_gradient,
     c.correlation, c.entropy, c.total, c.fits_outline);
}

template <class IO, RecordOf<floorplan::AnnealStats> R>
void fields(IO& io, R& s) {
  io(s.moves, s.accepted, s.full_evals, s.repair_moves,
     s.initial_temperature, s.best_cost, s.found_legal, s.best_breakdown);
}

template <class IO, RecordOf<floorplan::AnnealProgress> R>
void fields(IO& io, R& p) {
  io(p.current, p.best_cost, p.best_legal, p.initial_outline_weight,
     p.temperature, p.cooling, p.total_moves, p.moves_per_stage,
     p.annealed_stages, p.stage, p.since_full, p.since_thermal,
     p.refresh_pending, p.stats);
}

template <class IO, RecordOf<floorplan::CostEvaluator::Normalizers> R>
void fields(IO& io, R& n) {
  io(n.area, n.wl, n.delay, n.peak, n.power, n.volumes, n.corr, n.entropy,
     n.gradient, n.ready);
}

template <class IO, RecordOf<floorplan::CostEvaluator::Resumable> R>
void fields(IO& io, R& s) {
  io(s.peak_rise, s.power, s.volumes, s.gradient, s.correlation, s.entropy,
     s.have_expensive, s.cheap_evals, s.norm);
}

template <class IO, RecordOf<floorplan::CostEvaluator::CheckpointState> R>
void fields(IO& io, R& e) {
  io(e.outline_weight, e.state);
}

template <class IO, RecordOf<floorplan::LayoutStateImage::DieSequences> R>
void fields(IO& io, R& d) {
  io(d.positive, d.negative);
}

template <class IO, RecordOf<floorplan::LayoutStateImage> R>
void fields(IO& io, R& img) {
  io(img.die_sp, img.width, img.height, img.die_of);
}

template <class IO, RecordOf<floorplan::ChainCheckpoint> R>
void fields(IO& io, R& c) {
  io(c.state, c.best, c.progress, c.rng, c.eval, c.field.temp,
     c.voltage_index);
}

template <class IO, RecordOf<floorplan::ExplorationCheckpoint> R>
void fields(IO& io, R& ck) {
  io(ck.clock_period_ns, ck.chains, ck.exchange_rng, ck.done_stages,
     ck.round, ck.exchange.rounds, ck.exchange.attempts,
     ck.exchange.accepts);
}

namespace {

constexpr FrameFormat kFrame{{'T', 'S', 'C', '3', 'D', 'C', 'K', 'P'},
                             kCheckpointFormatVersion, "checkpoint"};

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

std::uint64_t context_key(const ArtifactContext& ctx) {
  ByteWriter w;
  w(ctx);
  return fnv1a64(w.bytes().data(), w.bytes().size());
}

void save_checkpoint_file(const std::filesystem::path& path,
                          const ArtifactContext& context,
                          const floorplan::ExplorationCheckpoint& ck) {
  ByteWriter payload;
  payload(context, ck);
  write_frame(path, kFrame, payload);
}

CheckpointLoad load_checkpoint_file(const std::filesystem::path& path,
                                    const ArtifactContext& expect) {
  CheckpointLoad out;
  floorplan::ExplorationCheckpoint ck;
  out.reason = read_frame(path, kFrame, [&](ByteReader& r) {
    ArtifactContext stored;
    r(stored);
    std::string mismatch = context_mismatch(stored, expect);
    if (mismatch.empty()) r(ck);
    return mismatch;
  });
  out.ok = out.reason.empty();
  if (out.ok) out.checkpoint = std::move(ck);
  return out;
}

}  // namespace tsc3d::service
