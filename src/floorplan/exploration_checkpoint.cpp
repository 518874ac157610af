#include "floorplan/exploration_checkpoint.hpp"

#include <stdexcept>

namespace tsc3d::floorplan {

LayoutStateImage capture_layout(const LayoutState& state) {
  LayoutStateImage img;
  img.die_sp.reserve(state.die_sp.size());
  for (const SequencePair& sp : state.die_sp)
    img.die_sp.push_back({sp.positive(), sp.negative()});
  img.width = state.width;
  img.height = state.height;
  img.die_of = state.die_of;
  return img;
}

LayoutState restore_layout(const LayoutStateImage& image) {
  if (image.width.size() != image.height.size() ||
      image.width.size() != image.die_of.size())
    throw std::invalid_argument("restore_layout: module array size mismatch");
  LayoutState s;
  s.die_sp.reserve(image.die_sp.size());
  for (const LayoutStateImage::DieSequences& sp : image.die_sp)
    s.die_sp.push_back(SequencePair::restore(sp.positive, sp.negative));
  s.width = image.width;
  s.height = image.height;
  s.die_of = image.die_of;
  s.init_tracking(s.die_sp.size());
  return s;
}

ChainCheckpoint capture_chain(const AnnealSession& session, const Rng& rng,
                              const CostEvaluator& eval,
                              const thermal::ThermalEngine& engine,
                              const Floorplan3D& fp) {
  if (session.state == nullptr)
    throw std::logic_error("capture_chain: session has no state");
  ChainCheckpoint ck;
  ck.state = capture_layout(*session.state);
  ck.best = capture_layout(session.best);
  ck.progress = static_cast<const AnnealProgress&>(session);
  ck.rng = rng.state();
  ck.eval = eval.checkpoint_state();
  ck.field = engine.save_field();
  ck.voltage_index.reserve(fp.modules().size());
  for (const Module& m : fp.modules())
    ck.voltage_index.push_back(m.voltage_index);
  return ck;
}

void restore_chain(const ChainCheckpoint& ck, AnnealSession& session,
                   LayoutState& state_storage, Rng& rng, CostEvaluator& eval,
                   thermal::ThermalEngine& engine, Floorplan3D& fp) {
  if (ck.voltage_index.size() != fp.modules().size())
    throw std::invalid_argument(
        "restore_chain: checkpoint module count does not match the design");
  for (std::size_t i = 0; i < ck.voltage_index.size(); ++i)
    fp.modules()[i].voltage_index =
        static_cast<std::size_t>(ck.voltage_index[i]);

  eval.restore_checkpoint_state(ck.eval);

  state_storage = restore_layout(ck.state);
  session = AnnealSession{ck.progress, &state_storage, restore_layout(ck.best)};

  rng.set_state(ck.rng);
  engine.restore_field(ck.field);

  // Publish the restored layout before the first move: the floorplan
  // still holds the design-file positions, and the transactional loop's
  // journal-on-first-touch staging must never capture those as the
  // "pre-move" content.  The fresh tracking family forces a full repack,
  // whose positions are bitwise-identical to the capture-time layout.
  state_storage.apply_to(fp);
}

}  // namespace tsc3d::floorplan
