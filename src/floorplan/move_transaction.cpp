#include "floorplan/move_transaction.hpp"

#include <stdexcept>

namespace tsc3d::floorplan {

void MoveRecord::revert_slots(LayoutState& s) const {
  switch (kind) {
    case Kind::none:
      break;
    case Kind::swap_pos:
      s.die_sp[die_a].swap_positive(slot_i, slot_j);
      break;
    case Kind::swap_neg:
      s.die_sp[die_a].swap_negative(slot_i, slot_j);
      break;
    case Kind::swap_both:
      s.die_sp[die_a].swap_both(module_a, module_b);
      break;
    case Kind::resize:
      s.width[module_a] = old_w;
      s.height[module_a] = old_h;
      break;
    case Kind::transfer:
      s.die_sp[die_b].remove(module_a);
      s.die_sp[die_a].insert(module_a, old_pos_slot, old_neg_slot);
      s.die_of[module_a] = die_a;
      break;
    case Kind::exchange:
      s.die_sp[die_b].remove(module_a);
      s.die_sp[die_a].remove(module_b);
      s.die_sp[die_a].insert(module_a, old_pos_slot, old_neg_slot);
      s.die_sp[die_b].insert(module_b, old_pos_slot_b, old_neg_slot_b);
      s.die_of[module_a] = die_a;
      s.die_of[module_b] = die_b;
      break;
  }
}

void MoveTransaction::open(LayoutState& state) {
  if (phase_ != Phase::idle)
    throw std::logic_error("MoveTransaction::open: transaction already open");
  state_ = &state;
  base_versions_ = state.die_version;
  phase_ = Phase::open;
}

void MoveTransaction::stage() {
  if (phase_ != Phase::open)
    throw std::logic_error("MoveTransaction::stage: no open transaction");
  // Begin the trial BEFORE publishing the move so every cache write
  // apply_to() triggers lands in the journals.
  eval_.trial_begin();
  state_->apply_to(fp_);
  phase_ = Phase::staged;
}

void MoveTransaction::commit() {
  if (phase_ != Phase::staged)
    throw std::logic_error("MoveTransaction::commit: nothing staged");
  eval_.trial_commit();
  phase_ = Phase::idle;
}

void MoveTransaction::rollback(const MoveRecord& rec) {
  if (phase_ != Phase::staged)
    throw std::logic_error("MoveTransaction::rollback: nothing staged");
  // Restore the state's content WITHOUT fresh versions, then put the
  // pre-move versions back: (family, version) again names exactly the
  // content it named before the move, so the floorplan stamps restored
  // by the trial rollback below match and the next apply_to() skips
  // every die this move touched.  The cached packing minted during
  // stage() keeps the trial's version number, which was consumed and is
  // never reissued -- it reads as stale, never as wrong.
  rec.revert_slots(*state_);
  state_->die_version = base_versions_;
  eval_.trial_rollback();
  phase_ = Phase::idle;
}

void MoveTransaction::abort() {
  if (phase_ != Phase::open)
    throw std::logic_error("MoveTransaction::abort: no open transaction");
  phase_ = Phase::idle;
}

}  // namespace tsc3d::floorplan
