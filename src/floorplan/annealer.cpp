#include "floorplan/annealer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "floorplan/move_transaction.hpp"

namespace tsc3d::floorplan {

LayoutState LayoutState::initial(const Floorplan3D& fp, Rng& rng,
                                 bool hot_modules_to_top) {
  const std::size_t n = fp.modules().size();
  const std::size_t dies = fp.tech().num_dies;
  LayoutState s;
  s.width.resize(n);
  s.height.resize(n);
  s.die_of.resize(n);

  // Initial extents: nominal aspect ratio in the middle of the range.
  for (std::size_t i = 0; i < n; ++i) {
    const Module& m = fp.modules()[i];
    const double ar =
        m.soft ? std::sqrt(m.min_aspect * m.max_aspect) : m.min_aspect;
    s.width[i] = std::sqrt(m.area_um2 * std::max(ar, 1e-9));
    s.height[i] = m.area_um2 / s.width[i];
  }

  // Die assignment: the thermal design rule sends the hotter half of the
  // modules (by power density) to the top die (index dies-1, adjacent to
  // the heatsink); the rest go below, round-robin for stacks > 2.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (hot_modules_to_top) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const auto da = fp.modules()[a].power_w / fp.modules()[a].area_um2;
      const auto db = fp.modules()[b].power_w / fp.modules()[b].area_um2;
      return da > db;
    });
  } else {
    rng.shuffle(order);
  }
  std::vector<std::vector<std::size_t>> members(dies);
  // Balance module *area* across dies while walking the (hot-first) order.
  std::vector<double> die_area(dies, 0.0);
  for (const std::size_t i : order) {
    std::size_t target = 0;
    if (hot_modules_to_top) {
      // Prefer the topmost die that is still below average fill.
      target = dies - 1;
      for (std::size_t d = dies; d > 0; --d) {
        if (die_area[d - 1] <=
            *std::min_element(die_area.begin(), die_area.end()) + 1e-9) {
          target = d - 1;
          break;
        }
      }
    } else {
      target = static_cast<std::size_t>(
          std::min_element(die_area.begin(), die_area.end()) -
          die_area.begin());
    }
    members[target].push_back(i);
    die_area[target] += fp.modules()[i].area_um2;
    s.die_of[i] = target;
  }

  for (std::size_t d = 0; d < dies; ++d) {
    SequencePair sp(members[d]);
    sp.shuffle(rng);
    s.die_sp.push_back(std::move(sp));
  }
  s.init_tracking(dies);
  return s;
}

void LayoutState::init_tracking(std::size_t dies) {
  // Family ids are process-unique so stamps from one family can never
  // match another family's writes; copies share the id AND the counter,
  // so every version value is handed out exactly once per family.
  static std::atomic<std::uint64_t> next_family{1};
  family = next_family.fetch_add(1, std::memory_order_relaxed);
  version_counter = std::make_shared<std::atomic<std::uint64_t>>(0);
  die_version.assign(dies, 0);
  packing_cache.assign(dies, Packing{});
  packing_version.assign(dies, 0);
  for (std::size_t d = 0; d < dies; ++d) touch_die(d);
}

void LayoutState::touch_die(std::size_t d) {
  if (version_counter == nullptr || d >= die_version.size()) return;
  die_version[d] =
      version_counter->fetch_add(1, std::memory_order_relaxed) + 1;
}

void LayoutState::apply_to(Floorplan3D& fp) const {
  if (die_version.size() != die_sp.size() ||
      packing_version.size() != die_sp.size())
    throw std::logic_error(
        "LayoutState::apply_to: state has no tracking family (build it "
        "with initial() or restore_layout(), or call init_tracking())");
  for (std::size_t d = 0; d < die_sp.size(); ++d) {
    if (fp.layout_stamp_matches(d, family, die_version[d]))
      continue;  // fp already holds exactly this die content, bitwise
    const SequencePair& sp = die_sp[d];
    if (packing_version[d] != die_version[d]) {
      packing_cache[d] =
          sp.pack([&](std::size_t id) { return width[id]; },
                  [&](std::size_t id) { return height[id]; });
      packing_version[d] = die_version[d];
    }
    const Packing& p = packing_cache[d];
    const auto& order = sp.members();
    for (std::size_t k = 0; k < order.size(); ++k) {
      Module& m = fp.modules()[order[k]];
      // Announce the write only when a value actually changes: a repack
      // typically moves few of the die's modules, and unchanged modules
      // leave their incident nets' cached boxes exact.
      const bool die_changed = m.die != d;
      const bool changed =
          die_changed || m.shape.x != p.position[k].x ||
          m.shape.y != p.position[k].y || m.shape.w != width[order[k]] ||
          m.shape.h != height[order[k]];
      // Under a trial bracket, journal the module's pre-move shape/die
      // before the first write so a rollback can restore it bitwise
      // (unchanged modules rewrite identical values and need no journal).
      if (changed && fp.in_trial()) fp.trial_save_module(order[k]);
      m.die = d;
      m.shape.x = p.position[k].x;
      m.shape.y = p.position[k].y;
      m.shape.w = width[order[k]];
      m.shape.h = height[order[k]];
      if (changed) fp.note_module_moved(order[k], die_changed);
    }
    // The packer's bounding box equals the module scan bitwise (max over
    // the same right/top values), so the outline term can reuse it.
    fp.set_die_bounds(d, p.width, p.height);
    fp.set_layout_stamp(d, family, die_version[d]);
  }
}

Annealer::Annealer(Floorplan3D& fp, CostEvaluator& evaluator,
                   AnnealOptions options)
    : fp_(fp), eval_(evaluator), opt_(options) {}

double Annealer::move_size_factor(const MoveRecord& rec) {
  // Thermal reach of a move: how far the power map can shift.  A resize
  // nudges one module's footprint, an intra-die swap relocates one or
  // two modules within a die, a transfer moves a module's whole power
  // budget to another die, and an exchange does that twice.
  switch (rec.kind) {
    case MoveRecord::Kind::resize:
      return 0.25;
    case MoveRecord::Kind::swap_pos:
    case MoveRecord::Kind::swap_neg:
    case MoveRecord::Kind::swap_both:
      return 0.5;
    case MoveRecord::Kind::transfer:
      return 0.75;
    case MoveRecord::Kind::exchange:
      return 1.0;
    case MoveRecord::Kind::none:
      break;
  }
  return 0.0;
}

void Annealer::apply_tolerance_schedule(const AnnealSession& s,
                                        double move_factor) {
  if (opt_.inner_tolerance_scale <= 1.0) return;  // schedule disabled
  const double t0 = s.stats.initial_temperature;
  const double ratio =
      t0 > 0.0 ? std::clamp(s.temperature / t0, 0.0, 1.0) : 0.0;
  // sqrt: the geometric cooling collapses T/T0 within a few stages, long
  // before the search stops making K-scale moves; the square root keeps
  // the coarse-solve regime through the hot half of the schedule while
  // still converging to scale 1 in the endgame.
  eval_.set_thermal_tolerance_scale(
      1.0 +
      (opt_.inner_tolerance_scale - 1.0) * std::sqrt(ratio) * move_factor);
}

void Annealer::random_move(LayoutState& s, Rng& rng, MoveRecord& rec) const {
  const std::size_t dies = s.die_sp.size();
  rec.kind = MoveRecord::Kind::none;
  const double roll = rng.uniform();

  if (roll < opt_.resize_prob) {
    // Resize a soft module / rotate a hard one.
    const std::size_t id = rng.index(s.width.size());
    const Module& m = fp_.modules()[id];
    rec.kind = MoveRecord::Kind::resize;
    rec.module_a = id;
    rec.old_w = s.width[id];
    rec.old_h = s.height[id];
    if (m.soft && m.max_aspect > m.min_aspect) {
      const double ar = rng.uniform(m.min_aspect, m.max_aspect);
      s.width[id] = std::sqrt(m.area_um2 * ar);
      s.height[id] = m.area_um2 / s.width[id];
    } else {
      std::swap(s.width[id], s.height[id]);
    }
    s.touch_die(s.die_of[id]);
    return;
  }
  if (dies > 1 && roll < opt_.resize_prob + opt_.transfer_prob) {
    // Transfer one module to another die.
    const std::size_t id = rng.index(s.die_of.size());
    const std::size_t from = s.die_of[id];
    if (s.die_sp[from].size() > 1) {
      std::size_t to = rng.index(dies - 1);
      if (to >= from) ++to;
      // Remember the module's slots for a rollback.
      const auto& pos = s.die_sp[from].positive();
      const auto& neg = s.die_sp[from].negative();
      rec.old_pos_slot = static_cast<std::size_t>(
          std::find(pos.begin(), pos.end(), id) - pos.begin());
      rec.old_neg_slot = static_cast<std::size_t>(
          std::find(neg.begin(), neg.end(), id) - neg.begin());
      rec.kind = MoveRecord::Kind::transfer;
      rec.module_a = id;
      rec.die_a = from;
      rec.die_b = to;
      s.die_sp[from].remove(id);
      s.die_sp[to].insert(id, rng.index(s.die_sp[to].size() + 1),
                          rng.index(s.die_sp[to].size() + 1));
      s.die_of[id] = to;
      s.touch_die(from);
      s.touch_die(to);
      return;
    }
  }
  if (dies > 1 &&
      roll < opt_.resize_prob + opt_.transfer_prob + opt_.exchange_prob) {
    // Exchange two modules across dies.
    const std::size_t a = rng.index(s.die_of.size());
    const std::size_t b = rng.index(s.die_of.size());
    if (s.die_of[a] != s.die_of[b]) {
      const std::size_t da = s.die_of[a];
      const std::size_t db = s.die_of[b];
      rec.kind = MoveRecord::Kind::exchange;
      rec.module_a = a;
      rec.module_b = b;
      rec.die_a = da;
      rec.die_b = db;
      auto slot = [](const std::vector<std::size_t>& seq, std::size_t id) {
        return static_cast<std::size_t>(
            std::find(seq.begin(), seq.end(), id) - seq.begin());
      };
      rec.old_pos_slot = slot(s.die_sp[da].positive(), a);
      rec.old_neg_slot = slot(s.die_sp[da].negative(), a);
      rec.old_pos_slot_b = slot(s.die_sp[db].positive(), b);
      rec.old_neg_slot_b = slot(s.die_sp[db].negative(), b);
      s.die_sp[da].remove(a);
      s.die_sp[db].remove(b);
      s.die_sp[db].insert(a, rng.index(s.die_sp[db].size() + 1),
                          rng.index(s.die_sp[db].size() + 1));
      s.die_sp[da].insert(b, rng.index(s.die_sp[da].size() + 1),
                          rng.index(s.die_sp[da].size() + 1));
      s.die_of[a] = db;
      s.die_of[b] = da;
      s.touch_die(da);
      s.touch_die(db);
      return;
    }
  }

  // Intra-die sequence swap (positive, negative, or both).
  const std::size_t d = rng.index(dies);
  SequencePair& sp = s.die_sp[d];
  if (sp.size() < 2) return;
  const std::size_t i = rng.index(sp.size());
  std::size_t j = rng.index(sp.size() - 1);
  if (j >= i) ++j;
  rec.die_a = d;
  switch (rng.index(3)) {
    case 0:
      rec.kind = MoveRecord::Kind::swap_pos;
      rec.slot_i = i;
      rec.slot_j = j;
      sp.swap_positive(i, j);
      break;
    case 1:
      rec.kind = MoveRecord::Kind::swap_neg;
      rec.slot_i = i;
      rec.slot_j = j;
      sp.swap_negative(i, j);
      break;
    default:
      rec.kind = MoveRecord::Kind::swap_both;
      rec.module_a = sp.positive()[i];
      rec.module_b = sp.positive()[j];
      sp.swap_both(rec.module_a, rec.module_b);
      break;
  }
  s.touch_die(d);
}

AnnealStats Annealer::run(LayoutState& state, Rng& rng) {
  AnnealSession session = begin(state, rng);
  while (run_stage(session, rng)) {
  }
  return finish(session, rng);
}

AnnealSession Annealer::begin(LayoutState& state, Rng& rng) {
  AnnealSession s;
  s.state = &state;
  state.apply_to(fp_);
  eval_.set_thermal_tolerance_scale(1.0);  // authoritative baseline eval
  s.current = eval_.evaluate_full();
  ++s.stats.full_evals;

  // Calibrate T0 so that `initial_accept` of random uphill moves pass.
  // The probe walk accumulates moves on a scratch copy, so each move's
  // uphill delta must be measured against the cost of the walk's previous
  // state -- not the initial cost, which goes stale as the walk drifts
  // and would bias T0 toward the (larger) total drift.
  {
    std::vector<double> uphill;
    LayoutState probe = state;
    double prev_total = s.current.total;
    for (std::size_t k = 0; k < 60; ++k) {
      MoveRecord rec;
      random_move(probe, rng, rec);
      if (rec.kind == MoveRecord::Kind::none) continue;
      probe.apply_to(fp_);
      const CostBreakdown c = eval_.evaluate_cheap();
      const double delta = c.total - prev_total;
      if (delta > 0.0) uphill.push_back(delta);
      prev_total = c.total;
    }
    state.apply_to(fp_);  // restore the floorplan to the starting layout
    const double avg =
        uphill.empty()
            ? 0.1
            : std::accumulate(uphill.begin(), uphill.end(), 0.0) /
                  static_cast<double>(uphill.size());
    s.stats.initial_temperature = -avg / std::log(opt_.initial_accept);
  }

  s.best = state;
  s.best_cost = s.current;
  s.best_legal = s.current.fits_outline;
  s.stats.found_legal = s.best_legal;
  s.initial_outline_weight = eval_.outline_weight();

  s.temperature = s.stats.initial_temperature;
  s.total_moves =
      opt_.total_moves > 0
          ? opt_.total_moves
          : 8000 + 150 * fp_.modules().size();  // auto-scaled budget
  s.moves_per_stage =
      std::max<std::size_t>(1, s.total_moves / std::max<std::size_t>(
                                                   1, opt_.stages));

  // Cooling factor: either explicit or derived so that the temperature
  // reaches final_temp_ratio * T0 at the end of the annealed stages.
  const auto greedy_stages = static_cast<std::size_t>(
      opt_.greedy_tail * static_cast<double>(opt_.stages));
  s.annealed_stages =
      opt_.stages > greedy_stages ? opt_.stages - greedy_stages : 1;
  s.cooling =
      opt_.cooling > 0.0
          ? opt_.cooling
          : std::pow(opt_.final_temp_ratio,
                     1.0 / static_cast<double>(s.annealed_stages));
  return s;
}

void Annealer::stage_refresh(AnnealSession& s) {
  // A tempering exchange replaced the state: re-apply it and refresh the
  // carried cost (the evaluator's cached expensive terms belong to the
  // state that was swapped away).
  if (!s.refresh_pending) return;
  LayoutState& state = *s.state;
  state.apply_to(fp_);
  eval_.set_thermal_tolerance_scale(1.0);  // rebase exchanges exactly
  s.current = eval_.evaluate_full();
  ++s.stats.full_evals;
  s.since_full = 0;
  s.since_thermal = 0;
  s.refresh_pending = false;
  // The exchanged-in layout may beat everything this chain has seen
  // (and its donor gave it away); fold it into the best tracking now,
  // or a subsequent accepted uphill move would lose it for good.
  track_best(s, s.current);
}

void Annealer::track_best(AnnealSession& s, const CostBreakdown& c) {
  // Legal (outline-fitting) states always dominate illegal ones.
  const bool better =
      (c.fits_outline && !s.best_legal) ||
      (c.fits_outline == s.best_legal && c.total < s.best_cost.total);
  if (better) {
    s.best = *s.state;
    s.best_cost = c;
    s.best_legal = c.fits_outline;
    s.stats.found_legal = s.stats.found_legal || c.fits_outline;
  }
}

void Annealer::stage_cool_and_escalate(AnnealSession& s) {
  LayoutState& state = *s.state;
  s.temperature *= s.cooling;

  // Fixed-outline pressure: if this stage ends outside the outline (or
  // no legal state has been seen at all), raise the violation weight so
  // the remaining stages prioritize legality.  Totals are re-derived
  // under the new weight so comparisons stay consistent.
  if (opt_.outline_escalation > 1.0 &&
      (!s.current.fits_outline || !s.best_legal) &&
      eval_.outline_weight() <
          s.initial_outline_weight * opt_.outline_cap_factor) {
    eval_.scale_outline_weight(opt_.outline_escalation);
    state.apply_to(fp_);
    s.current = eval_.evaluate_cheap();
    if (!s.best_legal) {
      s.best.apply_to(fp_);
      s.best_cost = eval_.evaluate_cheap();
      state.apply_to(fp_);
    }
  }
  ++s.stage;
}

CostBreakdown Annealer::evaluate_move(AnnealSession& s, double move_factor) {
  // The full/thermal/cheap cadence of the move loop, driven by the
  // session's counters so a resumed session refreshes at the same moves.
  CostBreakdown c;
  ++s.since_thermal;
  if (++s.since_full >= opt_.full_eval_interval) {
    apply_tolerance_schedule(s, move_factor);
    c = eval_.evaluate_full();
    s.since_full = 0;
    s.since_thermal = 0;
    ++s.stats.full_evals;
  } else if (opt_.thermal_eval_interval > 0 &&
             s.since_thermal >= opt_.thermal_eval_interval) {
    apply_tolerance_schedule(s, move_factor);
    c = eval_.evaluate_thermal();
    s.since_thermal = 0;
    ++s.stats.full_evals;
  } else {
    c = eval_.evaluate_cheap();
  }
  return c;
}

bool Annealer::run_stage(AnnealSession& s, Rng& rng) {
  if (s.stage >= opt_.stages) return false;
  LayoutState& state = *s.state;
  stage_refresh(s);

  const bool greedy = s.stage >= s.annealed_stages;
  // Speculatively stage each move, evaluate, then commit or roll back.
  // A rollback restores every journaled cache cell AND the state's die
  // versions, so the floorplan stamps still match and the next move's
  // apply_to() skips the rejected move's dies outright.
  MoveTransaction txn(fp_, eval_);
  for (std::size_t mv = 0; mv < s.moves_per_stage; ++mv) {
    txn.open(state);
    MoveRecord rec;
    random_move(state, rng, rec);
    if (rec.kind == MoveRecord::Kind::none) {
      txn.abort();
      continue;
    }
    ++s.stats.moves;

    txn.stage();
    const CostBreakdown c = evaluate_move(s, move_size_factor(rec));

    const double delta = c.total - s.current.total;
    const bool accept =
        delta <= 0.0 ||
        (!greedy && rng.uniform() < std::exp(-delta / s.temperature));
    if (accept) {
      txn.commit();
      ++s.stats.accepted;
      s.current = c;
      track_best(s, c);
    } else {
      txn.rollback(rec);
    }
  }
  stage_cool_and_escalate(s);
  return true;
}

AnnealStats Annealer::finish(AnnealSession& s, Rng& rng) {
  LayoutState& state = *s.state;

  // Greedy legalization: if annealing never met the fixed outline, spend
  // a budgeted tail of moves accepting only outline improvements (ties
  // broken by total cost).  This mirrors the repair passes of
  // fixed-outline floorplanners; the paper's problem statement makes the
  // outline hard ("The resulting die outlines are fixed", Sec. 7).
  if (!s.best_legal && opt_.repair_fraction > 0.0) {
    state = s.best;
    state.apply_to(fp_);
    CostBreakdown repair_current = eval_.evaluate_cheap();
    const auto repair_budget = static_cast<std::size_t>(
        opt_.repair_fraction * static_cast<double>(s.total_moves));
    MoveTransaction txn(fp_, eval_);
    for (std::size_t mv = 0;
         mv < repair_budget && !repair_current.fits_outline; ++mv) {
      txn.open(state);
      MoveRecord rec;
      random_move(state, rng, rec);
      if (rec.kind == MoveRecord::Kind::none) {
        txn.abort();
        continue;
      }
      ++s.stats.repair_moves;
      txn.stage();
      const CostBreakdown c = eval_.evaluate_cheap();
      const bool better =
          c.outline_penalty < repair_current.outline_penalty - 1e-12 ||
          (c.outline_penalty < repair_current.outline_penalty + 1e-12 &&
           c.total < repair_current.total);
      if (better) {
        txn.commit();
        repair_current = c;
      } else {
        txn.rollback(rec);
      }
    }
    if (repair_current.fits_outline ||
        repair_current.outline_penalty < s.best_cost.outline_penalty) {
      s.best = state;
      s.best_cost = repair_current;
      s.best_legal = repair_current.fits_outline;
      s.stats.found_legal = s.stats.found_legal || s.best_legal;
    }
  }

  state = std::move(s.best);
  state.apply_to(fp_);
  if (opt_.inner_tolerance_scale > 1.0) {
    // The tracked best may have been scored under a loosened tolerance
    // (an under-converged solve can flatter a candidate), and the
    // tempering orchestrator compares best breakdowns ACROSS chains.
    // The install is an authoritative evaluation: re-measure the final
    // state at scale 1 so the reported best never carries schedule
    // noise.  No RNG is consumed, so move streams are unaffected.
    eval_.set_thermal_tolerance_scale(1.0);
    s.best_cost = eval_.evaluate_full();
    ++s.stats.full_evals;
  }
  s.stats.best_cost = s.best_cost.total;
  s.stats.best_breakdown = s.best_cost;
  return s.stats;
}

}  // namespace tsc3d::floorplan
