// Tests of the incremental move-evaluation pipeline across its layers:
//
//  * Floorplan3D's per-net HPWL / box-length / die-bounds caches and
//    ElmoreTiming::analyze_cached must stay BITWISE-equal to the full
//    rescans through thousands of randomized mixed moves (sequence
//    swaps, resizes, transfers, exchanges), including reverts and
//    staging across LayoutState copies;
//  * whole annealing runs, with the full-rescan cross-check on every
//    move, must leave the floorplan equal to a from-scratch pack of the
//    annealed state after every stage;
//  * the debug cross-check must stay silent on a clean run and throw
//    std::logic_error when layout writes bypass note_module_moved;
//  * the IncrementalEvalParallel suite drives incremental state through
//    parallel-tempering chains (runs under TSan on CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "benchgen/generator.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/chain_orchestrator.hpp"
#include "floorplan/cost.hpp"
#include "floorplan/move_transaction.hpp"
#include "power/timing.hpp"

namespace tsc3d {
namespace {

namespace fpn = tsc3d::floorplan;

Floorplan3D small_instance(std::uint64_t seed) {
  benchgen::BenchmarkSpec spec;
  spec.name = "inc_eval";
  spec.soft_modules = 24;
  spec.num_nets = 40;
  spec.num_terminals = 6;
  spec.outline_mm2 = 4.0;
  spec.power_w = 2.0;
  return benchgen::generate(spec, seed);
}

/// Assert every incrementally maintained quantity equals its full
/// recompute, bitwise: per-net HPWL total, per-net stage delays and the
/// critical stage, and the per-die bounding boxes.
void expect_caches_match_full(Floorplan3D& fp, power::ElmoreTiming& timing) {
  ASSERT_EQ(fp.hpwl_cached(), fp.hpwl());
  const power::TimingReport full = timing.analyze();
  const power::TimingReport& cached = timing.analyze_cached();
  ASSERT_EQ(cached.critical_delay_ns, full.critical_delay_ns);
  ASSERT_EQ(cached.critical_net, full.critical_net);
  ASSERT_EQ(cached.stage_delay_ns.size(), full.stage_delay_ns.size());
  for (std::size_t n = 0; n < full.stage_delay_ns.size(); ++n)
    ASSERT_EQ(cached.stage_delay_ns[n], full.stage_delay_ns[n])
        << "net " << n;
  for (std::size_t d = 0; d < fp.tech().num_dies; ++d) {
    const Floorplan3D::DieBounds b = fp.die_bounds(d);
    double w = 0.0, h = 0.0;
    for (const Module& m : fp.modules()) {
      if (m.die != d) continue;
      w = std::max(w, m.shape.right());
      h = std::max(h, m.shape.top());
    }
    ASSERT_EQ(b.width, w) << "die " << d;
    ASSERT_EQ(b.height, h) << "die " << d;
  }
}

TEST(IncrementalEval, MixedMovesWithRevertsKeepCachesExact) {
  Floorplan3D fp = small_instance(5);
  Rng rng(17);
  fpn::LayoutState s = fpn::LayoutState::initial(fp, rng);
  s.apply_to(fp);
  power::ElmoreTiming timing(fp);
  expect_caches_match_full(fp, timing);

  // Thousands of mixed moves through the public state API; roughly a
  // third are reverted right after being checked (exercising the
  // fresh-version revert path), mirroring SA rejection.
  for (std::size_t step = 0; step < 2000; ++step) {
    const double roll = rng.uniform();
    // The revert closure undoes the move through the same public ops.
    std::function<void()> revert;
    if (roll < 0.25) {
      // Resize (rotate) one module.
      const std::size_t id = rng.index(s.width.size());
      std::swap(s.width[id], s.height[id]);
      s.touch_die(s.die_of[id]);
      revert = [&s, id] {
        std::swap(s.width[id], s.height[id]);
        s.touch_die(s.die_of[id]);
      };
    } else if (roll < 0.40 && s.die_sp.size() > 1) {
      // Transfer a module to the other die.
      const std::size_t id = rng.index(s.die_of.size());
      const std::size_t from = s.die_of[id];
      if (s.die_sp[from].size() < 2) continue;
      std::size_t to = rng.index(s.die_sp.size() - 1);
      if (to >= from) ++to;
      const auto& pos = s.die_sp[from].positive();
      const auto& neg = s.die_sp[from].negative();
      const auto pos_slot = static_cast<std::size_t>(
          std::find(pos.begin(), pos.end(), id) - pos.begin());
      const auto neg_slot = static_cast<std::size_t>(
          std::find(neg.begin(), neg.end(), id) - neg.begin());
      s.die_sp[from].remove(id);
      const std::size_t ins_pos = rng.index(s.die_sp[to].size() + 1);
      const std::size_t ins_neg = rng.index(s.die_sp[to].size() + 1);
      s.die_sp[to].insert(id, ins_pos, ins_neg);
      s.die_of[id] = to;
      s.touch_die(from);
      s.touch_die(to);
      revert = [&s, id, from, to, pos_slot, neg_slot] {
        s.die_sp[to].remove(id);
        s.die_sp[from].insert(id, pos_slot, neg_slot);
        s.die_of[id] = from;
        s.touch_die(from);
        s.touch_die(to);
      };
    } else {
      // Intra-die sequence swap (positive, negative, or both).
      const std::size_t d = rng.index(s.die_sp.size());
      fpn::SequencePair& sp = s.die_sp[d];
      if (sp.size() < 2) continue;
      const std::size_t i = rng.index(sp.size());
      std::size_t j = rng.index(sp.size() - 1);
      if (j >= i) ++j;
      switch (rng.index(3)) {
        case 0:
          sp.swap_positive(i, j);
          revert = [&sp, &s, d, i, j] {
            sp.swap_positive(i, j);
            s.touch_die(d);
          };
          break;
        case 1:
          sp.swap_negative(i, j);
          revert = [&sp, &s, d, i, j] {
            sp.swap_negative(i, j);
            s.touch_die(d);
          };
          break;
        default: {
          const std::size_t a = sp.positive()[i];
          const std::size_t b = sp.positive()[j];
          sp.swap_both(a, b);
          revert = [&sp, &s, d, a, b] {
            sp.swap_both(a, b);
            s.touch_die(d);
          };
          break;
        }
      }
      s.touch_die(d);
    }

    s.apply_to(fp);
    expect_caches_match_full(fp, timing);
    if (rng.uniform() < 0.33) {
      revert();
      s.apply_to(fp);
      expect_caches_match_full(fp, timing);
    }
  }
}

TEST(IncrementalEval, StagingAcrossCopiesKeepsCachesExact) {
  // Tempering exchanges and best-state reinstalls apply copies of one
  // state family to one floorplan: stamps must keep every write exact
  // across the copy family.
  Floorplan3D fp = small_instance(8);
  Rng rng(23);
  fpn::LayoutState base = fpn::LayoutState::initial(fp, rng);
  base.apply_to(fp);
  power::ElmoreTiming timing(fp);

  for (std::size_t round = 0; round < 200; ++round) {
    std::vector<fpn::LayoutState> candidates;
    for (std::size_t j = 0; j < 3; ++j) {
      // Derive each candidate from the base by one swap move.
      fpn::LayoutState cand = base;
      fpn::SequencePair& sp = cand.die_sp[rng.index(cand.die_sp.size())];
      if (sp.size() < 2) continue;
      const std::size_t i = rng.index(sp.size());
      std::size_t k = rng.index(sp.size() - 1);
      if (k >= i) ++k;
      sp.swap_both(sp.positive()[i], sp.positive()[k]);
      cand.touch_die(cand.die_of[sp.positive()[i]]);
      candidates.push_back(std::move(cand));
    }
    for (const fpn::LayoutState& cand : candidates) {
      cand.apply_to(fp);
      expect_caches_match_full(fp, timing);
    }
    // Adopt the last candidate (if any) or fall back to the base.
    if (!candidates.empty() && rng.uniform() < 0.5)
      base = std::move(candidates.back());
    base.apply_to(fp);
    expect_caches_match_full(fp, timing);
  }
}

// ---------------------------------------------------------------------------

/// Assert the floorplan holds exactly a from-scratch pack of `s`: every
/// module on its state die, at the position SequencePair::pack gives it
/// under the state's extents, bitwise.
void expect_fp_matches_fresh_pack(const Floorplan3D& fp,
                                  const fpn::LayoutState& s) {
  std::size_t placed = 0;
  for (std::size_t d = 0; d < s.die_sp.size(); ++d) {
    const fpn::Packing p =
        s.die_sp[d].pack([&](std::size_t id) { return s.width[id]; },
                         [&](std::size_t id) { return s.height[id]; });
    const std::vector<std::size_t>& order = s.die_sp[d].members();
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Module& m = fp.modules()[order[k]];
      ASSERT_EQ(m.die, d) << "module " << order[k];
      ASSERT_EQ(m.shape.x, p.position[k].x) << "module " << order[k];
      ASSERT_EQ(m.shape.y, p.position[k].y) << "module " << order[k];
      ASSERT_EQ(m.shape.w, s.width[order[k]]) << "module " << order[k];
      ASSERT_EQ(m.shape.h, s.height[order[k]]) << "module " << order[k];
    }
    placed += order.size();
  }
  ASSERT_EQ(placed, fp.modules().size());
}

/// One full anneal through the staged interface with the evaluator's
/// full-rescan cross-check on EVERY cheap evaluation (a divergence
/// throws).  After begin(), after every stage and after finish() the
/// floorplan must equal a from-scratch pack of the session's state.
fpn::AnnealStats run_anneal(Floorplan3D fp, const fpn::CostWeights& weights,
                            const fpn::AnnealOptions& opt,
                            std::uint64_t seed) {
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  thermal::ThermalEngine engine(fp.tech(), cfg, {},
                               thermal::EngineRole::fast_loop);
  fpn::CostEvaluator::Options eopt;
  eopt.weights = weights;
  eopt.leakage_grid = 16;
  eopt.cross_check_interval = 1;
  fpn::CostEvaluator eval(fp, engine, eopt);
  fpn::Annealer annealer(fp, eval, opt);

  Rng rng(seed);
  fpn::LayoutState state = fpn::LayoutState::initial(fp, rng);
  fpn::AnnealSession session = annealer.begin(state, rng);
  expect_fp_matches_fresh_pack(fp, state);
  while (!::testing::Test::HasFatalFailure() &&
         annealer.run_stage(session, rng)) {
    SCOPED_TRACE("after stage " + std::to_string(session.stage));
    expect_fp_matches_fresh_pack(fp, state);
  }
  const fpn::AnnealStats stats = annealer.finish(session, rng);
  expect_fp_matches_fresh_pack(fp, state);
  return stats;
}

TEST(IncrementalEval, EveryStageMatchesFreshPack) {
  // The incremental pipeline (stamped dirty-die packing, cached cheap
  // terms, transactional rollback) is an optimization, not a behavior
  // change: a from-scratch pack is the reference at every stage.
  {
    // TSC weights: entropy on every move, thermal refreshes every 10
    // moves, and many short stages so the checks land often.
    fpn::AnnealOptions opt;
    opt.total_moves = 1600;
    opt.stages = 32;
    opt.full_eval_interval = 90;
    opt.thermal_eval_interval = 10;
    const fpn::AnnealStats stats =
        run_anneal(small_instance(4), fpn::tsc_aware_weights(), opt, 33);
    EXPECT_GT(stats.moves, 0u);
    EXPECT_LT(stats.accepted, stats.moves);  // rollbacks were exercised
  }
  for (const std::uint64_t seed : {7ull, 19ull}) {
    // A real benchmark size under PA weights.
    fpn::AnnealOptions opt;
    opt.total_moves = 600;
    opt.stages = 3;
    opt.full_eval_interval = 200;
    const fpn::AnnealStats stats = run_anneal(
        benchgen::generate("n1000", 2), fpn::power_aware_weights(), opt,
        seed);
    EXPECT_GT(stats.moves, 0u);
    EXPECT_LT(stats.accepted, stats.moves);
  }
}

// ---------------------------------------------------------------------------

TEST(IncrementalEval, CrossCheckSilentOnCleanRunThrowsOnCorruption) {
  Floorplan3D fp = small_instance(6);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  thermal::ThermalEngine engine(fp.tech(), cfg, {},
                               thermal::EngineRole::fast_loop);
  fpn::CostEvaluator::Options eopt;
  eopt.leakage_grid = 16;
  eopt.cross_check_interval = 1;  // verify EVERY cheap evaluation
  fpn::CostEvaluator eval(fp, engine, eopt);

  Rng rng(3);
  fpn::LayoutState s = fpn::LayoutState::initial(fp, rng);
  s.apply_to(fp);
  (void)eval.evaluate_full();
  // A clean move/eval loop must never trip the guard.
  for (std::size_t step = 0; step < 50; ++step) {
    fpn::SequencePair& sp = s.die_sp[rng.index(s.die_sp.size())];
    const std::size_t i = rng.index(sp.size());
    std::size_t j = rng.index(sp.size() - 1);
    if (j >= i) ++j;
    sp.swap_both(sp.positive()[i], sp.positive()[j]);
    s.touch_die(s.die_of[sp.positive()[i]]);
    s.apply_to(fp);
    EXPECT_NO_THROW((void)eval.evaluate_cheap());
  }
  // Moving a module behind the database's back must be caught.  The
  // offset is a full die width so the bbox/outline terms diverge no
  // matter where the module sat.
  fp.modules()[0].shape.x += fp.tech().die_width_um;  // no note: corruption
  EXPECT_THROW((void)eval.evaluate_cheap(), std::logic_error);
}

// ---------------------------------------------------------------------------

TEST(MoveTransaction, EscalationBetweenCachedEvalsStaysExact) {
  // Outline-weight escalation between cached evaluations: the raw-term
  // caches store weight-independent values, so escalating must neither
  // corrupt them (the every-eval cross-check would throw) nor change the
  // raw terms; only the weighted total moves.
  Floorplan3D fp = small_instance(6);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  thermal::ThermalEngine engine(fp.tech(), cfg, {},
                               thermal::EngineRole::fast_loop);
  fpn::CostEvaluator::Options eopt;
  eopt.leakage_grid = 16;
  eopt.cross_check_interval = 1;  // verify EVERY cheap evaluation
  fpn::CostEvaluator eval(fp, engine, eopt);

  Rng rng(9);
  fpn::LayoutState s = fpn::LayoutState::initial(fp, rng);
  s.apply_to(fp);
  (void)eval.evaluate_full();
  // Warm the per-die term caches with a few move/eval rounds.
  for (std::size_t step = 0; step < 10; ++step) {
    fpn::SequencePair& sp = s.die_sp[rng.index(s.die_sp.size())];
    const std::size_t i = rng.index(sp.size());
    std::size_t j = rng.index(sp.size() - 1);
    if (j >= i) ++j;
    sp.swap_both(sp.positive()[i], sp.positive()[j]);
    s.touch_die(s.die_of[sp.positive()[i]]);
    s.apply_to(fp);
    (void)eval.evaluate_cheap();
  }
  const fpn::CostBreakdown before = eval.evaluate_cheap();
  const double w_before = eval.outline_weight();
  eval.scale_outline_weight(1.35);
  EXPECT_EQ(eval.outline_weight(), w_before * 1.35);
  const fpn::CostBreakdown after = eval.evaluate_cheap();  // cross-checked
  // Raw terms are weight-independent and served from the warm caches.
  EXPECT_EQ(after.bbox_area_ratio, before.bbox_area_ratio);
  EXPECT_EQ(after.outline_penalty, before.outline_penalty);
  EXPECT_EQ(after.wirelength_um, before.wirelength_um);
  EXPECT_EQ(after.delay_ns, before.delay_ns);
  EXPECT_EQ(after.fits_outline, before.fits_outline);
  // Only the weighted total moved, by exactly the outline re-pricing.
  EXPECT_NEAR(after.total - before.total,
              (eval.outline_weight() - w_before) * before.outline_penalty,
              1e-9 * std::max(1.0, std::abs(before.total)));
}

TEST(MoveTransaction, EscalationRefusedMidTrial) {
  Floorplan3D fp = small_instance(6);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  thermal::ThermalEngine engine(fp.tech(), cfg, {},
                               thermal::EngineRole::fast_loop);
  fpn::CostEvaluator::Options eopt;
  eopt.leakage_grid = 16;
  fpn::CostEvaluator eval(fp, engine, eopt);
  Rng rng(9);
  fpn::LayoutState s = fpn::LayoutState::initial(fp, rng);
  s.apply_to(fp);
  (void)eval.evaluate_full();

  eval.trial_begin();
  EXPECT_THROW(eval.scale_outline_weight(2.0), std::logic_error);
  eval.trial_rollback();
  EXPECT_NO_THROW(eval.scale_outline_weight(2.0));
}

TEST(MoveTransaction, PhaseMisuseThrows) {
  Floorplan3D fp = small_instance(6);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  thermal::ThermalEngine engine(fp.tech(), cfg, {},
                               thermal::EngineRole::fast_loop);
  fpn::CostEvaluator::Options eopt;
  eopt.leakage_grid = 16;
  fpn::CostEvaluator eval(fp, engine, eopt);
  Rng rng(9);
  fpn::LayoutState s = fpn::LayoutState::initial(fp, rng);
  s.apply_to(fp);

  fpn::MoveTransaction txn(fp, eval);
  fpn::MoveRecord rec;
  EXPECT_THROW(txn.stage(), std::logic_error);     // nothing open
  EXPECT_THROW(txn.commit(), std::logic_error);    // nothing staged
  EXPECT_THROW(txn.rollback(rec), std::logic_error);
  EXPECT_THROW(txn.abort(), std::logic_error);
  txn.open(s);
  EXPECT_THROW(txn.open(s), std::logic_error);     // no nesting
  EXPECT_THROW(txn.commit(), std::logic_error);    // open but not staged
  txn.stage();
  EXPECT_THROW(txn.abort(), std::logic_error);     // staged aborts are
  txn.rollback(rec);                               // rollbacks (rec: none)
  // Floorplan trial brackets refuse nesting and wholesale invalidation.
  fp.begin_trial();
  EXPECT_THROW(fp.begin_trial(), std::logic_error);
  EXPECT_THROW(fp.invalidate_layout_caches(), std::logic_error);
  fp.rollback_trial();
  EXPECT_THROW(fp.rollback_trial(), std::logic_error);
  EXPECT_NO_THROW(fp.invalidate_layout_caches());
}

// ---------------------------------------------------------------------------

TEST(IncrementalEvalParallel, ChainsDeterministicAndMatchSeedPath) {
  // Incremental state flowing through parallel-tempering chains:
  // threaded and sequential scheduling must agree exactly, and a
  // threaded repeat must agree.  Every chain's cheap terms are checked
  // against the full rescan (the seed path's evaluation) on every move.
  // Runs under TSan on CI.
  auto run_once = [](bool parallel) {
    fpn::ChainSetup s;
    s.fast_thermal.grid_nx = s.fast_thermal.grid_ny = 16;
    s.engine_parallel.threads = 2;
    s.eval.weights = fpn::power_aware_weights();
    s.eval.leakage_grid = 16;
    s.eval.cross_check_interval = 1;
    s.anneal.total_moves = 1000;
    s.anneal.stages = 5;
    s.anneal.full_eval_interval = 150;
    s.anneal.thermal_eval_interval = 9;
    s.chains.chains = 3;
    s.chains.exchange_interval = 2;
    s.chains.ladder_ratio = 4.0;
    s.chains.parallel = parallel;
    Floorplan3D fp = small_instance(11);
    Rng rng(3);
    fpn::LayoutState initial = fpn::LayoutState::initial(fp, rng);
    fpn::ChainOrchestrator orchestrator(s);
    const fpn::ChainReport report = orchestrator.run(fp, initial, rng);
    std::vector<double> coords;
    for (const Module& m : fp.modules()) {
      coords.push_back(m.shape.x);
      coords.push_back(m.shape.y);
    }
    return std::make_tuple(report.winner, report.exchange.accepts, coords,
                           report.chains.at(report.winner).best_cost);
  };
  const auto threaded = run_once(true);
  EXPECT_EQ(threaded, run_once(false));  // scheduling-independent
  EXPECT_EQ(threaded, run_once(true));   // repeatable
}

}  // namespace
}  // namespace tsc3d
