#include "floorplan/chain_orchestrator.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "floorplan/exploration_checkpoint.hpp"

namespace tsc3d::floorplan {

namespace {

/// The private design copy and RNG stream of a chain k >= 1 (chain 0
/// anneals the caller's).
struct Replica {
  Replica(const Floorplan3D& original, std::uint64_t seed)
      : fp(original), rng(seed) {}

  Floorplan3D fp;
  Rng rng;
};

/// One chain: the thermal/cost/annealing machinery bound to one design
/// and one RNG stream.  Nothing in here is shared with another chain, so
/// chains run concurrently without locks.
struct Chain {
  Chain(Floorplan3D& design, Rng& stream, const ChainSetup& setup)
      : fp(design),
        rng(stream),
        engine(design.tech(), setup.fast_thermal, setup.engine_parallel,
               thermal::EngineRole::fast_loop),
        eval(design, engine, setup.eval),
        annealer(design, eval, setup.anneal) {}

  Floorplan3D& fp;
  Rng& rng;
  thermal::ThermalEngine engine;  ///< warm-started in-loop solves
  CostEvaluator eval;
  Annealer annealer;
  LayoutState state;
  AnnealSession session;
  double ladder = 1.0;  ///< temperature multiplier of this rung
};

/// Cost of a chain's current (or best) state rebased to the outline
/// weight every chain started from.  Outline escalation is chain-local
/// (each Annealer raises its own evaluator's weight while it lingers
/// illegal), so raw totals from different chains can sit on different
/// scales mid-run; subtracting the escalated-minus-initial share of the
/// outline term puts them back on one scale.  For legal states the
/// penalty is zero and this is the raw total.
double rebased_cost(double total, double outline_penalty,
                    double current_weight, double initial_weight) {
  return total - (current_weight - initial_weight) * outline_penalty;
}

/// Run fn(k) for every chain, on worker threads when `parallel`.  The
/// chains' work is disjoint by construction; exceptions are collected
/// and the first one rethrown after all threads joined.
template <typename Fn>
void for_each_chain(std::size_t count, bool parallel, Fn&& fn) {
  if (!parallel || count <= 1) {
    for (std::size_t k = 0; k < count; ++k) fn(k);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  {
    std::vector<std::jthread> threads;
    threads.reserve(count);
    for (std::size_t k = 0; k < count; ++k)
      threads.emplace_back([&errors, &fn, k] {
        try {
          fn(k);
        } catch (...) {
          errors[k] = std::current_exception();
        }
      });
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace

ChainOrchestrator::ChainOrchestrator(ChainSetup setup)
    : setup_(std::move(setup)) {
  if (setup_.chains.chains == 0)
    throw std::invalid_argument("ChainOrchestrator: need at least one chain");
  if (setup_.chains.ladder_ratio < 1.0)
    throw std::invalid_argument(
        "ChainOrchestrator: ladder_ratio must be >= 1");
}

std::uint64_t ChainOrchestrator::chain_seed(std::uint64_t base,
                                            std::size_t chain) {
  // SplitMix64 finalizer over a golden-ratio stride: nearby (base, chain)
  // pairs map to uncorrelated streams, and the mapping is stable across
  // platforms (pure 64-bit integer arithmetic).
  std::uint64_t z =
      base + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(chain) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ChainReport ChainOrchestrator::run(Floorplan3D& fp, const LayoutState& initial,
                                   Rng& rng, const ExplorationHooks* hooks) {
  const std::size_t count = setup_.chains.chains;
  const bool parallel = setup_.chains.parallel;
  const ExplorationCheckpoint* resume =
      hooks != nullptr ? hooks->resume : nullptr;
  if (resume != nullptr && resume->chains.size() != count)
    throw std::invalid_argument(
        "ChainOrchestrator: resume checkpoint does not match the chain "
        "setup");

  // --- equip the chains --------------------------------------------------
  // Chain 0 anneals the caller's design on the caller's RNG, so a single
  // chain is exactly a plain SA run.  The other chains copy the design
  // before anything is bound to it, and draw their streams from one seed
  // (a resume restores every stream from the checkpoint instead).  All
  // chains start from the same initial state, so every evaluator's
  // adaptive normalizers initialize from the same first full evaluation
  // and chain costs stay directly comparable in the exchange rule.
  const std::uint64_t base = count > 1 && resume == nullptr ? rng() : 0;
  std::vector<Replica> replicas;
  replicas.reserve(count - 1);
  for (std::size_t k = 1; k < count; ++k)
    replicas.emplace_back(fp, chain_seed(base, k));
  std::vector<std::unique_ptr<Chain>> chains;
  chains.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    auto chain =
        k == 0 ? std::make_unique<Chain>(fp, rng, setup_)
               : std::make_unique<Chain>(replicas[k - 1].fp,
                                         replicas[k - 1].rng, setup_);
    chain->state = initial;
    chain->ladder =
        count > 1 ? std::pow(setup_.chains.ladder_ratio,
                             static_cast<double>(k) /
                                 static_cast<double>(count - 1))
                  : 1.0;
    chains.push_back(std::move(chain));
  }
  Rng exchange_rng(chain_seed(base, count));

  // --- staged annealing with periodic replica exchange -------------------
  ChainReport report;
  const std::size_t stages = setup_.anneal.stages;
  const std::size_t interval =
      std::max<std::size_t>(1, setup_.chains.exchange_interval);
  std::size_t done = 0;
  std::size_t round = 0;

  if (resume != nullptr) {
    // Resume: every chain continues from its checkpointed session; the
    // begin() calibration already ran in the original run and its RNG
    // draws are part of the restored stream positions.
    for_each_chain(count, parallel, [&](std::size_t k) {
      Chain& c = *chains[k];
      restore_chain(resume->chains[k], c.session, c.state, c.rng, c.eval,
                    c.engine, c.fp);
    });
    exchange_rng.set_state(resume->exchange_rng);
    done = static_cast<std::size_t>(resume->done_stages);
    round = static_cast<std::size_t>(resume->round);
    report.exchange = resume->exchange;
  } else {
    // --- begin: first full eval + T0 probe, then mount the ladder -------
    for_each_chain(count, parallel, [&](std::size_t k) {
      Chain& c = *chains[k];
      c.session = c.annealer.begin(c.state, c.rng);
      c.session.temperature *= c.ladder;
    });
  }

  const bool saving = hooks != nullptr && hooks->save;
  const std::size_t save_interval =
      saving ? std::max<std::size_t>(1, hooks->checkpoint_interval) : 1;
  while (done < stages) {
    // One stage per chain, then a barrier.
    for_each_chain(count, parallel, [&](std::size_t k) {
      Chain& c = *chains[k];
      (void)c.annealer.run_stage(c.session, c.rng);
    });
    ++done;

    if (count >= 2 && done % interval == 0 && done < stages) {
      // Exchange round: alternate even/odd ladder pairs, fixed order, one
      // dedicated RNG -- deterministic no matter how the chain threads
      // were scheduled.
      ++report.exchange.rounds;
      for (std::size_t i = round % 2; i + 1 < count; i += 2) {
        Chain& cold = *chains[i];
        Chain& hot = *chains[i + 1];
        ++report.exchange.attempts;
        const double t_cold = cold.session.temperature;
        const double t_hot = hot.session.temperature;
        const double e_cold = rebased_cost(
            cold.session.current.total, cold.session.current.outline_penalty,
            cold.eval.outline_weight(), cold.session.initial_outline_weight);
        const double e_hot = rebased_cost(
            hot.session.current.total, hot.session.current.outline_penalty,
            hot.eval.outline_weight(), hot.session.initial_outline_weight);
        if (t_cold <= 0.0 || t_hot <= 0.0) continue;
        const double log_accept =
            (1.0 / t_cold - 1.0 / t_hot) * (e_cold - e_hot);
        const bool accept =
            log_accept >= 0.0 ||
            exchange_rng.uniform() < std::exp(log_accept);
        if (!accept) continue;
        ++report.exchange.accepts;
        std::swap(*cold.session.state, *hot.session.state);
        std::swap(cold.session.current, hot.session.current);
        cold.session.refresh_pending = true;
        hot.session.refresh_pending = true;
      }
      ++round;
    }

    // Checkpoint at the barrier: every bracket is closed and this
    // barrier's exchanges (and the round counter) are already folded in,
    // so a resume re-enters exactly at the top of this loop.  The final
    // barrier always saves, so a crash during finish() resumes with zero
    // stages left to redo.
    if (saving && (done % save_interval == 0 || done >= stages)) {
      ExplorationCheckpoint ck;
      ck.clock_period_ns = fp.tech().clock_period_ns;
      ck.chains.reserve(count);
      for (const auto& c : chains)
        ck.chains.push_back(
            capture_chain(c->session, c->rng, c->eval, c->engine, c->fp));
      ck.exchange_rng = exchange_rng.state();
      ck.done_stages = done;
      ck.round = round;
      ck.exchange = report.exchange;
      hooks->save(ck);
    }
  }

  // --- finish: repair tails + install each chain's best ------------------
  for_each_chain(count, parallel, [&](std::size_t k) {
    Chain& c = *chains[k];
    c.session.stats = c.annealer.finish(c.session, c.rng);
  });

  // --- pick the winner ---------------------------------------------------
  // Legal layouts dominate illegal ones; ties break toward lower cost,
  // rebased to the shared initial outline weight so chains that
  // escalated differently compare on one scale (for legal layouts the
  // outline term is zero and the rebased cost IS the raw total; shared
  // normalizers cover the rest).
  const auto chain_cost = [&](const Chain& c) {
    const CostBreakdown& b = c.session.stats.best_breakdown;
    return rebased_cost(b.total, b.outline_penalty, c.eval.outline_weight(),
                        c.session.initial_outline_weight);
  };
  std::size_t winner = 0;
  for (std::size_t k = 1; k < count; ++k) {
    const bool best_legal =
        chains[winner]->session.stats.best_breakdown.fits_outline;
    const bool cand_legal =
        chains[k]->session.stats.best_breakdown.fits_outline;
    const bool better =
        (cand_legal && !best_legal) ||
        (cand_legal == best_legal &&
         chain_cost(*chains[k]) < chain_cost(*chains[winner]));
    if (better) winner = k;
  }

  // Chain 0 already is the caller's design.  Any other winner hands back
  // its whole design -- layout, voltage indices and TSVs -- so the
  // post-processing sees one chain's consistent state.
  if (winner != 0) fp = chains[winner]->fp;
  report.winner = winner;
  report.chains.reserve(count);
  for (const auto& chain : chains)
    report.chains.push_back(chain->session.stats);
  return report;
}

}  // namespace tsc3d::floorplan
