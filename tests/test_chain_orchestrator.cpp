// Tests of the chain orchestrator, which runs every flow's annealing:
// a single chain reproduces the plain staged annealer bitwise,
// determinism under a fixed seed regardless of scheduling (threaded vs
// sequential chains), exchange-acceptance bookkeeping on a tiny
// temperature ladder, and the Floorplanner-level wiring.  The suites run
// under TSan on CI.
#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "floorplan/chain_orchestrator.hpp"
#include "floorplan/floorplanner.hpp"

namespace tsc3d::floorplan {
namespace {

Floorplan3D small_instance(std::uint64_t seed) {
  benchgen::BenchmarkSpec spec;
  spec.name = "tiny";
  spec.soft_modules = 18;
  spec.num_nets = 30;
  spec.num_terminals = 6;
  spec.outline_mm2 = 4.0;
  spec.power_w = 2.0;
  return benchgen::generate(spec, seed);
}

ChainSetup small_setup(std::size_t chains, bool parallel = true) {
  ChainSetup s;
  s.fast_thermal.grid_nx = s.fast_thermal.grid_ny = 16;
  s.eval.weights = power_aware_weights();
  s.eval.leakage_grid = 16;
  s.anneal.total_moves = 1600;
  s.anneal.stages = 8;
  s.anneal.full_eval_interval = 200;
  s.chains.chains = chains;
  s.chains.exchange_interval = 2;
  s.chains.ladder_ratio = 4.0;
  s.chains.parallel = parallel;
  return s;
}

struct RunResult {
  ChainReport report;
  std::vector<Rect> shapes;
  std::vector<std::size_t> dies;
  std::vector<std::size_t> voltages;
  Rng::State rng;
};

void record_design(const Floorplan3D& fp, const Rng& rng, RunResult& out) {
  for (const Module& m : fp.modules()) {
    out.shapes.push_back(m.shape);
    out.dies.push_back(m.die);
    out.voltages.push_back(m.voltage_index);
  }
  out.rng = rng.state();
}

RunResult run_once(const ChainSetup& setup, std::uint64_t seed) {
  Floorplan3D fp = small_instance(11);
  Rng init_rng(3);
  const LayoutState initial = LayoutState::initial(fp, init_rng);
  ChainOrchestrator orchestrator(setup);
  Rng rng(seed);
  RunResult out;
  out.report = orchestrator.run(fp, initial, rng);
  record_design(fp, rng, out);
  return out;
}

/// The plain single-chain composition the orchestrator must reproduce at
/// K = 1: one fast-loop engine on the caller's floorplan, and the staged
/// annealer on the caller's RNG.
RunResult run_plain(const ChainSetup& setup, std::uint64_t seed) {
  Floorplan3D fp = small_instance(11);
  Rng init_rng(3);
  LayoutState state = LayoutState::initial(fp, init_rng);
  thermal::ThermalEngine engine(fp.tech(), setup.fast_thermal,
                                setup.engine_parallel,
                                thermal::EngineRole::fast_loop);
  CostEvaluator eval(fp, engine, setup.eval);
  Annealer annealer(fp, eval, setup.anneal);
  Rng rng(seed);
  AnnealSession session = annealer.begin(state, rng);
  while (annealer.run_stage(session, rng)) {
  }
  RunResult out;
  out.report.chains.push_back(annealer.finish(session, rng));
  record_design(fp, rng, out);
  return out;
}

void expect_same_outcome(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.report.winner, b.report.winner);
  EXPECT_EQ(a.report.exchange.rounds, b.report.exchange.rounds);
  EXPECT_EQ(a.report.exchange.attempts, b.report.exchange.attempts);
  EXPECT_EQ(a.report.exchange.accepts, b.report.exchange.accepts);
  ASSERT_EQ(a.report.chains.size(), b.report.chains.size());
  for (std::size_t k = 0; k < a.report.chains.size(); ++k) {
    EXPECT_EQ(a.report.chains[k].moves, b.report.chains[k].moves);
    EXPECT_EQ(a.report.chains[k].accepted, b.report.chains[k].accepted);
    EXPECT_DOUBLE_EQ(a.report.chains[k].best_cost,
                     b.report.chains[k].best_cost);
  }
  ASSERT_EQ(a.shapes.size(), b.shapes.size());
  for (std::size_t i = 0; i < a.shapes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.shapes[i].x, b.shapes[i].x);
    EXPECT_DOUBLE_EQ(a.shapes[i].y, b.shapes[i].y);
    EXPECT_DOUBLE_EQ(a.shapes[i].w, b.shapes[i].w);
    EXPECT_DOUBLE_EQ(a.shapes[i].h, b.shapes[i].h);
    EXPECT_EQ(a.dies[i], b.dies[i]);
  }
}

TEST(ChainOrchestrator, SingleChainMatchesPlainAnnealer) {
  // K = 1 is a plain SA run: chain 0 anneals the caller's floorplan on
  // the caller's RNG, with no design copy and no seed draw.  Placement,
  // voltage indices, stats and the RNG position match bitwise.
  ChainSetup pa = small_setup(1);
  ChainSetup tsc = small_setup(1);
  tsc.eval.weights = tsc_aware_weights();
  tsc.eval.voltage_objective = power::VoltageObjective::tsc_aware;
  tsc.anneal.thermal_eval_interval = 10;
  for (const ChainSetup* setup : {&pa, &tsc}) {
    const RunResult plain = run_plain(*setup, 42);
    const RunResult chained = run_once(*setup, 42);
    ASSERT_EQ(chained.report.chains.size(), 1u);
    EXPECT_EQ(chained.report.winner, 0u);
    EXPECT_EQ(chained.report.exchange.rounds, 0u);
    const AnnealStats& a = plain.report.chains[0];
    const AnnealStats& b = chained.report.chains[0];
    EXPECT_EQ(a.moves, b.moves);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.full_evals, b.full_evals);
    EXPECT_EQ(a.repair_moves, b.repair_moves);
    EXPECT_EQ(a.initial_temperature, b.initial_temperature);
    EXPECT_EQ(a.best_cost, b.best_cost);
    EXPECT_EQ(a.found_legal, b.found_legal);
    ASSERT_EQ(plain.shapes.size(), chained.shapes.size());
    for (std::size_t i = 0; i < plain.shapes.size(); ++i) {
      EXPECT_EQ(plain.shapes[i].x, chained.shapes[i].x) << "module " << i;
      EXPECT_EQ(plain.shapes[i].y, chained.shapes[i].y) << "module " << i;
      EXPECT_EQ(plain.shapes[i].w, chained.shapes[i].w) << "module " << i;
      EXPECT_EQ(plain.shapes[i].h, chained.shapes[i].h) << "module " << i;
      EXPECT_EQ(plain.dies[i], chained.dies[i]) << "module " << i;
      EXPECT_EQ(plain.voltages[i], chained.voltages[i]) << "module " << i;
    }
    EXPECT_TRUE(plain.rng == chained.rng) << "RNG stream positions differ";
  }
}

TEST(ChainOrchestrator, DeterministicUnderFixedSeed) {
  const ChainSetup setup = small_setup(3);
  const RunResult a = run_once(setup, 42);
  const RunResult b = run_once(setup, 42);
  expect_same_outcome(a, b);
}

TEST(ChainOrchestrator, SchedulingIndependent) {
  // Threaded chains and sequential round-robin must agree exactly: the
  // chains only interact at the exchange barriers, which consume a
  // dedicated RNG in a fixed pair order.
  const RunResult threaded = run_once(small_setup(3, true), 42);
  const RunResult sequential = run_once(small_setup(3, false), 42);
  expect_same_outcome(threaded, sequential);
}

TEST(ChainOrchestrator, DifferentSeedsExploreDifferently) {
  const ChainSetup setup = small_setup(2);
  const RunResult a = run_once(setup, 1);
  const RunResult b = run_once(setup, 2);
  // Same design, different seeds: the annealed layouts should differ
  // (cost equality to full double precision would mean the seed is dead).
  bool any_difference = false;
  for (std::size_t k = 0; k < a.report.chains.size(); ++k)
    any_difference |=
        a.report.chains[k].best_cost != b.report.chains[k].best_cost;
  EXPECT_TRUE(any_difference);
}

TEST(ChainOrchestrator, ExchangeStatisticsOnTinyLadder) {
  // 3 chains, exchange every 2 of 8 stages -> 3 exchange rounds, each
  // proposing exactly one ladder pair (alternating (0,1) / (1,2)).
  const RunResult r = run_once(small_setup(3), 7);
  EXPECT_EQ(r.report.exchange.rounds, 3u);
  EXPECT_EQ(r.report.exchange.attempts, 3u);
  EXPECT_LE(r.report.exchange.accepts, r.report.exchange.attempts);
  ASSERT_EQ(r.report.chains.size(), 3u);
  for (const AnnealStats& s : r.report.chains) {
    EXPECT_GT(s.moves, 0u);
    EXPECT_GT(s.accepted, 0u);
    EXPECT_GT(s.initial_temperature, 0.0);
  }
  EXPECT_LT(r.report.winner, 3u);
}

TEST(ChainOrchestrator, EvenChainCountAlternatesPairCount) {
  // 4 chains: even rounds propose (0,1) and (2,3), odd rounds (1,2).
  const RunResult r = run_once(small_setup(4), 7);
  EXPECT_EQ(r.report.exchange.rounds, 3u);
  EXPECT_EQ(r.report.exchange.attempts, 2u + 1u + 2u);
}

TEST(ChainOrchestrator, ChainSeedsAreDistinctAndStable) {
  EXPECT_EQ(ChainOrchestrator::chain_seed(42, 0),
            ChainOrchestrator::chain_seed(42, 0));
  EXPECT_NE(ChainOrchestrator::chain_seed(42, 0),
            ChainOrchestrator::chain_seed(42, 1));
  EXPECT_NE(ChainOrchestrator::chain_seed(42, 0),
            ChainOrchestrator::chain_seed(43, 0));
}

TEST(ChainOrchestrator, RejectsZeroChainsAndSubUnityLadder) {
  ChainSetup bad = small_setup(0);
  EXPECT_THROW(ChainOrchestrator{bad}, std::invalid_argument);
  ChainSetup ladder = small_setup(2);
  ladder.chains.ladder_ratio = 0.5;
  EXPECT_THROW(ChainOrchestrator{ladder}, std::invalid_argument);
}

TEST(ChainOrchestrator, FloorplannerRunsChainsAndStaysDeterministic) {
  FloorplannerOptions opt = Floorplanner::power_aware_setup();
  opt.anneal.total_moves = 1600;
  opt.anneal.stages = 8;
  opt.fast_grid = 16;
  opt.verify_grid = 16;
  opt.chains.chains = 2;
  opt.chains.exchange_interval = 2;
  const Floorplanner planner(opt);

  Floorplan3D fp_a = small_instance(5);
  Rng rng_a(9);
  const FloorplanMetrics a = planner.run(fp_a, rng_a);
  Floorplan3D fp_b = small_instance(5);
  Rng rng_b(9);
  const FloorplanMetrics b = planner.run(fp_b, rng_b);

  ASSERT_EQ(a.chains.chains.size(), 2u);
  EXPECT_EQ(a.chains.winner, b.chains.winner);
  EXPECT_DOUBLE_EQ(a.anneal.best_cost, b.anneal.best_cost);
  EXPECT_DOUBLE_EQ(a.peak_k, b.peak_k);
  ASSERT_EQ(a.correlation.size(), b.correlation.size());
  for (std::size_t d = 0; d < a.correlation.size(); ++d)
    EXPECT_DOUBLE_EQ(a.correlation[d], b.correlation[d]);
  // The winning chain's stats are surfaced as the run's anneal trace.
  EXPECT_EQ(a.anneal.moves, a.chains.chains[a.chains.winner].moves);
  EXPECT_DOUBLE_EQ(a.anneal.best_cost,
                   a.chains.chains[a.chains.winner].best_cost);
}

}  // namespace
}  // namespace tsc3d::floorplan
