// Durable annealing checkpoints (exploration_checkpoint.hpp): the crash
// contract is that a flow resumed from ANY stage-boundary snapshot must
// be BITWISE-identical -- final placement, TSVs, metrics, and RNG
// stream position -- to the uninterrupted run, because checkpoints
// capture the complete annealing state (layout, RNG, cost normalizers,
// stage counters, thermal warm field, per-chain tempering state).
//
// Covered paths: single chain and parallel tempering, the latter also
// from a stage between two exchange rounds; plus the observer property
// (saving checkpoints perturbs nothing), the resume-at-final-stage edge
// and the chain-count check.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "benchgen/generator.hpp"
#include "floorplan/exploration_checkpoint.hpp"
#include "floorplan/floorplanner.hpp"

namespace tsc3d::floorplan {
namespace {

Floorplan3D small_instance(std::uint64_t seed) {
  benchgen::BenchmarkSpec spec;
  spec.name = "tiny";
  spec.soft_modules = 16;
  spec.num_nets = 28;
  spec.num_terminals = 6;
  spec.outline_mm2 = 4.0;
  spec.power_w = 2.0;
  return benchgen::generate(spec, seed);
}

FloorplannerOptions fast_options() {
  FloorplannerOptions o = Floorplanner::power_aware_setup();
  o.anneal.total_moves = 5000;
  o.anneal.stages = 10;
  o.anneal.full_eval_interval = 100;
  o.fast_grid = 16;
  o.verify_grid = 24;
  o.sampling_grid = 16;
  return o;
}

struct RunOutcome {
  FloorplanMetrics metrics;
  Floorplan3D fp;
  Rng::State rng;
};

/// Run the flow, optionally recording every checkpoint and/or resuming
/// from one.
RunOutcome run_flow(const FloorplannerOptions& opt, std::uint64_t seed,
                    std::vector<ExplorationCheckpoint>* record,
                    const ExplorationCheckpoint* resume) {
  RunOutcome out;
  out.fp = small_instance(seed);
  Rng rng(seed);
  const Floorplanner planner(opt);
  if (record == nullptr && resume == nullptr) {
    out.metrics = planner.run(out.fp, rng);
  } else {
    ExplorationHooks hooks;
    hooks.checkpoint_interval = 1;
    if (record != nullptr)
      hooks.save = [record](const ExplorationCheckpoint& ck) {
        record->push_back(ck);
      };
    hooks.resume = resume;
    out.metrics = planner.run(out.fp, rng, hooks);
  }
  out.rng = rng.state();
  return out;
}

/// Bitwise comparison of everything a crash must not change.  runtime_s
/// is wall-clock and deliberately excluded.
void expect_bitwise_equal(const RunOutcome& a, const RunOutcome& b) {
  ASSERT_EQ(a.fp.modules().size(), b.fp.modules().size());
  for (std::size_t i = 0; i < a.fp.modules().size(); ++i) {
    const Module& ma = a.fp.modules()[i];
    const Module& mb = b.fp.modules()[i];
    EXPECT_EQ(ma.die, mb.die) << "module " << i;
    EXPECT_EQ(ma.shape.x, mb.shape.x) << "module " << i;
    EXPECT_EQ(ma.shape.y, mb.shape.y) << "module " << i;
    EXPECT_EQ(ma.shape.w, mb.shape.w) << "module " << i;
    EXPECT_EQ(ma.shape.h, mb.shape.h) << "module " << i;
    EXPECT_EQ(ma.voltage_index, mb.voltage_index) << "module " << i;
  }
  ASSERT_EQ(a.fp.tsvs().size(), b.fp.tsvs().size());
  for (std::size_t i = 0; i < a.fp.tsvs().size(); ++i) {
    EXPECT_EQ(a.fp.tsvs()[i].position.x, b.fp.tsvs()[i].position.x);
    EXPECT_EQ(a.fp.tsvs()[i].position.y, b.fp.tsvs()[i].position.y);
    EXPECT_EQ(a.fp.tsvs()[i].count, b.fp.tsvs()[i].count);
  }
  EXPECT_EQ(a.fp.tech().clock_period_ns, b.fp.tech().clock_period_ns);
  EXPECT_EQ(a.metrics.legal, b.metrics.legal);
  EXPECT_EQ(a.metrics.correlation, b.metrics.correlation);
  EXPECT_EQ(a.metrics.entropy, b.metrics.entropy);
  EXPECT_EQ(a.metrics.power_w, b.metrics.power_w);
  EXPECT_EQ(a.metrics.critical_delay_ns, b.metrics.critical_delay_ns);
  EXPECT_EQ(a.metrics.wirelength_m, b.metrics.wirelength_m);
  EXPECT_EQ(a.metrics.peak_k, b.metrics.peak_k);
  EXPECT_EQ(a.metrics.signal_tsvs, b.metrics.signal_tsvs);
  EXPECT_EQ(a.metrics.dummy_tsvs, b.metrics.dummy_tsvs);
  EXPECT_EQ(a.metrics.voltage_volumes, b.metrics.voltage_volumes);
  EXPECT_EQ(a.metrics.anneal.moves, b.metrics.anneal.moves);
  EXPECT_EQ(a.metrics.anneal.accepted, b.metrics.anneal.accepted);
  EXPECT_EQ(a.metrics.anneal.best_cost, b.metrics.anneal.best_cost);
  EXPECT_EQ(a.metrics.chains.winner, b.metrics.chains.winner);
  EXPECT_EQ(a.metrics.chains.exchange.rounds,
            b.metrics.chains.exchange.rounds);
  EXPECT_EQ(a.metrics.chains.exchange.accepts,
            b.metrics.chains.exchange.accepts);
  EXPECT_TRUE(a.rng == b.rng) << "final RNG stream positions differ";
}

/// The shared scenario: reference run, observed run (checkpoints saved,
/// must equal the reference), then a resume from a mid-run snapshot.
void check_resume_bitwise(const FloorplannerOptions& opt,
                          std::uint64_t seed) {
  const RunOutcome reference = run_flow(opt, seed, nullptr, nullptr);

  std::vector<ExplorationCheckpoint> snapshots;
  const RunOutcome observed = run_flow(opt, seed, &snapshots, nullptr);
  ASSERT_GE(snapshots.size(), 3u);
  expect_bitwise_equal(reference, observed);  // saving must not perturb

  const ExplorationCheckpoint& mid = snapshots[snapshots.size() / 2];
  const RunOutcome resumed = run_flow(opt, seed, nullptr, &mid);
  expect_bitwise_equal(reference, resumed);
}

TEST(AnnealCheckpoint, SingleChainResumesBitwise) {
  check_resume_bitwise(fast_options(), 7);
}

TEST(AnnealCheckpoint, TemperingPathResumesBitwise) {
  FloorplannerOptions opt = fast_options();
  opt.chains.chains = 3;
  opt.chains.exchange_interval = 2;
  check_resume_bitwise(opt, 13);
}

TEST(AnnealCheckpoint, TemperingResumesBetweenExchanges) {
  // Tempering snapshots every stage barrier, not only the exchange
  // barriers: a snapshot taken between two exchange rounds carries the
  // round counter and the exchange RNG, and resumes bitwise too.
  FloorplannerOptions opt = fast_options();
  opt.chains.chains = 3;
  opt.chains.exchange_interval = 2;
  const RunOutcome reference = run_flow(opt, 17, nullptr, nullptr);
  std::vector<ExplorationCheckpoint> snapshots;
  (void)run_flow(opt, 17, &snapshots, nullptr);
  ASSERT_EQ(snapshots.size(), opt.anneal.stages);
  const ExplorationCheckpoint& odd = snapshots[2];
  ASSERT_EQ(odd.done_stages, 3u);
  ASSERT_EQ(odd.round, 1u);  // the stage-2 exchange round is folded in
  ASSERT_EQ(odd.chains.size(), 3u);
  const RunOutcome resumed = run_flow(opt, 17, nullptr, &odd);
  expect_bitwise_equal(reference, resumed);
}

TEST(AnnealCheckpoint, ResumeFromEveryEarlySnapshotMatches) {
  // Not just the midpoint: the first snapshots cover the coldest caches
  // (a warm field one stage old, normalizers fresh from begin()).
  const FloorplannerOptions opt = fast_options();
  const RunOutcome reference = run_flow(opt, 23, nullptr, nullptr);
  std::vector<ExplorationCheckpoint> snapshots;
  (void)run_flow(opt, 23, &snapshots, nullptr);
  ASSERT_GE(snapshots.size(), 3u);
  for (std::size_t i : {std::size_t{0}, std::size_t{1}}) {
    const RunOutcome resumed = run_flow(opt, 23, nullptr, &snapshots[i]);
    expect_bitwise_equal(reference, resumed);
  }
}

TEST(AnnealCheckpoint, ResumeFromFinalSnapshotRunsZeroStages) {
  const FloorplannerOptions opt = fast_options();
  const RunOutcome reference = run_flow(opt, 29, nullptr, nullptr);
  std::vector<ExplorationCheckpoint> snapshots;
  (void)run_flow(opt, 29, &snapshots, nullptr);
  ASSERT_FALSE(snapshots.empty());
  const RunOutcome resumed =
      run_flow(opt, 29, nullptr, &snapshots.back());
  expect_bitwise_equal(reference, resumed);
  EXPECT_EQ(resumed.metrics.anneal.moves, reference.metrics.anneal.moves);
}

TEST(AnnealCheckpoint, ResumeRejectsChainShapeMismatch) {
  FloorplannerOptions opt = fast_options();
  std::vector<ExplorationCheckpoint> single;
  (void)run_flow(opt, 31, &single, nullptr);
  ASSERT_FALSE(single.empty());
  // The checkpoint's chain count must match the run's: a one-chain
  // snapshot fed to a three-chain run (and vice versa) is rejected
  // loudly, not silently misapplied.
  opt.chains.chains = 3;
  EXPECT_THROW((void)run_flow(opt, 31, nullptr, &single.front()),
               std::invalid_argument);
  std::vector<ExplorationCheckpoint> tempering;
  (void)run_flow(opt, 31, &tempering, nullptr);
  ASSERT_FALSE(tempering.empty());
  opt.chains.chains = 1;
  EXPECT_THROW((void)run_flow(opt, 31, nullptr, &tempering.front()),
               std::invalid_argument);
}

TEST(AnnealCheckpoint, LayoutRestoreValidatesMembership) {
  LayoutStateImage img;
  img.die_sp = {{{0, 1, 2}, {2, 0, 3}}};  // 3 is not a member of positive
  img.width = {{10.0, 10.0, 10.0}};
  img.height = {{10.0, 10.0, 10.0}};
  img.die_of = {0, 0, 0};
  EXPECT_THROW((void)restore_layout(img), std::invalid_argument);
}

}  // namespace
}  // namespace tsc3d::floorplan
