// Byte-layout pins for the three service artifacts: a checkpoint, a
// cached exploration result and a scenario result.  Each test hand-builds
// a record whose every field holds a distinct nonzero value -- so a
// swapped, dropped or duplicated field changes the bytes, which the
// real-run fixtures elsewhere (many fields 0) would not show -- writes
// it, and checks the FNV-1a digest of the whole file against a constant.
// A changed constant is a format change: bump the artifact's format
// version (service/version.hpp) and record the new constant.  Each file
// must also load back to exactly the record written.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/scenario_io.hpp"
#include "floorplan/exploration_checkpoint.hpp"
#include "service/checkpoint_io.hpp"
#include "service/result_io.hpp"
#include "service/serialize.hpp"

namespace tsc3d::service {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::uint64_t file_digest(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return fnv1a64(ss.str());
}

/// Hands out a fresh value per field, in the order the fields are filled.
struct Distinct {
  double x = 0.0;
  std::uint64_t n = 0;
  double f() { return x += 0.375; }
  std::uint64_t u() { return ++n; }
};

ArtifactContext context(Distinct& d) {
  ArtifactContext ctx;
  ctx.design_hash = 0xd00d0000 + d.u();
  ctx.config_hash = 0xc0f90000 + d.u();
  ctx.seed = d.u();
  ctx.code_version = "golden-code";
  return ctx;
}

Rng::State rng_state(Distinct& d) {
  Rng::State st;
  for (std::uint64_t& s : st.s) s = 0x5eed000000 + d.u();
  st.cached_gaussian = d.f();
  st.has_cached_gaussian = true;
  return st;
}

floorplan::CostBreakdown breakdown(Distinct& d) {
  floorplan::CostBreakdown c;
  c.bbox_area_ratio = d.f();
  c.outline_penalty = d.f();
  c.wirelength_um = d.f();
  c.delay_ns = d.f();
  c.peak_k_rise = d.f();
  c.power_w = d.f();
  c.num_volumes = d.f();
  c.power_gradient = d.f();
  c.correlation = {d.f(), d.f()};
  c.entropy = {d.f(), d.f()};
  c.total = d.f();
  c.fits_outline = true;
  return c;
}

floorplan::AnnealStats stats(Distinct& d) {
  floorplan::AnnealStats s;
  s.moves = d.u();
  s.accepted = d.u();
  s.full_evals = d.u();
  s.repair_moves = d.u();
  s.initial_temperature = d.f();
  s.best_cost = d.f();
  s.found_legal = true;
  s.best_breakdown = breakdown(d);
  return s;
}

floorplan::LayoutStateImage layout(Distinct& d) {
  floorplan::LayoutStateImage img;
  img.die_sp.push_back({{d.u(), d.u()}, {d.u(), d.u()}});
  img.die_sp.push_back({{d.u()}, {d.u()}});
  img.width = {d.f(), d.f(), d.f()};
  img.height = {d.f(), d.f(), d.f()};
  img.die_of = {d.u(), d.u(), d.u()};
  return img;
}

floorplan::ChainCheckpoint chain(Distinct& d) {
  floorplan::ChainCheckpoint c;
  c.state = layout(d);
  c.best = layout(d);
  c.progress.current = breakdown(d);
  c.progress.best_cost = breakdown(d);
  c.progress.best_legal = true;
  c.progress.initial_outline_weight = d.f();
  c.progress.temperature = d.f();
  c.progress.cooling = d.f();
  c.progress.total_moves = d.u();
  c.progress.moves_per_stage = d.u();
  c.progress.annealed_stages = d.u();
  c.progress.stage = d.u();
  c.progress.since_full = d.u();
  c.progress.since_thermal = d.u();
  c.progress.refresh_pending = true;
  c.progress.stats = stats(d);
  c.rng = rng_state(d);
  c.eval.outline_weight = d.f();
  floorplan::CostEvaluator::Resumable& e = c.eval.state;
  e.peak_rise = d.f();
  e.power = d.f();
  e.volumes = d.f();
  e.gradient = d.f();
  e.correlation = {d.f(), d.f()};
  e.entropy = {d.f(), d.f()};
  e.have_expensive = true;
  e.cheap_evals = d.u();
  e.norm.area = d.f();
  e.norm.wl = d.f();
  e.norm.delay = d.f();
  e.norm.peak = d.f();
  e.norm.power = d.f();
  e.norm.volumes = d.f();
  e.norm.corr = d.f();
  e.norm.entropy = d.f();
  e.norm.gradient = d.f();
  e.norm.ready = true;
  c.field.temp = {d.f(), d.f(), d.f(), d.f()};
  c.voltage_index = {d.u(), d.u(), d.u()};
  return c;
}

TEST(ArtifactGolden, CheckpointBytesArePinned) {
  Distinct d;
  const ArtifactContext ctx = context(d);
  floorplan::ExplorationCheckpoint ck;
  ck.clock_period_ns = d.f();
  ck.chains.push_back(chain(d));
  ck.chains.push_back(chain(d));
  ck.exchange_rng = rng_state(d);
  ck.done_stages = d.u();
  ck.round = d.u();
  ck.exchange.rounds = d.u();
  ck.exchange.attempts = d.u();
  ck.exchange.accepts = d.u();

  const fs::path file = fresh_dir("golden_ckp") / "a.ckp";
  save_checkpoint_file(file, ctx, ck);
  EXPECT_EQ(file_digest(file), 0x9f64247181011834ULL);
  const CheckpointLoad load = load_checkpoint_file(file, ctx);
  ASSERT_TRUE(load.ok) << load.reason;
  EXPECT_TRUE(load.checkpoint == ck);
}

TEST(ArtifactGolden, ResultBytesArePinned) {
  Distinct d;
  StoredResult res;
  res.context = context(d);
  res.legal = true;
  res.correlation = {d.f(), d.f()};
  res.entropy = {d.f(), d.f()};
  res.power_w = d.f();
  res.critical_delay_ns = d.f();
  res.wirelength_m = d.f();
  res.peak_k = d.f();
  res.signal_tsvs = d.u();
  res.dummy_tsvs = d.u();
  res.voltage_volumes = d.u();
  res.clock_period_ns = d.f();
  for (int i = 0; i < 3; ++i) {
    PlacedModule m;
    m.die = d.u();
    m.x = d.f();
    m.y = d.f();
    m.w = d.f();
    m.h = d.f();
    m.voltage_index = d.u();
    res.placement.push_back(m);
  }
  for (int i = 0; i < 2; ++i) {
    StoredTsv t;
    t.x = d.f();
    t.y = d.f();
    t.count = d.u();
    t.kind = d.u();
    t.net = d.u();
    res.tsvs.push_back(t);
  }
  res.final_rng = rng_state(d);

  const fs::path file = fresh_dir("golden_res") / "a.res";
  save_result_file(file, res);
  EXPECT_EQ(file_digest(file), 0x3c626682fc9cf647ULL);
  const ResultLoad load = load_result_file(file, &res.context);
  ASSERT_TRUE(load.ok) << load.reason;
  EXPECT_EQ(load.result, res);
}

TEST(ArtifactGolden, ScenarioBytesArePinned) {
  Distinct d;
  campaign::ScenarioResult res;
  res.context.exploration = context(d);
  res.context.attack = "golden-attack";
  res.context.mitigation = "golden-mitigation";
  res.context.flavor = "golden-flavor";
  res.context.params_hash = 0xa5a50000 + d.u();
  res.legal = true;
  res.wirelength_m = d.f();
  res.power_w = d.f();
  res.critical_delay_ns = d.f();
  res.peak_k = d.f();
  res.mitigation_overhead_w = d.f();
  res.mitigation_performance_loss = d.f();
  res.mitigation_peak_k = d.f();
  res.attack_success = d.f();
  res.pearson_abs_max = d.f();
  res.mi_max = d.f();
  res.svf = d.f();
  res.spatial_entropy_max = d.f();
  res.leakage = d.f();
  res.overhead = d.f();

  const fs::path file = fresh_dir("golden_scn") / "a.scn";
  campaign::save_scenario_file(file, res);
  EXPECT_EQ(file_digest(file), 0x267d7dfa8fdc56d4ULL);
  const campaign::ScenarioLoad load =
      campaign::load_scenario_file(file, &res.context);
  ASSERT_TRUE(load.ok) << load.reason;
  EXPECT_EQ(load.result, res);
}

}  // namespace
}  // namespace tsc3d::service
