// google-benchmark microbenchmarks of the computational kernels: the
// sequence-pair packing, the SOR steady-state solve, the power-blurring
// estimate, the spatial entropy, and the Pearson correlation.  These
// bound the floorplanner's per-iteration costs.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "benchgen/generator.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/move_transaction.hpp"
#include "floorplan/sequence_pair.hpp"
#include "leakage/pearson.hpp"
#include "leakage/spatial_entropy.hpp"
#include "thermal/grid_solver.hpp"
#include "thermal/power_blur.hpp"

using namespace tsc3d;

namespace {

void BM_SequencePairPack(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::size_t> ids(n);
  std::vector<double> w(n), h(n);
  Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = i;
    w[i] = rng.uniform(1.0, 50.0);
    h[i] = rng.uniform(1.0, 50.0);
  }
  floorplan::SequencePair sp(ids);
  sp.shuffle(rng);
  for (auto _ : state) {
    const floorplan::Packing p =
        sp.pack([&](std::size_t id) { return w[id]; },
                [&](std::size_t id) { return h[id]; });
    benchmark::DoNotOptimize(p.width);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_SequencePairPack)
    ->Arg(50)->Arg(200)->Arg(800)->Arg(2000)->Arg(5000)->Complexity();

void BM_SteadyStateSolve(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  TechnologyConfig tech;
  tech.die_width_um = tech.die_height_um = 4000.0;
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = g;
  // Backends are pinned throughout this file: `auto` (the config
  // default) resolves per engine role, which would silently migrate a
  // benchmark's workload when defaults shift.  Here and in the
  // Cold/Warm pair below the subject is the SOR loop itself.
  cfg.solver = SolverBackend::sor;
  const thermal::GridSolver solver(tech, cfg);
  std::vector<GridD> power(2, GridD(g, g, 0.0));
  power[0].at(g / 2, g / 2) = 3.0;
  const GridD tsv(g, g, 0.1);
  for (auto _ : state) {
    const auto res = solver.solve_steady(power, tsv);
    benchmark::DoNotOptimize(res.peak_k);
  }
}
BENCHMARK(BM_SteadyStateSolve)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

/// Block-resolved power map: rectangular module footprints scaled with
/// the grid -- the shape the floorplanner's pack -> power_map path
/// actually emits.  (A single-cell point source is a harsher stress,
/// but its fine-grid log-singularity is unrepresentative and distorts
/// solver comparisons: half the temperature rise lives in the last
/// octave of resolution, which only fine-level relaxation can build.)
std::vector<GridD> block_power(std::size_t g) {
  std::vector<GridD> power(2, GridD(g, g, 0.0));
  const auto block = [&](std::size_t die, double fx, double fy, double fw,
                         double fh, double watts) {
    const auto x0 = static_cast<std::size_t>(fx * static_cast<double>(g));
    const auto y0 = static_cast<std::size_t>(fy * static_cast<double>(g));
    const auto w = static_cast<std::size_t>(fw * static_cast<double>(g));
    const auto h = static_cast<std::size_t>(fh * static_cast<double>(g));
    for (std::size_t y = y0; y < y0 + h; ++y)
      for (std::size_t x = x0; x < x0 + w; ++x)
        power[die].at(x, y) = watts / static_cast<double>(w * h);
  };
  block(0, 0.16, 0.16, 0.23, 0.19, 2.0);
  block(0, 0.55, 0.23, 0.16, 0.31, 1.5);
  block(0, 0.31, 0.63, 0.28, 0.16, 1.8);
  block(1, 0.08, 0.47, 0.19, 0.23, 1.2);
  block(1, 0.63, 0.63, 0.23, 0.23, 2.2);
  return power;
}

/// Field-cold SOR solves: the assembly/hierarchy is cached (primed once
/// before the loop) and every iteration solves from an ambient field via
/// Start::cold -- the cost a sampling or verify pass pays per fresh
/// layout whose TSV map is unchanged.  The whole cold-solve family
/// (Cold / Multigrid / Fmg) shares this discipline and the block_power
/// workload so the gated ratios compare backends, not workloads.
void BM_SolveSteadyCold(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  TechnologyConfig tech;
  tech.die_width_um = tech.die_height_um = 4000.0;
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = g;
  cfg.solver = SolverBackend::sor;  // the gated SOR reference
  thermal::ThermalEngine engine(tech, cfg);
  const auto power = block_power(g);
  const GridD tsv(g, g, 0.1);
  (void)engine.solve_steady(power, tsv);  // prime the assembly cache
  for (auto _ : state) {
    const auto res =
        engine.solve_steady(power, tsv, thermal::ThermalEngine::Start::cold);
    benchmark::DoNotOptimize(res.peak_k);
  }
}
BENCHMARK(BM_SolveSteadyCold)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

/// Multigrid solves from a flat ambient field with no FMG seed: plain
/// V-cycles, the PR 5 cold path, kept as the reference the FMG gate
/// measures against.  Every cold multigrid solve is FMG-seeded, so each
/// iteration installs an all-ambient field snapshot and warm-starts from
/// it -- the same arithmetic as a cold solve without the seed.  Cold
/// starts are exactly where SOR's smooth-error tail hurts most; CI gates
/// BM_SolveSteadyCold/128 / BM_SolveSteadyMultigrid/128 at >= 2x
/// (scripts/check_perf.py).
void BM_SolveSteadyMultigrid(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  TechnologyConfig tech;
  tech.die_width_um = tech.die_height_um = 4000.0;
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = g;
  cfg.solver = SolverBackend::multigrid;
  thermal::ThermalEngine engine(tech, cfg);
  const auto power = block_power(g);
  const GridD tsv(g, g, 0.1);
  (void)engine.solve_steady(power, tsv);  // prime assembly + hierarchy
  thermal::FieldSnapshot ambient = engine.save_field();
  std::fill(ambient.temp.begin(), ambient.temp.end(), cfg.ambient_k);
  for (auto _ : state) {
    engine.restore_field(ambient);
    const auto res = engine.solve_steady(power, tsv);  // warm from ambient
    benchmark::DoNotOptimize(res.peak_k);
  }
}
BENCHMARK(BM_SolveSteadyMultigrid)->Arg(64)->Arg(128)->Arg(192)->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// FMG-seeded field-cold multigrid solves (every cold multigrid solve
/// since PR 10): the FMG descent restricts the true rhs down the hierarchy,
/// solves the coarsest level near-exactly, and ascends with two V-cycles
/// per level, leaving an initial guess at ~truncation error that the
/// fine V-cycle loop finishes in ~2 cycles instead of 6-9.  The edge
/// over plain V-cycles widens with the grid because the seed is
/// truncation-limited while the stopping tolerance is fixed.  CI gates
/// BM_SolveSteadyMultigrid/256 / BM_SolveSteadyFmg/256 at >= 2x
/// (scripts/check_perf.py).
void BM_SolveSteadyFmg(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  TechnologyConfig tech;
  tech.die_width_um = tech.die_height_um = 4000.0;
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = g;
  cfg.solver = SolverBackend::multigrid;
  thermal::ThermalEngine engine(tech, cfg);
  const auto power = block_power(g);
  const GridD tsv(g, g, 0.1);
  (void)engine.solve_steady(power, tsv);  // prime assembly + hierarchy
  for (auto _ : state) {
    const auto res =
        engine.solve_steady(power, tsv, thermal::ThermalEngine::Start::cold);
    benchmark::DoNotOptimize(res.peak_k);
  }
}
BENCHMARK(BM_SolveSteadyFmg)->Arg(64)->Arg(128)->Arg(192)->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// Stiff transient stepping, SOR vs multigrid-preconditioned implicit
/// Euler.  Large steps relative to the thermal RC make each implicit
/// solve as hard as a steady solve, which is exactly where per-step SOR
/// drowns in sweeps and a V-cycle on (G + C/dt) pays off.  mg:0 runs the
/// plain SOR per-step loop, mg:1 the (bitwise-deterministic) V-cycle
/// path with its opening-sweep fast path.  CI gates mg:0 / mg:1 at
/// >= 2x (scripts/check_perf.py).
void BM_TransientStiff(benchmark::State& state) {
  const bool mg = state.range(0) != 0;
  constexpr std::size_t g = 64;
  TechnologyConfig tech;
  tech.die_width_um = tech.die_height_um = 4000.0;
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = g;
  cfg.solver = mg ? SolverBackend::multigrid : SolverBackend::sor;
  thermal::ThermalEngine engine(tech, cfg);
  const auto power = block_power(g);
  const GridD tsv(g, g, 0.1);
  for (auto _ : state) {
    engine.reset();  // fresh field: every step solved from scratch
    const auto res =
        engine.solve_transient([&](double) { return power; }, tsv, 1.0, 0.25);
    benchmark::DoNotOptimize(res.final_state.peak_k);
  }
}
BENCHMARK(BM_TransientStiff)->ArgName("mg")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Scalar vs AVX2 red-black sweep kernel on a fixed 160-sweep budget
/// (identical work either way -- the kernels are bitwise equal, so the
/// stopping rule cannot diverge and the ratio is pure kernel speed).
/// simd:1 is skipped on hosts without AVX2.  CI gates simd:0 / simd:1
/// at >= 1.05x (scripts/check_perf.py).
void BM_SweepKernel(benchmark::State& state) {
  const bool simd = state.range(0) != 0;
  if (simd && !thermal::sweep_simd_available()) {
    state.SkipWithError("AVX2 not available on this host");
    return;
  }
  // 64x64 keeps the working set L2-resident: the sweep is memory-bound
  // at larger grids, where any kernel measures the DRAM interface.
  constexpr std::size_t g = 64;
  TechnologyConfig tech;
  tech.die_width_um = tech.die_height_um = 4000.0;
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = g;
  cfg.solver = SolverBackend::sor;
  cfg.max_iterations = 160;  // fixed sweep budget ...
  cfg.tolerance_k = 0.0;     // ... the stopping rule can never cut short
  thermal::ThermalEngine engine(tech, cfg);
  const auto power = block_power(g);
  const GridD tsv(g, g, 0.1);
  const bool prev = thermal::sweep_simd_enabled();
  thermal::set_sweep_simd(simd);
  for (auto _ : state) {
    const auto res = engine.solve_steady(power, tsv);
    benchmark::DoNotOptimize(res.peak_k);
  }
  thermal::set_sweep_simd(prev);
}
BENCHMARK(BM_SweepKernel)->ArgName("simd")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Warm-started ThermalEngine solves over a jittering power map -- the
/// annealing/sampling-loop workload: cached assembly plus the previous
/// field as the initial guess.
void BM_SolveSteadyWarm(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  TechnologyConfig tech;
  tech.die_width_um = tech.die_height_um = 4000.0;
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = g;
  cfg.solver = SolverBackend::sor;  // the gated warm-vs-cold SOR pair
  thermal::ThermalEngine engine(tech, cfg);
  auto power = block_power(g);
  const GridD tsv(g, g, 0.1);
  (void)engine.solve_steady(power, tsv);  // prime assembly + field
  Rng rng(7);
  for (auto _ : state) {
    // Perturb one bin per solve, like a single annealing move would; the
    // bin is restored afterwards so the workload cannot drift (erasing
    // the hotspot would let warm solves degenerate to ~1 sweep).
    const std::size_t ix = rng.index(g), iy = rng.index(g);
    const double saved = power[0].at(ix, iy);
    power[0].at(ix, iy) = saved + rng.uniform(0.0, 0.2);
    const auto res = engine.solve_steady(power, tsv);
    benchmark::DoNotOptimize(res.peak_k);
    power[0].at(ix, iy) = saved;
  }
}
BENCHMARK(BM_SolveSteadyWarm)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

/// Sharded-sweep scaling: a fixed-work steady solve (the tolerance is
/// unreachable, so every solve runs exactly max_iterations red-black
/// sweeps) on a 128x128 grid, with the row ranges of each color sharded
/// across `threads:N` workers.  Threaded results are bitwise identical
/// to serial, so this isolates pure sweep scaling; CI gates the
/// threads:1 / threads:4 ratio at >= 1.8x (scripts/check_perf.py).
void BM_SolveSteadySharded(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t g = 128;
  TechnologyConfig tech;
  tech.die_width_um = tech.die_height_um = 4000.0;
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = g;
  cfg.max_iterations = 40;   // fixed sweep budget ...
  cfg.tolerance_k = 0.0;     // ... the stopping rule can never cut short
  cfg.solver = SolverBackend::sor;  // fixed budget only makes sense in sweeps
  thermal::ThermalEngine engine(tech, cfg, {.threads = threads});
  std::vector<GridD> power(2, GridD(g, g, 0.0));
  power[0].at(g / 2, g / 2) = 3.0;
  const GridD tsv(g, g, 0.1);
  for (auto _ : state) {
    const auto res = engine.solve_steady(power, tsv);
    benchmark::DoNotOptimize(res.peak_k);
  }
}
BENCHMARK(BM_SolveSteadySharded)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PowerBlurEstimate(benchmark::State& state) {
  TechnologyConfig tech;
  tech.die_width_um = tech.die_height_um = 4000.0;
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 32;
  thermal::ThermalEngine engine(tech, cfg);
  const thermal::PowerBlur blur(engine, 10);
  Floorplan3D fp = benchgen::generate("n100", 1);
  Rng rng(1);
  floorplan::LayoutState s = floorplan::LayoutState::initial(fp, rng);
  s.apply_to(fp);
  const std::vector<GridD> power{fp.power_map(0, 32, 32),
                                 fp.power_map(1, 32, 32)};
  const GridD tsv = fp.tsv_density_map(32, 32);
  for (auto _ : state) {
    const auto t = blur.estimate(power, tsv);
    benchmark::DoNotOptimize(t[0][0]);
  }
}
BENCHMARK(BM_PowerBlurEstimate)->Unit(benchmark::kMillisecond);

void BM_SpatialEntropy(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  GridD power(g, g, 0.0);
  Rng rng(2);
  for (auto& v : power) v = rng.lognormal(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(leakage::spatial_entropy(power));
  }
}
BENCHMARK(BM_SpatialEntropy)->Arg(32)->Arg(64);

/// 32^2 power maps as the TSC flow scores them: generated n100 designs 1
/// and 2, each sampled after every stage of a short TSC-weighted anneal
/// (4,000 moves in 8 stages, thermal refresh every 10th move), both dies:
/// 32 maps of ~29 classes, ~290 distinct values and ~350 zero bins on
/// average.  Unlike BM_SpatialEntropy's lognormal map they hold runs of
/// zero bins and repeated module densities, so the sort and the class
/// count are the flow's.  Built once per process.
const std::vector<GridD>& flow_power_maps() {
  static const std::vector<GridD> maps = [] {
    std::vector<GridD> out;
    for (const std::uint64_t design : {1u, 2u}) {
      Floorplan3D fp = benchgen::generate("n100", design);
      ThermalConfig cfg;
      cfg.grid_nx = cfg.grid_ny = 32;
      thermal::ThermalEngine engine(fp.tech(), cfg, {},
                                    thermal::EngineRole::fast_loop);
      floorplan::CostEvaluator::Options eval_opt;
      eval_opt.weights = floorplan::tsc_aware_weights();
      eval_opt.leakage_grid = 32;
      eval_opt.cross_check_interval = 0;
      floorplan::CostEvaluator eval(fp, engine, eval_opt);
      floorplan::AnnealOptions aopt;
      aopt.total_moves = 4000;
      aopt.stages = 8;
      aopt.thermal_eval_interval = 10;
      floorplan::Annealer annealer(fp, eval, aopt);
      Rng rng(design);
      floorplan::LayoutState s = floorplan::LayoutState::initial(fp, rng);
      floorplan::AnnealSession session = annealer.begin(s, rng);
      while (annealer.run_stage(session, rng))
        for (std::size_t d = 0; d < fp.tech().num_dies; ++d)
          out.push_back(fp.power_map(d, 32, 32));
    }
    return out;
  }();
  return maps;
}

/// Eq. 3 over flow_power_maps(), one map per iteration in turn: the
/// layer view of flowbench's leakage.spatial_entropy.p50_us.
void BM_SpatialEntropyFlowMaps(benchmark::State& state) {
  const std::vector<GridD>& maps = flow_power_maps();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(leakage::spatial_entropy(maps[i]));
    i = (i + 1) % maps.size();
  }
}
BENCHMARK(BM_SpatialEntropyFlowMaps)->Unit(benchmark::kMicrosecond);

void BM_Pearson(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  GridD a(g, g), b(g, g);
  Rng rng(3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.uniform();
    b[i] = rng.uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(leakage::pearson(a, b));
  }
}
BENCHMARK(BM_Pearson)->Arg(32)->Arg(64);

void BM_CheapCostEvaluation(benchmark::State& state) {
  TechnologyConfig tech;
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 32;
  Floorplan3D fp = benchgen::generate("n100", 1);
  thermal::ThermalEngine engine(fp.tech(), cfg, {},
                                thermal::EngineRole::fast_loop);
  floorplan::CostEvaluator::Options opt;
  opt.leakage_grid = 32;
  floorplan::CostEvaluator eval(fp, engine, opt);
  Rng rng(1);
  floorplan::LayoutState s = floorplan::LayoutState::initial(fp, rng);
  s.apply_to(fp);
  benchmark::DoNotOptimize(eval.evaluate_cheap().total);  // prime caches
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate_cheap().total);
  }
}
BENCHMARK(BM_CheapCostEvaluation)->Unit(benchmark::kMicrosecond);

/// The n800 scale instance the incremental-evaluation gate runs on:
/// GSRC-style, all soft, net/terminal/outline/power densities on the
/// n300 -> n1000 trend (see benchgen::scale_specs).
const benchgen::BenchmarkSpec& n800_spec() {
  static const benchgen::BenchmarkSpec spec{"n800",  0,     800, 10.0,
                                            5040,    600,   61.44, 34.8};
  return spec;
}

/// The annealer's cheap-evaluation inner loop at n800: real proposal
/// moves (run_stage with a huge full-eval interval, so every move is
/// move -> stage -> evaluate_cheap -> Metropolis -> commit or rollback).
/// items_per_second is annealing moves per second; scripts/check_perf.py
/// gates its absolute moves/sec (--min-moves-per-sec).
///
/// The "incremental:1" argument names no option any more: it keeps the
/// benchmark name BENCH_pr10.json records, so the gates and the drift
/// check against that baseline still find the entry.  The same holds
/// for BM_CheapEval/incremental:1 and BM_AnnealStepReject/transactional:1.
void BM_AnnealStepCheap(benchmark::State& state) {
  Floorplan3D fp = benchgen::generate(n800_spec(), 1);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 32;
  thermal::ThermalEngine engine(fp.tech(), cfg, {},
                                thermal::EngineRole::fast_loop);
  floorplan::CostEvaluator::Options eval_opt;
  eval_opt.leakage_grid = 32;
  eval_opt.cross_check_interval = 0;  // measure the pipeline, not the guard
  floorplan::CostEvaluator eval(fp, engine, eval_opt);

  constexpr std::size_t kMovesPerStage = 16;
  floorplan::AnnealOptions aopt;
  aopt.stages = 1u << 26;  // never exhausted within the benchmark
  aopt.total_moves = aopt.stages * kMovesPerStage;
  aopt.full_eval_interval = ~std::size_t{0};  // cheap evals only
  aopt.thermal_eval_interval = 0;
  floorplan::Annealer annealer(fp, eval, aopt);

  Rng rng(1);
  floorplan::LayoutState s = floorplan::LayoutState::initial(fp, rng);
  floorplan::AnnealSession session = annealer.begin(s, rng);
  for (auto _ : state) {
    annealer.run_stage(session, rng);
    // Hand DoNotOptimize a dead copy, never live annealer state: the
    // lvalue overload's read-write "+m,r" asm constraint can write the
    // value back through a scratch register (observed corrupting
    // session.current.total under GCC 12, which sent the Metropolis
    // loop into a reject-everything spiral and halved the measurement).
    double observed_total = session.current.total;
    benchmark::DoNotOptimize(observed_total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kMovesPerStage));
}
BENCHMARK(BM_AnnealStepCheap)
    ->ArgName("incremental")->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Cheap-evaluation throughput at n800.  Each iteration proposes and
/// applies a real layout perturbation (an intra-die sequence swap or a
/// rotate, the annealer's dominant move kinds) with the timer PAUSED,
/// then times only evaluate_cheap(), which recomputes the dirty nets and
/// re-sums in canonical order.  scripts/check_perf.py holds
/// BM_CheapEval/incremental:1 to the committed baseline (drift check).
void cheap_eval_loop(benchmark::State& state,
                     const floorplan::CostWeights& weights) {
  Floorplan3D fp = benchgen::generate(n800_spec(), 1);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 32;
  thermal::ThermalEngine engine(fp.tech(), cfg, {},
                                thermal::EngineRole::fast_loop);
  floorplan::CostEvaluator::Options eval_opt;
  eval_opt.weights = weights;
  eval_opt.leakage_grid = 32;
  eval_opt.cross_check_interval = 0;  // measure the pipeline, not the guard
  floorplan::CostEvaluator eval(fp, engine, eval_opt);
  Rng rng(1);
  floorplan::LayoutState s = floorplan::LayoutState::initial(fp, rng);
  s.apply_to(fp);
  benchmark::DoNotOptimize(eval.evaluate_cheap().total);  // prime caches
  for (auto _ : state) {
    state.PauseTiming();
    if (rng.uniform() < 0.8) {
      floorplan::SequencePair& sp = s.die_sp[rng.index(s.die_sp.size())];
      const std::size_t i = rng.index(sp.size());
      std::size_t j = rng.index(sp.size() - 1);
      if (j >= i) ++j;
      sp.swap_both(sp.positive()[i], sp.positive()[j]);
      s.touch_die(s.die_of[sp.positive()[i]]);
    } else {
      const std::size_t id = rng.index(s.width.size());
      std::swap(s.width[id], s.height[id]);
      s.touch_die(s.die_of[id]);
    }
    s.apply_to(fp);
    state.ResumeTiming();
    benchmark::DoNotOptimize(eval.evaluate_cheap().total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_CheapEval(benchmark::State& state) {
  cheap_eval_loop(state, floorplan::power_aware_weights());
}
BENCHMARK(BM_CheapEval)
    ->ArgName("incremental")->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/// BM_CheapEval/incremental:1 under the TSC-aware weights: the entropy
/// term is on, so every evaluate_cheap() also builds each die's power
/// map and rescores the Eq. 3 spatial entropy of the die the move
/// changed (the evaluator's memo serves the other) -- the per-move
/// leakage cost of the TSC flow, which the default-weight benches never
/// pay.  Not gated.
void BM_CheapEvalTsc(benchmark::State& state) {
  cheap_eval_loop(state, floorplan::tsc_aware_weights());
}
BENCHMARK(BM_CheapEvalTsc)->Unit(benchmark::kMicrosecond);

/// One-module perturbation -> hpwl_cached(): the dirty-net recompute plus
/// the canonical re-sum, i.e. the per-move wirelength cost of the
/// incremental pipeline.
void BM_IncrementalHpwl(benchmark::State& state) {
  Floorplan3D fp = benchgen::generate(n800_spec(), 1);
  Rng rng(1);
  floorplan::LayoutState s = floorplan::LayoutState::initial(fp, rng);
  s.apply_to(fp);
  benchmark::DoNotOptimize(fp.hpwl_cached());  // prime the per-net cache
  double delta = 0.25;
  for (auto _ : state) {
    const std::size_t id = rng.index(fp.modules().size());
    fp.modules()[id].shape.x += delta;
    delta = -delta;  // alternate so the layout cannot drift
    fp.note_module_moved(id);
    benchmark::DoNotOptimize(fp.hpwl_cached());
  }
}
BENCHMARK(BM_IncrementalHpwl)->Unit(benchmark::kMicrosecond);

/// The same perturbation through the full rescan -- the baseline
/// BM_IncrementalHpwl replaces (reported for context).
void BM_FullHpwl(benchmark::State& state) {
  Floorplan3D fp = benchgen::generate(n800_spec(), 1);
  Rng rng(1);
  floorplan::LayoutState s = floorplan::LayoutState::initial(fp, rng);
  s.apply_to(fp);
  double delta = 0.25;
  for (auto _ : state) {
    const std::size_t id = rng.index(fp.modules().size());
    fp.modules()[id].shape.x += delta;
    delta = -delta;
    benchmark::DoNotOptimize(fp.hpwl());
  }
}
BENCHMARK(BM_FullHpwl)->Unit(benchmark::kMicrosecond);

/// The reject path in isolation at n800: a forced-reject move stream
/// where every iteration proposes a real intra-die swap, stages it
/// through MoveTransaction, prices it with evaluate_cheap(), and rolls
/// it back: rollback restores the journaled cache cells and the die
/// versions, so the next apply_to() skips the rejected die outright.
/// Consecutive moves alternate dies deterministically, pricing the
/// common D-die case.  scripts/check_perf.py holds it to the committed
/// baseline (drift check).
void BM_AnnealStepReject(benchmark::State& state) {
  Floorplan3D fp = benchgen::generate(n800_spec(), 1);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 32;
  thermal::ThermalEngine engine(fp.tech(), cfg, {},
                                thermal::EngineRole::fast_loop);
  floorplan::CostEvaluator::Options eval_opt;
  eval_opt.leakage_grid = 32;
  eval_opt.cross_check_interval = 0;  // measure the pipeline, not the guard
  floorplan::CostEvaluator eval(fp, engine, eval_opt);
  Rng rng(1);
  floorplan::LayoutState s = floorplan::LayoutState::initial(fp, rng);
  s.apply_to(fp);
  benchmark::DoNotOptimize(eval.evaluate_cheap().total);  // prime caches
  floorplan::MoveTransaction txn(fp, eval);
  std::size_t next_die = 0;
  for (auto _ : state) {
    floorplan::MoveRecord rec;
    rec.kind = floorplan::MoveRecord::Kind::swap_both;
    rec.die_a = next_die;
    next_die = (next_die + 1) % s.die_sp.size();
    floorplan::SequencePair& sp = s.die_sp[rec.die_a];
    const std::size_t i = rng.index(sp.size());
    std::size_t j = rng.index(sp.size() - 1);
    if (j >= i) ++j;
    rec.module_a = sp.positive()[i];
    rec.module_b = sp.positive()[j];
    txn.open(s);
    sp.swap_both(rec.module_a, rec.module_b);
    s.touch_die(rec.die_a);
    txn.stage();
    benchmark::DoNotOptimize(eval.evaluate_cheap().total);
    txn.rollback(rec);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AnnealStepReject)
    ->ArgName("transactional")->Arg(1)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

/// The bare transaction bracket at n800: open -> mutate -> stage ->
/// rollback with no evaluation in between, i.e. the journaling +
/// dirty-die repack + bitwise restore a speculative move costs before
/// any cost term is read.  Reported for context.
void BM_TrialMove(benchmark::State& state) {
  Floorplan3D fp = benchgen::generate(n800_spec(), 1);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 32;
  thermal::ThermalEngine engine(fp.tech(), cfg, {},
                                thermal::EngineRole::fast_loop);
  floorplan::CostEvaluator::Options eval_opt;
  eval_opt.leakage_grid = 32;
  eval_opt.cross_check_interval = 0;
  floorplan::CostEvaluator eval(fp, engine, eval_opt);
  Rng rng(1);
  floorplan::LayoutState s = floorplan::LayoutState::initial(fp, rng);
  s.apply_to(fp);
  benchmark::DoNotOptimize(eval.evaluate_cheap().total);  // prime caches
  floorplan::MoveTransaction txn(fp, eval);
  for (auto _ : state) {
    floorplan::MoveRecord rec;
    rec.kind = floorplan::MoveRecord::Kind::swap_both;
    rec.die_a = rng.index(s.die_sp.size());
    floorplan::SequencePair& sp = s.die_sp[rec.die_a];
    const std::size_t i = rng.index(sp.size());
    std::size_t j = rng.index(sp.size() - 1);
    if (j >= i) ++j;
    rec.module_a = sp.positive()[i];
    rec.module_b = sp.positive()[j];
    txn.open(s);
    sp.swap_both(rec.module_a, rec.module_b);
    s.touch_die(rec.die_a);
    txn.stage();
    txn.rollback(rec);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TrialMove)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
