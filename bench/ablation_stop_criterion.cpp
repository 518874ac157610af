// Section 6.2/7.1 ablation: the dummy-TSV "sweet spot" stop criterion
// (insert only while the average correlation decreases) versus naive
// fixed-count insertion.  The paper observes that TSV insertion past the
// sweet spot stabilizes the correlation again through adverse side
// effects on previously decorrelated regions.
#include <iostream>

#include "bench_util.hpp"
#include "benchgen/generator.hpp"
#include "floorplan/annealer.hpp"
#include "leakage/activity.hpp"
#include "tsv/dummy_inserter.hpp"
#include "tsv/planner.hpp"

using namespace tsc3d;

namespace {

/// Average per-die sampled correlation of the current floorplan.
double sampled_correlation(const Floorplan3D& fp,
                           thermal::ThermalEngine& engine,
                           std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  const leakage::StabilitySampling s =
      leakage::run_stability_sampling(fp, engine, samples, rng);
  return bench::mean(s.mean_correlation);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed",
                                                         std::size_t{6}));
  const std::size_t samples = flags.get("samples", std::size_t{10});

  Floorplan3D base = benchgen::generate("n100", seed);
  Rng layout_rng(seed);
  floorplan::LayoutState state =
      floorplan::LayoutState::initial(base, layout_rng);
  state.apply_to(base);
  tsv::place_signal_tsvs(base);

  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 24;
  thermal::ThermalEngine engine(base.tech(), cfg);

  std::cout << "=== Sec. 6.2 ablation: sweet-spot stop vs fixed-count "
               "insertion ===\n\n";

  // --- variant A: sweet-spot criterion ---------------------------------
  Floorplan3D sweet = base;
  Rng rng_a(seed + 1);
  tsv::DummyInsertOptions opt;
  opt.samples_per_iteration = samples;
  opt.max_iterations = 10;
  opt.islands_per_iteration = 2;
  opt.tsvs_per_island = 16;
  const tsv::DummyInsertResult res_sweet =
      insert_dummy_tsvs(sweet, engine, rng_a, opt);

  // --- variant B: fixed large budget, no stop criterion -----------------
  // Emulated by inserting the same island size at the most stable bins
  // for the FULL iteration budget regardless of the correlation trend.
  Floorplan3D fixed = base;
  Rng rng_b(seed + 1);
  std::size_t fixed_tsvs = 0;
  {
    for (std::size_t iter = 0; iter < opt.max_iterations; ++iter) {
      const leakage::StabilitySampling s =
          leakage::run_stability_sampling(fixed, engine, samples, rng_b);
      // Pick the 2 most stable bins and insert unconditionally.
      GridD combined = s.stability[0];
      for (auto& v : combined) v = std::abs(v);
      for (std::size_t d = 1; d < s.stability.size(); ++d)
        for (std::size_t i = 0; i < combined.size(); ++i)
          combined[i] =
              std::max(combined[i], std::abs(s.stability[d][i]));
      for (int k = 0; k < 2; ++k) {
        std::size_t best = 0;
        for (std::size_t i = 0; i < combined.size(); ++i)
          if (combined[i] > combined[best]) best = i;
        combined[best] = -1.0;
        const double bw =
            fixed.tech().die_width_um / static_cast<double>(combined.nx());
        const double bh =
            fixed.tech().die_height_um / static_cast<double>(combined.ny());
        Tsv t;
        t.position = {(static_cast<double>(best % combined.nx()) + 0.5) * bw,
                      (static_cast<double>(best / combined.nx()) + 0.5) * bh};
        t.count = opt.tsvs_per_island;
        t.kind = TsvKind::dummy;
        fixed.tsvs().push_back(t);
        fixed_tsvs += t.count;
      }
    }
  }

  const double corr_base =
      sampled_correlation(base, engine, samples, seed + 50);
  const double corr_sweet =
      sampled_correlation(sweet, engine, samples, seed + 50);
  const double corr_fixed =
      sampled_correlation(fixed, engine, samples, seed + 50);

  bench::Table table(
      {"variant", "dummy TSVs", "avg sampled correlation", "vs base"});
  table.add("no insertion", std::size_t{0}, corr_base, bench::fmt(0.0, 1));
  table.add("sweet-spot stop", res_sweet.tsvs_inserted, corr_sweet,
            bench::fmt(100.0 * (corr_sweet - corr_base) / corr_base, 1) +
                " %");
  table.add("fixed budget", fixed_tsvs, corr_fixed,
            bench::fmt(100.0 * (corr_fixed - corr_base) / corr_base, 1) +
                " %");
  table.print();

  std::cout << "\nsweet-spot insertion uses "
            << res_sweet.tsvs_inserted << " TSVs vs " << fixed_tsvs
            << " for the fixed budget.\n";
  const bool efficient =
      corr_sweet <= corr_base + 1e-9 &&
      res_sweet.tsvs_inserted <= fixed_tsvs;
  std::cout << "sweet-spot variant achieves its reduction with fewer TSVs: "
            << (efficient ? "YES" : "NO") << "\n";
  return efficient ? 0 : 1;
}
