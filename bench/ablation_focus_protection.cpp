// Section 7.1 variant: "Alternatively, we may adapt that stage to focus
// on reducing the correlation stability primarily for the critical
// module(s) to be protected from TSC attacks, and to accept more stable
// correlations elsewhere."
//
// This harness compares chip-wide dummy-TSV insertion with insertion
// focused on a critical (crypto) module's neighbourhood, reporting the
// local correlation stability at the module and the TSV budget spent.
#include <iostream>

#include "bench_util.hpp"
#include "benchgen/generator.hpp"
#include "floorplan/annealer.hpp"
#include "leakage/activity.hpp"
#include "tsv/dummy_inserter.hpp"
#include "tsv/planner.hpp"

using namespace tsc3d;

namespace {

/// Mean |stability| inside the given die-0 region.
double local_stability(const Floorplan3D& fp,
                       thermal::ThermalEngine& engine, const Rect& region,
                       std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  const leakage::StabilitySampling s =
      leakage::run_stability_sampling(fp, engine, samples, rng);
  const GridD& map = s.stability[0];
  const double bw =
      fp.tech().die_width_um / static_cast<double>(map.nx());
  const double bh =
      fp.tech().die_height_um / static_cast<double>(map.ny());
  double sum = 0.0;
  std::size_t cnt = 0;
  for (std::size_t iy = 0; iy < map.ny(); ++iy) {
    for (std::size_t ix = 0; ix < map.nx(); ++ix) {
      const Point c{(static_cast<double>(ix) + 0.5) * bw,
                    (static_cast<double>(iy) + 0.5) * bh};
      if (region.contains(c)) {
        sum += std::abs(map.at(ix, iy));
        ++cnt;
      }
    }
  }
  return cnt > 0 ? sum / static_cast<double>(cnt) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed",
                                                         std::size_t{9}));
  const std::size_t samples = flags.get("samples", std::size_t{10});

  // A design whose module 0 is the hot critical core.
  benchgen::BenchmarkSpec spec;
  spec.name = "focus";
  spec.soft_modules = 32;
  spec.num_nets = 64;
  spec.num_terminals = 8;
  spec.outline_mm2 = 9.0;
  spec.power_w = 3.0;
  Floorplan3D base = benchgen::generate(spec, seed);
  base.modules()[0].power_w *= 8.0;
  Rng layout_rng(seed);
  floorplan::LayoutState state =
      floorplan::LayoutState::initial(base, layout_rng);
  state.apply_to(base);
  tsv::place_signal_tsvs(base);
  // Critical region: the core's rectangle grown by 400 um.
  Rect region = base.modules()[0].shape;
  region.x -= 400.0;
  region.y -= 400.0;
  region.w += 800.0;
  region.h += 800.0;

  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 24;
  thermal::ThermalEngine engine(base.tech(), cfg);

  std::cout << "=== Sec. 7.1 variant: chip-wide vs focused dummy TSVs ===\n";
  std::cout << "critical module: " << base.modules()[0].name << " on die "
            << base.modules()[0].die << ", region " << region << "\n\n";

  const double stab_before =
      local_stability(base, engine, region, samples, seed + 1);

  bench::Table table({"variant", "dummy TSVs", "local |stability|",
                      "local reduction"});
  table.add("no insertion", std::size_t{0}, stab_before,
            bench::fmt(0.0, 1) + " %");

  for (const bool focused : {false, true}) {
    Floorplan3D fp = base;
    Rng rng(seed + 2);
    tsv::DummyInsertOptions opt;
    opt.samples_per_iteration = samples;
    opt.max_iterations = 8;
    if (focused) opt.focus_regions.push_back(region);
    const tsv::DummyInsertResult res =
        insert_dummy_tsvs(fp, engine, rng, opt);
    const double stab =
        local_stability(fp, engine, region, samples, seed + 1);
    table.add(focused ? "focused on critical module" : "chip-wide",
              res.tsvs_inserted, stab,
              bench::fmt(100.0 * (stab_before - stab) / stab_before, 1) +
                  " %");
  }
  table.print();

  std::cout << "\nfocused insertion concentrates the stability reduction on "
               "the module an attacker would monitor, trading chip-wide "
               "coverage for a smaller TSV budget.\n";
  return 0;
}
