#include "tsv/dummy_inserter.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tsc3d::tsv {

namespace {

/// Combined |stability| over all dies per bin: TSVs act on the whole
/// stack, so insertion targets the bin whose correlation is most stable
/// anywhere in the column.
GridD combined_stability(const leakage::StabilitySampling& s) {
  GridD combined = s.stability.front();
  for (auto& v : combined) v = std::abs(v);
  for (std::size_t d = 1; d < s.stability.size(); ++d) {
    for (std::size_t i = 0; i < combined.size(); ++i)
      combined[i] = std::max(combined[i], std::abs(s.stability[d][i]));
  }
  return combined;
}

double average(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

}  // namespace

DummyInsertResult insert_dummy_tsvs(Floorplan3D& fp,
                                    thermal::ThermalEngine& engine,
                                    Rng& rng,
                                    const DummyInsertOptions& options) {
  DummyInsertResult result;
  const std::size_t nx = engine.nx();
  const std::size_t ny = engine.ny();
  const double bw = fp.tech().die_width_um / static_cast<double>(nx);
  const double bh = fp.tech().die_height_um / static_cast<double>(ny);

  // Common random numbers: every sampling campaign reuses the same
  // activity draws, so the before/after correlation comparison is paired
  // and the stop criterion reacts to the TSVs, not to sampling noise.
  const std::uint64_t sampling_seed = rng();
  auto sample = [&]() {
    Rng paired(sampling_seed);
    return leakage::run_stability_sampling(
        fp, engine, options.samples_per_iteration, paired);
  };

  leakage::StabilitySampling sampling = sample();
  double best_corr = average(sampling.mean_correlation);
  result.correlation_before = best_corr;
  result.stability_before = average(sampling.mean_abs_stability);
  result.correlation_history.push_back(best_corr);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Rank bins by combined stability; take the strongest unsaturated
    // bins inside the focus region (if any).
    const GridD stability = combined_stability(sampling);
    const GridD density = fp.tsv_density_map(nx, ny);
    std::vector<std::size_t> order(stability.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return stability[a] > stability[b];
    });

    const std::size_t before_size = fp.tsvs().size();
    std::size_t added = 0;
    for (const std::size_t bin : order) {
      if (added >= options.islands_per_iteration) break;
      if (density[bin] > options.saturation) continue;
      const std::size_t ix = bin % nx;
      const std::size_t iy = bin / nx;
      const Point center{(static_cast<double>(ix) + 0.5) * bw,
                         (static_cast<double>(iy) + 0.5) * bh};
      if (!options.focus_regions.empty()) {
        const bool inside = std::any_of(
            options.focus_regions.begin(), options.focus_regions.end(),
            [&](const Rect& r) { return r.contains(center); });
        if (!inside) continue;
      }
      Tsv t;
      t.position = center;
      t.count = options.tsvs_per_island;
      t.kind = TsvKind::dummy;
      fp.tsvs().push_back(t);
      ++added;
    }
    if (added == 0) break;  // nothing insertable left

    leakage::StabilitySampling next = sample();
    const double corr = average(next.mean_correlation);
    result.correlation_history.push_back(corr);
    ++result.iterations;

    if (corr >= best_corr) {
      // Sweet spot passed: roll back the last batch and stop (Sec. 6.2).
      fp.tsvs().resize(before_size);
      break;
    }
    best_corr = corr;
    sampling = std::move(next);
    result.islands_inserted += added;
    result.tsvs_inserted += added * options.tsvs_per_island;
  }

  result.correlation_after = best_corr;
  result.stability_after = average(sampling.mean_abs_stability);
  return result;
}

}  // namespace tsc3d::tsv
