#include "leakage/spatial_entropy.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace tsc3d::leakage {

namespace {

/// Mean and standard deviation of values[lo, hi).
std::pair<double, double> mean_std(const double* values, std::size_t lo,
                                   std::size_t hi) {
  const auto n = static_cast<double>(hi - lo);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  const double mean = sum / n;
  double var = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    const double d = values[i] - mean;
    var += d * d;
  }
  return {mean, std::sqrt(var / n)};
}

/// Nested means over the ascending values sorted[lo, hi): appends the
/// first index of every class but the first, in ascending order.  Each
/// class's values lie below the next class's first value, so a value's
/// class is the number of those first values at or below it.
void nested_means_recurse(const double* sorted, std::size_t lo,
                          std::size_t hi, std::size_t depth,
                          double std_floor, std::size_t max_depth,
                          std::vector<std::size_t>& splits) {
  if (hi - lo < 2 || depth >= max_depth) return;
  const auto [mean, sd] = mean_std(sorted, lo, hi);
  if (sd <= std_floor) return;
  // First element >= mean becomes the start of the upper class.
  const auto cut = static_cast<std::size_t>(
      std::lower_bound(sorted + lo, sorted + hi, mean) - sorted);
  if (cut == lo || cut == hi) return;  // degenerate: all on one side
  nested_means_recurse(sorted, lo, cut, depth + 1, std_floor, max_depth,
                       splits);
  splits.push_back(cut);
  nested_means_recurse(sorted, cut, hi, depth + 1, std_floor, max_depth,
                       splits);
}

/// The classes of all of sorted[0, n), n > 0.
void nested_means_splits(const double* sorted, std::size_t n,
                         const SpatialEntropyOptions& o,
                         std::vector<std::size_t>& splits) {
  splits.clear();
  const double std_floor = o.std_tolerance * mean_std(sorted, 0, n).second;
  nested_means_recurse(sorted, 0, n, 0, std_floor, o.max_depth, splits);
}

/// Ordered pair-distance sum  sum_x sum_x' cA[x] * cB[x'] * |x - x'|
/// over 1D coordinate histograms, in O(n) via B's prefix sums.
double ordered_pair_dist(const std::vector<double>& c_a,
                         const std::vector<double>& c_b) {
  const std::size_t n = c_a.size();
  double cnt_tot = 0.0, wgt_tot = 0.0;
  for (std::size_t x = 0; x < n; ++x) {
    cnt_tot += c_b[x];
    wgt_tot += c_b[x] * static_cast<double>(x);
  }
  double cnt = 0.0, wgt = 0.0, total = 0.0;  // prefix sums of B up to x
  for (std::size_t x = 0; x < n; ++x) {
    const auto xf = static_cast<double>(x);
    cnt += c_b[x];
    wgt += c_b[x] * xf;
    if (c_a[x] == 0.0) continue;
    // sum over x' <= x of (x - x') plus sum over x' > x of (x' - x)
    const double below = xf * cnt - wgt;
    const double above = (wgt_tot - wgt) - xf * (cnt_tot - cnt);
    total += c_a[x] * (below + above);
  }
  return total;
}

/// Eq. 3 over `power`, with the per-class records only when
/// `keep_classes` is set.
SpatialEntropyResult evaluate(const GridD& power,
                              const SpatialEntropyOptions& options,
                              bool keep_classes) {
  SpatialEntropyResult result;
  const std::size_t nx = power.nx();
  const std::size_t ny = power.ny();
  const std::size_t n = nx * ny;

  // Sort (value, bin) pairs once.  The comparison reads values only, so
  // std::sort permutes them as it would the bare values -- down to which
  // of equal values (-0.0, 0.0) lands first in a class.
  std::vector<std::pair<double, std::size_t>> bins(n);
  for (std::size_t i = 0; i < n; ++i) bins[i] = {power.data()[i], i};
  std::sort(bins.begin(), bins.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> sorted(n);
  for (std::size_t i = 0; i < n; ++i) sorted[i] = bins[i].first;
  std::vector<std::size_t> splits;
  nested_means_splits(sorted.data(), n, options, splits);
  const std::size_t num_classes = splits.size() + 1;
  if (num_classes < 2) {
    // A single class: the map is (near-)uniform, zero entropy.
    if (keep_classes)
      result.classes.push_back({power.min(), power.max(), n, 0.0, 0.0});
    return result;
  }

  // Histogram of all bins (for the inter-class distances): every column
  // holds ny bins and every row nx.
  const std::vector<double> all_x(nx, static_cast<double>(ny));
  const std::vector<double> all_y(ny, static_cast<double>(nx));
  std::vector<double> hist_x(nx), hist_y(ny);

  const auto n_total = static_cast<double>(n);
  for (std::size_t c = 0; c < num_classes; ++c) {
    // Class c is the sorted range [first, last).
    const std::size_t first = c == 0 ? 0 : splits[c - 1];
    const std::size_t last = c == num_classes - 1 ? n : splits[c];
    std::fill(hist_x.begin(), hist_x.end(), 0.0);
    std::fill(hist_y.begin(), hist_y.end(), 0.0);
    for (std::size_t i = first; i < last; ++i) {
      hist_x[bins[i].second % nx] += 1.0;
      hist_y[bins[i].second / nx] += 1.0;
    }
    PowerClass pc;
    pc.members = last - first;
    const auto n_c = static_cast<double>(pc.members);

    // Intra: ordered pair sums count every unordered pair twice.
    const double intra_sum = ordered_pair_dist(hist_x, hist_x) +
                             ordered_pair_dist(hist_y, hist_y);
    const double intra_pairs = n_c * (n_c - 1.0);
    pc.d_intra = intra_pairs > 0.0 ? intra_sum / intra_pairs : 0.0;

    // Inter: distances from class members to all non-members.
    const double to_all = ordered_pair_dist(hist_x, all_x) +
                          ordered_pair_dist(hist_y, all_y);
    const double inter_sum = to_all - intra_sum;
    const double inter_pairs = n_c * (n_total - n_c);
    pc.d_inter = inter_pairs > 0.0 ? inter_sum / inter_pairs : 0.0;

    const double p = n_c / n_total;
    const double shannon_term = -p * std::log2(p);
    result.shannon += shannon_term;

    double weight = 0.0;
    switch (options.ratio) {
      case EntropyRatio::claramunt:
        weight = pc.d_inter > 0.0 ? pc.d_intra / pc.d_inter : 0.0;
        break;
      case EntropyRatio::paper_literal: {
        // Guard singleton classes: treat a degenerate intra distance as one
        // bin pitch so the printed ratio stays finite.
        const double d_intra = pc.d_intra > 0.0 ? pc.d_intra : 1.0;
        weight = pc.d_inter / d_intra;
        break;
      }
    }
    result.entropy += weight * shannon_term;
    if (keep_classes) {
      pc.lo = c == 0 ? power.min() : sorted[first];
      pc.hi = c == num_classes - 1 ? power.max() : sorted[last];
      result.classes.push_back(pc);
    }
  }
  return result;
}

}  // namespace

std::vector<double> nested_means_cuts(std::vector<double> values,
                                      double std_tolerance,
                                      std::size_t max_depth) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  std::vector<std::size_t> splits;
  nested_means_splits(values.data(), values.size(),
                      {.std_tolerance = std_tolerance, .max_depth = max_depth},
                      splits);
  std::vector<double> cuts;
  for (const std::size_t k : splits) cuts.push_back(values[k]);
  return cuts;
}

SpatialEntropyResult spatial_entropy_detailed(
    const GridD& power, const SpatialEntropyOptions& options) {
  return evaluate(power, options, true);
}

double spatial_entropy(const GridD& power,
                       const SpatialEntropyOptions& options) {
  return evaluate(power, options, false).entropy;
}

}  // namespace tsc3d::leakage
