#include "thermal/power_blur.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tsc3d::thermal {

namespace {

/// Reflect an out-of-range index back into [0, n): mimics the adiabatic
/// lateral boundaries of the detailed solver.
std::size_t reflect(long i, std::size_t n) {
  const long limit = static_cast<long>(n);
  while (i < 0 || i >= limit) {
    if (i < 0) i = -i - 1;
    if (i >= limit) i = 2 * limit - i - 1;
  }
  return static_cast<std::size_t>(i);
}

}  // namespace

PowerBlur::PowerBlur(ThermalEngine& engine, std::size_t kernel_radius)
    : num_dies_(engine.stack().layer_of_die.size()),
      nx_(engine.nx()),
      ny_(engine.ny()),
      radius_(std::min({kernel_radius, nx_ / 2, ny_ / 2})) {
  const std::size_t cx = nx_ / 2;
  const std::size_t cy = ny_ / 2;
  constexpr double kImpulseW = 0.1;

  ambient_k_ = engine.config().ambient_k;
  kernels_.assign(2, std::vector<Kernel>(num_dies_ * num_dies_));
  GridD zero_power(nx_, ny_, 0.0);
  for (int tsv_case = 0; tsv_case < 2; ++tsv_case) {
    GridD density(nx_, ny_, tsv_case == 0 ? 0.0 : 1.0);
    for (std::size_t s = 0; s < num_dies_; ++s) {
      std::vector<GridD> power(num_dies_, zero_power);
      power[s].at(cx, cy) = kImpulseW;
      const ThermalResult res = engine.solve_steady(power, density);
      for (std::size_t d = 0; d < num_dies_; ++d) {
        Kernel& k = kernels_[tsv_case][s * num_dies_ + d];
        const GridD& t = res.die_temperature[d];
        // Far field: average response along the map boundary (far from the
        // impulse), expressed per watt.
        double far_sum = 0.0;
        std::size_t far_cnt = 0;
        for (std::size_t ix = 0; ix < nx_; ++ix) {
          far_sum += t.at(ix, 0) + t.at(ix, ny_ - 1);
          far_cnt += 2;
        }
        k.far = (far_sum / static_cast<double>(far_cnt) - ambient_k_) /
                kImpulseW;
        const std::size_t w = 2 * radius_ + 1;
        k.taps.assign(w * w, 0.0);
        for (std::size_t dy = 0; dy < w; ++dy) {
          for (std::size_t dx = 0; dx < w; ++dx) {
            const long sx = static_cast<long>(cx + dx) -
                            static_cast<long>(radius_);
            const long sy = static_cast<long>(cy + dy) -
                            static_cast<long>(radius_);
            const double v =
                t.at(reflect(sx, nx_), reflect(sy, ny_));
            // Store the deviation above the far field so the truncated
            // convolution plus the analytic far-field term is exact in the
            // homogeneous case.
            k.taps[dy * w + dx] = (v - ambient_k_) / kImpulseW - k.far;
          }
        }
      }
    }
  }
}

const PowerBlur::Kernel& PowerBlur::kernel(std::size_t source,
                                           std::size_t target,
                                           bool with_tsv) const {
  return kernels_[with_tsv ? 1 : 0][source * num_dies_ + target];
}

double PowerBlur::far_field(std::size_t source, std::size_t target,
                            bool with_tsv) const {
  return kernel(source, target, with_tsv).far;
}

std::vector<GridD> PowerBlur::estimate(const std::vector<GridD>& die_power_w,
                                       const GridD& tsv_density) const {
  if (die_power_w.size() != num_dies_)
    throw std::invalid_argument("PowerBlur: one power map per die required");
  for (const GridD& p : die_power_w)
    if (p.nx() != nx_ || p.ny() != ny_)
      throw std::invalid_argument("PowerBlur: power-map grid mismatch");
  if (tsv_density.nx() != nx_ || tsv_density.ny() != ny_)
    throw std::invalid_argument("PowerBlur: TSV-map grid mismatch");

  std::vector<GridD> out(num_dies_, GridD(nx_, ny_, ambient_k_));
  const std::size_t w = 2 * radius_ + 1;

  for (std::size_t s = 0; s < num_dies_; ++s) {
    const GridD& power = die_power_w[s];
    const double total_power = power.sum();
    for (std::size_t d = 0; d < num_dies_; ++d) {
      const Kernel& k0 = kernel(s, d, false);
      const Kernel& k1 = kernel(s, d, true);
      GridD& t = out[d];
      // Scatter each source bin's power through the TSV-blended kernel.
      for (std::size_t sy = 0; sy < ny_; ++sy) {
        for (std::size_t sx = 0; sx < nx_; ++sx) {
          const double p = power.at(sx, sy);
          if (p <= 0.0) continue;
          const double f = std::clamp(tsv_density.at(sx, sy), 0.0, 1.0);
          for (std::size_t dy = 0; dy < w; ++dy) {
            const std::size_t ty = reflect(
                static_cast<long>(sy + dy) - static_cast<long>(radius_), ny_);
            const std::size_t row = dy * w;
            for (std::size_t dx = 0; dx < w; ++dx) {
              const std::size_t tx = reflect(
                  static_cast<long>(sx + dx) - static_cast<long>(radius_),
                  nx_);
              const double tap =
                  (1.0 - f) * k0.taps[row + dx] + f * k1.taps[row + dx];
              t.at(tx, ty) += p * tap;
            }
          }
        }
      }
      // Far-field (uniform chip heating) term, blended by the mean density.
      const double f_mean = tsv_density.mean();
      const double far = (1.0 - f_mean) * k0.far + f_mean * k1.far;
      for (auto& v : t) v += total_power * far;
    }
  }
  return out;
}

double PowerBlur::peak(const std::vector<GridD>& die_power_w,
                       const GridD& tsv_density) const {
  double p = 0.0;
  for (const GridD& t : estimate(die_power_w, tsv_density))
    p = std::max(p, t.max());
  return p;
}

}  // namespace tsc3d::thermal
