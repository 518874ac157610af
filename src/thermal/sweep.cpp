// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// The red-black color sweep, in a scalar and a hand-vectorized (AVX2)
// flavor behind a runtime dispatch.  GCC 12 does NOT auto-vectorize the
// stride-2 inner loop (-fopt-info-vec-missed: "couldn't vectorize loop
// ... unsupported use in stmt" -- the interleaved loads defeat its cost
// model), so the AVX2 kernel widens it by hand: four same-color nodes
// (eight consecutive cells) per iteration, with the stride-2 operands
// deinterleaved by two unaligned loads + unpacklo + a lane permute.
//
// Bitwise contract: the vector kernel performs, per node, the exact
// operation sequence of the scalar one -- the flux sum associates left
// to right, the update is t + omega * (flux / diag - t), and no FMA
// contraction happens anywhere (the kernel compiles under
// target("avx2"), which does not enable FMA, and uses explicit mul/add
// intrinsics).  IEEE doubles make each lane bitwise-equal to the scalar
// node, and the max-update reduction is order-free for the non-negative
// magnitudes it folds, so scalar and SIMD sweeps -- and therefore every
// solver result -- are bitwise identical.  Stores write ONLY the four
// relaxed nodes (scalar extraction, never a full 256-bit store): cells
// of the other color are concurrently READ by neighboring row shards,
// so rewriting them even with unchanged values would be a data race.
// Loads obey the mirror rule: the eight-cell load of a +-y or +-z
// neighbor row also covers its four cells of the color being relaxed,
// which a neighboring shard may be writing when that row lies outside
// [row_begin, row_end).  Such operands are loaded as their four
// other-color cells only; pad rows are never written, and unsharded
// sweeps (every real row in range) keep the eight-cell loads.
#include "thermal/thermal_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define TSC3D_SWEEP_AVX2 1
#include <immintrin.h>
#else
#define TSC3D_SWEEP_AVX2 0
#endif

namespace tsc3d::thermal {

namespace {

double sweep_color_rows_scalar(const Assembly& a, double omega, double* t,
                               int color, std::size_t row_begin,
                               std::size_t row_end, const double* r,
                               const double* dg) {
  const std::size_t nx = a.nx, ny = a.ny;
  // Conductance/rhs arrays are compact (stride nx); the field uses the
  // halo layout (row stride nx + 1, layer stride (nx+1) * (ny+1)), so
  // the loop advances a compact index i and a padded index p in step.
  const std::size_t px = nx + 1;
  const std::size_t ps = px * (ny + 1);
  const double* gxm = a.g_xm.data();
  const double* gxp = a.g_xp.data();
  const double* gym = a.g_ym.data();
  const double* gyp = a.g_yp.data();
  const double* gzm = a.g_zm.data();
  const double* gzp = a.g_zp.data();

  double max_delta = 0.0;
  for (std::size_t gr = row_begin; gr < row_end; ++gr) {
    const std::size_t l = gr / ny;
    const std::size_t iy = gr % ny;
    const std::size_t row = gr * nx;
    const std::size_t prow = l * ps + iy * px;
    for (std::size_t ix = (l + iy + static_cast<std::size_t>(color)) & 1;
         ix < nx; ix += 2) {
      const std::size_t i = row + ix;
      const std::size_t p = prow + ix;
      const double flux = r[i] + gxm[i] * t[p - 1] + gxp[i] * t[p + 1] +
                          gym[i] * t[p - px] + gyp[i] * t[p + px] +
                          gzm[i] * t[p - ps] + gzp[i] * t[p + ps];
      const double delta = flux / dg[i] - t[p];
      t[p] += omega * delta;
      max_delta = std::max(max_delta, std::abs(delta));
    }
  }
  return max_delta;
}

#if TSC3D_SWEEP_AVX2

/// The even-index elements {p[0], p[2], p[4], p[6]} of eight consecutive
/// doubles: two unaligned loads, unpacklo ({p0, p4, p2, p6}), then a
/// cross-lane permute back into order.
__attribute__((target("avx2"))) inline __m256d load_even(const double* p) {
  const __m256d lo = _mm256_loadu_pd(p);
  const __m256d hi = _mm256_loadu_pd(p + 4);
  return _mm256_permute4x64_pd(_mm256_unpacklo_pd(lo, hi), 0xD8);
}

/// load_even for a field operand whose row another shard may be
/// relaxing: the four wanted cells one by one, never the interleaved
/// cells between them (see the file comment).
__attribute__((target("avx2"))) inline __m256d load_even(const double* p,
                                                        bool other_shard) {
  if (other_shard) return _mm256_set_pd(p[6], p[4], p[2], p[0]);
  return load_even(p);
}

__attribute__((target("avx2"))) double sweep_color_rows_avx2(
    const Assembly& a, double omega, double* t, int color,
    std::size_t row_begin, std::size_t row_end, const double* r,
    const double* dg) {
  const std::size_t nx = a.nx, ny = a.ny;
  const std::size_t px = nx + 1;
  const std::size_t ps = px * (ny + 1);
  const double* gxm = a.g_xm.data();
  const double* gxp = a.g_xp.data();
  const double* gym = a.g_ym.data();
  const double* gyp = a.g_yp.data();
  const double* gzm = a.g_zm.data();
  const double* gzp = a.g_zp.data();

  const __m256d omega_v = _mm256_set1_pd(omega);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d max_v = _mm256_setzero_pd();
  double max_delta = 0.0;
  for (std::size_t gr = row_begin; gr < row_end; ++gr) {
    const std::size_t l = gr / ny;
    const std::size_t iy = gr % ny;
    const std::size_t row = gr * nx;
    const std::size_t prow = l * ps + iy * px;
    std::size_t ix = (l + iy + static_cast<std::size_t>(color)) & 1;
    // Neighbor rows that are real rows outside this shard's range.
    const bool out_ym = iy > 0 && gr - 1 < row_begin;
    const bool out_yp = iy + 1 < ny && gr + 1 >= row_end;
    const bool out_zm = l > 0 && gr - ny < row_begin;
    const bool out_zp = l + 1 < a.nl && gr + ny >= row_end;
    // Vector block: four same-color nodes spanning eight consecutive
    // cells.  Its compact-array loads reach index i + 7, so the block
    // needs ix + 8 <= nx to stay inside this row; the halo field's pad
    // cells make every FIELD access of an in-row block safe without a
    // guard.  Leftover nodes (at most four, on odd-offset rows) fall to
    // the scalar tail below.
    for (; ix + 8 <= nx; ix += 8) {
      const std::size_t i = row + ix;
      const std::size_t p = prow + ix;
      const __m256d tv = load_even(t + p);
      // Left-to-right flux sum, matching the scalar association order.
      __m256d flux = load_even(r + i);
      flux = _mm256_add_pd(
          flux, _mm256_mul_pd(load_even(gxm + i), load_even(t + p - 1)));
      flux = _mm256_add_pd(
          flux, _mm256_mul_pd(load_even(gxp + i), load_even(t + p + 1)));
      flux = _mm256_add_pd(flux, _mm256_mul_pd(load_even(gym + i),
                                               load_even(t + p - px, out_ym)));
      flux = _mm256_add_pd(flux, _mm256_mul_pd(load_even(gyp + i),
                                               load_even(t + p + px, out_yp)));
      flux = _mm256_add_pd(flux, _mm256_mul_pd(load_even(gzm + i),
                                               load_even(t + p - ps, out_zm)));
      flux = _mm256_add_pd(flux, _mm256_mul_pd(load_even(gzp + i),
                                               load_even(t + p + ps, out_zp)));
      const __m256d delta =
          _mm256_sub_pd(_mm256_div_pd(flux, load_even(dg + i)), tv);
      const __m256d tnew =
          _mm256_add_pd(tv, _mm256_mul_pd(omega_v, delta));
      // Scalar extraction: write the four relaxed nodes and nothing
      // else (see the file comment -- a full store would race with
      // other shards reading the interleaved other-color cells).
      alignas(32) double out[4];
      _mm256_store_pd(out, tnew);
      t[p] = out[0];
      t[p + 2] = out[1];
      t[p + 4] = out[2];
      t[p + 6] = out[3];
      // maxpd keeps the SECOND operand on unordered compares, exactly
      // like std::max(acc, fresh) keeps acc -- so NaN propagation (a
      // diverged solve) matches the scalar kernel too.
      max_v = _mm256_max_pd(_mm256_andnot_pd(sign_mask, delta), max_v);
    }
    for (; ix < nx; ix += 2) {
      const std::size_t i = row + ix;
      const std::size_t p = prow + ix;
      const double flux = r[i] + gxm[i] * t[p - 1] + gxp[i] * t[p + 1] +
                          gym[i] * t[p - px] + gyp[i] * t[p + px] +
                          gzm[i] * t[p - ps] + gzp[i] * t[p + ps];
      const double delta = flux / dg[i] - t[p];
      t[p] += omega * delta;
      max_delta = std::max(max_delta, std::abs(delta));
    }
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, max_v);
  for (const double v : lanes) max_delta = std::max(max_delta, v);
  return max_delta;
}

#endif  // TSC3D_SWEEP_AVX2

/// Process-wide SIMD toggle; defaults to hardware availability.
bool& simd_flag() {
  static bool enabled = sweep_simd_available();
  return enabled;
}

}  // namespace

bool sweep_simd_available() {
#if TSC3D_SWEEP_AVX2
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

void set_sweep_simd(bool enabled) {
  simd_flag() = enabled && sweep_simd_available();
}

bool sweep_simd_enabled() { return simd_flag(); }

double sweep_color_rows(const Assembly& a, double omega, double* t, int color,
                        std::size_t row_begin, std::size_t row_end,
                        const double* rhs, const double* diag) {
#if TSC3D_SWEEP_AVX2
  if (simd_flag())
    return sweep_color_rows_avx2(a, omega, t, color, row_begin, row_end, rhs,
                                 diag);
#endif
  return sweep_color_rows_scalar(a, omega, t, color, row_begin, row_end, rhs,
                                 diag);
}

}  // namespace tsc3d::thermal
