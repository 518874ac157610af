#include "thermal/multigrid.hpp"

#include <algorithm>
#include <cmath>

namespace tsc3d::thermal {

namespace {

/// Aggregate one fine assembly into a half-resolution coarse one
/// (2x coarsening in x and y, layers preserved).
Assembly coarsen(const Assembly& f) {
  Assembly c;
  c.nx = f.nx / 2;
  c.ny = f.ny / 2;
  c.nl = f.nl;
  const std::size_t cn = c.num_nodes();
  const std::size_t c_nxny = c.nx * c.ny;
  c.g_xm.assign(cn, 0.0);
  c.g_xp.assign(cn, 0.0);
  c.g_ym.assign(cn, 0.0);
  c.g_yp.assign(cn, 0.0);
  c.g_zm.assign(cn, 0.0);
  c.g_zp.assign(cn, 0.0);
  c.diag_static.assign(cn, 0.0);
  c.bound_rhs.assign(cn, 0.0);
  c.cap.assign(cn, 0.0);
  c.g_sink.assign(c_nxny, 0.0);
  c.g_pkg.assign(c_nxny, 0.0);

  for (std::size_t l = 0; l < c.nl; ++l) {
    for (std::size_t cy = 0; cy < c.ny; ++cy) {
      for (std::size_t cx = 0; cx < c.nx; ++cx) {
        const std::size_t ci = (l * c.ny + cy) * c.nx + cx;
        const std::size_t fx = 2 * cx, fy = 2 * cy;
        const std::size_t f00 = (l * f.ny + fy) * f.nx + fx;
        const std::size_t f10 = f00 + 1;
        const std::size_t f01 = f00 + f.nx;
        const std::size_t f11 = f01 + 1;
        // Block-interior quantities: the four fine cells merge, so their
        // vertical paths and capacitances add in parallel.
        c.g_zm[ci] = f.g_zm[f00] + f.g_zm[f10] + f.g_zm[f01] + f.g_zm[f11];
        c.g_zp[ci] = f.g_zp[f00] + f.g_zp[f10] + f.g_zp[f01] + f.g_zp[f11];
        c.cap[ci] = f.cap[f00] + f.cap[f10] + f.cap[f01] + f.cap[f11];
        c.bound_rhs[ci] = f.bound_rhs[f00] + f.bound_rhs[f10] +
                          f.bound_rhs[f01] + f.bound_rhs[f11];
        // Interface quantities: two fine conductances cross each coarse
        // face in parallel, each halved because the coarse path between
        // cell centers is twice as long.  For uniform material this
        // equals the direct coarse discretization (k * t * H / W is
        // invariant under doubling both extents).
        c.g_xp[ci] = 0.5 * (f.g_xp[f10] + f.g_xp[f11]);
        c.g_yp[ci] = 0.5 * (f.g_yp[f01] + f.g_yp[f11]);
        if (l == 0)
          c.g_pkg[cy * c.nx + cx] = f.g_pkg[fy * f.nx + fx] +
                                    f.g_pkg[fy * f.nx + fx + 1] +
                                    f.g_pkg[(fy + 1) * f.nx + fx] +
                                    f.g_pkg[(fy + 1) * f.nx + fx + 1];
        if (l + 1 == c.nl)
          c.g_sink[cy * c.nx + cx] = f.g_sink[fy * f.nx + fx] +
                                     f.g_sink[fy * f.nx + fx + 1] +
                                     f.g_sink[(fy + 1) * f.nx + fx] +
                                     f.g_sink[(fy + 1) * f.nx + fx + 1];
      }
    }
  }

  // Mirror the one-sided interface conductances so the operator stays
  // symmetric, then rebuild the diagonal (neighbor sums + boundary
  // paths), exactly as the fine assembly does.
  for (std::size_t l = 0; l < c.nl; ++l)
    for (std::size_t cy = 0; cy < c.ny; ++cy)
      for (std::size_t cx = 0; cx < c.nx; ++cx) {
        const std::size_t ci = (l * c.ny + cy) * c.nx + cx;
        if (cx > 0) c.g_xm[ci] = c.g_xp[ci - 1];
        if (cy > 0) c.g_ym[ci] = c.g_yp[ci - c.nx];
      }
  for (std::size_t i = 0; i < cn; ++i)
    c.diag_static[i] = c.g_xm[i] + c.g_xp[i] + c.g_ym[i] + c.g_yp[i] +
                       c.g_zm[i] + c.g_zp[i];
  for (std::size_t cell = 0; cell < c_nxny; ++cell) {
    const std::size_t top = (c.nl - 1) * c_nxny + cell;
    c.diag_static[top] += c.g_sink[cell];
    c.diag_static[cell] += c.g_pkg[cell];
  }
  return c;
}

}  // namespace

void MultigridHierarchy::build(const Assembly& fine) {
  levels_.clear();
  const Assembly* prev = &fine;
  while (prev->nx % 2 == 0 && prev->ny % 2 == 0 &&
         prev->nx / 2 >= kMinExtent && prev->ny / 2 >= kMinExtent) {
    levels_.push_back(Level{coarsen(*prev)});
    prev = &levels_.back().a;
  }
}

void MgScratch::ensure(const Assembly& fine,
                       const MultigridHierarchy& hierarchy) {
  const std::vector<MultigridHierarchy::Level>& levels = hierarchy.levels();
  if (level.size() != levels.size()) {
    level.resize(levels.size());
    dt_s = 0.0;  // any transient diagonals belonged to another hierarchy
  }
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const Assembly& a = levels[l].a;
    if (level[l].field.size() != a.padded_size())
      level[l].field.assign(a.padded_size(), 0.0);
    if (level[l].rhs.size() != a.num_nodes())
      level[l].rhs.assign(a.num_nodes(), 0.0);
  }
  if (resid.size() != fine.num_nodes()) resid.assign(fine.num_nodes(), 0.0);
}

void mg_set_dt(const MultigridHierarchy& hierarchy, MgScratch& scratch,
               double dt_s) {
  if (dt_s <= 0.0) {
    if (scratch.dt_s == 0.0) return;
    for (MgScratch::Level& s : scratch.level) s.diag.clear();
    scratch.dt_s = 0.0;
    return;
  }
  if (scratch.dt_s == dt_s) return;
  const std::vector<MultigridHierarchy::Level>& levels = hierarchy.levels();
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const Assembly& a = levels[l].a;
    MgScratch::Level& s = scratch.level[l];
    s.diag.resize(a.num_nodes());
    for (std::size_t i = 0; i < a.num_nodes(); ++i)
      s.diag[i] = a.diag_static[i] + a.cap[i] / dt_s;
  }
  scratch.dt_s = dt_s;
}

void mg_residual(const Assembly& a, const double* t, const double* rhs,
                 const double* diag, double* resid) {
  const std::size_t nx = a.nx, ny = a.ny, nl = a.nl;
  const std::size_t px = nx + 1;
  const std::size_t ps = px * (ny + 1);
  for (std::size_t l = 0; l < nl; ++l)
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const std::size_t row = (l * ny + iy) * nx;
      const std::size_t prow = l * ps + iy * px;
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = row + ix;
        const std::size_t p = prow + ix;
        resid[i] = rhs[i] + a.g_xm[i] * t[p - 1] + a.g_xp[i] * t[p + 1] +
                   a.g_ym[i] * t[p - px] + a.g_yp[i] * t[p + px] +
                   a.g_zm[i] * t[p - ps] + a.g_zp[i] * t[p + ps] -
                   diag[i] * t[p];
      }
    }
}

void mg_restrict(const Assembly& fine, const double* resid_fine,
                 const Assembly& coarse, double* rhs_coarse) {
  const std::size_t cn = coarse.num_nodes();
  std::fill(rhs_coarse, rhs_coarse + cn, 0.0);
  // Adjoint of cell-centered bilinear interpolation: a fine cell at even
  // offset leans 3/4 on its containing coarse cell and 1/4 on the
  // lower neighbor; at odd offset, on the upper neighbor.  Clamping at
  // the boundary folds the outside weight back into the containing
  // cell, so every fine residual distributes exactly weight 1 and the
  // injected flux matches the parallel-aggregated coarse conductances.
  for (std::size_t l = 0; l < fine.nl; ++l)
    for (std::size_t fy = 0; fy < fine.ny; ++fy) {
      const std::size_t cy = fy / 2;
      // Neighbor coarse row toward the fine cell's sub-position side.
      const std::size_t cy2 =
          (fy % 2 == 0) ? (cy > 0 ? cy - 1 : cy)
                        : (cy + 1 < coarse.ny ? cy + 1 : cy);
      for (std::size_t fx = 0; fx < fine.nx; ++fx) {
        const std::size_t cx = fx / 2;
        const std::size_t cx2 =
            (fx % 2 == 0) ? (cx > 0 ? cx - 1 : cx)
                          : (cx + 1 < coarse.nx ? cx + 1 : cx);
        const double r = resid_fine[(l * fine.ny + fy) * fine.nx + fx];
        const std::size_t base = l * coarse.ny * coarse.nx;
        rhs_coarse[base + cy * coarse.nx + cx] += 0.5625 * r;   // 3/4 * 3/4
        rhs_coarse[base + cy * coarse.nx + cx2] += 0.1875 * r;  // 3/4 * 1/4
        rhs_coarse[base + cy2 * coarse.nx + cx] += 0.1875 * r;
        rhs_coarse[base + cy2 * coarse.nx + cx2] += 0.0625 * r; // 1/4 * 1/4
      }
    }
}

void mg_prolong_add(const Assembly& coarse, const double* e_coarse,
                    const Assembly& fine, double* t_fine) {
  const std::size_t cpx = coarse.nx + 1;
  const std::size_t cps = cpx * (coarse.ny + 1);
  const std::size_t fpx = fine.nx + 1;
  const std::size_t fps = fpx * (fine.ny + 1);
  for (std::size_t l = 0; l < fine.nl; ++l)
    for (std::size_t fy = 0; fy < fine.ny; ++fy) {
      const std::size_t cy = fy / 2;
      const std::size_t cy2 =
          (fy % 2 == 0) ? (cy > 0 ? cy - 1 : cy)
                        : (cy + 1 < coarse.ny ? cy + 1 : cy);
      const double* crow = e_coarse + l * cps + cy * cpx;
      const double* crow2 = e_coarse + l * cps + cy2 * cpx;
      double* frow = t_fine + l * fps + fy * fpx;
      for (std::size_t fx = 0; fx < fine.nx; ++fx) {
        const std::size_t cx = fx / 2;
        const std::size_t cx2 =
            (fx % 2 == 0) ? (cx > 0 ? cx - 1 : cx)
                          : (cx + 1 < coarse.nx ? cx + 1 : cx);
        frow[fx] += 0.5625 * crow[cx] + 0.1875 * crow[cx2] +
                    0.1875 * crow2[cx] + 0.0625 * crow2[cx2];
      }
    }
}

double mg_smooth(const Assembly& a, double* t, const double* rhs,
                 const double* diag, std::size_t nsweeps) {
  const std::size_t rows = a.nl * a.ny;
  double delta = 0.0;
  for (std::size_t s = 0; s < nsweeps; ++s) {
    delta = 0.0;
    for (int color = 0; color < 2; ++color)
      delta = std::max(
          delta,
          sweep_color_rows(a, kSmoothOmega, t, color, 0, rows, rhs, diag));
  }
  return delta;
}

void mg_coarse_solve(const MultigridHierarchy& hierarchy, MgScratch& scratch,
                     std::size_t l) {
  MgScratch::Level& s = scratch.level[l];
  // The correction starts at zero (pads included -- they are never
  // written, so the fill keeps them zero too).
  std::fill(s.field.begin(), s.field.end(), 0.0);
  mg_cycle_at(hierarchy, scratch, l);
}

void mg_cycle_at(const MultigridHierarchy& hierarchy, MgScratch& scratch,
                 std::size_t l) {
  const Assembly& a = hierarchy.levels()[l].a;
  MgScratch::Level& s = scratch.level[l];
  double* t = s.field.data() + a.field_offset();
  const double* rhs = s.rhs.data();
  const double* diag = mg_level_diag(a, s);

  if (l + 1 == hierarchy.levels().size()) {
    // Coarsest level: smooth to near-exactness.  The grid is tiny
    // (<= ~kMinExtent^2 cells per layer), so a generous fixed-order
    // sweep budget costs next to nothing and keeps the cycle's
    // convergence rate from being limited here.
    constexpr std::size_t kMaxSweeps = 100;
    constexpr double kRelDrop = 1e-3;
    double first = -1.0;
    for (std::size_t s_i = 0; s_i < kMaxSweeps; ++s_i) {
      const double delta = mg_smooth(a, t, rhs, diag, 1);
      if (first < 0.0) first = delta;
      if (delta <= kRelDrop * first) break;
    }
    return;
  }

  mg_smooth(a, t, rhs, diag, kSmoothSweeps);
  mg_residual(a, t, rhs, diag, scratch.resid.data());
  const Assembly& next = hierarchy.levels()[l + 1].a;
  mg_restrict(a, scratch.resid.data(), next, scratch.level[l + 1].rhs.data());
  mg_coarse_solve(hierarchy, scratch, l + 1);
  mg_prolong_add(next,
                 scratch.level[l + 1].field.data() + next.field_offset(), a,
                 t);
  mg_smooth(a, t, rhs, diag, kSmoothSweeps);
}

void mg_fmg(const Assembly& fine, const MultigridHierarchy& hierarchy,
            MgScratch& scratch, const double* rhs_fine, double* t_fine) {
  const std::vector<MultigridHierarchy::Level>& levels = hierarchy.levels();
  const std::size_t nl = levels.size();
  // Descend: restrict the TRUE rhs down the whole hierarchy.  The same
  // full-weighting stencil used for residuals applies -- its weights
  // sum to 1 per fine cell, so the total injected power is conserved at
  // every level, matching the parallel-aggregated conductances.
  mg_restrict(fine, rhs_fine, levels[0].a, scratch.level[0].rhs.data());
  for (std::size_t l = 0; l + 1 < nl; ++l)
    mg_restrict(levels[l].a, scratch.level[l].rhs.data(), levels[l + 1].a,
                scratch.level[l + 1].rhs.data());

  // Solve the coarsest level near-exactly from zero.
  mg_coarse_solve(hierarchy, scratch, nl - 1);

  // Ascend: seed each level with the interpolated coarser solution and
  // improve it with kFmgAscentCycles V-cycles against its restricted
  // true rhs.  One cycle per level is the textbook F-cycle, but with
  // this hierarchy's ~0.4 cycle contraction it leaves the seed an order
  // of magnitude above truncation error (bilinear interpolation error
  // compounds up the levels); a second cycle costs ~1/3 of a fine
  // V-cycle in total yet lands the seed at ~truncation error, which
  // saves 2+ full-price fine cycles.  The cycles clobber the levels
  // below, whose FMG values were already consumed by the prolongation.
  constexpr std::size_t kFmgAscentCycles = 2;
  for (std::size_t l = nl - 1; l-- > 0;) {
    const Assembly& a = levels[l].a;
    MgScratch::Level& s = scratch.level[l];
    std::fill(s.field.begin(), s.field.end(), 0.0);
    const Assembly& below = levels[l + 1].a;
    mg_prolong_add(below,
                   scratch.level[l + 1].field.data() + below.field_offset(),
                   a, s.field.data() + a.field_offset());
    for (std::size_t cyc = 0; cyc < kFmgAscentCycles; ++cyc)
      mg_cycle_at(hierarchy, scratch, l);
  }

  mg_prolong_add(levels[0].a,
                 scratch.level[0].field.data() + levels[0].a.field_offset(),
                 fine, t_fine);
}

}  // namespace tsc3d::thermal
