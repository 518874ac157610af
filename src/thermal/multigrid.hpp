// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Geometric multigrid for the thermal solves, steady and transient.
// The engine's red-black SOR sweep is an excellent smoother -- it kills
// oscillatory error in a few sweeps -- but grinds down the smooth error
// modes of cold or large solves over hundreds of iterations.  A V-cycle
// moves exactly those modes to coarser grids where they become
// oscillatory (and cheap) again:
//
//  * MultigridHierarchy coarsens the engine's cached Assembly 2x in
//    x/y per level, Galerkin-style, by aggregating conductances: the
//    four vertical/boundary paths of a 2x2 block add in parallel, and
//    the two lateral paths crossing a coarse interface add in parallel
//    after their series length doubles -- for uniform material this
//    reproduces the direct coarse-grid discretization exactly.  Layers
//    are NEVER coarsened: the stack has O(10) physically distinct
//    layers, and the z coupling strengthens 4x relative to lateral per
//    level.  CAVEAT: when vertical coupling already dominates at the
//    fine level (monolithic stacks, whose sub-um ILD bonds couple
//    adjacent layers orders of magnitude more strongly than any lateral
//    path), the point smoother cannot damp lateral-oscillatory error
//    riding on the stiff z-columns -- that would need z-line relaxation
//    -- and V-cycles contract worse than plain SOR.  The engine detects
//    that at runtime (stall detection in its relaxation loop) and hands
//    the solve back to SOR; see kMgStallContraction in
//    thermal_engine.cpp.
//  * Residuals restrict by full weighting (the adjoint of cell-centered
//    bilinear interpolation, per layer, boundary-clamped) and
//    corrections prolongate bilinearly -- both over the same halo field
//    layout the sweep uses, so every level smooths with the identical
//    branch-free red-black kernel (sweep_color_rows).
//  * The engine drives the cycle: fine-level smoothing goes through its
//    (possibly pool-sharded) sweep; everything below is serial and
//    reads only the immutable hierarchy plus the engine's MgScratch.
//  * Nothing is tunable: the hierarchy always coarsens to full depth,
//    every level smooths kSmoothSweeps times before and after its
//    coarse correction at kSmoothOmega, and the engine seeds every cold
//    solve with mg_fmg.
//
// Determinism: coarsening, transfers, and smoothing are fixed-order
// serial loops; the sharded fine sweep is bitwise-identical to serial.
// Multigrid results therefore match across 1-N threads bitwise, and
// agree with the SOR backend to solver accuracy (same stopping rule).
#pragma once

#include <cstddef>
#include <vector>

#include "thermal/thermal_engine.hpp"

namespace tsc3d::thermal {

/// Pre- and post-smoothing red-black sweeps per V-cycle level.
constexpr std::size_t kSmoothSweeps = 2;

/// Smoothing relaxation factor on every level.  Over-relaxation
/// (sor_omega ~ 1.8) accelerates SOR as a SOLVER but ruins the smoothing
/// property multigrid relies on; plain red-black Gauss-Seidel (omega = 1)
/// damps oscillatory error per sweep near-optimally, and the coarse grids
/// take care of the smooth error SOR would have needed the large omega
/// for.
constexpr double kSmoothOmega = 1.0;

/// Immutable-after-build coarse hierarchy below one fine assembly.
/// levels()[0] is the FIRST coarse level (half the fine resolution);
/// the fine assembly itself stays with the engine.
class MultigridHierarchy {
 public:
  struct Level {
    Assembly a;
  };

  /// Coarsen `fine` while both extents are even and at least 2 * kMinExtent
  /// (full depth: 64x64 -> 32, 16, 8, 4; an odd extent stops it early, so
  /// 18x18 gets a single 9x9 level).  A grid that admits no coarse level
  /// leaves the hierarchy empty (usable() == false) and the engine falls
  /// back to SOR.
  void build(const Assembly& fine);

  [[nodiscard]] const std::vector<Level>& levels() const { return levels_; }
  [[nodiscard]] bool usable() const { return !levels_.empty(); }

  /// Smallest x/y extent a coarse grid may have.
  static constexpr std::size_t kMinExtent = 4;

 private:
  std::vector<Level> levels_;
};

/// Per-solve V-cycle scratch: one halo-layout correction field and one
/// compact restricted-residual rhs per coarse level, plus a shared
/// compact residual buffer (sized for the fine level, the largest).
struct MgScratch {
  struct Level {
    std::vector<double> field;  ///< halo layout, pads stay zero
    std::vector<double> rhs;    ///< compact
    /// Implicit-Euler diagonal diag_static + cap/dt of this level
    /// (compact).  Empty in steady mode: the level then relaxes against
    /// its assembly's diag_static directly.  Filled by mg_set_dt.
    std::vector<double> diag;
  };
  std::vector<Level> level;
  std::vector<double> resid;  ///< compact residual of the level above
  /// Timestep the per-level diag buffers were built for; 0 = steady.
  double dt_s = 0.0;

  /// Size the buffers for `fine` + `hierarchy` (idempotent).
  void ensure(const Assembly& fine, const MultigridHierarchy& hierarchy);
};

/// Switch the scratch between steady mode (`dt_s <= 0`: coarse levels
/// relax against diag_static) and transient mode (`dt_s > 0`: every
/// coarse level gets the implicit-Euler diagonal diag_static + cap/dt,
/// the aggregated capacitances making the coarse operators the Galerkin
/// counterparts of the fine (G + C/dt)).  Idempotent per dt_s; call
/// after ensure().
void mg_set_dt(const MultigridHierarchy& hierarchy, MgScratch& scratch,
               double dt_s);

/// The diagonal a coarse level relaxes against: the transient diag when
/// mg_set_dt installed one, diag_static otherwise.
[[nodiscard]] inline const double* mg_level_diag(const Assembly& a,
                                                 const MgScratch::Level& s) {
  return s.diag.empty() ? a.diag_static.data() : s.diag.data();
}

/// Compact steady-state residual r = rhs + sum(g * t_nb) - diag * t of a
/// halo-layout field.
void mg_residual(const Assembly& a, const double* t, const double* rhs,
                 const double* diag, double* resid);

/// Full-weighting restriction of a compact fine residual onto the coarse
/// grid's compact rhs (adjoint of bilinear prolongation, per layer,
/// boundary-clamped; each fine residual's weights sum to 1, so the total
/// injected flux is conserved -- matching the aggregated conductances).
void mg_restrict(const Assembly& fine, const double* resid_fine,
                 const Assembly& coarse, double* rhs_coarse);

/// Bilinearly interpolate the coarse correction (halo layout) and ADD it
/// into the fine field (halo layout), per layer.
void mg_prolong_add(const Assembly& coarse, const double* e_coarse,
                    const Assembly& fine, double* t_fine);

/// `nsweeps` serial red-black sweeps (at kSmoothOmega) over one level;
/// returns the last sweep's max node update.
double mg_smooth(const Assembly& a, double* t, const double* rhs,
                 const double* diag, std::size_t nsweeps);

/// Recursive V-cycle below the fine level: solves A_l e = rhs for the
/// correction at coarse level `l` (scratch.level[l].rhs must hold the
/// restricted residual; the correction is left in scratch.level[l].field).
/// The coarsest level is smoothed to near-exactness (relative update
/// drop of 1e-3, capped); all sweeps are serial and fixed-order.
/// A_l is (G + C/dt) when mg_set_dt installed transient diagonals.
void mg_coarse_solve(const MultigridHierarchy& hierarchy, MgScratch& scratch,
                     std::size_t l);

/// One V-cycle at coarse level `l` on the CURRENT contents of
/// scratch.level[l]: smooth field against rhs, restrict the residual,
/// correct from the levels below, smooth again.  Unlike mg_coarse_solve
/// the field is NOT zeroed -- this is the ascent step of mg_fmg, where
/// level l's field holds the prolonged coarser solution.  Levels below
/// l are clobbered (their FMG values must already be consumed).
void mg_cycle_at(const MultigridHierarchy& hierarchy, MgScratch& scratch,
                 std::size_t l);

/// Full-multigrid cold start: restrict the TRUE fine rhs down the whole
/// hierarchy, solve the coarsest level to near-exactness, then ascend --
/// prolong each solution one level up and improve it with one V-cycle --
/// and finally ADD the first-coarse-level solution, bilinearly
/// interpolated, into `t_fine` (halo layout; its real nodes must be
/// zero on entry, pads stay untouched).  The result is an initial guess
/// already accurate to roughly truncation error, so the caller's
/// V-cycle loop converges in 1-2 cycles instead of ~9 from a flat
/// ambient start.  Serial and fixed-order throughout; requires
/// hierarchy.usable().
void mg_fmg(const Assembly& fine, const MultigridHierarchy& hierarchy,
            MgScratch& scratch, const double* rhs_fine, double* t_fine);

}  // namespace tsc3d::thermal
