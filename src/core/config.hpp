// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Technology and thermal configuration.  Defaults follow the paper's setup:
// a two-die, face-to-back, TSV-based 3D IC (Sec. 2.2 / Fig. 1), heatsink
// atop the stack, a secondary heat path into the package (Sec. 3), and the
// 90 nm voltage/power/delay scaling triple from Sec. 7.
#pragma once

#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace tsc3d {

/// One selectable supply voltage with its power and delay scaling factors
/// relative to nominal (1.0 V).  Values simulated for the 90 nm node,
/// reproduced verbatim from Sec. 7 of the paper.
struct VoltageLevel {
  double voltage = 1.0;      ///< supply voltage [V]
  double power_scale = 1.0;  ///< dynamic-power multiplier vs 1.0 V
  double delay_scale = 1.0;  ///< module/net delay multiplier vs 1.0 V
};

/// The paper's three voltage options: 0.8 V, 1.0 V, 1.2 V.
inline std::vector<VoltageLevel> default_voltage_levels() {
  return {
      VoltageLevel{0.8, 0.817, 1.56},
      VoltageLevel{1.0, 1.0, 1.0},
      VoltageLevel{1.2, 1.496, 0.83},
  };
}

/// Geometry of a single vertical via (TSV or MIV) and its keep-out zone.
/// Defaults match typical via-middle copper TSVs as assumed by the
/// Corblivar/HotSpot default configurations referenced in Sec. 7; for the
/// monolithic flavor use default_miv_geometry().
struct TsvGeometry {
  double diameter_um = 5.0;       ///< copper body diameter [um]
  double pitch_um = 10.0;         ///< minimal center-to-center pitch [um]
  double keepout_um = 5.0;        ///< keep-out ring around the body [um]
  double liner_thickness_um = 0.2;///< dielectric liner [um]

  /// Footprint edge length of one TSV cell incl. keep-out [um].
  [[nodiscard]] double cell_edge_um() const {
    return diameter_um + 2.0 * keepout_um;
  }
  /// Area occupied by one TSV cell incl. keep-out [um^2].
  [[nodiscard]] double cell_area_um2() const {
    const double e = cell_edge_um();
    return e * e;
  }
};

/// Monolithic inter-tier via (MIV) geometry: nanoscale vias at sub-micron
/// pitch.  Their copper cross-section is ~3 orders of magnitude smaller
/// than a TSV's, so MIVs barely act as "heat pipes" -- which is exactly
/// why the paper's TSV-arrangement lever weakens under this flavor.
inline TsvGeometry default_miv_geometry() {
  TsvGeometry miv;
  miv.diameter_um = 0.1;
  miv.pitch_um = 1.0;
  miv.keepout_um = 0.1;
  miv.liner_thickness_um = 0.01;
  return miv;
}

/// 3D integration flavor.  The paper studies TSV-based stacking and names
/// monolithic integration as future work (Sec. 8, footnote 1: "Thermal
/// maps would be considerably different for other 3D integration
/// flavors"); both are supported here.
enum class IntegrationFlavor {
  tsv_based,   ///< thinned dies, bond/BEOL layer, copper TSVs (the paper)
  monolithic,  ///< sequential tiers, thin ILD, nanoscale MIVs
};

/// Chip-stack technology description.  The paper fixes two dies stacked
/// face-to-back; the stack size is kept configurable for the future-work
/// direction (larger stacks) mentioned in Sec. 8.
struct TechnologyConfig {
  IntegrationFlavor flavor = IntegrationFlavor::tsv_based;
  std::size_t num_dies = 2;
  double die_width_um = 4000.0;    ///< fixed-outline width [um]
  double die_height_um = 4000.0;   ///< fixed-outline height [um]
  double die_thickness_um = 100.0; ///< thinned silicon bulk [um] (TSV flavor)
  /// Tier thickness for the monolithic flavor: sequentially processed
  /// silicon is 2-3 orders thinner than a thinned, bonded die.
  double monolithic_tier_thickness_um = 1.0;
  double clock_period_ns = 4.0;    ///< timing budget for voltage assignment
  TsvGeometry tsv;
  std::vector<VoltageLevel> voltages = default_voltage_levels();

  [[nodiscard]] double die_area_um2() const {
    return die_width_um * die_height_um;
  }

  void validate() const {
    if (num_dies < 1)
      throw std::invalid_argument("TechnologyConfig: need at least one die");
    if (die_width_um <= 0.0 || die_height_um <= 0.0)
      throw std::invalid_argument("TechnologyConfig: non-positive outline");
    if (voltages.empty())
      throw std::invalid_argument("TechnologyConfig: no voltage levels");
  }
};

/// Convert a technology to the monolithic flavor: MIV-sized vias and
/// sequential tiers; all other parameters are preserved.
inline TechnologyConfig make_monolithic(TechnologyConfig tech) {
  tech.flavor = IntegrationFlavor::monolithic;
  tech.tsv = default_miv_geometry();
  return tech;
}

/// Steady-state solver backend of the thermal engine.
///
///  * `sor`: warm-started red-black SOR sweeps until the per-sweep update
///    drops below `tolerance_k` -- cheap per iteration, and a handful of
///    sweeps suffice when the previous field seeds the solve (annealing
///    loops).  The cost tail is cold / large-grid solves, whose error
///    modes are smooth and decay slowly under point relaxation.
///  * `multigrid`: geometric V-cycles over a per-assembly hierarchy of
///    2x-coarsened conductance networks (layers are never coarsened),
///    with the same red-black sweep as the smoother on every level.
///    Smooth error that SOR grinds down over hundreds of sweeps is
///    eliminated on the coarse grids, so cold and large solves converge
///    in a few cycles; results agree with SOR to solver accuracy (the
///    same tolerance contract), and sharded sweeps stay bitwise
///    deterministic.  Grids too small or odd-sized to coarsen fall back
///    to SOR.
///  * `auto_select` ("auto" in config files, the default): each engine
///    picks per its role -- the annealer's warm fast-loop engine keeps
///    SOR (warm starts converge in a handful of sweeps; V-cycle coarse
///    traffic would be pure overhead), sampling/verification engines
///    get multigrid (cold and strongly perturbed solves are the smooth-
///    error regime it removes).  Explicit `sor`/`multigrid` force that
///    backend everywhere.
enum class SolverBackend {
  sor,
  multigrid,
  auto_select,
};

/// Material and boundary parameters of the thermal model.  The layer
/// structure mirrors HotSpot's grid model extended for two stacked dies:
/// package resistance below (secondary heat path, Sec. 3), TIM + heat
/// spreader + heatsink above (primary path), and a bond/BEOL layer between
/// the dies whose vertical conductivity is locally raised by TSVs acting
/// as "heat pipes".
struct ThermalConfig {
  // Grid resolution of the thermal solve (per layer).
  std::size_t grid_nx = 64;
  std::size_t grid_ny = 64;

  double ambient_k = 293.15;  ///< ambient temperature [K]

  // Bulk silicon.
  double k_silicon = 150.0;       ///< thermal conductivity [W/(m K)]
  double c_silicon = 1.75e6;      ///< volumetric heat capacity [J/(m^3 K)]

  // Inter-die bond + BEOL layer (SiO2-dominated), TSV flavor.
  double bond_thickness_um = 20.0;
  double k_bond = 1.0;
  double c_bond = 2.0e6;

  // Inter-tier dielectric (ILD), monolithic flavor: far thinner than a
  // bond layer, so tiers couple thermally much more strongly.
  double ild_thickness_um = 0.5;
  double k_ild = 1.4;
  double c_ild = 2.0e6;

  // Copper TSV material (fills a fraction of a bond-layer / bulk cell).
  double k_tsv_copper = 380.0;
  double c_tsv_copper = 3.4e6;

  // Thermal interface material between top die and heat spreader.
  double tim_thickness_um = 50.0;
  double k_tim = 4.0;
  double c_tim = 4.0e6;

  // Heat spreader (copper).
  double spreader_thickness_um = 1000.0;
  double k_spreader = 400.0;
  double c_spreader = 3.4e6;

  // Heatsink base (copper); convection to ambient from its top.
  double sink_thickness_um = 6900.0;
  double k_sink = 400.0;
  double c_sink = 3.4e6;
  double r_convec_k_per_w = 0.25;  ///< lumped convection resistance [K/W]

  // Secondary path: die 1 bulk -> package -> board/ambient, lumped.
  double r_package_k_per_w = 15.0; ///< per-chip secondary-path resistance

  // Solver controls.
  double sor_omega = 1.8;          ///< SOR over-relaxation factor
  double tolerance_k = 1e-4;       ///< max per-node update at convergence [K]
  std::size_t max_iterations = 20000;
  /// Steady-state backend; auto_select resolves per engine role.
  SolverBackend solver = SolverBackend::auto_select;

  void validate() const {
    if (grid_nx < 4 || grid_ny < 4)
      throw std::invalid_argument("ThermalConfig: grid too small");
    if (sor_omega <= 0.0 || sor_omega >= 2.0)
      throw std::invalid_argument("ThermalConfig: SOR omega out of (0,2)");
    if (r_convec_k_per_w <= 0.0 || r_package_k_per_w <= 0.0)
      throw std::invalid_argument("ThermalConfig: non-positive resistance");
  }
};

}  // namespace tsc3d
