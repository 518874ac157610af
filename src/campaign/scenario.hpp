// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Scenario evaluation: one cell of the campaign matrix, evaluated as
//
//   exploration (cached-or-fresh floorplan result)
//     -> mitigation  (none | statically-applied DTM | noise injection)
//       -> attack    (Sec. 5 attacker models, Hutter-style heating
//                     faults, Masti-style covert channels)
//       -> leakage   (Pearson / MI / SVF / spatial entropy)
//
// Each stage is a THIN adapter over the standalone entry point it wraps
// -- the differential suite (tests/test_campaign_differential.cpp) pins
// every adapter bitwise against a direct call with the same inputs --
// and each stochastic stage draws from its own Rng seeded by
// scenario_seed(context, purpose), so scenario results are a pure
// function of the ScenarioContext: bitwise-reproducible, scheduling-
// independent, and cacheable content-addressed (scenario_io.hpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "campaign/options.hpp"
#include "config/config_file.hpp"
#include "core/floorplan.hpp"
#include "service/job_queue.hpp"
#include "service/result_cache.hpp"
#include "service/worker.hpp"
#include "thermal/grid_solver.hpp"

namespace tsc3d::campaign {

/// Identity of one scenario evaluation.  Extends the exploration's
/// ArtifactContext (design, canonical config, seed, code version) with
/// the scenario axes and a digest of the evaluation knobs; two scenario
/// artifacts are interchangeable iff everything matches.
struct ScenarioContext {
  service::ArtifactContext exploration;
  std::string attack;
  std::string mitigation;
  std::string flavor;
  std::uint64_t params_hash = 0;  ///< scenario_params_hash of the knobs

  [[nodiscard]] bool operator==(const ScenarioContext&) const = default;
};

/// Digest of the CampaignOptions fields that shape a scenario result
/// (attack_grid, trials, bits, DTM horizon, injection budget, leakage
/// phases).  Matrix axes and report_dir are deliberately excluded: they
/// pick WHICH scenarios run, not what any one scenario computes.
[[nodiscard]] std::uint64_t scenario_params_hash(const CampaignOptions& opt);

/// Build the full identity of a scenario job (job.is_scenario() must
/// hold; throws otherwise).
[[nodiscard]] ScenarioContext scenario_context(const service::JobSpec& job,
                                               const CampaignOptions& opt);

/// Single 64-bit digest of the context (cache slot addressing; probes
/// re-validate the full context, so collisions degrade to misses).
[[nodiscard]] std::uint64_t scenario_key(const ScenarioContext& ctx);

/// Deterministic per-stage RNG seed: digest of the context, minus the
/// exploration's code version, chained with a purpose tag ("mitigation",
/// "attack", "leakage").  Distinct stages get uncorrelated streams; the
/// same stage of the same scenario always gets the same one, across code
/// versions too (scenario_key still separates their cache entries).
[[nodiscard]] std::uint64_t scenario_seed(const ScenarioContext& ctx,
                                          const std::string& purpose);

/// The uniform outcome of one scenario (the rows of scenarios.csv).
struct ScenarioResult {
  ScenarioContext context;

  // --- exploration side (from the cached StoredResult) ------------------
  bool legal = false;
  double wirelength_m = 0.0;
  double power_w = 0.0;
  double critical_delay_ns = 0.0;
  double peak_k = 0.0;

  // --- mitigation side --------------------------------------------------
  double mitigation_overhead_w = 0.0;      ///< injected dummy power [W]
  double mitigation_performance_loss = 0.0;///< DTM mean power reduction
  double mitigation_peak_k = 0.0;          ///< peak during the mitigation run

  // --- attack side ------------------------------------------------------
  double attack_success = 0.0;  ///< in [0, 1]; see docs/CAMPAIGNS.md

  // --- leakage metrics (on the mitigated floorplan) ---------------------
  double pearson_abs_max = 0.0;      ///< max |Eq.1 r_d| over dies
  double mi_max = 0.0;               ///< max MI(P;T) over dies [bit]
  double svf = 0.0;                  ///< Demme-style SVF over phases
  double spatial_entropy_max = 0.0;  ///< max Eq.3 S_d over dies

  // --- Pareto axes (both minimized; docs/CAMPAIGNS.md) ------------------
  double leakage = 0.0;   ///< == attack_success
  double overhead = 0.0;  ///< power_w * (1 + perf loss) + injected power

  [[nodiscard]] bool operator==(const ScenarioResult&) const = default;
};

/// A mitigated floorplan plus the mitigation's cost figures.
struct MitigationOutcome {
  Floorplan3D floorplan;
  double overhead_w = 0.0;
  double performance_loss = 0.0;
  double peak_k = 0.0;
};

/// Reconstruct the exploration's final floorplan: build_design() for the
/// job, then the StoredResult's placement, TSVs, and derived clock
/// applied on top.  The rebuilt plan reproduces the stored metrics
/// (wirelength_m bitwise; the differential suite asserts it).
[[nodiscard]] Floorplan3D rebuild_floorplan(
    const service::JobSpec& exploration, const config::ConfigFile& cfg,
    const service::StoredResult& stored);

/// Apply one mitigation.  `none` returns the plan unchanged with zero
/// cost.  `dtm` runs the closed DTM loop (run_dtm, seeded Rng) and, when
/// the controller throttled at all, returns the plan with the
/// controller's exact throttle set (mitigation::throttleable_modules)
/// statically applied at throttle_scale.  `noise_injection` runs the
/// smoothing controller (run_noise_injection) and returns the plan with
/// one injector pseudo-module per nonzero bin of the injected-power map
/// (voltage index 0, so the injected wattage is exact).
[[nodiscard]] MitigationOutcome apply_mitigation(const Floorplan3D& fp,
                                                 const ThermalConfig& thermal,
                                                 MitigationKind kind,
                                                 const CampaignOptions& opt,
                                                 std::uint64_t seed);

/// Run one attacker model against the (mitigated) floorplan and map its
/// native result onto the uniform success scalar in [0, 1]
/// (docs/CAMPAIGNS.md lists the mapping per attack).
[[nodiscard]] double run_attack(const Floorplan3D& fp,
                                const thermal::GridSolver& solver,
                                AttackKind kind, const CampaignOptions& opt,
                                std::uint64_t seed);

/// Leakage metrics of the (mitigated) floorplan on the scenario grid.
struct LeakageSummary {
  double pearson_abs_max = 0.0;
  double mi_max = 0.0;
  double svf = 0.0;
  double spatial_entropy_max = 0.0;

  [[nodiscard]] bool operator==(const LeakageSummary&) const = default;
};

[[nodiscard]] LeakageSummary measure_leakage(const Floorplan3D& fp,
                                             const thermal::GridSolver& solver,
                                             const CampaignOptions& opt,
                                             std::uint64_t seed);

/// Evaluate one scenario job end to end.  The exploration result comes
/// from `exploration_cache` when possible; a miss runs the exploration
/// in-process via service::run_job (checkpointing to `checkpoint_file`,
/// result to `exploration_result_file`) and populates the cache, so
/// concurrent scenario jobs sharing a floorplan duplicate at most the
/// exploration work -- never diverge on its result.  Throws on failure
/// (the runner maps that to JobQueue::fail).
[[nodiscard]] ScenarioResult evaluate_scenario(
    const service::JobSpec& job, const CampaignOptions& opt,
    const std::filesystem::path& checkpoint_file,
    const std::filesystem::path& exploration_result_file,
    service::ResultCache* exploration_cache, std::size_t checkpoint_interval);

}  // namespace tsc3d::campaign
