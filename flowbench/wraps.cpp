// flowbench -- link-time wrappers that time calls into each layer.
//
// The traced driver is linked with -Wl,--wrap=<symbol> for every symbol
// named in a FLOWBENCH_WRAP / FLOWBENCH_REAL line below (CMakeLists.txt
// extracts them from this file), so every call that crosses an object
// file of libtsc3d.a into one of these functions lands in __wrap_<sym>,
// which opens a span and forwards to __real_<sym>.  The program itself is
// unchanged.  Rules this file keeps:
//
//  * A mangled name does not encode the return type, so every wrapper
//    takes its return type from the library's header: FREE_RET /
//    MEMBER_RET give the type of the call, never a hand-written guess.
//  * A later rename must not break the build or the link: the fallback
//    overloads below keep every wrapped free-function name declared, the
//    return type falls back to void when the call no longer compiles,
//    and __real_ references are weak.  A renamed function's wrapper is
//    simply never called, and its boundary reports zero calls.
//  * Calls that stay inside one .cpp file are resolved by the assembler
//    and cannot be wrapped (e.g. campaign::run_attack inside
//    evaluate_scenario); their leaf calls into other files are timed
//    instead.
#include <filesystem>
#include <functional>
#include <optional>
#include <system_error>
#include <type_traits>
#include <utility>

#include "attack/attacks.hpp"
#include "attack/covert_channel.hpp"
#include "campaign/scenario.hpp"
#include "campaign/scenario_io.hpp"
#include "core/floorplan.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/cost.hpp"
#include "floorplan/move_transaction.hpp"
#include "leakage/mutual_information.hpp"
#include "leakage/pearson.hpp"
#include "leakage/spatial_entropy.hpp"
#include "mitigation/dtm.hpp"
#include "mitigation/noise_injection.hpp"
#include "power/timing.hpp"
#include "power/voltage.hpp"
#include "recorder.hpp"
#include "service/checkpoint_io.hpp"
#include "service/job_queue.hpp"
#include "service/result_io.hpp"
#include "thermal/thermal_engine.hpp"
#include "tsv/dummy_inserter.hpp"
#include "tsv/planner.hpp"

namespace flowbench {
const bool kTraced = true;
namespace wrap {
struct Absent;  // never defined: no real call can match it
}
}  // namespace flowbench

// Fallback overloads (declared, never defined or called) that keep each
// wrapped free-function name visible even if the library renames it.
namespace tsc3d::leakage {
void spatial_entropy(flowbench::wrap::Absent*);
void pearson(flowbench::wrap::Absent*);
void mutual_information(flowbench::wrap::Absent*);
}  // namespace tsc3d::leakage
namespace tsc3d::tsv {
void place_signal_tsvs(flowbench::wrap::Absent*);
void insert_dummy_tsvs(flowbench::wrap::Absent*);
}  // namespace tsc3d::tsv
namespace tsc3d::attack {
void run_localization_attack(flowbench::wrap::Absent*);
void run_monitoring_attack(flowbench::wrap::Absent*);
void run_covert_channel(flowbench::wrap::Absent*);
}  // namespace tsc3d::attack
namespace tsc3d::mitigation {
void run_dtm(flowbench::wrap::Absent*);
void run_noise_injection(flowbench::wrap::Absent*);
}  // namespace tsc3d::mitigation
namespace tsc3d::campaign {
void evaluate_scenario(flowbench::wrap::Absent*);
void load_scenario_file(flowbench::wrap::Absent*);
void save_scenario_file(flowbench::wrap::Absent*);
}  // namespace tsc3d::campaign
namespace tsc3d::service {
void load_checkpoint_file(flowbench::wrap::Absent*);
void save_checkpoint_file(flowbench::wrap::Absent*);
void load_result_file(flowbench::wrap::Absent*);
void save_result_file(flowbench::wrap::Absent*);
}  // namespace tsc3d::service

// extern "C" declarations inside a named namespace still get their plain
// (here: the mangled C++) symbol names.
namespace flowbench::wrap {

using namespace tsc3d;
using flowbench::Boundary;
using flowbench::SpanScope;
using Path = std::filesystem::path;
using Vec = std::vector<double>;
using Engine = thermal::ThermalEngine;

// The result type of invoking Call with Args, or void if that no longer
// compiles.
template <class Call, class... Args>
using ret_or_void = typename std::conditional_t<
    std::is_invocable_v<Call, Args...>, std::invoke_result<Call, Args...>,
    std::type_identity<void>>::type;

#define FLOWBENCH_FWD(x) static_cast<decltype(x)&&>(x)
// Return type of the free function FN called with the given argument types.
#define FREE_RET(FN, ...)                                                  \
  ret_or_void<decltype([](auto&&... a) -> decltype(FN(FLOWBENCH_FWD(a)...)) { \
                return FN(FLOWBENCH_FWD(a)...);                             \
              }),                                                           \
              __VA_ARGS__>
// Return type of the member function FN called on SELF (a reference type).
#define MEMBER_RET(FN, SELF, ...)                                    \
  ret_or_void<decltype([](auto&& self, auto&&... a)                  \
                           -> decltype(self.FN(FLOWBENCH_FWD(a)...)) { \
                return self.FN(FLOWBENCH_FWD(a)...);                  \
              }),                                                     \
              SELF __VA_OPT__(, ) __VA_ARGS__>

// Declares the weak __real_ reference of a wrapped symbol.
#define FLOWBENCH_REAL(SYM, RET, PARAMS) \
  extern "C" RET __real_##SYM PARAMS __attribute__((weak));

// A plain wrapper: one span around the forwarded call.
#define FLOWBENCH_WRAP(SYM, BOUNDARY, RET, PARAMS, ARGS) \
  FLOWBENCH_REAL(SYM, RET, PARAMS)                       \
  extern "C" RET __wrap_##SYM PARAMS {                   \
    const SpanScope span(Boundary::BOUNDARY);            \
    return __real_##SYM ARGS;                            \
  }

// --- leakage -------------------------------------------------------------
using leakage::SpatialEntropyOptions;
using EntropyRet = FREE_RET(leakage::spatial_entropy, const GridD&,
                            const SpatialEntropyOptions&);
FLOWBENCH_WRAP(_ZN5tsc3d7leakage15spatial_entropyERKNS_6Grid2DIdEERKNS0_21SpatialEntropyOptionsE,
               spatial_entropy, EntropyRet,
               (const GridD& map, const SpatialEntropyOptions& o), (map, o))

using PearsonGridRet = FREE_RET(leakage::pearson, const GridD&, const GridD&);
FLOWBENCH_WRAP(_ZN5tsc3d7leakage7pearsonERKNS_6Grid2DIdEES4_, pearson,
               PearsonGridRet, (const GridD& a, const GridD& b), (a, b))
using PearsonVecRet = FREE_RET(leakage::pearson, const Vec&, const Vec&);
FLOWBENCH_WRAP(_ZN5tsc3d7leakage7pearsonERKSt6vectorIdSaIdEES5_, pearson,
               PearsonVecRet, (const Vec& a, const Vec& b), (a, b))

using MiOpt = leakage::MutualInformationOptions;
using MiGridRet = FREE_RET(leakage::mutual_information, const GridD&,
                           const GridD&, const MiOpt&);
FLOWBENCH_WRAP(_ZN5tsc3d7leakage18mutual_informationERKNS_6Grid2DIdEES4_RKNS0_24MutualInformationOptionsE,
               mutual_information, MiGridRet,
               (const GridD& a, const GridD& b, const MiOpt& o), (a, b, o))
using MiVecRet = FREE_RET(leakage::mutual_information, const Vec&,
                          const Vec&, const MiOpt&);
FLOWBENCH_WRAP(_ZN5tsc3d7leakage18mutual_informationERKSt6vectorIdSaIdEES5_RKNS0_24MutualInformationOptionsE,
               mutual_information, MiVecRet,
               (const Vec& a, const Vec& b, const MiOpt& o), (a, b, o))

// --- core ----------------------------------------------------------------
using PowerMapRet = MEMBER_RET(power_map, const Floorplan3D&, std::size_t,
                               std::size_t, std::size_t, const Vec*);
FLOWBENCH_WRAP(_ZNK5tsc3d11Floorplan3D9power_mapEmmmPKSt6vectorIdSaIdEE,
               power_map, PowerMapRet,
               (const Floorplan3D* self, std::size_t d, std::size_t nx,
                std::size_t ny, const Vec* module_power_w),
               (self, d, nx, ny, module_power_w))

// The full-rescan hpwl() shares the HPWL boundary with hpwl_cached(): with
// incremental evaluation off the cost evaluator calls it instead.
using HpwlCachedRet = MEMBER_RET(hpwl_cached, Floorplan3D&);
FLOWBENCH_WRAP(_ZN5tsc3d11Floorplan3D11hpwl_cachedEv, hpwl, HpwlCachedRet,
               (Floorplan3D* self), (self))
using HpwlRet = MEMBER_RET(hpwl, const Floorplan3D&);
FLOWBENCH_WRAP(_ZNK5tsc3d11Floorplan3D4hpwlEv, hpwl, HpwlRet,
               (const Floorplan3D* self), (self))

using TsvMapRet = MEMBER_RET(tsv_density_map, const Floorplan3D&, std::size_t,
                             std::size_t, bool);
FLOWBENCH_WRAP(_ZNK5tsc3d11Floorplan3D15tsv_density_mapEmmb, tsv_density_map,
               TsvMapRet,
               (const Floorplan3D* self, std::size_t nx, std::size_t ny,
                bool flag),
               (self, nx, ny, flag))

// --- floorplan -----------------------------------------------------------
using floorplan::CostEvaluator;
using CheapRet = MEMBER_RET(evaluate_cheap, CostEvaluator&);
FLOWBENCH_WRAP(_ZN5tsc3d9floorplan13CostEvaluator14evaluate_cheapEv,
               evaluate_cheap, CheapRet, (CostEvaluator* self), (self))
using ThermalEvalRet = MEMBER_RET(evaluate_thermal, CostEvaluator&);
FLOWBENCH_WRAP(_ZN5tsc3d9floorplan13CostEvaluator16evaluate_thermalEv,
               evaluate_thermal, ThermalEvalRet, (CostEvaluator* self), (self))
using FullRet = MEMBER_RET(evaluate_full, CostEvaluator&);
FLOWBENCH_WRAP(_ZN5tsc3d9floorplan13CostEvaluator13evaluate_fullEv,
               evaluate_full, FullRet, (CostEvaluator* self), (self))

using floorplan::AnnealSession;
using floorplan::Annealer;
using RunStageRet = MEMBER_RET(run_stage, Annealer&, AnnealSession&, Rng&);
FLOWBENCH_WRAP(_ZN5tsc3d9floorplan8Annealer9run_stageERNS0_13AnnealSessionERNS_3RngE,
               run_stage, RunStageRet,
               (Annealer* self, AnnealSession& session, Rng& rng),
               (self, session, rng))

using floorplan::LayoutState;
using ApplyRet = MEMBER_RET(apply_to, const LayoutState&, Floorplan3D&);
FLOWBENCH_WRAP(_ZNK5tsc3d9floorplan11LayoutState8apply_toERNS_11Floorplan3DE,
               apply_to, ApplyRet,
               (const LayoutState* self, Floorplan3D& fp), (self, fp))

using floorplan::MoveRecord;
using floorplan::MoveTransaction;
using StageRet = MEMBER_RET(stage, MoveTransaction&);
FLOWBENCH_WRAP(_ZN5tsc3d9floorplan15MoveTransaction5stageEv, tx_stage,
               StageRet, (MoveTransaction* self), (self))
using RollbackRet = MEMBER_RET(rollback, MoveTransaction&, const MoveRecord&);
FLOWBENCH_WRAP(_ZN5tsc3d9floorplan15MoveTransaction8rollbackERKNS0_10MoveRecordE,
               tx_rollback, RollbackRet,
               (MoveTransaction* self, const MoveRecord& rec), (self, rec))

// --- power ---------------------------------------------------------------
// Like HPWL, the cached and the full Elmore analysis share one boundary.
using power::ElmoreTiming;
using AnalyzeCachedRet = MEMBER_RET(analyze_cached, ElmoreTiming&);
FLOWBENCH_WRAP(_ZN5tsc3d5power12ElmoreTiming14analyze_cachedEv,
               timing_analyze, AnalyzeCachedRet, (ElmoreTiming* self), (self))
using AnalyzeRet = MEMBER_RET(analyze, const ElmoreTiming&);
FLOWBENCH_WRAP(_ZNK5tsc3d5power12ElmoreTiming7analyzeEv, timing_analyze,
               AnalyzeRet, (const ElmoreTiming* self), (self))

using power::VoltageAssigner;
using AssignRet = MEMBER_RET(assign, VoltageAssigner&);
FLOWBENCH_WRAP(_ZN5tsc3d5power15VoltageAssigner6assignEv, voltage_assign,
               AssignRet, (VoltageAssigner* self), (self))

// --- tsv -----------------------------------------------------------------
using tsv::PlannerOptions;
using PlaceRet = FREE_RET(tsv::place_signal_tsvs, Floorplan3D&,
                          const PlannerOptions&);
FLOWBENCH_WRAP(_ZN5tsc3d3tsv17place_signal_tsvsERNS_11Floorplan3DERKNS0_14PlannerOptionsE,
               place_signal, PlaceRet,
               (Floorplan3D& fp, const PlannerOptions& o), (fp, o))

using tsv::DummyInsertOptions;
using DummyEngineRet = FREE_RET(tsv::insert_dummy_tsvs, Floorplan3D&, Engine&,
                                Rng&, const DummyInsertOptions&);
FLOWBENCH_WRAP(_ZN5tsc3d3tsv17insert_dummy_tsvsERNS_11Floorplan3DERNS_7thermal13ThermalEngineERNS_3RngERKNS0_18DummyInsertOptionsE,
               insert_dummy, DummyEngineRet,
               (Floorplan3D& fp, Engine& engine, Rng& rng,
                const DummyInsertOptions& o),
               (fp, engine, rng, o))
using thermal::GridSolver;
using DummySolverRet = FREE_RET(tsv::insert_dummy_tsvs, Floorplan3D&,
                                const GridSolver&, Rng&,
                                const DummyInsertOptions&);
FLOWBENCH_WRAP(_ZN5tsc3d3tsv17insert_dummy_tsvsERNS_11Floorplan3DERKNS_7thermal10GridSolverERNS_3RngERKNS0_18DummyInsertOptionsE,
               insert_dummy, DummySolverRet,
               (Floorplan3D& fp, const GridSolver& solver, Rng& rng,
                const DummyInsertOptions& o),
               (fp, solver, rng, o))

// --- attack --------------------------------------------------------------
using attack::AttackOptions;
using LocalizationRet =
    FREE_RET(attack::run_localization_attack, const Floorplan3D&,
             const GridSolver&, Rng&, const AttackOptions&);
FLOWBENCH_WRAP(_ZN5tsc3d6attack23run_localization_attackERKNS_11Floorplan3DERKNS_7thermal10GridSolverERNS_3RngERKNS0_13AttackOptionsE,
               attack_localization, LocalizationRet,
               (const Floorplan3D& fp, const GridSolver& solver, Rng& rng,
                const AttackOptions& o),
               (fp, solver, rng, o))
using MonitoringRet =
    FREE_RET(attack::run_monitoring_attack, const Floorplan3D&,
             const GridSolver&, std::size_t, std::size_t, std::size_t, Rng&,
             const AttackOptions&);
FLOWBENCH_WRAP(_ZN5tsc3d6attack21run_monitoring_attackERKNS_11Floorplan3DERKNS_7thermal10GridSolverEmmmRNS_3RngERKNS0_13AttackOptionsE,
               attack_monitoring, MonitoringRet,
               (const Floorplan3D& fp, const GridSolver& solver, std::size_t a,
                std::size_t b, std::size_t c, Rng& rng, const AttackOptions& o),
               (fp, solver, a, b, c, rng, o))
using attack::CovertChannelOptions;
using CovertRet = FREE_RET(attack::run_covert_channel, const Floorplan3D&,
                           const GridSolver&, std::size_t, Rng&,
                           const CovertChannelOptions&);
FLOWBENCH_WRAP(_ZN5tsc3d6attack18run_covert_channelERKNS_11Floorplan3DERKNS_7thermal10GridSolverEmRNS_3RngERKNS0_20CovertChannelOptionsE,
               attack_covert_channel, CovertRet,
               (const Floorplan3D& fp, const GridSolver& solver, std::size_t a,
                Rng& rng, const CovertChannelOptions& o),
               (fp, solver, a, rng, o))

// --- mitigation ----------------------------------------------------------
using mitigation::DtmCheckpoint;
using mitigation::DtmOptions;
using DtmSolverRet = FREE_RET(mitigation::run_dtm, const Floorplan3D&,
                              const GridSolver&, double, double, Rng&,
                              const DtmOptions&, DtmCheckpoint*);
FLOWBENCH_WRAP(_ZN5tsc3d10mitigation7run_dtmERKNS_11Floorplan3DERKNS_7thermal10GridSolverEddRNS_3RngERKNS0_10DtmOptionsEPNS0_13DtmCheckpointE,
               mitigation_dtm, DtmSolverRet,
               (const Floorplan3D& fp, const GridSolver& solver, double a,
                double b, Rng& rng, const DtmOptions& o, DtmCheckpoint* ck),
               (fp, solver, a, b, rng, o, ck))
using DtmEngineRet = FREE_RET(mitigation::run_dtm, const Floorplan3D&,
                              Engine&, double, double, Rng&,
                              const DtmOptions&, DtmCheckpoint*);
FLOWBENCH_WRAP(_ZN5tsc3d10mitigation7run_dtmERKNS_11Floorplan3DERNS_7thermal13ThermalEngineEddRNS_3RngERKNS0_10DtmOptionsEPNS0_13DtmCheckpointE,
               mitigation_dtm, DtmEngineRet,
               (const Floorplan3D& fp, Engine& engine, double a, double b,
                Rng& rng, const DtmOptions& o, DtmCheckpoint* ck),
               (fp, engine, a, b, rng, o, ck))

using mitigation::InjectionOptions;
using InjectSolverRet =
    FREE_RET(mitigation::run_noise_injection, const Floorplan3D&,
             const GridSolver&, const InjectionOptions&, const Vec*);
FLOWBENCH_WRAP(_ZN5tsc3d10mitigation19run_noise_injectionERKNS_11Floorplan3DERKNS_7thermal10GridSolverERKNS0_16InjectionOptionsEPKSt6vectorIdSaIdEE,
               mitigation_noise_injection, InjectSolverRet,
               (const Floorplan3D& fp, const GridSolver& solver,
                const InjectionOptions& o, const Vec* w),
               (fp, solver, o, w))
using InjectEngineRet =
    FREE_RET(mitigation::run_noise_injection, const Floorplan3D&, Engine&,
             const InjectionOptions&, const Vec*);
FLOWBENCH_WRAP(_ZN5tsc3d10mitigation19run_noise_injectionERKNS_11Floorplan3DERNS_7thermal13ThermalEngineERKNS0_16InjectionOptionsEPKSt6vectorIdSaIdEE,
               mitigation_noise_injection, InjectEngineRet,
               (const Floorplan3D& fp, Engine& engine,
                const InjectionOptions& o, const Vec* w),
               (fp, engine, o, w))

// --- campaign ------------------------------------------------------------
using campaign::CampaignOptions;
using service::JobSpec;
using service::ResultCache;
using ScenarioRet =
    FREE_RET(campaign::evaluate_scenario, const JobSpec&,
             const CampaignOptions&, const Path&, const Path&, ResultCache*,
             std::size_t);
FLOWBENCH_WRAP(_ZN5tsc3d8campaign17evaluate_scenarioERKNS_7service7JobSpecERKNS0_15CampaignOptionsERKNSt10filesystem7__cxx114pathESC_PNS1_11ResultCacheEm,
               evaluate_scenario, ScenarioRet,
               (const JobSpec& job, const CampaignOptions& o,
                const Path& checkpoint, const Path& result,
                ResultCache* cache, std::size_t interval),
               (job, o, checkpoint, result, cache, interval))

// --- service: artifact reads ---------------------------------------------
using service::ArtifactContext;
using LoadCheckpointRet = FREE_RET(service::load_checkpoint_file, const Path&,
                                   const ArtifactContext&);
FLOWBENCH_WRAP(_ZN5tsc3d7service20load_checkpoint_fileERKNSt10filesystem7__cxx114pathERKNS0_15ArtifactContextE,
               artifact_read, LoadCheckpointRet,
               (const Path& p, const ArtifactContext& ctx), (p, ctx))
using LoadResultRet = FREE_RET(service::load_result_file, const Path&,
                               const ArtifactContext*);
FLOWBENCH_WRAP(_ZN5tsc3d7service16load_result_fileERKNSt10filesystem7__cxx114pathEPKNS0_15ArtifactContextE,
               artifact_read, LoadResultRet,
               (const Path& p, const ArtifactContext* ctx), (p, ctx))
using campaign::ScenarioContext;
using LoadScenarioRet = FREE_RET(campaign::load_scenario_file, const Path&,
                                 const ScenarioContext*);
FLOWBENCH_WRAP(_ZN5tsc3d8campaign18load_scenario_fileERKNSt10filesystem7__cxx114pathEPKNS0_15ScenarioContextE,
               artifact_read, LoadScenarioRet,
               (const Path& p, const ScenarioContext* ctx), (p, ctx))

// The scenario cache reads and writes its frames inside scenario_io.cpp,
// where the load/save calls cannot be wrapped; its public entry points
// are timed instead.
using campaign::ScenarioCache;
using ScenarioProbeRet =
    MEMBER_RET(probe, const ScenarioCache&, const ScenarioContext&);
FLOWBENCH_WRAP(_ZNK5tsc3d8campaign13ScenarioCache5probeERKNS0_15ScenarioContextE,
               artifact_read, ScenarioProbeRet,
               (const ScenarioCache* self, const ScenarioContext& ctx),
               (self, ctx))

// --- service: artifact writes (also count the bytes that landed) ---------
template <class Call>
decltype(auto) timed_write(Path file, Call&& call) {
  struct CountBytes {
    const Path& file;
    ~CountBytes() {
      std::error_code ec;
      const std::uintmax_t size = std::filesystem::file_size(file, ec);
      if (!ec) flowbench::add_bytes_written(size);
    }
  };
  const CountBytes count{file};
  const SpanScope span(Boundary::artifact_write);
  return call();
}

using floorplan::ExplorationCheckpoint;
using SaveCheckpointRet =
    FREE_RET(service::save_checkpoint_file, const Path&,
             const ArtifactContext&, const ExplorationCheckpoint&);
FLOWBENCH_REAL(_ZN5tsc3d7service20save_checkpoint_fileERKNSt10filesystem7__cxx114pathERKNS0_15ArtifactContextERKNS_9floorplan21ExplorationCheckpointE,
               SaveCheckpointRet,
               (const Path&, const ArtifactContext&,
                const ExplorationCheckpoint&))
extern "C" SaveCheckpointRet
__wrap__ZN5tsc3d7service20save_checkpoint_fileERKNSt10filesystem7__cxx114pathERKNS0_15ArtifactContextERKNS_9floorplan21ExplorationCheckpointE(
    const Path& p, const ArtifactContext& ctx,
    const ExplorationCheckpoint& ck) {
  return timed_write(p, [&] {
    return __real__ZN5tsc3d7service20save_checkpoint_fileERKNSt10filesystem7__cxx114pathERKNS0_15ArtifactContextERKNS_9floorplan21ExplorationCheckpointE(
        p, ctx, ck);
  });
}

using service::StoredResult;
using SaveResultRet = FREE_RET(service::save_result_file, const Path&,
                               const StoredResult&);
FLOWBENCH_REAL(_ZN5tsc3d7service16save_result_fileERKNSt10filesystem7__cxx114pathERKNS0_12StoredResultE,
               SaveResultRet, (const Path&, const StoredResult&))
extern "C" SaveResultRet
__wrap__ZN5tsc3d7service16save_result_fileERKNSt10filesystem7__cxx114pathERKNS0_12StoredResultE(
    const Path& p, const StoredResult& r) {
  return timed_write(p, [&] {
    return __real__ZN5tsc3d7service16save_result_fileERKNSt10filesystem7__cxx114pathERKNS0_12StoredResultE(
        p, r);
  });
}

using campaign::ScenarioResult;
using SaveScenarioRet = FREE_RET(campaign::save_scenario_file, const Path&,
                                 const ScenarioResult&);
FLOWBENCH_REAL(_ZN5tsc3d8campaign18save_scenario_fileERKNSt10filesystem7__cxx114pathERKNS0_14ScenarioResultE,
               SaveScenarioRet, (const Path&, const ScenarioResult&))
extern "C" SaveScenarioRet
__wrap__ZN5tsc3d8campaign18save_scenario_fileERKNSt10filesystem7__cxx114pathERKNS0_14ScenarioResultE(
    const Path& p, const ScenarioResult& r) {
  return timed_write(p, [&] {
    return __real__ZN5tsc3d8campaign18save_scenario_fileERKNSt10filesystem7__cxx114pathERKNS0_14ScenarioResultE(
        p, r);
  });
}

using ScenarioStoreRet =
    MEMBER_RET(store, const ScenarioCache&, const ScenarioResult&);
FLOWBENCH_REAL(_ZNK5tsc3d8campaign13ScenarioCache5storeERKNS0_14ScenarioResultE,
               ScenarioStoreRet, (const ScenarioCache*, const ScenarioResult&))
extern "C" ScenarioStoreRet
__wrap__ZNK5tsc3d8campaign13ScenarioCache5storeERKNS0_14ScenarioResultE(
    const ScenarioCache* self, const ScenarioResult& r) {
  return timed_write(self->path_for(r.context), [&] {
    return __real__ZNK5tsc3d8campaign13ScenarioCache5storeERKNS0_14ScenarioResultE(
        self, r);
  });
}

// --- service: queue claims carry the request id of the spans that follow -
using service::JobQueue;
using ClaimRet = MEMBER_RET(claim_next, JobQueue&);
FLOWBENCH_REAL(_ZN5tsc3d7service8JobQueue10claim_nextEv, ClaimRet,
               (JobQueue*))
extern "C" ClaimRet __wrap__ZN5tsc3d7service8JobQueue10claim_nextEv(
    JobQueue* self) {
  ClaimRet claimed = [&] {
    const SpanScope span(Boundary::queue_claim);
    return __real__ZN5tsc3d7service8JobQueue10claim_nextEv(self);
  }();
  if (claimed) flowbench::set_request(claimed->id);
  return claimed;
}

// --- thermal: one span per solve, named by the engine's role, plus the
// engine's own counters (before/after deltas of ThermalEngine::Stats) ---
Boundary steady_boundary(const Engine& e) {
  switch (e.role()) {
    case thermal::EngineRole::fast_loop: return Boundary::solve_fast_loop;
    case thermal::EngineRole::sampling: return Boundary::solve_sampling;
    case thermal::EngineRole::verify: break;
  }
  return Boundary::solve_verify;
}

// Stalls are counted on steady solves only (`steady`), the solves that
// multigrid hands back to SOR; transient steps never enter the ratio.
template <class Call>
auto counted_solve(Engine* e, Boundary b, bool steady, Call&& call) {
  const Engine::Stats before = e->stats();
  auto result = [&] {
    const SpanScope span(b);
    return call();
  }();
  const Engine::Stats& after = e->stats();
  flowbench::SolverCounters d;
  const std::size_t solves = after.steady_solves - before.steady_solves;
  if (e->role() == thermal::EngineRole::fast_loop) {
    d.fast_solves = solves;
    d.fast_sweeps = after.total_sweeps - before.total_sweeps;
    d.fast_builds = after.assembly_builds - before.assembly_builds;
    d.fast_reuses = after.assembly_reuses - before.assembly_reuses;
  }
  if (steady && e->policy().backend == SolverBackend::multigrid) {
    d.mg_solves = solves;
    d.mg_stalls = after.mg_stalls - before.mg_stalls;
  }
  d.vcycles = after.vcycles - before.vcycles;
  d.fmg_starts = after.fmg_starts - before.fmg_starts;
  flowbench::add_solver_counts(d);
  return result;
}

using Start = Engine::Start;
using SteadyRet = MEMBER_RET(solve_steady, Engine&,
                             const std::vector<GridD>&, const GridD&, Start);
FLOWBENCH_REAL(_ZN5tsc3d7thermal13ThermalEngine12solve_steadyERKSt6vectorINS_6Grid2DIdEESaIS4_EERKS4_NS1_5StartE,
               SteadyRet,
               (Engine*, const std::vector<GridD>&, const GridD&, Start))
extern "C" SteadyRet
__wrap__ZN5tsc3d7thermal13ThermalEngine12solve_steadyERKSt6vectorINS_6Grid2DIdEESaIS4_EERKS4_NS1_5StartE(
    Engine* self, const std::vector<GridD>& power, const GridD& tsv,
    Start start) {
  return counted_solve(self, steady_boundary(*self), true, [&] {
    return __real__ZN5tsc3d7thermal13ThermalEngine12solve_steadyERKSt6vectorINS_6Grid2DIdEESaIS4_EERKS4_NS1_5StartE(
        self, power, tsv, start);
  });
}

using PowerAt = std::function<std::vector<GridD>(double)>;
using TransientRet = MEMBER_RET(solve_transient, Engine&, const PowerAt&,
                                const GridD&, double, double, std::size_t);
FLOWBENCH_REAL(_ZN5tsc3d7thermal13ThermalEngine15solve_transientERKSt8functionIFSt6vectorINS_6Grid2DIdEESaIS5_EEdEERKS5_ddm,
               TransientRet,
               (Engine*, const PowerAt&, const GridD&, double, double,
                std::size_t))
extern "C" TransientRet
__wrap__ZN5tsc3d7thermal13ThermalEngine15solve_transientERKSt8functionIFSt6vectorINS_6Grid2DIdEESaIS5_EEdEERKS5_ddm(
    Engine* self, const PowerAt& power_at, const GridD& tsv, double t_end,
    double dt, std::size_t stride) {
  return counted_solve(self, Boundary::solve_transient, false, [&] {
    return __real__ZN5tsc3d7thermal13ThermalEngine15solve_transientERKSt8functionIFSt6vectorINS_6Grid2DIdEESaIS5_EEdEERKS5_ddm(
        self, power_at, tsv, t_end, dt, stride);
  });
}

using Feedback = std::function<std::vector<GridD>(
    double, const std::vector<GridD>&)>;
using FeedbackRet =
    MEMBER_RET(solve_transient_feedback, Engine&, const Feedback&,
               const GridD&, double, double, std::size_t, Start);
FLOWBENCH_REAL(_ZN5tsc3d7thermal13ThermalEngine24solve_transient_feedbackERKSt8functionIFSt6vectorINS_6Grid2DIdEESaIS5_EEdRKS7_EERKS5_ddmNS1_5StartE,
               FeedbackRet,
               (Engine*, const Feedback&, const GridD&, double, double,
                std::size_t, Start))
extern "C" FeedbackRet
__wrap__ZN5tsc3d7thermal13ThermalEngine24solve_transient_feedbackERKSt8functionIFSt6vectorINS_6Grid2DIdEESaIS5_EEdRKS7_EERKS5_ddmNS1_5StartE(
    Engine* self, const Feedback& power_at, const GridD& tsv, double t_end,
    double dt, std::size_t stride, Start start) {
  return counted_solve(self, Boundary::solve_transient_feedback, false, [&] {
    return __real__ZN5tsc3d7thermal13ThermalEngine24solve_transient_feedbackERKSt8functionIFSt6vectorINS_6Grid2DIdEESaIS5_EEdRKS7_EERKS5_ddmNS1_5StartE(
        self, power_at, tsv, t_end, dt, stride, start);
  });
}

}  // namespace flowbench::wrap
