// flowbench -- in-memory span recorder for the traced benchmark run.
//
// The traced driver links wraps.cpp, whose -Wl,--wrap wrappers open one
// span per call into a layer's public function.  Spans stay in memory
// until driver.cpp writes them out at the end of the run; the recorder
// only records while driver.cpp has switched it on (the measured
// section), so correctness checks and set-up never show up as spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace flowbench {

/// Every traced boundary.  The order is the report order; `kBoundaries`
/// below gives each its metric name and whether it is hot (hot
/// boundaries also report p50_us and tail_us).
enum class Boundary : std::uint8_t {
  spatial_entropy,
  pearson,
  mutual_information,
  power_map,
  evaluate_cheap,
  solve_fast_loop,
  solve_verify,
  solve_sampling,
  solve_transient,
  solve_transient_feedback,
  run_stage,
  evaluate_thermal,
  evaluate_full,
  apply_to,
  tx_stage,
  tx_rollback,
  hpwl,
  tsv_density_map,
  timing_analyze,
  voltage_assign,
  place_signal,
  insert_dummy,
  attack_localization,
  attack_monitoring,
  attack_covert_channel,
  mitigation_dtm,
  mitigation_noise_injection,
  evaluate_scenario,
  artifact_write,
  artifact_read,
  queue_claim,
  count_,
};

struct BoundaryInfo {
  const char* name;
  bool hot;
};

inline constexpr BoundaryInfo kBoundaries[] = {
    {"leakage.spatial_entropy", true},
    {"leakage.pearson", false},
    {"leakage.mutual_information", false},
    {"core.power_map", true},
    {"floorplan.evaluate_cheap", true},
    {"thermal.solve_steady.fast_loop", true},
    {"thermal.solve_steady.verify", true},
    {"thermal.solve_steady.sampling", true},
    {"thermal.solve_transient", false},
    {"thermal.solve_transient_feedback", false},
    {"floorplan.run_stage", false},
    {"floorplan.evaluate_thermal", false},
    {"floorplan.evaluate_full", false},
    {"floorplan.apply_to", true},
    {"floorplan.tx_stage", false},
    {"floorplan.tx_rollback", false},
    {"core.hpwl_cached", true},
    {"core.tsv_density_map", false},
    {"power.analyze_cached", true},
    {"power.voltage_assign", false},
    {"tsv.place_signal", false},
    {"tsv.insert_dummy", false},
    {"attack.localization", false},
    {"attack.monitoring", false},
    {"attack.covert_channel", false},
    {"mitigation.dtm", false},
    {"mitigation.noise_injection", false},
    {"campaign.evaluate_scenario", true},
    {"service.artifact_write", false},
    {"service.artifact_read", false},
    {"service.queue_claim", false},
};
static_assert(std::size(kBoundaries) ==
              static_cast<std::size_t>(Boundary::count_));

/// Solver work counted around every wrapped thermal entry point, from
/// the engine's own ThermalEngine::Stats (before/after deltas).
struct SolverCounters {
  std::size_t fast_solves = 0;
  std::size_t fast_sweeps = 0;
  std::size_t fast_builds = 0;
  std::size_t fast_reuses = 0;
  std::size_t mg_solves = 0;  ///< steady solves on multigrid engines
  std::size_t mg_stalls = 0;  ///< ... of which fell back to SOR
  std::size_t vcycles = 0;
  std::size_t fmg_starts = 0;
};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t request = 0;
  Boundary boundary = Boundary::count_;
};

/// True in the traced executable (wraps.cpp), false in the plain one.
extern const bool kTraced;

/// Start / stop recording.  Spans and counters only accumulate while on.
void set_recording(bool on);

/// Request id attached to spans opened from now on (flow seed or
/// scenario job id).
void set_request(const std::string& id);

/// Opens a span on construction and closes it on destruction.
class SpanScope {
 public:
  explicit SpanScope(Boundary b);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int32_t index_ = -1;
};

/// Counter updates from the wrappers; ignored while not recording.
void add_solver_counts(const SolverCounters& delta);
void add_bytes_written(std::uintmax_t bytes);

/// Per-layer numbers derived from the recorded spans and counters.
struct LayerReport {
  /// metric name -> value, in report order.
  std::vector<std::pair<std::string, double>> metrics;
  /// Human-readable tail description per hot boundary.
  std::vector<std::string> notes;
  double covered_s = 0.0;  ///< sum of span self times
};

/// Summarise what was recorded.  `extra` carries counters driver.cpp
/// reads from the program's outputs (anneal stats, dummy-TSV results,
/// cache hits), appended under their own names.
[[nodiscard]] LayerReport summarize(
    const std::vector<std::pair<std::string, double>>& extra);

/// Write every span as CSV: id,parent,name,request,start_ns,end_ns.
void write_spans(const std::filesystem::path& file);

}  // namespace flowbench
