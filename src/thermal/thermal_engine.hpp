// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// ThermalEngine: the stateful, reuse-aware core of the HotSpot-style
// finite-volume thermal solver.  Where the legacy GridSolver facade
// re-assembles the conductance network and restarts every SOR solve from
// ambient, the engine
//
//  * caches the assembled network and re-validates it with a cheap
//    fingerprint of the TSV-density map (the only solve input that
//    changes the matrix), so back-to-back solves over the same TSV
//    arrangement -- the common case in annealing, activity sampling,
//    noise injection, and DTM loops -- skip assembly entirely;
//  * keeps the temperature field of the previous solve and uses it to
//    warm-start the next one: successive power maps in those loops are
//    small perturbations of each other, so a warm start typically
//    converges in a handful of sweeps instead of hundreds;
//  * sweeps in red-black order over flattened per-node conductance
//    arrays.  Nodes of one color only read nodes of the other, so the
//    stride-2 inner loop carries no dependence, vectorizes, and shards
//    row ranges across a persistent worker pool (ParallelConfig);
//  * runs every steady solve and every implicit-Euler step through one
//    relaxation loop, on the backend its SolverPolicy names: red-black
//    SOR sweeps, or geometric multigrid V-cycles over a per-assembly
//    hierarchy of coarsened conductance networks (see
//    thermal/multigrid.hpp) that reuse the same red-black sweep as the
//    smoother on every level -- so sweep sharding works unchanged on
//    the fine level.  V-cycles that stop contracting hand the field to
//    SOR sweeps.  A tolerance scale lets hot loops trade stopping
//    accuracy for sweeps per solve;
//  * reports solver effort (sweeps, convergence, residual, reuse) in
//    ThermalResult / TransientResult so callers and benches can see what
//    a solve actually cost.
//
// The engine is deliberately NOT thread-safe: it owns mutable scratch
// state.  Use one engine per thread; the engine's own sweep workers are
// internal and synchronized, so a threaded engine is still safe to use
// from exactly one caller thread at a time.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/grid.hpp"
#include "thermal/stack.hpp"

namespace tsc3d::thermal {

/// Sweep-sharding configuration.  `threads == 1` (the default) keeps the
/// fully serial sweep; `threads > 1` shards each red-black color's row
/// range across a persistent pool of threads - 1 workers plus the calling
/// thread.  Within a color every node only reads the other color, so the
/// shards are dependence-free and the threaded sweep is bitwise identical
/// to the serial one for any thread count.
struct ParallelConfig {
  std::size_t threads = 1;
  /// Auto-serialization floor: the engine caps its effective thread
  /// count at total_nodes / min_nodes_per_thread, so tiny grids (the
  /// 16x16-ish fast-loop resolutions, where the per-sweep barrier
  /// rendezvous would cost more than the sharded work saves) stay
  /// serial no matter what `threads` asks for.  Results are bitwise
  /// identical at every effective count, so the cap never changes
  /// numbers -- only speed.  0 disables the floor (used by tests to
  /// force sharding on deliberately small grids).
  std::size_t min_nodes_per_thread = 4096;
};

/// What an engine instance is FOR -- the input `thermal.solver = auto`
/// uses to pick a backend per engine.  The annealing fast loop makes
/// thousands of warm solves over small perturbations, where a warm SOR
/// start converges in a handful of sweeps and a V-cycle's fixed coarse
/// traffic is pure overhead; sampling and verification engines see cold
/// or strongly perturbed fields (fresh layouts, activity draws, DTM
/// trajectories), exactly the smooth-error regime multigrid removes.
enum class EngineRole {
  fast_loop,  ///< annealing inner loop: warm, incremental solves
  sampling,   ///< activity sampling / noise injection: mixed reuse
  verify,     ///< verification, reporting, DTM: cold full-accuracy solves
};

/// Resolve a configured backend against the engine's role: explicit
/// `sor` / `multigrid` force that backend; `auto_select` maps the warm
/// fast-loop engine to SOR and everything else to multigrid.
[[nodiscard]] constexpr SolverBackend resolve_backend(SolverBackend requested,
                                                      EngineRole role) {
  if (requested != SolverBackend::auto_select) return requested;
  return role == EngineRole::fast_loop ? SolverBackend::sor
                                       : SolverBackend::multigrid;
}

/// What differs between engines in how they solve: the backend (red-black
/// SOR sweeps, or geometric multigrid V-cycles smoothed by the same
/// sweep) and the steady stopping-rule scale.  The backend is resolved
/// against the engine's role at construction, so it is always concrete.
/// Steady solves stop once a sweep's max per-node update drops below
/// `tolerance_k * tolerance_scale`: scale 1 (the default) keeps the
/// configured accuracy; a caller that only needs a coarse ranking of
/// candidate fields (the annealing fast loop) raises the scale and pays
/// fewer sweeps per solve.  Verification solves leave it at 1.
struct SolverPolicy {
  SolverBackend backend = SolverBackend::sor;
  double tolerance_scale = 1.0;  ///< >= 1: only ever loosens
};

/// Flattened conductance network.  Node index: (l * ny + iy) * nx + ix.
/// Neighbor conductances are stored per node with zeros at the domain
/// boundary, so the sweep needs no boundary branches.  The multigrid
/// hierarchy coarsens instances of this struct (2x in x/y, layers kept),
/// which is why it lives at namespace scope rather than inside the
/// engine.
struct Assembly {
  std::size_t nx = 0, ny = 0, nl = 0;
  std::vector<double> g_xm, g_xp;   ///< to x-1 / x+1 neighbor
  std::vector<double> g_ym, g_yp;   ///< to y-1 / y+1 neighbor
  std::vector<double> g_zm, g_zp;   ///< to layer below / above
  std::vector<double> diag_static;  ///< sum of the above + boundary paths
  std::vector<double> bound_rhs;    ///< boundary conductance * T_ambient
  std::vector<double> cap;          ///< per-node thermal capacitance
  std::vector<double> g_sink;       ///< per-cell convection (top layer)
  std::vector<double> g_pkg;        ///< per-cell secondary path (layer 0)

  [[nodiscard]] std::size_t num_nodes() const { return nl * nx * ny; }
  // Halo field layout for this grid shape: one pad column per row, one
  // pad row per layer, one pad layer on both ends (see ThermalEngine).
  [[nodiscard]] std::size_t padded_layer() const {
    return (nx + 1) * (ny + 1);
  }
  [[nodiscard]] std::size_t padded_size() const {
    return (nl + 2) * padded_layer();
  }
  /// Padded index of node (0, 0, 0).
  [[nodiscard]] std::size_t field_offset() const { return padded_layer(); }
};

/// One red-black color sweep over rows [row_begin, row_end) of a
/// halo-layout field (row index r maps to layer r / ny, row r % ny);
/// returns the shard's max absolute pre-relaxation node update.  Rows of
/// one color are mutually independent, so disjoint ranges may run
/// concurrently.  Shared by the engine's (possibly sharded) fine-level
/// sweeps and the multigrid coarse-level smoothing.
double sweep_color_rows(const Assembly& a, double omega, double* t, int color,
                        std::size_t row_begin, std::size_t row_end,
                        const double* rhs, const double* diag);

/// True when this build+CPU can run the hand-vectorized (AVX2) color
/// sweep.  GCC 12 does not auto-vectorize the stride-2 inner loop (the
/// gather/scatter pattern defeats its cost model), so the kernel in
/// sweep.cpp widens it by hand; it is bitwise-identical to the scalar
/// sweep -- same operation order per node, no FMA contraction -- so
/// dispatch never changes results, only speed.
[[nodiscard]] bool sweep_simd_available();
/// Runtime toggle for the SIMD sweep (on by default where available);
/// tests and benches A/B the scalar kernel through this.  Affects every
/// engine in the process; not thread-safe against concurrent sweeps.
void set_sweep_simd(bool enabled);
[[nodiscard]] bool sweep_simd_enabled();

class MultigridHierarchy;
struct MgScratch;

/// Output of a steady-state solve.
struct ThermalResult {
  /// Temperature map of each die's power layer [K], die 0 first.
  std::vector<GridD> die_temperature;
  /// Temperature maps of every stack layer, bottom to top [K].
  std::vector<GridD> layer_temperature;
  double peak_k = 0.0;            ///< hottest node anywhere in the stack
  std::size_t iterations = 0;     ///< fine-level red-black sweeps used
  bool converged = false;
  double heat_to_sink_w = 0.0;    ///< power leaving through the heatsink
  double heat_to_package_w = 0.0; ///< power leaving via the secondary path
  // --- solver diagnostics (filled by ThermalEngine) ---------------------
  double residual_k = 0.0;        ///< max node update of the last sweep
  bool warm_started = false;      ///< initial guess was a previous field
  bool assembly_reused = false;   ///< conductance network came from cache
  std::size_t vcycles = 0;        ///< multigrid V-cycles (0 on the SOR path)
  bool fmg_started = false;       ///< cold start was seeded by an FMG sweep
  /// V-cycles stopped contracting (strong z-coupling, e.g. monolithic
  /// stacks) and the solve fell back to plain SOR sweeps mid-flight.
  bool mg_stalled = false;
};

/// One recorded snapshot of a transient solve.
struct TransientSample {
  double time_s = 0.0;
  std::vector<double> die_peak_k;  ///< per-die peak temperature
  std::vector<double> die_mean_k;  ///< per-die mean temperature
  std::vector<double> die_power_w; ///< per-die total power at this instant
};

/// Output of a transient solve.
struct TransientResult {
  std::vector<TransientSample> trace;
  /// Final snapshot.  `converged` is true only if EVERY implicit-Euler
  /// step's inner SOR loop converged; `iterations` is the total sweep
  /// count over all steps.
  ThermalResult final_state;
  std::size_t steps = 0;               ///< implicit-Euler steps taken
  std::size_t unconverged_steps = 0;   ///< steps that exhausted max_iterations
  std::size_t total_iterations = 0;    ///< SOR sweeps summed over all steps
};

/// Opaque copy of the engine's padded temperature field, taken with
/// ThermalEngine::save_field and reinstalled with restore_field.  Lets
/// callers checkpoint a solver state and replay continuations from it
/// (e.g. DTM parameter sweeps reusing the t = 0+ heating step).
struct FieldSnapshot {
  std::vector<double> temp;

  [[nodiscard]] bool empty() const { return temp.empty(); }
  [[nodiscard]] bool operator==(const FieldSnapshot&) const = default;
};

class ThermalEngine {
 public:
  /// Initial guess policy for a steady-state solve.  For a transient
  /// solve the same enum selects the initial CONDITION: cold starts the
  /// trajectory from ambient (the default physical problem statement),
  /// warm continues it from the engine's current field (a checkpointed
  /// earlier transient).
  enum class Start {
    warm,  ///< reuse the previous temperature field when available
    cold,  ///< always restart from ambient (legacy GridSolver semantics)
  };

  /// Cumulative reuse counters, for benches and diagnostics.
  struct Stats {
    std::size_t steady_solves = 0;
    std::size_t transient_steps = 0;
    std::size_t warm_starts = 0;
    std::size_t assembly_builds = 0;
    std::size_t assembly_reuses = 0;
    std::size_t total_sweeps = 0;
    std::size_t vcycles = 0;           ///< multigrid V-cycles run
    std::size_t fmg_starts = 0;        ///< FMG-seeded cold solves
    std::size_t mg_stalls = 0;         ///< solves that fell back to SOR
  };

  /// `role` feeds backend auto-selection (`thermal.solver = auto`): a
  /// fast_loop engine resolves to SOR, sampling/verify to multigrid.
  /// Explicit `sor` / `multigrid` configs ignore the role.
  ThermalEngine(const TechnologyConfig& tech, const ThermalConfig& cfg,
                ParallelConfig parallel = {},
                EngineRole role = EngineRole::verify);
  ~ThermalEngine();
  ThermalEngine(ThermalEngine&&) noexcept;
  ThermalEngine& operator=(ThermalEngine&&) noexcept;

  [[nodiscard]] std::size_t nx() const { return cfg_.grid_nx; }
  [[nodiscard]] std::size_t ny() const { return cfg_.grid_ny; }
  /// Effective sweep thread count (1 = serial).
  [[nodiscard]] std::size_t threads() const;
  [[nodiscard]] const LayerStack& stack() const { return stack_; }
  [[nodiscard]] const ThermalConfig& config() const { return cfg_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// The backend and tolerance scale.  `policy().backend` is always
  /// concrete: auto_select was resolved against role() at construction.
  [[nodiscard]] const SolverPolicy& policy() const { return policy_; }
  /// The role this engine was constructed for (auto-selection input).
  [[nodiscard]] EngineRole role() const { return role_; }
  /// Set the tolerance scale, clamped to >= 1: subsequent steady solves
  /// stop at tolerance_k * max(1, scale).  The annealer loosens this for
  /// fast-loop solves (scaled by move size and temperature stage);
  /// verification engines never touch it.
  void set_tolerance_scale(double scale);

  /// Steady-state solve.  `die_power_w` holds one nx-by-ny map per die
  /// with power in watts per bin; `tsv_density` holds the fraction of
  /// each bin covered by TSV cells.  With Start::warm (the default) the
  /// previous field seeds the iteration; warm and cold solves converge
  /// to the same fixed point and carry the same order of residual error.
  /// Note the stopping rule bounds the per-sweep update (tolerance_k),
  /// not the absolute solution error, so warm/cold fields -- and SOR vs
  /// multigrid fields -- agree to solver accuracy, a small multiple of
  /// tolerance_k in practice (the tests assert 1e-3 K agreement at
  /// tolerance_k = 1e-6), not bitwise.
  [[nodiscard]] ThermalResult solve_steady(
      const std::vector<GridD>& die_power_w, const GridD& tsv_density,
      Start start = Start::warm);

  /// Copy of the engine's current temperature field (throws
  /// std::logic_error when no solve has produced one yet).
  [[nodiscard]] FieldSnapshot save_field() const;
  /// Install a snapshot as the engine's current field: the warm seed of
  /// the next steady solve, or the initial condition of a Start::warm
  /// transient.  The snapshot must come from an engine with the same
  /// grid shape (size-checked).
  void restore_field(const FieldSnapshot& snapshot);

  /// Transient solve with implicit Euler.  Starts from ambient (the
  /// initial condition is part of the problem statement, not a guess);
  /// the final field is kept as the warm seed for later steady-state
  /// solves.  `t_end_s` is rounded UP to a whole number of dt_s steps,
  /// so the final state is at ceil(t_end/dt) * dt.
  [[nodiscard]] TransientResult solve_transient(
      const std::function<std::vector<GridD>(double time_s)>& power_at,
      const GridD& tsv_density, double t_end_s, double dt_s,
      std::size_t record_stride = 1);

  /// Closed-loop variant: the power callback additionally receives the
  /// previous step's per-die temperature maps.  `start` selects the
  /// initial condition: Start::cold (the default) is the ambient initial
  /// condition; Start::warm continues the trajectory from the engine's
  /// current field (e.g. a restore_field checkpoint), with the first
  /// callback observing that field -- exactly as if the earlier steps
  /// had run in the same call.  Time stamps still begin at dt_s; the
  /// caller offsets them when stitching a continuation.
  using FeedbackPower = std::function<std::vector<GridD>(
      double time_s, const std::vector<GridD>& die_temp_prev)>;
  [[nodiscard]] TransientResult solve_transient_feedback(
      const FeedbackPower& power_at, const GridD& tsv_density,
      double t_end_s, double dt_s, std::size_t record_stride = 1,
      Start start = Start::cold);

  /// Drop the cached assembly and the warm-start field (counters stay).
  void reset();

 private:
  void check_inputs(const std::vector<GridD>& die_power_w,
                    const GridD& tsv_density) const;
  /// Return the cached assembly, rebuilding it iff `tsv_density` differs
  /// from the map the cache was built from.
  const Assembly& assembly_for(const GridD& tsv_density);
  void build_assembly(const GridD& tsv_density);
  /// On the multigrid backend, build the hierarchy for the current
  /// assembly if it is not valid yet and point its scratch at the
  /// operator of implicit-Euler step `dt_s` (0 = steady).  True when
  /// V-cycles can run: multigrid backend and a coarsenable grid.
  bool prepare_multigrid(double dt_s);
  /// One red-black sweep (both colors, over-relaxation `omega`) over the
  /// padded field `t`; returns the max absolute (pre-relaxation) node
  /// update.  Dispatches each color to the worker pool when sweep
  /// sharding is active, otherwise runs inline.
  double sweep(double* t, const double* rhs, const double* diag,
               double omega);
  /// Pool entry point: sweep one color over the global row range
  /// [row_begin, row_end) at the pool job's omega.
  double sweep_rows(double* t, int color, std::size_t row_begin,
                    std::size_t row_end, const double* rhs,
                    const double* diag, double omega) const;
  /// The relaxation loop of one steady solve or one implicit-Euler step:
  /// solve `diag * t = rhs + neighbor flows` in place until a sweep's max
  /// node update drops below `tol`, within cfg_.max_iterations fine-level
  /// sweeps.  With `mg_on` it runs V-cycles -- after one plain smoothing
  /// sweep when `opening_sweep` asks for it, which may already meet
  /// `tol` -- until they converge, run out of sweeps or stall; then, or
  /// without `mg_on`, SOR sweeps at sor_omega.  A stall sets
  /// `result.mg_stalled`, and a set flag skips straight to SOR, so a
  /// result carried across calls keeps the stall (transient steps) and
  /// a fresh one does not (steady solves).  Writes this call's
  /// iterations, converged flag and residual into `result`, adds its
  /// V-cycles to result.vcycles, and counts V-cycles and stalls in
  /// stats_.
  void relax(double* t, const double* rhs, const double* diag, double tol,
             bool mg_on, bool opening_sweep, ThermalResult& result);
  /// One multigrid V-cycle on the fine field `t` against the fine-level
  /// diagonal `diag` (diag_static for steady solves, the implicit-Euler
  /// diagonal for transients -- mg_scratch_'s mg_set_dt state must
  /// match).  Fine-level smoothing goes through sweep() (sharded when
  /// the pool is active); coarse levels always smooth serially.
  /// Returns the last post-smoothing sweep's max node update (the
  /// convergence measure).
  double vcycle(double* t, const double* rhs, const double* diag);
  /// Build `rhs` for a steady solve (power injection + boundary terms).
  void fill_steady_rhs(const std::vector<GridD>& die_power_w,
                       std::vector<double>& rhs) const;
  /// Copy a padded field into a ThermalResult (maps, peak, heat flows).
  void extract_field(const double* t, ThermalResult& result) const;
  /// Extract the per-die temperature maps of a padded field.
  void extract_die_maps(const double* t, std::vector<GridD>& maps) const;

  [[nodiscard]] double* field() { return temp_.data() + field_offset_; }
  [[nodiscard]] const double* field() const {
    return temp_.data() + field_offset_;
  }

  TechnologyConfig tech_;
  ThermalConfig cfg_;
  LayerStack stack_;
  EngineRole role_ = EngineRole::verify;
  SolverPolicy policy_;

  /// Persistent row-sharded sweep workers, sweep_threads_ wide.  Absent
  /// when sweeps run serial (sweep_threads_ == 1).
  class SweepPool;
  std::unique_ptr<SweepPool> pool_;
  /// Effective sweep-sharding width after the min_nodes_per_thread
  /// floor; 1 keeps sweeps serial (see ParallelConfig).
  std::size_t sweep_threads_ = 1;

  Assembly asm_;
  bool asm_valid_ = false;
  /// The TSV-density data the cached assembly was built from.
  std::vector<double> asm_tsv_;

  /// Coarsened-conductance hierarchy for the multigrid backend, built
  /// lazily per assembly (invalidated whenever the assembly rebuilds).
  std::unique_ptr<MultigridHierarchy> mg_;
  /// Per-level V-cycle scratch.
  std::unique_ptr<MgScratch> mg_scratch_;

  /// Temperature field in a halo layout: each row carries one pad column
  /// (stride nx + 1), each layer one pad row (stride (nx+1) * (ny+1)),
  /// plus one pad layer on both ends.  Every boundary neighbor read of
  /// the sweep -- all multiplied by a structurally zero conductance --
  /// lands in a pad cell instead of wrapping into a real node, so the
  /// inner loop stays branch-free AND shards never read a cell another
  /// shard may be writing (pads are never written during sweeps).
  std::vector<double> temp_;
  std::size_t field_offset_ = 0;  ///< padded index of node (0, 0, 0)
  bool field_valid_ = false;

  // Persistent scratch, sized on first use.
  std::vector<double> rhs_;
  std::vector<double> diag_;

  Stats stats_;
};

}  // namespace tsc3d::thermal
