#include "thermal/thermal_engine.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "thermal/multigrid.hpp"

namespace tsc3d::thermal {

namespace {

/// Multigrid stall detection.  Point-smoothed x/y semicoarsening loses
/// its mesh-independent convergence when vertical coupling dominates the
/// lateral paths: damping lateral-oscillatory error that rides on stiff
/// z-columns needs z-line relaxation, which the red-black point smoother
/// is not.  Monolithic stacks are the concrete case -- their ~0.5um ILD
/// couples adjacent layers orders of magnitude more strongly than any
/// in-plane path, and V-cycles contract WORSE than plain SOR there.
/// Rather than predicting this from the stack (the z/lateral ratio
/// shifts with grid resolution), the relaxation loop watches its own
/// contraction: when a cycle fails to cut the per-sweep update below
/// kMgStallContraction of the previous cycle's, kMgStallCycles times in
/// a row, the solve is marked stalled and the loop hands the current
/// field to plain SOR sweeps.  Healthy cycles contract at ~0.1-0.3 per
/// cycle, stalled ones sit near 1.0, so the margin is wide on both
/// sides.  Every sweep is bitwise-deterministic across thread counts,
/// so the stall decision -- and therefore the fallback -- is too.
constexpr double kMgStallContraction = 0.7;
constexpr std::size_t kMgStallCycles = 3;

/// Cyclic rendezvous over mutex + condition_variable.  std::barrier would
/// do, but libstdc++'s futex-based implementation is not reliably modeled
/// by ThreadSanitizer (phantom races across the barrier), and a blocking
/// wait also behaves better than a spinning one when the pool is
/// oversubscribed.  Sweeps are ms-scale, so the condvar overhead is noise.
class PhaseBarrier {
 public:
  explicit PhaseBarrier(std::size_t parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock lock(mutex_);
    if (aborted_) return;
    const std::uint64_t phase = phase_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++phase_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return phase_ != phase || aborted_; });
    }
  }

  /// Permanently release every current and future waiter.  Shutdown
  /// only: lets the pool unwind even when fewer than `parties` threads
  /// exist (a worker failed to spawn), where a plain arrival could
  /// never complete the phase.
  void abort() {
    const std::lock_guard lock(mutex_);
    aborted_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t phase_ = 0;
  bool aborted_ = false;
};

}  // namespace

// sweep_color_rows lives in sweep.cpp: a scalar kernel plus a
// hand-vectorized AVX2 one (bitwise-identical) behind runtime dispatch.

/// Persistent sweep workers.  One pool serves one engine; a job is one
/// color-phase of a red-black sweep, sharded by rows.  The calling
/// thread acts as shard 0 and threads - 1 std::jthreads take the rest;
/// two barriers bracket every job, so no thread is spawned per sweep and
/// the publication of the job description (and of the other color's
/// node updates) is sequenced by the barrier synchronization.
class ThermalEngine::SweepPool {
 public:
  explicit SweepPool(std::size_t threads)
      : shard_delta_(threads), start_(threads), done_(threads) {
    workers_.reserve(threads - 1);
    try {
      for (std::size_t shard = 1; shard < threads; ++shard)
        workers_.emplace_back(
            [this, shard](const std::stop_token& st) { worker(st, shard); });
    } catch (...) {
      // A worker failed to spawn (thread-resource exhaustion).  The ones
      // already parked at the start barrier can never be released by a
      // normal arrival -- the full party count no longer exists -- so
      // shut down before the jthread destructors join them.
      shut_down();
      throw;
    }
  }

  ~SweepPool() { shut_down(); }

  SweepPool(const SweepPool&) = delete;
  SweepPool& operator=(const SweepPool&) = delete;

  [[nodiscard]] std::size_t threads() const { return workers_.size() + 1; }

  /// Sweep one color of the field `t`, sharded over threads() row
  /// ranges; returns the max node update.
  double sweep_color(const ThermalEngine& engine, double* t, int color,
                     std::size_t rows, const double* rhs, const double* diag,
                     double omega) {
    engine_ = &engine;
    field_ = t;
    color_ = color;
    rows_ = rows;
    rhs_ = rhs;
    diag_ = diag;
    omega_ = omega;
    start_.arrive_and_wait();
    run_shard(0);
    done_.arrive_and_wait();
    double max_delta = 0.0;
    for (const ShardDelta& d : shard_delta_)
      max_delta = std::max(max_delta, d.value);
    return max_delta;
  }

 private:
  /// Padded to a cache line so shards never write-share.
  struct alignas(64) ShardDelta {
    double value = 0.0;
  };

  void run_shard(std::size_t shard) {
    const std::size_t n = threads();
    const std::size_t begin = rows_ * shard / n;
    const std::size_t end = rows_ * (shard + 1) / n;
    shard_delta_[shard].value =
        engine_->sweep_rows(field_, color_, begin, end, rhs_, diag_, omega_);
  }

  void worker(const std::stop_token& st, std::size_t shard) {
    for (;;) {
      start_.arrive_and_wait();
      if (st.stop_requested()) return;
      run_shard(shard);
      done_.arrive_and_wait();
    }
  }

  /// Stop the workers and release them from wherever they are parked.
  /// Idle workers sit at the start barrier; abort() frees them to
  /// observe the stop request, and works even when some never spawned.
  void shut_down() {
    for (auto& w : workers_) w.request_stop();
    start_.abort();
    done_.abort();
  }

  // Job description, written by the caller before the start barrier.
  const ThermalEngine* engine_ = nullptr;
  double* field_ = nullptr;
  int color_ = 0;
  std::size_t rows_ = 0;
  const double* rhs_ = nullptr;
  const double* diag_ = nullptr;
  double omega_ = 1.0;

  std::vector<ShardDelta> shard_delta_;
  PhaseBarrier start_;
  PhaseBarrier done_;
  std::vector<std::jthread> workers_;
};

ThermalEngine::ThermalEngine(const TechnologyConfig& tech,
                             const ThermalConfig& cfg, ParallelConfig parallel,
                             EngineRole role)
    : tech_(tech), cfg_(cfg), stack_(build_stack(tech, cfg)), role_(role),
      policy_{resolve_backend(cfg.solver, role)} {
  tech_.validate();
  cfg_.validate();
  sweep_threads_ = parallel.threads;
  if (parallel.min_nodes_per_thread > 0) {
    // Cap the shard count so each thread has enough rows to amortize the
    // two barrier rendezvous per color; below the floor sweeps simply
    // run serial (same results either way).
    const std::size_t nodes =
        stack_.layers.size() * cfg_.grid_nx * cfg_.grid_ny;
    sweep_threads_ = std::min(
        sweep_threads_,
        std::max<std::size_t>(1, nodes / parallel.min_nodes_per_thread));
  }
  if (sweep_threads_ > 1) pool_ = std::make_unique<SweepPool>(sweep_threads_);
}

ThermalEngine::~ThermalEngine() = default;
ThermalEngine::ThermalEngine(ThermalEngine&&) noexcept = default;
ThermalEngine& ThermalEngine::operator=(ThermalEngine&&) noexcept = default;

std::size_t ThermalEngine::threads() const { return sweep_threads_; }

void ThermalEngine::reset() {
  asm_valid_ = false;
  field_valid_ = false;
  mg_.reset();
}

void ThermalEngine::set_tolerance_scale(double scale) {
  policy_.tolerance_scale = scale > 1.0 ? scale : 1.0;
}

void ThermalEngine::check_inputs(const std::vector<GridD>& die_power_w,
                                 const GridD& tsv_density) const {
  if (die_power_w.size() != tech_.num_dies)
    throw std::invalid_argument("ThermalEngine: one power map per die required");
  for (const GridD& p : die_power_w) {
    if (p.nx() != cfg_.grid_nx || p.ny() != cfg_.grid_ny)
      throw std::invalid_argument("ThermalEngine: power-map grid mismatch");
  }
  if (tsv_density.nx() != cfg_.grid_nx || tsv_density.ny() != cfg_.grid_ny)
    throw std::invalid_argument("ThermalEngine: TSV-map grid mismatch");
}

const Assembly& ThermalEngine::assembly_for(const GridD& tsv_density) {
  if (tsv_density.nx() != cfg_.grid_nx || tsv_density.ny() != cfg_.grid_ny)
    throw std::invalid_argument("ThermalEngine: TSV-map grid mismatch");
  // The density map is the only per-solve input that changes the
  // conductance matrix; an exact element-wise compare against the map
  // the cached assembly was built from decides reuse (same O(n) as any
  // fingerprint, with no collision risk).
  if (asm_valid_ && tsv_density.data() == asm_tsv_) {
    ++stats_.assembly_reuses;
    return asm_;
  }
  build_assembly(tsv_density);
  asm_tsv_ = tsv_density.data();
  asm_valid_ = true;
  ++stats_.assembly_builds;
  return asm_;
}

void ThermalEngine::build_assembly(const GridD& tsv_density) {
  Assembly& a = asm_;
  a.nx = cfg_.grid_nx;
  a.ny = cfg_.grid_ny;
  a.nl = stack_.layers.size();
  const std::size_t nx = a.nx, ny = a.ny, nl = a.nl;
  const std::size_t nxny = nx * ny;
  const std::size_t n = a.num_nodes();
  const double cell_w = stack_.width_m / static_cast<double>(nx);
  const double cell_h = stack_.height_m / static_cast<double>(ny);
  const double cell_area = cell_w * cell_h;
  const auto ncells = static_cast<double>(nxny);

  // The coarsened-conductance hierarchy derives from this assembly;
  // whatever was built for the previous one is stale now.
  mg_.reset();

  // Per-cell vertical conductivity of each layer; only TSV layers vary.
  // TSVs blend the layer material toward copper by the cell's area
  // fraction f: k_v = (1 - f) * k_layer + f * k_copper.
  std::vector<std::vector<double>> k_vert(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    const Layer& layer = stack_.layers[l];
    k_vert[l].assign(nxny, layer.k_w_per_mk);
    if (layer.tsv_layer) {
      for (std::size_t i = 0; i < nxny; ++i) {
        const double f = std::clamp(tsv_density[i], 0.0, 1.0);
        k_vert[l][i] = (1.0 - f) * layer.k_w_per_mk + f * cfg_.k_tsv_copper;
      }
    }
  }

  a.g_xm.assign(n, 0.0);
  a.g_xp.assign(n, 0.0);
  a.g_ym.assign(n, 0.0);
  a.g_yp.assign(n, 0.0);
  a.g_zm.assign(n, 0.0);
  a.g_zp.assign(n, 0.0);
  a.cap.assign(n, 0.0);

  for (std::size_t l = 0; l < nl; ++l) {
    const Layer& layer = stack_.layers[l];
    // Lateral conduction uses the base material: TSVs are discrete
    // vertical pillars and contribute no continuous lateral path.
    const double g_lat_x = layer.k_w_per_mk * layer.thickness_m * cell_h /
                           cell_w;
    const double g_lat_y = layer.k_w_per_mk * layer.thickness_m * cell_w /
                           cell_h;
    const double cell_volume = cell_area * layer.thickness_m;
    const std::size_t base = l * nxny;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = base + iy * nx + ix;
        if (ix > 0) a.g_xm[i] = g_lat_x;
        if (ix + 1 < nx) a.g_xp[i] = g_lat_x;
        if (iy > 0) a.g_ym[i] = g_lat_y;
        if (iy + 1 < ny) a.g_yp[i] = g_lat_y;
        a.cap[i] = layer.c_j_per_m3k * cell_volume;
      }
    }
    if (layer.tsv_layer) {
      for (std::size_t c = 0; c < nxny; ++c) {
        const double f = std::clamp(tsv_density[c], 0.0, 1.0);
        a.cap[base + c] =
            ((1.0 - f) * layer.c_j_per_m3k + f * cfg_.c_tsv_copper) *
            cell_volume;
      }
    }
  }

  // Vertical conductances: half-thickness resistances in series.
  for (std::size_t l = 0; l + 1 < nl; ++l) {
    const double t0 = stack_.layers[l].thickness_m;
    const double t1 = stack_.layers[l + 1].thickness_m;
    for (std::size_t c = 0; c < nxny; ++c) {
      const double r = 0.5 * t0 / k_vert[l][c] + 0.5 * t1 / k_vert[l + 1][c];
      const double g = cell_area / r;
      a.g_zp[l * nxny + c] = g;
      a.g_zm[(l + 1) * nxny + c] = g;
    }
  }

  // Boundary paths: convection atop the sink, lumped package resistance
  // below layer 0.  A lumped resistance R over N parallel cells gives
  // R_cell = R * N, i.e. g_cell = 1 / (R * N).
  a.g_sink.assign(nxny, 1.0 / (cfg_.r_convec_k_per_w * ncells));
  a.g_pkg.assign(nxny, 1.0 / (cfg_.r_package_k_per_w * ncells));

  a.diag_static.assign(n, 0.0);
  a.bound_rhs.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    a.diag_static[i] = a.g_xm[i] + a.g_xp[i] + a.g_ym[i] + a.g_yp[i] +
                       a.g_zm[i] + a.g_zp[i];
  }
  for (std::size_t c = 0; c < nxny; ++c) {
    const std::size_t top = (nl - 1) * nxny + c;
    a.diag_static[top] += a.g_sink[c];
    a.bound_rhs[top] += a.g_sink[c] * cfg_.ambient_k;
    a.diag_static[c] += a.g_pkg[c];
    a.bound_rhs[c] += a.g_pkg[c] * cfg_.ambient_k;
  }

  // (Re)size the halo field and scratch.  One pad column per row, one
  // pad row per layer, one pad layer on both ends: every boundary
  // neighbor read of the sweep (all scaled by a structurally zero
  // conductance) lands in a pad cell, never in a real node -- which
  // keeps the inner loop branch-free and makes row shards of one color
  // fully disjoint from each other's writes.  Resizing invalidates any
  // warm field (only happens when the grid shape changes).
  const std::size_t padded_layer = (nx + 1) * (ny + 1);
  field_offset_ = padded_layer;
  if (temp_.size() != (nl + 2) * padded_layer) {
    temp_.assign((nl + 2) * padded_layer, cfg_.ambient_k);
    field_valid_ = false;
  }
  rhs_.resize(n);
  diag_.resize(n);
}

bool ThermalEngine::prepare_multigrid(double dt_s) {
  if (policy_.backend != SolverBackend::multigrid) return false;
  if (mg_ == nullptr) {
    mg_ = std::make_unique<MultigridHierarchy>();
    mg_->build(asm_);
    // Any transient diagonals in the scratch aggregated the PREVIOUS
    // hierarchy's capacitances; force mg_set_dt to rebuild them.
    if (mg_scratch_ != nullptr) {
      for (MgScratch::Level& s : mg_scratch_->level) s.diag.clear();
      mg_scratch_->dt_s = 0.0;
    }
  }
  if (!mg_->usable()) return false;
  if (mg_scratch_ == nullptr) mg_scratch_ = std::make_unique<MgScratch>();
  mg_scratch_->ensure(asm_, *mg_);
  mg_set_dt(*mg_, *mg_scratch_, dt_s);
  return true;
}

double ThermalEngine::sweep_rows(double* t, int color, std::size_t row_begin,
                                 std::size_t row_end, const double* rhs,
                                 const double* diag, double omega) const {
  return sweep_color_rows(asm_, omega, t, color, row_begin, row_end, rhs,
                          diag);
}

double ThermalEngine::sweep(double* t, const double* rhs, const double* diag,
                            double omega) {
  // Red-black ordering: nodes with even (ix+iy+l) first, then odd.  Each
  // color only reads the other, so the color phase is dependence-free and
  // may be sharded by rows; the barrier between colors preserves the
  // serial update order, so sharded and serial sweeps agree bitwise
  // (node updates are identical and the max reduction is order-free).
  const std::size_t rows = asm_.nl * asm_.ny;
  double max_delta = 0.0;
  for (int color = 0; color < 2; ++color) {
    const double color_delta =
        pool_ != nullptr
            ? pool_->sweep_color(*this, t, color, rows, rhs, diag, omega)
            : sweep_color_rows(asm_, omega, t, color, 0, rows, rhs, diag);
    max_delta = std::max(max_delta, color_delta);
  }
  return max_delta;
}

void ThermalEngine::fill_steady_rhs(const std::vector<GridD>& die_power_w,
                                    std::vector<double>& rhs) const {
  const Assembly& a = asm_;
  const std::size_t nxny = a.nx * a.ny;
  std::copy(a.bound_rhs.begin(), a.bound_rhs.end(), rhs.begin());
  for (std::size_t l = 0; l < a.nl; ++l) {
    const Layer& layer = stack_.layers[l];
    if (!layer.has_power()) continue;
    const GridD& p = die_power_w[layer.power_die];
    double* dst = rhs.data() + l * nxny;
    for (std::size_t c = 0; c < nxny; ++c) dst[c] += p[c];
  }
}

void ThermalEngine::extract_die_maps(const double* t,
                                     std::vector<GridD>& maps) const {
  const Assembly& a = asm_;
  const std::size_t nx = a.nx, ny = a.ny;
  const std::size_t px = nx + 1;
  const std::size_t ps = px * (ny + 1);
  for (std::size_t d = 0; d < tech_.num_dies; ++d) {
    const std::size_t l = stack_.layer_of_die[d];
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double* trow = t + l * ps + iy * px;
      for (std::size_t ix = 0; ix < nx; ++ix)
        maps[d][iy * nx + ix] = trow[ix];
    }
  }
}

void ThermalEngine::extract_field(const double* t,
                                  ThermalResult& result) const {
  const Assembly& a = asm_;
  const std::size_t nx = a.nx, ny = a.ny, nl = a.nl;
  const std::size_t px = nx + 1;
  const std::size_t ps = px * (ny + 1);

  result.layer_temperature.clear();
  result.layer_temperature.reserve(nl);
  result.peak_k = cfg_.ambient_k;
  for (std::size_t l = 0; l < nl; ++l) {
    GridD map(nx, ny, 0.0);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double* trow = t + l * ps + iy * px;
      for (std::size_t ix = 0; ix < nx; ++ix) {
        map[iy * nx + ix] = trow[ix];
        result.peak_k = std::max(result.peak_k, trow[ix]);
      }
    }
    result.layer_temperature.push_back(std::move(map));
  }
  result.die_temperature.clear();
  result.die_temperature.reserve(tech_.num_dies);
  for (std::size_t d = 0; d < tech_.num_dies; ++d)
    result.die_temperature.push_back(
        result.layer_temperature[stack_.layer_of_die[d]]);

  result.heat_to_sink_w = 0.0;
  result.heat_to_package_w = 0.0;
  const GridD& top = result.layer_temperature[nl - 1];
  const GridD& bottom = result.layer_temperature[0];
  for (std::size_t c = 0; c < nx * ny; ++c) {
    result.heat_to_sink_w += a.g_sink[c] * (top[c] - cfg_.ambient_k);
    result.heat_to_package_w += a.g_pkg[c] * (bottom[c] - cfg_.ambient_k);
  }
}

double ThermalEngine::vcycle(double* t, const double* rhs,
                             const double* diag) {
  const Assembly& fine = asm_;
  MgScratch& scratch = *mg_scratch_;
  for (std::size_t i = 0; i < kSmoothSweeps; ++i)
    (void)sweep(t, rhs, diag, kSmoothOmega);
  mg_residual(fine, t, rhs, diag, scratch.resid.data());
  const Assembly& c0 = mg_->levels()[0].a;
  mg_restrict(fine, scratch.resid.data(), c0, scratch.level[0].rhs.data());
  mg_coarse_solve(*mg_, scratch, 0);
  mg_prolong_add(c0, scratch.level[0].field.data() + c0.field_offset(), fine,
                 t);
  // The last post-smoothing sweep doubles as the convergence measure:
  // the same per-node-update stopping rule the SOR backend uses.
  double delta = 0.0;
  for (std::size_t i = 0; i < kSmoothSweeps; ++i)
    delta = sweep(t, rhs, diag, kSmoothOmega);
  return delta;
}

void ThermalEngine::relax(double* t, const double* rhs, const double* diag,
                          double tol, bool mg_on, bool opening_sweep,
                          ThermalResult& result) {
  std::size_t& iters = result.iterations;
  iters = 0;
  result.converged = false;
  // One fine-level sweep at `omega`; true once it meets the tolerance.
  const auto sweep_once = [&](double omega) {
    result.residual_k = sweep(t, rhs, diag, omega);
    ++iters;
    result.converged = result.residual_k < tol;
    return result.converged;
  };
  if (mg_on && !result.mg_stalled) {
    if (opening_sweep && sweep_once(kSmoothOmega)) return;
    double prev_delta = std::numeric_limits<double>::infinity();
    std::size_t stalled_cycles = 0;
    while (iters < cfg_.max_iterations) {
      const double delta = vcycle(t, rhs, diag);
      iters += 2 * kSmoothSweeps;  // fine-level sweeps of this cycle
      ++result.vcycles;
      ++stats_.vcycles;
      result.residual_k = delta;
      if (delta < tol) {
        result.converged = true;
        return;
      }
      if (delta > kMgStallContraction * prev_delta) {
        if (++stalled_cycles >= kMgStallCycles) {
          result.mg_stalled = true;
          ++stats_.mg_stalls;
          break;
        }
      } else {
        stalled_cycles = 0;
      }
      prev_delta = delta;
    }
    // Out of sweeps without a stall: nothing is left for SOR either.
    if (!result.mg_stalled) return;
  }
  // SOR: the backend itself, or the fallback of a stalled multigrid
  // solve, warm from whatever the cycles achieved.
  while (iters < cfg_.max_iterations) {
    if (sweep_once(cfg_.sor_omega)) return;
  }
}

ThermalResult ThermalEngine::solve_steady(const std::vector<GridD>& die_power_w,
                                          const GridD& tsv_density,
                                          Start start) {
  check_inputs(die_power_w, tsv_density);
  const std::size_t reuses_before = stats_.assembly_reuses;
  (void)assembly_for(tsv_density);
  const bool mg_on = prepare_multigrid(0.0);
  fill_steady_rhs(die_power_w, rhs_);

  ThermalResult result;
  result.assembly_reused = stats_.assembly_reuses > reuses_before;

  const bool warm = start == Start::warm && field_valid_;
  result.warm_started = warm;
  if (!warm) {
    // A cold multigrid solve starts from zero so the FMG descent can
    // build the solution itself (the boundary terms in the rhs carry the
    // ambient baseline); its seed lands at ~truncation error, so the
    // V-cycles typically stop after one or two.  A cold SOR solve starts
    // from a flat ambient field.
    std::fill(temp_.begin(), temp_.end(), mg_on ? 0.0 : cfg_.ambient_k);
    if (mg_on) {
      mg_fmg(asm_, *mg_, *mg_scratch_, rhs_.data(), field());
      result.fmg_started = true;
      ++stats_.fmg_starts;
    }
  }

  relax(field(), rhs_.data(), asm_.diag_static.data(),
        cfg_.tolerance_k * policy_.tolerance_scale, mg_on, false, result);
  field_valid_ = true;

  ++stats_.steady_solves;
  if (warm) ++stats_.warm_starts;
  stats_.total_sweeps += result.iterations;

  extract_field(field(), result);
  return result;
}

FieldSnapshot ThermalEngine::save_field() const {
  if (!field_valid_)
    throw std::logic_error(
        "ThermalEngine::save_field: no solve has produced a field yet");
  return FieldSnapshot{temp_};
}

void ThermalEngine::restore_field(const FieldSnapshot& snapshot) {
  if (snapshot.empty())
    throw std::invalid_argument(
        "ThermalEngine::restore_field: empty snapshot");
  // Before the first assembly the padded size is unknown; accept the
  // snapshot as-is (build_assembly keeps a field whose size matches the
  // grid shape it derives).
  if (!temp_.empty() && snapshot.temp.size() != temp_.size())
    throw std::invalid_argument(
        "ThermalEngine::restore_field: snapshot grid shape mismatch");
  temp_ = snapshot.temp;
  field_valid_ = true;
}

TransientResult ThermalEngine::solve_transient(
    const std::function<std::vector<GridD>(double)>& power_at,
    const GridD& tsv_density, double t_end_s, double dt_s,
    std::size_t record_stride) {
  return solve_transient_feedback(
      [&](double t, const std::vector<GridD>&) { return power_at(t); },
      tsv_density, t_end_s, dt_s, record_stride);
}

TransientResult ThermalEngine::solve_transient_feedback(
    const FeedbackPower& power_at, const GridD& tsv_density, double t_end_s,
    double dt_s, std::size_t record_stride, Start start) {
  if (t_end_s <= 0.0 || dt_s <= 0.0)
    throw std::invalid_argument("solve_transient: non-positive time");
  if (record_stride == 0) record_stride = 1;
  const Assembly& a = assembly_for(tsv_density);
  // Multigrid backend: V-cycle the (G + C/dt) operator.  Small-dt steps
  // are strongly diagonally dominant and converge in a sweep or two
  // from the previous step's field, but STIFF steps (dt large against
  // the thermal time constants, the regime DTM sweeps probe) leave the
  // operator close to the steady G, whose smooth error per-step SOR
  // grinds down over dozens of sweeps; mg_set_dt installs the
  // aggregated implicit-Euler diagonal on every coarse level so those
  // steps take 1-2 cycles instead.  A single plain smoothing sweep opens
  // each step -- the non-stiff fast path, costing exactly what warm SOR
  // would -- and the V-cycles only engage when that sweep misses the
  // tolerance.
  const bool mg_on = prepare_multigrid(dt_s);
  const std::size_t nx = a.nx, ny = a.ny;
  const std::size_t nxny = nx * ny;
  const std::size_t n = a.num_nodes();
  const std::size_t px = nx + 1;
  const std::size_t ps = px * (ny + 1);

  // Start::cold is the physical problem statement -- ambient everywhere.
  // Start::warm continues an earlier trajectory from the engine's
  // current field (a restore_field checkpoint or a previous transient's
  // final state); the arithmetic from that state on is identical to the
  // steps a single longer transient would have taken.
  const bool warm = start == Start::warm;
  if (warm && !field_valid_)
    throw std::logic_error(
        "solve_transient_feedback: Start::warm without a current field");
  if (!warm) std::fill(temp_.begin(), temp_.end(), cfg_.ambient_k);
  double* t = field();

  // Implicit Euler: (G + C/dt) T_new = P + G_b T_amb + (C/dt) T_old.
  // cap/dt is hoisted out of the step loop; it feeds both the diagonal
  // and every step's rhs.
  std::vector<double> cap_over_dt(n);
  for (std::size_t i = 0; i < n; ++i) {
    cap_over_dt[i] = a.cap[i] / dt_s;
    diag_[i] = a.diag_static[i] + cap_over_dt[i];
  }

  TransientResult out;
  std::vector<GridD> die_temp_prev(tech_.num_dies,
                                   GridD(nx, ny, cfg_.ambient_k));
  if (warm) extract_die_maps(t, die_temp_prev);
  const auto steps = static_cast<std::size_t>(std::ceil(t_end_s / dt_s));
  out.steps = steps;
  for (std::size_t step = 0; step < steps; ++step) {
    const double t_now = static_cast<double>(step + 1) * dt_s;
    const std::vector<GridD> power = power_at(t_now, die_temp_prev);
    check_inputs(power, tsv_density);

    for (std::size_t l = 0; l < a.nl; ++l)
      for (std::size_t iy = 0; iy < ny; ++iy) {
        const std::size_t i0 = (l * ny + iy) * nx;
        const double* trow = t + l * ps + iy * px;
        for (std::size_t ix = 0; ix < nx; ++ix)
          rhs_[i0 + ix] =
              a.bound_rhs[i0 + ix] + cap_over_dt[i0 + ix] * trow[ix];
      }
    for (std::size_t l = 0; l < a.nl; ++l) {
      const Layer& layer = stack_.layers[l];
      if (!layer.has_power()) continue;
      const GridD& p = power[layer.power_die];
      double* dst = rhs_.data() + l * nxny;
      for (std::size_t c = 0; c < nxny; ++c) dst[c] += p[c];
    }

    // Steps stop at the unscaled tolerance, and the stall flag rides in
    // final_state across steps: the operator (and so the convergence
    // behavior) is the same every step, so once one step stalls the
    // later ones go straight to SOR instead of re-stalling.
    ThermalResult& state = out.final_state;
    relax(t, rhs_.data(), diag_.data(), cfg_.tolerance_k, mg_on, true, state);
    out.total_iterations += state.iterations;
    if (!state.converged) ++out.unconverged_steps;
    ++stats_.transient_steps;
    stats_.total_sweeps += state.iterations;

    extract_die_maps(t, die_temp_prev);

    if (step % record_stride == 0 || step + 1 == steps) {
      TransientSample s;
      s.time_s = t_now;
      for (std::size_t d = 0; d < tech_.num_dies; ++d) {
        const GridD& map = die_temp_prev[d];
        s.die_peak_k.push_back(map.max());
        s.die_mean_k.push_back(map.mean());
        s.die_power_w.push_back(power[d].sum());
      }
      out.trace.push_back(std::move(s));
    }
  }
  field_valid_ = true;

  // Final snapshot as a full ThermalResult.  Converged only if every
  // step's inner loop converged; iterations totals all sweeps.
  extract_field(field(), out.final_state);
  out.final_state.converged = out.unconverged_steps == 0;
  out.final_state.iterations = out.total_iterations;
  return out;
}

}  // namespace tsc3d::thermal
