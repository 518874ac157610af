#include "floorplan/cost.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "leakage/pearson.hpp"
#include "tsv/planner.hpp"

namespace tsc3d::floorplan {

CostWeights power_aware_weights() {
  CostWeights w;  // classical criteria equally weighted; no leakage terms
  return w;
}

CostWeights tsc_aware_weights() {
  CostWeights w;
  // The paper evaluates the leakage analysis inside every loop iteration;
  // our expensive terms refresh at an interval instead, so the
  // correlation term carries extra weight to compensate for the
  // staleness between refreshes.
  w.correlation = 2.5;
  w.entropy = 1.0;
  w.power_gradient = 1.0;
  return w;
}

CostEvaluator::CostEvaluator(Floorplan3D& fp, thermal::ThermalEngine& engine,
                             Options options)
    : fp_(fp),
      engine_(engine),
      opt_(std::move(options)),
      timing_(fp, opt_.timing) {
  opt_.voltage.objective = opt_.voltage_objective;
  if (engine_.nx() != opt_.leakage_grid || engine_.ny() != opt_.leakage_grid)
    throw std::invalid_argument(
        "CostEvaluator: engine grid must match leakage_grid");
  state_.correlation.assign(fp_.tech().num_dies, 0.0);
  state_.entropy.assign(fp_.tech().num_dies, 0.0);
  entropy_memo_.resize(fp_.tech().num_dies);
}

void CostEvaluator::set_thermal_tolerance_scale(double scale) {
  engine_.set_tolerance_scale(scale);
}

void CostEvaluator::measure_layout_terms_full(CostBreakdown& c) const {
  const Rect outline = fp_.outline();
  const double out_area = outline.area();
  c.bbox_area_ratio = 0.0;
  c.outline_penalty = 0.0;
  c.fits_outline = true;
  for (std::size_t d = 0; d < fp_.tech().num_dies; ++d) {
    double w = 0.0, h = 0.0;
    for (const std::size_t i : fp_.modules_on_die(d)) {
      const Module& m = fp_.modules()[i];
      w = std::max(w, m.shape.right());
      h = std::max(h, m.shape.top());
    }
    c.bbox_area_ratio += (w * h) / out_area;
    const double over_w = std::max(0.0, w - outline.w) / outline.w;
    const double over_h = std::max(0.0, h - outline.h) / outline.h;
    c.outline_penalty += over_w + over_h + over_w * over_h;
    if (over_w > 0.0 || over_h > 0.0) c.fits_outline = false;
  }
  c.wirelength_um = fp_.hpwl();
  c.delay_ns = timing_.analyze().critical_delay_ns;
}

void CostEvaluator::measure_layout_terms_incremental(CostBreakdown& c) {
  // Identical arithmetic over identical values: die_bounds() serves the
  // same max-right/max-top pair the rescan derives, hpwl_cached() and
  // analyze_cached() recompute exactly the dirty nets and re-reduce in
  // canonical net order -- so every term is bitwise-equal to
  // measure_layout_terms_full (the cross-check enforces it).
  //
  // Delta form: the per-die area/outline contributions are cached against
  // the bounds values they were derived from, so only the dies the move
  // actually changed re-run the division/max arithmetic; the totals are
  // re-summed over all dies in die order, keeping the reduction order --
  // and therefore the bits -- identical to the full rescan.
  const Rect outline = fp_.outline();
  const double out_area = outline.area();
  if (die_terms_.size() != fp_.tech().num_dies ||
      die_terms_outline_w_ != outline.w || die_terms_outline_h_ != outline.h) {
    die_terms_.assign(fp_.tech().num_dies, DieTermCache{});
    die_terms_outline_w_ = outline.w;
    die_terms_outline_h_ = outline.h;
  }
  c.bbox_area_ratio = 0.0;
  c.outline_penalty = 0.0;
  c.fits_outline = true;
  for (std::size_t d = 0; d < fp_.tech().num_dies; ++d) {
    const Floorplan3D::DieBounds b = fp_.die_bounds(d);
    DieTermCache& t = die_terms_[d];
    if (b.width != t.width || b.height != t.height) {
      t.width = b.width;
      t.height = b.height;
      t.area_ratio = (b.width * b.height) / out_area;
      t.over_w = std::max(0.0, b.width - outline.w) / outline.w;
      t.over_h = std::max(0.0, b.height - outline.h) / outline.h;
    }
    c.bbox_area_ratio += t.area_ratio;
    c.outline_penalty += t.over_w + t.over_h + t.over_w * t.over_h;
    if (t.over_w > 0.0 || t.over_h > 0.0) c.fits_outline = false;
  }
  c.wirelength_um = fp_.hpwl_cached();
  c.delay_ns = timing_.analyze_cached().critical_delay_ns;
}

// --- trial (speculative) evaluation --------------------------------------

void CostEvaluator::trial_begin() {
  fp_.begin_trial();
  timing_.begin_trial();
}

void CostEvaluator::trial_commit() {
  fp_.commit_trial();
  timing_.commit_trial();
}

void CostEvaluator::trial_rollback() {
  fp_.rollback_trial();
  timing_.rollback_trial();
}

bool CostEvaluator::in_trial() const { return fp_.in_trial(); }

void CostEvaluator::scale_outline_weight(double factor) {
  // Raw-term caches store weight-independent values and combine() applies
  // the weights fresh per call, so no invalidation is needed -- but
  // escalating inside a trial bracket would price the staged move and the
  // current state under different weights.  Make that misuse loud.
  if (in_trial())
    throw std::logic_error(
        "CostEvaluator::scale_outline_weight: a move transaction is open -- "
        "escalate only between transactions");
  opt_.weights.outline *= factor;
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const GridD& a, const GridD& b) {
  return a.nx() == b.nx() && a.ny() == b.ny() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

}  // namespace

double CostEvaluator::die_entropy(std::size_t d, const GridD& map) {
  std::array<EntropyMemo, 2>& slots = entropy_memo_[d];
  if (same_bits(slots[0].map, map)) return slots[0].entropy;
  if (same_bits(slots[1].map, map)) {
    std::swap(slots[0], slots[1]);
    return slots[0].entropy;
  }
  slots[1].map = map;
  slots[1].entropy = leakage::spatial_entropy(map, opt_.entropy_options);
  return slots[1].entropy;
}

void CostEvaluator::measure_cheap(CostBreakdown& c) {
  measure_layout_terms_incremental(c);
  const bool cross_check =
      opt_.cross_check_interval > 0 &&
      ++state_.cheap_evals % opt_.cross_check_interval == 0;
  if (cross_check) {
    CostBreakdown ref;
    measure_layout_terms_full(ref);
    if (ref.bbox_area_ratio != c.bbox_area_ratio ||
        ref.outline_penalty != c.outline_penalty ||
        ref.fits_outline != c.fits_outline ||
        ref.wirelength_um != c.wirelength_um || ref.delay_ns != c.delay_ns)
      throw std::logic_error(
          "CostEvaluator: incremental cheap terms diverged from the full "
          "recompute -- some code moved modules without "
          "note_module_moved()/invalidate_layout_caches()");
  }

  // Spatial entropy is the paper's cheap per-iteration leakage proxy
  // (Sec. 4.2): it needs no thermal analysis, so it is evaluated on
  // every move when the setup weights it -- the memo rescores only the
  // dies whose power map changed.
  if (opt_.weights.entropy != 0.0) {
    const std::size_t g = opt_.leakage_grid;
    c.entropy.clear();
    for (std::size_t d = 0; d < fp_.tech().num_dies; ++d)
      c.entropy.push_back(die_entropy(d, fp_.power_map(d, g, g)));
    for (std::size_t d = 0; cross_check && d < fp_.tech().num_dies; ++d) {
      const double fresh = leakage::spatial_entropy(fp_.power_map(d, g, g),
                                                    opt_.entropy_options);
      if (!same_bits(fresh, c.entropy[d]))
        throw std::logic_error(
            "CostEvaluator: a memoized spatial entropy diverged from a "
            "fresh power_map + spatial_entropy");
    }
  }
}

void CostEvaluator::measure_voltage(CostBreakdown& c) {
  power::VoltageAssigner assigner(fp_, timing_, opt_.voltage);
  const power::VoltageAssignment va = assigner.assign();
  // assign() rewrites Module::voltage_index, which scales every module
  // delay: drop the timing engine's cached per-net stage delays.
  timing_.note_voltages_changed();
  c.power_w = va.total_power_w;
  c.num_volumes = static_cast<double>(va.num_volumes());
  c.power_gradient = va.intra_density_stddev + va.inter_density_stddev;
  state_.power = c.power_w;
  state_.volumes = c.num_volumes;
  state_.gradient = c.power_gradient;
}

void CostEvaluator::measure_thermal(CostBreakdown& c) {
  // Fig. 3 inner flow: TSV placement -> thermal analysis -> leakage
  // analysis.  Successive layouts differ by one move, so the
  // warm-started solve is cheap.
  tsv::place_signal_tsvs(fp_);

  const std::size_t g = opt_.leakage_grid;
  std::vector<GridD> power_maps;
  power_maps.reserve(fp_.tech().num_dies);
  for (std::size_t d = 0; d < fp_.tech().num_dies; ++d)
    power_maps.push_back(fp_.power_map(d, g, g));
  const std::vector<GridD> temps =
      engine_.solve_steady(power_maps, fp_.tsv_density_map(g, g))
          .die_temperature;

  double peak = 0.0;
  c.correlation.clear();
  c.entropy.clear();
  for (std::size_t d = 0; d < fp_.tech().num_dies; ++d) {
    peak = std::max(peak, temps[d].max());
    c.correlation.push_back(leakage::pearson(power_maps[d], temps[d]));
    c.entropy.push_back(die_entropy(d, power_maps[d]));
  }
  c.peak_k_rise = std::max(0.0, peak - temps[0].min());

  state_.peak_rise = c.peak_k_rise;
  state_.correlation = c.correlation;
  state_.entropy = c.entropy;
}

void CostEvaluator::init_normalizers(const CostBreakdown& c) {
  auto guard = [](double v) { return v > 1e-12 ? v : 1.0; };
  Normalizers& n = state_.norm;
  n.area = guard(c.bbox_area_ratio);
  n.wl = guard(c.wirelength_um);
  n.delay = guard(c.delay_ns);
  n.peak = guard(c.peak_k_rise);
  n.power = guard(c.power_w);
  n.volumes = guard(c.num_volumes);
  n.gradient = guard(c.power_gradient);
  double corr = 0.0, ent = 0.0;
  for (const double r : c.correlation) corr += std::abs(r);
  for (const double s : c.entropy) ent += s;
  n.corr = guard(corr / guard(static_cast<double>(c.correlation.size())));
  n.entropy = guard(ent / guard(static_cast<double>(c.entropy.size())));
  n.ready = true;
}

double CostEvaluator::combine(const CostBreakdown& c) const {
  const CostWeights& w = opt_.weights;
  const Normalizers& n = state_.norm;
  double corr = 0.0;
  for (const double r : c.correlation) corr += std::abs(r);
  if (!c.correlation.empty()) corr /= static_cast<double>(c.correlation.size());
  double ent = 0.0;
  for (const double s : c.entropy) ent += s;
  if (!c.entropy.empty()) ent /= static_cast<double>(c.entropy.size());

  return w.area * (c.bbox_area_ratio / n.area) +
         w.outline * c.outline_penalty +
         w.wirelength * (c.wirelength_um / n.wl) +
         w.delay * (c.delay_ns / n.delay) +
         w.peak_temp * (c.peak_k_rise / n.peak) +
         w.power * (c.power_w / n.power) +
         w.volumes * (c.num_volumes / n.volumes) +
         w.power_gradient * (c.power_gradient / n.gradient) +
         w.correlation * (corr / n.corr) +
         w.entropy * (ent / n.entropy);
}

CostBreakdown CostEvaluator::evaluate_cheap() {
  CostBreakdown c;
  measure_cheap(c);
  // Carry the cached expensive terms (entropy is cheap and was measured
  // live above whenever its weight is active).
  c.peak_k_rise = state_.peak_rise;
  c.power_w = state_.power;
  c.num_volumes = state_.volumes;
  c.power_gradient = state_.gradient;
  c.correlation = state_.correlation;
  if (c.entropy.empty()) c.entropy = state_.entropy;
  if (!state_.have_expensive) {
    // First contact: populate the caches so the totals are meaningful.
    measure_voltage(c);
    measure_thermal(c);
    state_.have_expensive = true;
  }
  if (!state_.norm.ready) init_normalizers(c);
  c.total = combine(c);
  return c;
}

CostBreakdown CostEvaluator::evaluate_thermal() {
  CostBreakdown c;
  measure_cheap(c);
  if (!state_.have_expensive) {
    measure_voltage(c);
    state_.have_expensive = true;
  } else {
    c.power_w = state_.power;
    c.num_volumes = state_.volumes;
    c.power_gradient = state_.gradient;
  }
  measure_thermal(c);
  if (!state_.norm.ready) init_normalizers(c);
  c.total = combine(c);
  return c;
}

CostBreakdown CostEvaluator::evaluate_full() {
  CostBreakdown c;
  measure_cheap(c);
  measure_voltage(c);
  measure_thermal(c);
  state_.have_expensive = true;
  if (!state_.norm.ready) init_normalizers(c);
  c.total = combine(c);
  return c;
}

CostEvaluator::CheckpointState CostEvaluator::checkpoint_state() const {
  if (in_trial())
    throw std::logic_error(
        "CostEvaluator: cannot checkpoint inside a trial bracket");
  return {opt_.weights.outline, state_};
}

void CostEvaluator::restore_checkpoint_state(const CheckpointState& st) {
  if (in_trial())
    throw std::logic_error(
        "CostEvaluator: cannot restore inside a trial bracket");
  opt_.weights.outline = st.outline_weight;
  state_ = st.state;
  // The value-keyed die-term cache and entropy memo self-heal; clear
  // them so the first post-resume evaluation recomputes from the
  // repacked layout.
  die_terms_.clear();
  die_terms_outline_w_ = -1.0;
  die_terms_outline_h_ = -1.0;
  entropy_memo_.assign(fp_.tech().num_dies, {});
}

}  // namespace tsc3d::floorplan
