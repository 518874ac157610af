// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Block-level timing estimation (Sec. 6.1): "For any floorplan layout, we
// initially estimate the timing paths ... We estimate the net delays via
// the well-known Elmore delays (here with consideration of wires and
// TSVs), and the delays of modules are estimated as proposed in [27]."
//
// At block level each register-to-register stage is one driver module,
// one net (wires + possibly a TSV hop), and one sink module.  The critical
// delay is the worst stage over all nets; per-module timing slack follows
// from the stages the module participates in.  Module and net delays
// scale with the assigned voltage level's delay factor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/floorplan.hpp"

namespace tsc3d::power {

/// Electrical parameters of the 90 nm interconnect model.
struct TimingOptions {
  double r_wire_ohm_per_um = 0.10;   ///< unit wire resistance
  double c_wire_f_per_um = 0.20e-15; ///< unit wire capacitance
  double r_tsv_ohm = 0.05;           ///< resistance of one TSV
  double c_tsv_f = 35e-15;           ///< capacitance of one TSV
  double driver_r_ohm = 200.0;       ///< lumped driver output resistance
  double sink_c_f = 5e-15;           ///< lumped sink input capacitance
};

/// Timing report for one floorplan state.
struct TimingReport {
  double critical_delay_ns = 0.0;
  std::size_t critical_net = kInvalidIndex;
  std::vector<double> stage_delay_ns;  ///< per net
};

class ElmoreTiming {
 public:
  ElmoreTiming(const Floorplan3D& fp, TimingOptions options = {});

  /// Elmore delay of a net's interconnect only [ns]: driver resistance
  /// charging the distributed wire plus TSV hops for dies spanned.
  [[nodiscard]] double net_delay_ns(const Net& net) const;

  /// Full stage delay [ns]: driver-module delay + interconnect + worst
  /// sink-module delay, each module scaled by its voltage level.
  [[nodiscard]] double stage_delay_ns(const Net& net) const;

  /// Stage delay with module `m` hypothetically at voltage index `vi`
  /// (other modules keep their current assignment).
  [[nodiscard]] double stage_delay_ns(const Net& net, std::size_t m,
                                      std::size_t vi) const;

  /// Evaluate all stages and the critical delay.
  [[nodiscard]] TimingReport analyze() const;

  /// Incrementally maintained analyze(): per-net stage delays are cached
  /// and recomputed only for nets whose placement epoch
  /// (Floorplan3D::net_epoch, bumped when an incident module moves) or
  /// whose voltage epoch (note_voltages_changed) advanced; the critical
  /// delay is re-derived by scanning the per-net array in canonical net
  /// order.  Bitwise-equal to analyze() -- dirty nets run the identical
  /// stage_delay_ns arithmetic, clean nets return the identical cached
  /// double, and the max scan matches analyze()'s.  The returned
  /// reference stays valid until the next analyze_cached() call.
  [[nodiscard]] const TimingReport& analyze_cached();

  /// Invalidate every cached stage delay that depends on module voltage
  /// assignments.  Call after any pass that mutates
  /// Module::voltage_index (the voltage assigner).
  void note_voltages_changed() { ++voltage_epoch_; }

  // --- trial (speculative) evaluation -------------------------------------
  // Mirrors Floorplan3D's trial bracket: between begin_trial() and
  // commit_trial()/rollback_trial(), analyze_cached() journals each
  // per-net cache row it rewrites for PLACEMENT dirt (net-epoch
  // mismatch, first touch only), and rollback restores those rows
  // bitwise, so a rejected move leaves the stage-delay cache warm with
  // its pre-trial values.  Rows refreshed only because the voltage
  // epoch advanced are NOT journaled: their recompute reads untouched
  // positions and the persisted voltage assignment, so the value stays
  // valid after rollback (journaling them would re-stale every row on
  // each rejection after a voltage refresh).  The critical delay/net
  // are re-derived on every call and need no journal; voltage_epoch_
  // stays monotone (a voltage assignment made while scoring a move is
  // kept when the move is rejected).
  void begin_trial();
  void commit_trial();
  void rollback_trial();
  [[nodiscard]] bool in_trial() const { return trial_active_; }

  /// True if assigning voltage index `vi` to module `m` keeps every stage
  /// through `m` within the clock period.
  [[nodiscard]] bool voltage_feasible(std::size_t m, std::size_t vi,
                                      double clock_ns) const;

  /// Bitmask of feasible voltage indices for module `m` (bit i = level i).
  [[nodiscard]] unsigned feasible_voltages(std::size_t m,
                                           double clock_ns) const;

  /// Nets that have at least one pin on module `m`.
  [[nodiscard]] const std::vector<std::size_t>& nets_of_module(
      std::size_t m) const {
    return nets_of_module_.at(m);
  }

 private:
  [[nodiscard]] double module_delay_ns(std::size_t m, std::size_t vi) const;
  [[nodiscard]] double wire_length_um(const Net& net) const;
  [[nodiscard]] std::size_t dies_spanned(const Net& net) const;
  [[nodiscard]] double net_delay_ns(const Net& net, std::size_t span) const;
  [[nodiscard]] double net_delay_ns(const Net& net, std::size_t span,
                                    double len_um) const;
  /// stage_delay_ns at the nets' current voltages with the die span and
  /// wire length precomputed; bitwise-equal to stage_delay_ns(net) given
  /// the true span and length (see analyze_cached).
  [[nodiscard]] double stage_delay_ns_with_span(const Net& net,
                                                std::size_t span,
                                                double len_um) const;

  const Floorplan3D& fp_;
  TimingOptions opt_;
  std::vector<std::vector<std::size_t>> nets_of_module_;

  // --- incremental analyze() cache (see analyze_cached) ------------------
  TimingReport cached_report_;
  std::vector<std::uint64_t> stage_net_epoch_;      ///< 0 = never computed
  std::vector<std::uint64_t> stage_voltage_epoch_;
  std::vector<std::size_t> stage_span_;             ///< cached dies_spanned
  std::vector<std::uint64_t> stage_die_epoch_;      ///< 0 = never computed
  std::uint64_t voltage_epoch_ = 1;

  // --- trial journal (see "trial (speculative) evaluation") --------------
  struct TrialStage {
    std::size_t n = 0;
    double delay = 0.0;
    std::uint64_t net_epoch = 0;
    std::uint64_t volt_epoch = 0;
    std::size_t span = 0;
    std::uint64_t die_epoch = 0;
  };
  bool trial_active_ = false;
  std::uint64_t trial_id_ = 0;
  std::vector<std::uint64_t> trial_mark_;
  std::vector<TrialStage> trial_journal_;
};

}  // namespace tsc3d::power
