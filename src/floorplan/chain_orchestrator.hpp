// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// ChainOrchestrator: runs the annealing of every flow, from a single
// plain SA chain up to parallel tempering.  K chains anneal the same
// design from the same initial state, each with its own ThermalEngine,
// CostEvaluator and Annealer.  Chain 0 anneals the caller's Floorplan3D
// on the caller's RNG, so K = 1 is exactly a plain SA run; chains
// 1..K-1 anneal private copies on per-chain RNG streams.  Chain k runs
// at temperature ladder_k * T0_k where the ladder rises geometrically
// from 1 (coldest chain) to `ladder_ratio` (hottest); every
// `exchange_interval` stages, adjacent ladder neighbors propose to swap
// their layouts with the standard replica-exchange Metropolis rule
//
//   P(accept) = min(1, exp((1/T_cold - 1/T_hot) * (E_cold - E_hot))),
//
// so good layouts drift toward the cold chain while hot chains keep
// exploring -- exactly the fig2-style design-space exploration workload
// the paper runs over its Table 1 designs, spread over the machine's
// cores.
//
// Determinism: chains only touch chain-local state between the stage
// barriers, exchanges walk the ladder pairs in a fixed order with a
// dedicated exchange RNG, and every other stream derives from one draw
// of the caller's RNG -- so the result is a pure function of (floorplan,
// initial state, RNG state), independent of thread scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/floorplan.hpp"
#include "core/rng.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/cost.hpp"
#include "thermal/thermal_engine.hpp"

namespace tsc3d::floorplan {

/// Parallel-tempering configuration.
struct ChainOptions {
  /// Number of annealing chains; 1 is a plain SA run (no exchanges).
  std::size_t chains = 1;
  /// Stages between exchange rounds (each chain runs this many stages,
  /// then the orchestrator proposes ladder-neighbor swaps).
  std::size_t exchange_interval = 4;
  /// Temperature multiplier of the hottest chain relative to the coldest.
  double ladder_ratio = 6.0;
  /// Run chains on their own threads (false = sequential round-robin,
  /// same results; useful for debugging and sanitizer isolation).
  bool parallel = true;
};

/// Replica-exchange bookkeeping.
struct ExchangeStats {
  std::size_t rounds = 0;
  std::size_t attempts = 0;
  std::size_t accepts = 0;

  [[nodiscard]] bool operator==(const ExchangeStats&) const = default;
};

/// Outcome of an annealing run.
struct ChainReport {
  std::size_t winner = 0;              ///< index of the winning chain
  std::vector<AnnealStats> chains;     ///< per-chain annealing stats
  ExchangeStats exchange;
};

/// Everything the orchestrator needs to equip one chain.  Built by the
/// Floorplanner from its options (kept separate so this header does not
/// depend on floorplanner.hpp).
struct ChainSetup {
  /// Fast-grid thermal config of each chain's in-loop engine; its grid
  /// must match eval.leakage_grid.
  ThermalConfig fast_thermal;
  thermal::ParallelConfig engine_parallel;  ///< sweep sharding per engine
  CostEvaluator::Options eval;
  AnnealOptions anneal;
  ChainOptions chains;
};

struct ExplorationHooks;  // full definition in exploration_checkpoint.hpp

class ChainOrchestrator {
 public:
  explicit ChainOrchestrator(ChainSetup setup);

  /// Anneal from `initial`.  Chain 0 works on `fp` and `rng` directly;
  /// when K > 1, one draw of `rng` seeds chains 1..K-1 (which copy `fp`
  /// before anything moves) and the exchange RNG.  On return `fp` holds
  /// the winning chain's whole design -- best layout, voltage indices and
  /// TSVs -- and `rng` is chain 0's stream position.  Deterministic for a
  /// given (fp, initial, rng state) regardless of scheduling.
  ///
  /// Checkpointing: when `hooks->save` is set, every chain is snapshot at
  /// the stage barrier every `hooks->checkpoint_interval` stages and at
  /// the last one; when `hooks->resume` is set, begin() and the seed draw
  /// are skipped and every chain (chain 0's RNG included) continues from
  /// the checkpoint -- `initial` is then ignored.  Throws
  /// std::invalid_argument when the checkpoint's chain count differs from
  /// the setup's.  Resumed runs are bitwise-identical to uninterrupted
  /// ones.
  ChainReport run(Floorplan3D& fp, const LayoutState& initial, Rng& rng,
                  const ExplorationHooks* hooks = nullptr);

  [[nodiscard]] const ChainSetup& setup() const { return setup_; }

  /// Deterministic per-chain seed stream (exposed for tests).
  [[nodiscard]] static std::uint64_t chain_seed(std::uint64_t base,
                                                std::size_t chain);

 private:
  ChainSetup setup_;
};

}  // namespace tsc3d::floorplan
