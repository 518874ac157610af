// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Command-line driver for the full Fig. 3 flow, in the spirit of the
// Corblivar binary the paper released its techniques in.  Usage:
//
//   tsc3d [--config=FILE] [--benchmark=n100 | --blocks=F [--nets=F]
//         [--pl=F] [--power=F]] [--mode=power|tsc] [--seed=N]
//         [--moves=N] [--threads=N] [--chains=K] [--out=DIR]
//         [--quiet]
//
// The design comes either from a named Table 1 benchmark (synthetic,
// deterministic per seed) or from GSRC bookshelf files.  The flow
// floorplans it, prints the Table 2 metric row, and optionally writes
// the power/thermal maps (CSV + PGM) and the placed GSRC bundle to
// --out.  Exit code 0 on a legal floorplan, 2 on an illegal one, 1 on
// usage/config errors.
#include <filesystem>
#include <iostream>
#include <string>

#include "benchgen/generator.hpp"
#include "benchgen/gsrc_io.hpp"
#include "config/apply.hpp"
#include "config/config_file.hpp"
#include "core/map_io.hpp"
#include "floorplan/floorplanner.hpp"
#include "thermal/thermal_engine.hpp"

namespace {

struct CliArgs {
  std::string config;
  std::string benchmark = "n100";
  std::string blocks, nets, pl, power;
  std::string mode;  // empty = from config / default
  std::string solver;  // empty = from config / default
  std::string out;
  std::uint64_t seed = 1;
  std::size_t moves = 0;
  std::size_t threads = 0;  // 0 = from config / default
  std::size_t chains = 0;   // 0 = from config / default
  // SIZE_MAX = from config / default (0 is meaningful: checks off).
  std::size_t cross_check = static_cast<std::size_t>(-1);
  bool quiet = false;
  bool help = false;
};

void print_usage() {
  std::cout <<
      "tsc3d: thermal side-channel-aware 3D floorplanner (DAC'17)\n"
      "\n"
      "usage: tsc3d [options]\n"
      "  --config=FILE     Corblivar-style config file\n"
      "  --benchmark=NAME  Table 1 benchmark (n100 n200 n300 ibm01 ibm03\n"
      "                    ibm07); ignored when --blocks is given\n"
      "  --blocks=FILE     GSRC .blocks input\n"
      "  --nets=FILE       GSRC .nets input\n"
      "  --pl=FILE         GSRC .pl input (initial placement)\n"
      "  --power=FILE      per-module power sidecar\n"
      "  --mode=power|tsc  flow preset (overrides floorplanning.mode)\n"
      "  --solver=NAME     steady-state thermal backend: auto (default;\n"
      "                    picks per engine role), sor, or multigrid\n"
      "                    (V-cycles + FMG; wins on cold/large solves)\n"
      "  --cross-check=N   every Nth incremental cheap evaluation, verify\n"
      "                    the cached terms (and memoized entropies)\n"
      "                    against a full recompute and abort on any\n"
      "                    bitwise mismatch (0 = off; defaults to 256 in\n"
      "                    debug builds, 0 in release)\n"
      "  --seed=N          RNG seed (default 1)\n"
      "  --moves=N         SA moves (0 = auto)\n"
      "  --threads=N       worker threads per thermal engine (default 1;\n"
      "                    threaded solves are bitwise-identical to serial)\n"
      "  --chains=K        parallel-tempering annealing chains (default 1)\n"
      "  --out=DIR         write maps + placed GSRC bundle here\n"
      "  --quiet           suppress the per-metric report\n"
      "  --help            this text\n"
      "\n"
      "Config-file keys are documented in docs/CONFIG.md; the\n"
      "architecture overview lives in docs/ARCHITECTURE.md.  Batch\n"
      "sweeps with checkpoint/resume and result caching run through the\n"
      "tsc3d_batch companion binary, documented in docs/JOBS.md.\n";
}

CliArgs parse_args(int argc, char** argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg == "--help" || arg == "-h") args.help = true;
    else if (arg == "--quiet") args.quiet = true;
    else if (arg.rfind("--config=", 0) == 0) args.config = value("--config=");
    else if (arg.rfind("--benchmark=", 0) == 0)
      args.benchmark = value("--benchmark=");
    else if (arg.rfind("--blocks=", 0) == 0) args.blocks = value("--blocks=");
    else if (arg.rfind("--nets=", 0) == 0) args.nets = value("--nets=");
    else if (arg.rfind("--pl=", 0) == 0) args.pl = value("--pl=");
    else if (arg.rfind("--power=", 0) == 0) args.power = value("--power=");
    else if (arg.rfind("--mode=", 0) == 0) args.mode = value("--mode=");
    else if (arg.rfind("--solver=", 0) == 0) args.solver = value("--solver=");
    else if (arg.rfind("--cross-check=", 0) == 0)
      args.cross_check = std::stoul(value("--cross-check="));
    else if (arg.rfind("--seed=", 0) == 0)
      args.seed = std::stoull(value("--seed="));
    else if (arg.rfind("--moves=", 0) == 0)
      args.moves = std::stoul(value("--moves="));
    else if (arg.rfind("--threads=", 0) == 0)
      args.threads = std::stoul(value("--threads="));
    else if (arg.rfind("--chains=", 0) == 0)
      args.chains = std::stoul(value("--chains="));
    else if (arg.rfind("--out=", 0) == 0) args.out = value("--out=");
    else
      throw std::runtime_error("unknown argument: " + arg +
                               " (try --help)");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsc3d;
  try {
    const CliArgs args = parse_args(argc, argv);
    if (args.help) {
      print_usage();
      return 0;
    }

    config::ConfigFile cfg;
    if (!args.config.empty()) cfg = config::ConfigFile::load(args.config);

    if (!args.mode.empty() && args.mode != "power" && args.mode != "tsc")
      throw std::runtime_error("--mode must be 'power' or 'tsc'");
    // --mode only picks the preset; the file's keys still overlay it.
    floorplan::FloorplannerOptions opt =
        config::make_floorplanner_options(cfg, args.mode);
    if (args.moves > 0) opt.anneal.total_moves = args.moves;
    if (args.threads > 0) opt.parallel.threads = args.threads;
    if (args.chains > 0) opt.chains.chains = args.chains;
    if (args.solver == "sor")
      opt.thermal.solver = SolverBackend::sor;
    else if (args.solver == "multigrid")
      opt.thermal.solver = SolverBackend::multigrid;
    else if (args.solver == "auto")
      opt.thermal.solver = SolverBackend::auto_select;
    else if (!args.solver.empty())
      throw std::runtime_error(
          "--solver must be 'auto', 'sor' or 'multigrid'");
    if (args.cross_check != static_cast<std::size_t>(-1))
      opt.cross_check_interval = args.cross_check;

    TechnologyConfig tech;
    config::apply_technology(cfg, tech);

    // Reject config typos loudly rather than run with silent defaults.
    const auto unused = cfg.unused_keys();
    if (!unused.empty()) {
      std::cerr << "error: unrecognized config keys:\n";
      for (const auto& key : unused) std::cerr << "  " << key << "\n";
      return 1;
    }

    Floorplan3D fp = args.blocks.empty()
                         ? benchgen::generate(args.benchmark, args.seed)
                         : benchgen::read_bundle(tech, args.blocks,
                                                 args.nets, args.pl,
                                                 args.power);
    if (!args.blocks.empty() && !args.config.empty())
      fp.tech() = tech;  // config technology governs file-based designs

    Rng rng(args.seed);
    const floorplan::Floorplanner planner(opt);
    const floorplan::FloorplanMetrics metrics = planner.run(fp, rng);

    if (!args.quiet) {
      std::cout << "design          : "
                << (args.blocks.empty() ? args.benchmark : args.blocks)
                << " (" << fp.modules().size() << " modules, "
                << fp.nets().size() << " nets)\n"
                << "mode            : "
                << (opt.mode == floorplan::FlowMode::tsc_aware ? "tsc"
                                                               : "power")
                << "\nlegal           : " << (metrics.legal ? "yes" : "NO")
                << "\ncorrelation r1  : " << metrics.correlation[0]
                << "\ncorrelation r2  : " << metrics.correlation[1]
                << "\nspatial entropy : " << metrics.entropy[0] << " / "
                << metrics.entropy[1]
                << "\npower [W]       : " << metrics.power_w
                << "\ncritical delay  : " << metrics.critical_delay_ns
                << " ns\nwirelength [m]  : " << metrics.wirelength_m
                << "\npeak temp [K]   : " << metrics.peak_k
                << "\nsignal TSVs     : " << metrics.signal_tsvs
                << "\ndummy TSVs      : " << metrics.dummy_tsvs
                << "\nvoltage volumes : " << metrics.voltage_volumes
                << "\nruntime [s]     : " << metrics.runtime_s << "\n";
      if (metrics.chains.chains.size() > 1)
        std::cout << "tempering       : " << metrics.chains.chains.size()
                  << " chains, winner " << metrics.chains.winner << ", "
                  << metrics.chains.exchange.accepts << "/"
                  << metrics.chains.exchange.attempts
                  << " exchanges accepted\n";
    }

    if (!args.out.empty()) {
      const std::filesystem::path dir(args.out);
      std::filesystem::create_directories(dir);
      benchgen::write_bundle(fp, dir / "floorplan");

      thermal::ThermalEngine engine(fp.tech(), opt.thermal, {},
                                    thermal::EngineRole::verify);
      const std::size_t nx = opt.thermal.grid_nx, ny = opt.thermal.grid_ny;
      std::vector<GridD> power;
      for (std::size_t d = 0; d < fp.tech().num_dies; ++d)
        power.push_back(fp.power_map(d, nx, ny));
      const auto thermal_res =
          engine.solve_steady(power, fp.tsv_density_map(nx, ny));
      if (!args.quiet) {
        std::cout << "thermal solve   : " << thermal_res.iterations
                  << " sweeps";
        if (thermal_res.vcycles > 0)
          std::cout << " (" << thermal_res.vcycles << " V-cycles)";
        std::cout << ", "
                  << (thermal_res.converged ? "converged" : "NOT CONVERGED")
                  << " (residual " << thermal_res.residual_k << " K)\n";
      }
      for (std::size_t d = 0; d < fp.tech().num_dies; ++d) {
        const std::string stem = "die" + std::to_string(d);
        write_csv(power[d], dir / (stem + "_power.csv"));
        write_pgm(power[d], dir / (stem + "_power.pgm"));
        write_csv(thermal_res.die_temperature[d],
                  dir / (stem + "_thermal.csv"));
        write_pgm(thermal_res.die_temperature[d],
                  dir / (stem + "_thermal.pgm"));
      }
      if (!args.quiet)
        std::cout << "outputs written : " << dir.string() << "\n";
    }

    return metrics.legal ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
