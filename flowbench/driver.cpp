// flowbench driver -- runs one benchmark workload of tsc3d and prints its
// numbers.  Built twice from this one source: `flowbench` (plain) and
// `flowbench_traced` (linked with wraps.cpp, see CMakeLists.txt).
//
//   flowbench --workload=tsc_n100|campaign_n100 --seed=N
//             [--ops=K] [--tiny] [--work-dir=DIR] [--spans=FILE]
//
// --tiny shrinks every operation to a smoke-test size (2000 moves; the
// campaign also on an 8x8 scenario grid with the fewest trials).
//
// A run measures K operations.  For the flow workload an operation is
// one Floorplanner::run on a design generated from its own seed
// (K*(N-1)+1 .. K*N); for the campaign it is one repetition of the
// fresh drain + cache-served drain + report, on the matrix for campaign
// seeds 2N-1 and 2N.
// Every operation's outputs are checked and folded into a digest; the
// last stdout line is one JSON object (run.py turns it into metrics).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "campaign/matrix.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/scenario_io.hpp"
#include "config/apply.hpp"
#include "config/config_file.hpp"
#include "floorplan/floorplanner.hpp"
#include "leakage/pearson.hpp"
#include "recorder.hpp"
#include "service/job_queue.hpp"
#include "thermal/grid_solver.hpp"
#include "thermal/thermal_engine.hpp"

namespace fs = std::filesystem;
namespace fb = flowbench;
using namespace tsc3d;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t ops = 1;
  bool tiny = false;
  fs::path work_dir = ".bench_out/work";
  fs::path spans;
};

// Move budget of every anneal at the --tiny smoke-test size.
constexpr std::size_t kTinyMoves = 2000;

// FNV-1a over the canonical text of every operation's outputs.
class Digest {
 public:
  void add(const std::string& text) {
    for (const unsigned char c : text) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
  }
  void add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    add(std::string(buf));
  }
  void add(std::size_t v) { add(std::to_string(v) + ";"); }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

// Everything one driver process reports.
struct Outcome {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::vector<double>> quality;  // one value per op
  std::vector<std::string> op_digests;
  std::vector<std::pair<std::string, double>> layer_counters;

  void fail(const std::string& why) {
    ++failed;
    failures.push_back(why);
  }
};

bool finite_all(std::initializer_list<double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// --- flow workload -----------------------------------------------------------

struct FlowSetup {
  floorplan::FloorplannerOptions opt;
  Floorplan3D fp;
};

// What `tsc3d_cli --benchmark=n100 --mode=tsc --seed=S` does before it
// calls Floorplanner::run: read the (empty) config, take the preset, check
// for unused keys, generate the design.
FlowSetup flow_setup(std::uint64_t seed, const Args& a) {
  config::ConfigFile cfg;
  FlowSetup s{config::make_floorplanner_options(cfg), Floorplan3D{}};
  s.opt = floorplan::Floorplanner::tsc_aware_setup();
  if (a.tiny) s.opt.anneal.total_moves = kTinyMoves;
  TechnologyConfig tech;
  config::apply_technology(cfg, tech);
  if (!cfg.unused_keys().empty())
    throw std::runtime_error("unused config keys");
  s.fp = benchgen::generate("n100", seed);
  return s;
}

void digest_flow(Digest& d, const floorplan::FloorplanMetrics& m,
                 const Floorplan3D& fp) {
  for (const double r : m.correlation) d.add(r);
  for (const double s : m.entropy) d.add(s);
  d.add(m.power_w);
  d.add(m.critical_delay_ns);
  d.add(m.wirelength_m);
  d.add(m.peak_k);
  d.add(m.signal_tsvs);
  d.add(m.dummy_tsvs);
  d.add(m.voltage_volumes);
  d.add(std::string(m.legal ? "legal;" : "illegal;"));
  const floorplan::AnnealStats& a = m.anneal;
  d.add(a.moves);
  d.add(a.accepted);
  d.add(a.full_evals);
  d.add(a.repair_moves);
  d.add(a.initial_temperature);
  d.add(a.best_cost);
  d.add(m.dummy.iterations);
  d.add(m.dummy.tsvs_inserted);
  d.add(m.dummy.islands_inserted);
  d.add(m.dummy.correlation_before);
  d.add(m.dummy.correlation_after);
  for (const double c : m.dummy.correlation_history) d.add(c);
  for (const Module& mod : fp.modules()) {
    d.add(mod.die);
    d.add(mod.shape.x);
    d.add(mod.shape.y);
    d.add(mod.shape.w);
    d.add(mod.shape.h);
  }
}

// Checks one finished flow and records its quality numbers; returns the
// failure reason, or "" when every check passed.
std::string check_flow(const FlowSetup& s, const floorplan::FloorplanMetrics& m,
                       std::uint64_t seed, Outcome& out) {
  const Floorplan3D& fp = s.fp;
  const std::size_t dies = fp.tech().num_dies;
  if (!m.legal || !fp.check_legality().legal) return "illegal floorplan";
  if (m.correlation.size() != dies || m.entropy.size() != dies)
    return "missing per-die leakage numbers";
  for (std::size_t d = 0; d < dies; ++d)
    if (!finite_all({m.correlation[d], m.entropy[d]}))
      return "non-finite leakage number";
  if (!finite_all({m.power_w, m.critical_delay_ns, m.wirelength_m, m.peak_k}))
    return "non-finite design metric";

  // Re-run the verification solve on the final floorplan: it must
  // converge and agree with what the flow reported.
  ThermalConfig vcfg = s.opt.thermal;
  const std::size_t g = s.opt.verify_grid;
  vcfg.grid_nx = vcfg.grid_ny = g;
  thermal::ThermalEngine engine(fp.tech(), vcfg, {},
                                thermal::EngineRole::verify);
  std::vector<GridD> power;
  for (std::size_t d = 0; d < dies; ++d) power.push_back(fp.power_map(d, g, g));
  const thermal::ThermalResult v =
      engine.solve_steady(power, fp.tsv_density_map(g, g));
  if (!v.converged) return "verification solve did not converge";
  if (std::abs(v.peak_k - m.peak_k) > 1e-3)
    return "reported peak temperature disagrees with the verification solve";
  for (std::size_t d = 0; d < dies; ++d)
    if (std::abs(leakage::pearson(power[d], v.die_temperature[d]) -
                 m.correlation[d]) > 1e-3)
      return "reported correlation disagrees with the verification solve";

  // Security of the result: the campaign's localization attack on the
  // unmitigated floorplan.
  const campaign::CampaignOptions copt;
  ThermalConfig acfg = s.opt.thermal;
  acfg.grid_nx = acfg.grid_ny = copt.attack_grid;
  const thermal::GridSolver solver(fp.tech(), acfg);
  const double success = campaign::run_attack(
      fp, solver, campaign::AttackKind::localization, copt, seed);
  if (!(success >= 0.0 && success <= 1.0)) return "attack success out of range";

  double corr = 0.0;
  for (const double r : m.correlation) corr += r;
  auto& q = out.quality;
  q["leak_corr"].push_back(corr / static_cast<double>(dies));
  q["peak_rise_k"].push_back(m.peak_k - s.opt.thermal.ambient_k);
  q["power_w"].push_back(m.power_w);
  q["delay_ns"].push_back(m.critical_delay_ns);
  q["wirelength_m"].push_back(m.wirelength_m);
  q["attack_success"].push_back(success);
  // Pareto overhead of an unmitigated design: power * (1 + 0) + 0 W.
  q["overhead_w"].push_back(m.power_w);
  return "";
}

// Flow set-up is well below a millisecond.  Before each flow, the set-up
// of its design is timed kSetupBlocks times, kSetupReps repetitions per
// block; setup_s is the median over the run's blocks.  Like wall_s, it
// thus samples the machine across the whole run.
constexpr std::size_t kSetupBlocks = 10;
constexpr std::size_t kSetupReps = 10;

Outcome run_flows(const Args& a) {
  Outcome out;
  std::size_t moves = 0, accepted = 0, full_evals = 0, dummy_iters = 0,
              dummy_tsvs = 0;
  for (std::size_t k = 0; k < a.ops; ++k) {
    const std::uint64_t seed = (a.seed - 1) * a.ops + k + 1;
    FlowSetup s;
    for (std::size_t block = 0; block < kSetupBlocks; ++block) {
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < kSetupReps; ++rep)
        s = flow_setup(seed, a);
      out.setup_s.push_back(seconds_since(t0) / kSetupReps);
    }

    ++out.attempted;
    fb::set_request("seed" + std::to_string(seed));
    Rng rng(seed);
    const floorplan::Floorplanner planner(s.opt);
    floorplan::FloorplanMetrics m;
    std::string error;
    fb::set_recording(fb::kTraced);
    const auto t0 = Clock::now();
    try {
      m = planner.run(s.fp, rng);
    } catch (const std::exception& e) {
      error = std::string("flow threw: ") + e.what();
    }
    out.wall_s.push_back(seconds_since(t0));
    fb::set_recording(false);

    if (error.empty()) error = check_flow(s, m, seed, out);
    Digest d;
    digest_flow(d, m, s.fp);
    out.op_digests.push_back("seed" + std::to_string(seed) + " " + d.hex());
    if (!error.empty()) {
      out.fail("seed " + std::to_string(seed) + ": " + error);
      continue;
    }
    moves += m.anneal.moves;
    accepted += m.anneal.accepted;
    full_evals += m.anneal.full_evals;
    dummy_iters += m.dummy.iterations;
    dummy_tsvs += m.dummy_tsvs;
  }
  out.layer_counters = {
      {"floorplan.moves", static_cast<double>(moves)},
      {"floorplan.accept_ratio",
       moves > 0 ? static_cast<double>(accepted) / static_cast<double>(moves)
                 : 0.0},
      {"floorplan.full_evals", static_cast<double>(full_evals)},
      {"tsv.dummy_iterations", static_cast<double>(dummy_iters)},
      {"tsv.dummy_tsvs", static_cast<double>(dummy_tsvs)},
      {"campaign.cache_hit_ratio", 0.0},
  };
  return out;
}

// --- campaign workload -------------------------------------------------------

std::string campaign_config(std::uint64_t seed, const Args& a) {
  std::ostringstream s;
  s << "[floorplanning]\n"
    << "sa_moves = " << (a.tiny ? kTinyMoves : 4000) << "\n"
    << "[campaign]\n"
    << "benchmark = n100\n"
    << "attacks = localization, monitoring, covert_channel\n"
    << "mitigations = none, dtm, noise_injection\n"
    << "flavors = power_aware, tsc_secure, monolithic\n"
    << "seeds = " << 2 * seed - 1 << "-" << 2 * seed << "\n";
  if (a.tiny)
    s << "attack_grid = 8\nmonitoring_trials = 2\ncovert_bits = 4\n"
      << "leakage_phases = 3\n";
  return s.str();
}

service::ServiceOptions queue_options(const config::ConfigFile& cfg,
                                      const fs::path& queue,
                                      const fs::path& cache) {
  service::ServiceOptions o = config::make_service_options(cfg);
  o.queue_dir = queue.string();
  o.cache_dir = cache.string();
  return o;
}

std::map<std::string, std::string> read_dir(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    files[e.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

// One drain's results, read from its own queue's results/<id>.scn files:
// the fresh drain wrote them from evaluate_scenario, the served drain from
// what the scenario cache returned.  (campaign::collect_results would
// probe the shared cache for both and so compare the cache with itself.)
std::vector<campaign::ScenarioResult> drain_results(
    const service::JobQueue& queue, const campaign::CampaignPlan& plan) {
  std::vector<campaign::ScenarioResult> results;
  for (const service::JobSpec& job : plan.jobs) {
    const std::string id = service::job_id(job);
    fs::path path = queue.result_path(id);
    path.replace_extension(".scn");
    const campaign::ScenarioContext ctx =
        campaign::scenario_context(job, plan.options);
    campaign::ScenarioLoad load = campaign::load_scenario_file(path, &ctx);
    if (!load.ok)
      throw std::runtime_error("no result for job " + id + " in " +
                               queue.options().queue_dir + ": " + load.reason);
    results.push_back(std::move(load.result));
  }
  return results;
}

// Set-up: parse, plan, and fill the exploration cache only -- the
// explorations (one anneal per flavor and seed) run as plain jobs, so no
// measured scenario is warm.  Enqueueing is idempotent, so each shared
// exploration is queued once.
campaign::CampaignPlan campaign_setup(const std::string& text,
                                      const fs::path& dir) {
  const config::ConfigFile cfg =
      config::ConfigFile::parse(text, "<flowbench campaign>");
  campaign::CampaignPlan plan = campaign::plan_campaign(cfg);
  service::JobQueue explore(queue_options(cfg, dir / "explore", dir / "cache"));
  for (const service::JobSpec& job : plan.jobs)
    explore.enqueue(campaign::exploration_spec(job));
  for (const auto& r : campaign::drain(explore, plan.options, 1))
    if (!r.ok) throw std::runtime_error("set-up exploration failed: " + r.error);
  return plan;
}

// Campaign set-up takes seconds, so it runs twice, in fresh directories,
// and setup_s is the median.  Every measured repetition then starts from
// a copy of the last set-up's exploration cache.
constexpr std::size_t kCampaignSetups = 2;

Outcome run_campaign(const Args& a) {
  Outcome out;
  const std::string text = campaign_config(a.seed, a);
  const config::ConfigFile cfg =
      config::ConfigFile::parse(text, "<flowbench campaign>");
  fs::remove_all(a.work_dir);
  campaign::CampaignPlan plan;
  fs::path setup_dir;
  for (std::size_t rep = 0; rep < kCampaignSetups; ++rep) {
    setup_dir = a.work_dir / ("setup" + std::to_string(rep));
    const auto t0 = Clock::now();
    plan = campaign_setup(text, setup_dir);
    out.setup_s.push_back(seconds_since(t0));
  }

  std::size_t hits = 0, works = 0;
  for (std::size_t rep = 0; rep < a.ops; ++rep) {
    const fs::path dir = a.work_dir / ("rep" + std::to_string(rep));
    const fs::path cache = dir / "cache";
    fs::create_directories(dir);
    fs::copy(setup_dir / "cache", cache, fs::copy_options::recursive);

    // Measured: fresh drain, cache-served drain on a fresh queue sharing
    // the cache, then each drain's report from its own result files.
    fb::set_request("campaign");
    fb::set_recording(fb::kTraced);
    const auto t0 = Clock::now();
    service::JobQueue fresh(queue_options(cfg, dir / "fresh", cache));
    campaign::enqueue_campaign(fresh, plan);
    const auto fresh_reports = campaign::drain(fresh, plan.options, 1);
    service::JobQueue served(queue_options(cfg, dir / "served", cache));
    campaign::enqueue_campaign(served, plan);
    const auto served_reports = campaign::drain(served, plan.options, 1);
    fb::set_request("report");
    std::vector<campaign::ScenarioResult> res_fresh, res_served;
    std::string error;
    try {
      res_fresh = drain_results(fresh, plan);
      res_served = drain_results(served, plan);
      campaign::write_report(dir / "report-fresh", plan.options, plan.jobs,
                             res_fresh);
      campaign::write_report(dir / "report-served", plan.options, plan.jobs,
                             res_served);
    } catch (const std::exception& e) {
      error = e.what();
    }
    out.wall_s.push_back(seconds_since(t0));
    fb::set_recording(false);

    // Checks: every scenario ran, none was pre-warmed, each served result
    // equals the fresh one, and the reports match byte for byte.
    const std::size_t n = plan.jobs.size();
    out.attempted += 2 * n;
    works += fresh_reports.size() + served_reports.size();
    const std::size_t failed_before = out.failed;
    for (const auto& r : fresh_reports) {
      if (r.cache_hit) ++hits;
      if (!r.ok) out.fail("fresh scenario " + r.id + ": " + r.error);
      else if (r.cache_hit) out.fail("fresh scenario " + r.id + " was pre-warmed");
    }
    for (const auto& r : served_reports) {
      if (r.cache_hit) ++hits;
      if (!r.ok) out.fail("served scenario " + r.id + ": " + r.error);
    }
    if (fresh_reports.size() != n || served_reports.size() != n)
      out.fail("a drain did not run every scenario");
    if (!error.empty()) {
      out.fail("report: " + error);
      continue;
    }
    if (out.failed != failed_before) continue;
    for (std::size_t i = 0; i < n; ++i) {
      const campaign::ScenarioResult& r = res_fresh[i];
      if (!r.legal)
        out.fail("scenario " + std::to_string(i) + ": illegal floorplan");
      if (!finite_all({r.attack_success, r.overhead, r.pearson_abs_max,
                       r.mi_max, r.svf, r.spatial_entropy_max, r.power_w,
                       r.critical_delay_ns, r.wirelength_m, r.peak_k}) ||
          !(r.attack_success >= 0.0 && r.attack_success <= 1.0))
        out.fail("scenario " + std::to_string(i) + ": output out of range");
      if (!(res_served[i] == r))
        out.fail("scenario " + std::to_string(i) +
                 ": served result differs from the fresh one");
    }
    const auto report_fresh = read_dir(dir / "report-fresh");
    if (report_fresh != read_dir(dir / "report-served"))
      out.fail("served report differs from the fresh report");

    Digest d;
    for (const auto& [name, bytes] : report_fresh) {
      d.add(name);
      d.add(bytes);
    }
    out.op_digests.push_back("rep" + std::to_string(rep) + " " + d.hex());

    std::vector<double> success, overhead, corr, rise, power, delay, wl;
    for (std::size_t i = 0; i < n; ++i) {
      const campaign::ScenarioResult& r = res_fresh[i];
      ThermalConfig thermal;
      config::apply_thermal(
          config::ConfigFile::parse(plan.jobs[i].config_text, "<job>"),
          thermal);
      success.push_back(r.attack_success);
      overhead.push_back(r.overhead);
      corr.push_back(r.pearson_abs_max);
      rise.push_back(r.peak_k - thermal.ambient_k);
      power.push_back(r.power_w);
      delay.push_back(r.critical_delay_ns);
      wl.push_back(r.wirelength_m);
    }
    auto& q = out.quality;
    q["attack_success"].push_back(mean(success));
    q["overhead_w"].push_back(mean(overhead));
    q["leak_corr"].push_back(mean(corr));
    q["peak_rise_k"].push_back(mean(rise));
    q["power_w"].push_back(mean(power));
    q["delay_ns"].push_back(mean(delay));
    q["wirelength_m"].push_back(mean(wl));
  }
  out.layer_counters = {
      {"floorplan.moves", 0.0},
      {"floorplan.accept_ratio", 0.0},
      {"floorplan.full_evals", 0.0},
      {"tsv.dummy_iterations", 0.0},
      {"tsv.dummy_tsvs", 0.0},
      {"campaign.cache_hit_ratio",
       works > 0 ? static_cast<double>(hits) / static_cast<double>(works)
                 : 0.0},
  };
  return out;
}

// --- output ------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
      continue;
    }
    o += c;
  }
  return o + "\"";
}

std::string json_list(const std::vector<double>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    o += (i ? "," : "") + json_number(v[i]);
  return o + "]";
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--ops") a.ops = std::stoul(value);
    else if (key == "--tiny") a.tiny = true;
    else if (key == "--work-dir") a.work_dir = value;
    else if (key == "--spans") a.spans = value;
    else throw std::runtime_error("unknown argument " + arg);
  }
  if (a.seed == 0 || a.ops == 0)
    throw std::runtime_error("--seed and --ops must be at least 1");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    Outcome out;
    if (a.workload == "tsc_n100")
      out = run_flows(a);
    else if (a.workload == "campaign_n100")
      out = run_campaign(a);
    else
      throw std::runtime_error("unknown workload '" + a.workload + "'");

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

    Digest all;
    for (const std::string& d : out.op_digests) {
      std::cout << "digest " << d << "\n";
      all.add(d);
    }
    for (const std::string& f : out.failures)
      std::cout << "FAILED " << f << "\n";

    std::string layers = "{}";
    if (fb::kTraced) {
      double wall = 0.0;
      for (const double w : out.wall_s) wall += w;
      fb::LayerReport rep = fb::summarize(out.layer_counters);
      rep.metrics.emplace_back("trace.coverage",
                               wall > 0 ? rep.covered_s / wall : 0.0);
      layers = "{";
      for (std::size_t i = 0; i < rep.metrics.size(); ++i)
        layers += (i ? "," : "") + json_string(rep.metrics[i].first) + ":" +
                  json_number(rep.metrics[i].second);
      layers += "}";
      for (const std::string& note : rep.notes) std::cout << note << "\n";
      if (!a.spans.empty()) fb::write_spans(a.spans);
    }

    std::string quality = "{";
    bool first = true;
    for (const auto& [name, values] : out.quality) {
      quality += (first ? "" : ",") + json_string(name) + ":" + json_list(values);
      first = false;
    }
    quality += "}";

    std::cout << "{\"workload\":" << json_string(a.workload)
              << ",\"seed\":" << a.seed << ",\"ops\":" << a.ops
              << ",\"traced\":" << (fb::kTraced ? "true" : "false")
              << ",\"attempted\":" << out.attempted
              << ",\"failed\":" << out.failed
              << ",\"setup_s\":" << json_list(out.setup_s)
              << ",\"wall_s\":" << json_list(out.wall_s)
              << ",\"peak_rss_mb\":" << json_number(peak_rss_mb)
              << ",\"quality\":" << quality
              << ",\"digest\":" << json_string(all.hex())
              << ",\"layers\":" << layers << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "flowbench: " << e.what() << "\n";
    return 1;
  }
}
