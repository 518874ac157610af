// The adversarial campaign runner (src/campaign/): matrix expansion
// (count, canonical ordering, dedup, flavor baking), idempotent
// enqueueing on the batch queue, Pareto-front extraction on hand-built
// points, scenario-file round trips, and the headline determinism
// contract -- the same campaign evaluated at different worker counts,
// fresh or through the scenario cache, produces identical results and
// byte-identical report artifacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "campaign/matrix.hpp"
#include "campaign/options.hpp"
#include "campaign/pareto.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/scenario_io.hpp"
#include "config/config_file.hpp"
#include "service/job_queue.hpp"

namespace tsc3d::campaign {
namespace {

namespace fs = std::filesystem;

/// A fresh directory private to this test process: two test runs (two
/// build trees, or `ctest -j` siblings) never share or remove each
/// other's files.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A campaign spec small enough that full evaluation takes seconds.
constexpr const char* kCampaignConfig =
    "[floorplanning]\n"
    "sa_moves = 1200\n"
    "sa_stages = 8\n"
    "fast_grid = 16\n"
    "verify_grid = 24\n"
    "sampling_grid = 16\n"
    "[campaign]\n"
    "attacks = localization, characterization\n"
    "mitigations = none, noise_injection\n"
    "flavors = power_aware\n"
    "seeds = 1\n"
    "attack_grid = 8\n"
    "monitoring_trials = 2\n"
    "covert_bits = 4\n"
    "leakage_phases = 3\n";

config::ConfigFile campaign_config() {
  return config::ConfigFile::parse(kCampaignConfig, "test campaign");
}

CampaignOptions tiny_options() {
  CampaignOptions opt;
  opt.attacks = {AttackKind::localization, AttackKind::characterization};
  opt.mitigations = {MitigationKind::none, MitigationKind::noise_injection};
  opt.flavors = {FlavorKind::power_aware, FlavorKind::monolithic};
  opt.seed_lo = 1;
  opt.seed_hi = 2;
  return opt;
}

// --- matrix expansion ---------------------------------------------------

TEST(CampaignMatrix, ExpandsTheFullCrossProduct) {
  const config::ConfigFile cfg = config::ConfigFile::parse("", "empty");
  const std::vector<service::JobSpec> jobs =
      expand_matrix(tiny_options(), cfg);
  ASSERT_EQ(jobs.size(), 2u * 2u * 2u * 2u);
  for (const service::JobSpec& job : jobs) {
    EXPECT_TRUE(job.is_scenario());
    EXPECT_EQ(job.benchmark, "n100");
    EXPECT_NO_THROW((void)parse_attack(job.scenario));
    EXPECT_NO_THROW((void)parse_mitigation(job.mitigation));
    EXPECT_NO_THROW((void)parse_flavor(job.flavor));
  }
}

TEST(CampaignMatrix, OrderingIsCanonicalAndInputOrderIndependent) {
  const config::ConfigFile cfg = config::ConfigFile::parse("", "empty");
  const std::vector<service::JobSpec> jobs =
      expand_matrix(tiny_options(), cfg);

  // Sorted by (attack, mitigation, flavor, seed) names.
  const auto key = [](const service::JobSpec& j) {
    return std::make_tuple(j.scenario, j.mitigation, j.flavor, j.seed);
  };
  for (std::size_t i = 1; i < jobs.size(); ++i)
    EXPECT_LT(key(jobs[i - 1]), key(jobs[i])) << "row " << i;

  // Scrambled, repeated axis lists expand to the identical job list.
  CampaignOptions scrambled = tiny_options();
  std::reverse(scrambled.attacks.begin(), scrambled.attacks.end());
  std::reverse(scrambled.flavors.begin(), scrambled.flavors.end());
  scrambled.mitigations.push_back(MitigationKind::none);  // repeat
  scrambled.attacks.push_back(AttackKind::localization);  // repeat
  EXPECT_EQ(expand_matrix(scrambled, cfg), jobs);
}

TEST(CampaignMatrix, BakesTheFlavorIntoTheConfigText) {
  const config::ConfigFile cfg = config::ConfigFile::parse(
      "[floorplanning]\nsa_moves = 777\n", "base");
  CampaignOptions opt = tiny_options();
  opt.attacks = {AttackKind::localization};
  opt.mitigations = {MitigationKind::none};
  opt.seed_hi = 1;
  const std::vector<service::JobSpec> jobs = expand_matrix(opt, cfg);
  ASSERT_EQ(jobs.size(), 2u);
  for (const service::JobSpec& job : jobs) {
    const config::ConfigFile parsed =
        config::ConfigFile::parse(job.config_text, "job");
    // Non-flavor keys survive verbatim; the flavor sets mode + stack.
    EXPECT_EQ(parsed.get_size("floorplanning.sa_moves", 0), 777u);
    const std::string mode = parsed.get_string("floorplanning.mode", "");
    const std::string stack = parsed.get_string("technology.flavor", "");
    if (job.flavor == "monolithic") {
      EXPECT_EQ(mode, "power");
      EXPECT_EQ(stack, "monolithic");
    } else {
      EXPECT_EQ(job.flavor, "power_aware");
      EXPECT_EQ(mode, "power");
      EXPECT_EQ(stack, "tsv");
    }
  }
}

TEST(CampaignMatrix, ExplorationSpecStripsOnlyTheScenarioAnnotations) {
  const config::ConfigFile cfg = config::ConfigFile::parse("", "empty");
  const std::vector<service::JobSpec> jobs =
      expand_matrix(tiny_options(), cfg);
  for (const service::JobSpec& job : jobs) {
    const service::JobSpec exp = exploration_spec(job);
    EXPECT_FALSE(exp.is_scenario());
    EXPECT_TRUE(exp.mitigation.empty());
    EXPECT_TRUE(exp.flavor.empty());
    EXPECT_EQ(exp.benchmark, job.benchmark);
    EXPECT_EQ(exp.seed, job.seed);
    EXPECT_EQ(exp.config_text, job.config_text);
  }
  // Scenario jobs differing only in attack/mitigation share the same
  // exploration (and thus one cached floorplan result).
  const service::JobSpec& a = jobs.front();
  for (const service::JobSpec& b : jobs) {
    if (b.flavor == a.flavor && b.seed == a.seed &&
        (b.scenario != a.scenario || b.mitigation != a.mitigation)) {
      EXPECT_EQ(service::job_id(exploration_spec(a)),
                service::job_id(exploration_spec(b)));
    }
  }
}

TEST(CampaignMatrix, ScenarioJobTextRoundTripsAndPlainIdsAreUnchanged) {
  const config::ConfigFile cfg = config::ConfigFile::parse("", "empty");
  const std::vector<service::JobSpec> jobs =
      expand_matrix(tiny_options(), cfg);
  for (const service::JobSpec& job : jobs)
    EXPECT_EQ(service::parse_job(service::format_job(job)), job);

  // A plain job's canonical text has no scenario lines at all, so job
  // ids from before the campaign runner existed are unchanged.  (Use an
  // empty config: the flavored config TEXT legitimately contains the
  // word "flavor".)
  service::JobSpec bare;
  bare.benchmark = "n100";
  bare.seed = 4;
  const std::string plain = service::format_job(bare);
  EXPECT_EQ(plain.find("scenario"), std::string::npos);
  EXPECT_EQ(plain.find("mitigation"), std::string::npos);
  EXPECT_EQ(plain.find("flavor"), std::string::npos);
}

TEST(CampaignMatrix, EnqueueIsIdempotent) {
  service::ServiceOptions sopt;
  sopt.queue_dir = fresh_dir("campaign_enqueue_q").string();
  service::JobQueue queue(sopt);

  CampaignPlan plan;
  plan.options = tiny_options();
  plan.jobs =
      expand_matrix(plan.options, config::ConfigFile::parse("", "empty"));

  const std::vector<std::string> first = enqueue_campaign(queue, plan);
  const std::vector<std::string> second = enqueue_campaign(queue, plan);
  EXPECT_EQ(first, second);
  EXPECT_EQ(queue.status().pending, plan.jobs.size());
}

// --- Pareto front on hand-built points ----------------------------------

TEST(CampaignPareto, SinglePointIsItsOwnFront) {
  const std::vector<ParetoPoint> front = pareto_front({{0.5, 3.0, 0}});
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0], (ParetoPoint{0.5, 3.0, 0}));
}

TEST(CampaignPareto, DominatedPointsAreRemoved) {
  // (0.2, 5) and (0.8, 1) trade off; (0.5, 6) loses to (0.2, 5) on both
  // axes; (0.8, 2) loses to (0.8, 1) on overhead at equal leakage.
  const std::vector<ParetoPoint> front = pareto_front({
      {0.5, 6.0, 0},
      {0.8, 1.0, 1},
      {0.2, 5.0, 2},
      {0.8, 2.0, 3},
  });
  ASSERT_EQ(front.size(), 2u);
  EXPECT_EQ(front[0], (ParetoPoint{0.2, 5.0, 2}));
  EXPECT_EQ(front[1], (ParetoPoint{0.8, 1.0, 1}));
}

TEST(CampaignPareto, TiesAreKeptAndOrderedByIndex) {
  const std::vector<ParetoPoint> front = pareto_front({
      {0.3, 2.0, 7},
      {0.3, 2.0, 1},
      {0.9, 9.0, 2},  // dominated
  });
  ASSERT_EQ(front.size(), 2u);
  EXPECT_EQ(front[0].index, 1u);
  EXPECT_EQ(front[1].index, 7u);
}

TEST(CampaignPareto, FrontIsInputOrderIndependent) {
  std::vector<ParetoPoint> points = {
      {0.1, 9.0, 0}, {0.5, 5.0, 1}, {0.9, 1.0, 2},
      {0.5, 5.5, 3}, {0.2, 8.0, 4}, {0.2, 9.5, 5},
  };
  const std::vector<ParetoPoint> front = pareto_front(points);
  std::reverse(points.begin(), points.end());
  EXPECT_EQ(pareto_front(points), front);
  ASSERT_EQ(front.size(), 4u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_LT(front[i - 1].leakage, front[i].leakage);
    EXPECT_GT(front[i - 1].overhead, front[i].overhead);
  }
}

// --- scenario files and the scenario cache ------------------------------

ScenarioResult sample_result() {
  ScenarioResult res;
  res.context.exploration.design_hash = 0x1111;
  res.context.exploration.config_hash = 0x2222;
  res.context.exploration.seed = 3;
  res.context.exploration.code_version = "test-code";
  res.context.attack = "localization";
  res.context.mitigation = "dtm";
  res.context.flavor = "tsc_secure";
  res.context.params_hash = 0x3333;
  res.legal = true;
  res.wirelength_m = 2.5;
  res.power_w = 6.25;
  res.critical_delay_ns = 1.5;
  res.peak_k = 351.25;
  res.mitigation_overhead_w = 0.5;
  res.mitigation_performance_loss = 0.125;
  res.mitigation_peak_k = 344.0;
  res.attack_success = 0.75;
  res.pearson_abs_max = 0.5;
  res.mi_max = 1.25;
  res.svf = 0.875;
  res.spatial_entropy_max = 4.5;
  res.leakage = 0.75;
  res.overhead = 7.53125;
  return res;
}

TEST(CampaignScenarioIo, RoundTripsEveryFieldAndWritesStableBytes) {
  const fs::path dir = fresh_dir("campaign_scn_io");
  const ScenarioResult res = sample_result();
  save_scenario_file(dir / "a.scn", res);
  const ScenarioLoad load = load_scenario_file(dir / "a.scn", &res.context);
  ASSERT_TRUE(load.ok) << load.reason;
  EXPECT_EQ(load.result, res);

  save_scenario_file(dir / "b.scn", res);
  EXPECT_EQ(read_bytes(dir / "a.scn"), read_bytes(dir / "b.scn"));
}

TEST(CampaignScenarioIo, CacheMissesOnContextMismatchNeverWrongHits) {
  const fs::path dir = fresh_dir("campaign_scn_cache");
  const ScenarioCache cache(dir);
  const ScenarioResult res = sample_result();
  EXPECT_FALSE(cache.probe(res.context).has_value());

  cache.store(res);
  const std::optional<ScenarioResult> hit = cache.probe(res.context);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, res);

  // Same key slot, different embedded context -> must degrade to a miss.
  ScenarioContext other = res.context;
  other.attack = "monitoring";
  EXPECT_FALSE(cache.probe(other).has_value());

  // A truncated cache file is a clean miss, not a crash or wrong hit.
  const std::string bytes = read_bytes(cache.path_for(res.context));
  std::ofstream(cache.path_for(res.context), std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  EXPECT_FALSE(cache.probe(res.context).has_value());
}

TEST(CampaignScenarioIo, SeedsIgnoreTheCodeVersionButKeysDoNot) {
  // A code-version bump keeps every stage's random stream (the floorplans
  // may well be unchanged) but must never share a cache slot with the
  // old version's results.
  const ScenarioContext a = sample_result().context;
  ScenarioContext b = a;
  b.exploration.code_version = "other-code";
  for (const char* purpose : {"mitigation", "attack", "leakage"})
    EXPECT_EQ(scenario_seed(a, purpose), scenario_seed(b, purpose))
        << purpose;
  EXPECT_NE(scenario_key(a), scenario_key(b));

  // Every other identity component still moves the seed.
  ScenarioContext c = a;
  c.exploration.seed ^= 1;
  EXPECT_NE(scenario_seed(a, "attack"), scenario_seed(c, "attack"));
  c = a;
  c.params_hash ^= 1;
  EXPECT_NE(scenario_seed(a, "attack"), scenario_seed(c, "attack"));
}

// --- the determinism contract -------------------------------------------

struct CampaignRun {
  fs::path queue_dir;
  std::vector<ScenarioResult> results;
  std::string scenarios_csv;
  std::string pareto_csv;
  std::string summary;
  std::size_t cache_hits = 0;
};

CampaignRun run_campaign(const std::string& tag, std::size_t workers,
                         const std::string& shared_cache_dir) {
  CampaignRun run;
  run.queue_dir = fresh_dir("campaign_run_" + tag);
  service::ServiceOptions sopt;
  sopt.queue_dir = run.queue_dir.string();
  sopt.cache_dir = shared_cache_dir;
  service::JobQueue queue(sopt);

  const CampaignPlan plan = plan_campaign(campaign_config());
  enqueue_campaign(queue, plan);
  const std::vector<ScenarioWorkReport> reports =
      drain(queue, plan.options, workers);

  EXPECT_EQ(reports.size(), plan.jobs.size());
  for (const ScenarioWorkReport& r : reports) {
    EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    if (r.cache_hit) ++run.cache_hits;
  }
  run.results = collect_results(queue, plan);
  run.scenarios_csv = render_scenarios_csv(plan.jobs, run.results);
  run.pareto_csv = render_pareto_csv(plan.jobs, run.results);
  run.summary = render_summary(plan.options, plan.jobs, run.results);
  return run;
}

TEST(CampaignParallel, WorkerCountAndCacheStateNeverChangeTheReport) {
  // Fresh evaluation, one worker vs four workers on fresh queues.
  const CampaignRun serial = run_campaign("serial", 1, "");
  const CampaignRun parallel = run_campaign("parallel", 4, "");
  EXPECT_EQ(serial.results, parallel.results);
  EXPECT_EQ(serial.scenarios_csv, parallel.scenarios_csv);
  EXPECT_EQ(serial.pareto_csv, parallel.pareto_csv);
  EXPECT_EQ(serial.summary, parallel.summary);

  // Third run on a fresh queue sharing the serial run's cache: every
  // scenario is served from cache, and nothing in the report moves.
  const CampaignRun cached =
      run_campaign("cached", 2, (serial.queue_dir / "cache").string());
  EXPECT_EQ(cached.cache_hits, cached.results.size());
  EXPECT_EQ(serial.results, cached.results);
  EXPECT_EQ(serial.scenarios_csv, cached.scenarios_csv);
  EXPECT_EQ(serial.pareto_csv, cached.pareto_csv);
  EXPECT_EQ(serial.summary, cached.summary);
}

TEST(CampaignReport, WritesByteIdenticalArtifactsAcrossReruns) {
  const config::ConfigFile cfg = config::ConfigFile::parse("", "empty");
  CampaignOptions opt = tiny_options();
  const std::vector<service::JobSpec> jobs = expand_matrix(opt, cfg);

  // Synthetic results keyed off the row index: deterministic, no
  // evaluation needed to exercise the writer.
  std::vector<ScenarioResult> results(jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].legal = true;
    results[i].leakage = static_cast<double>(i % 5) / 8.0;
    results[i].overhead = 5.0 + static_cast<double>(i % 3) / 16.0;
    results[i].attack_success = results[i].leakage;
    results[i].power_w = results[i].overhead;
  }

  const fs::path dir1 = fresh_dir("campaign_report_1");
  const fs::path dir2 = fresh_dir("campaign_report_2");
  write_report(dir1, opt, jobs, results);
  write_report(dir2, opt, jobs, results);
  for (const char* name : {"scenarios.csv", "pareto.csv", "SUMMARY.txt"}) {
    const std::string a = read_bytes(dir1 / name);
    EXPECT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, read_bytes(dir2 / name)) << name;
  }

  // Every Pareto row must reference a scenario row that exists.
  const std::string pareto = read_bytes(dir1 / "pareto.csv");
  EXPECT_NE(pareto.find("localization,"), std::string::npos);
}

}  // namespace
}  // namespace tsc3d::campaign
