#include "campaign/report.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "campaign/pareto.hpp"
#include "service/frame.hpp"
#include "service/version.hpp"

namespace tsc3d::campaign {

namespace {

/// Attack names present in `jobs`, in canonical (sorted, unique) order.
std::vector<std::string> attacks_present(
    const std::vector<service::JobSpec>& jobs) {
  std::vector<std::string> names;
  names.reserve(jobs.size());
  for (const service::JobSpec& job : jobs) names.push_back(job.scenario);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

/// The Pareto candidates of one attack; `index` is the row in `jobs`.
std::vector<ParetoPoint> points_for_attack(
    const std::string& attack, const std::vector<service::JobSpec>& jobs,
    const std::vector<ScenarioResult>& results) {
  std::vector<ParetoPoint> points;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (jobs[i].scenario == attack)
      points.push_back({results[i].leakage, results[i].overhead, i});
  return points;
}

void check_aligned(const std::vector<service::JobSpec>& jobs,
                   const std::vector<ScenarioResult>& results) {
  if (jobs.size() != results.size())
    throw std::runtime_error("campaign report: jobs/results size mismatch");
}

}  // namespace

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string render_scenarios_csv(const std::vector<service::JobSpec>& jobs,
                                 const std::vector<ScenarioResult>& results) {
  check_aligned(jobs, results);
  std::string out;
  out += "# tsc3d campaign scenarios v1\n";
  out +=
      "attack,mitigation,flavor,benchmark,seed,legal,wirelength_m,power_w,"
      "critical_delay_ns,peak_k,mitigation_overhead_w,"
      "mitigation_performance_loss,mitigation_peak_k,attack_success,"
      "pearson_abs_max,mi_max,svf,spatial_entropy_max,leakage,overhead\n";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const service::JobSpec& job = jobs[i];
    const ScenarioResult& r = results[i];
    out += job.scenario + ',' + job.mitigation + ',' + job.flavor + ',' +
           job.benchmark + ',' + std::to_string(job.seed) + ',' +
           (r.legal ? "1" : "0") + ',' + format_double(r.wirelength_m) + ',' +
           format_double(r.power_w) + ',' +
           format_double(r.critical_delay_ns) + ',' + format_double(r.peak_k) +
           ',' + format_double(r.mitigation_overhead_w) + ',' +
           format_double(r.mitigation_performance_loss) + ',' +
           format_double(r.mitigation_peak_k) + ',' +
           format_double(r.attack_success) + ',' +
           format_double(r.pearson_abs_max) + ',' + format_double(r.mi_max) +
           ',' + format_double(r.svf) + ',' +
           format_double(r.spatial_entropy_max) + ',' +
           format_double(r.leakage) + ',' + format_double(r.overhead) + '\n';
  }
  return out;
}

std::string render_pareto_csv(const std::vector<service::JobSpec>& jobs,
                              const std::vector<ScenarioResult>& results) {
  check_aligned(jobs, results);
  std::string out;
  out += "# tsc3d campaign pareto v1\n";
  out += "attack,mitigation,flavor,benchmark,seed,leakage,overhead\n";
  for (const std::string& attack : attacks_present(jobs)) {
    const std::vector<ParetoPoint> front =
        pareto_front(points_for_attack(attack, jobs, results));
    for (const ParetoPoint& p : front) {
      const service::JobSpec& job = jobs[p.index];
      out += attack + ',' + job.mitigation + ',' + job.flavor + ',' +
             job.benchmark + ',' + std::to_string(job.seed) + ',' +
             format_double(p.leakage) + ',' + format_double(p.overhead) + '\n';
    }
  }
  return out;
}

std::string render_summary(const CampaignOptions& opt,
                           const std::vector<service::JobSpec>& jobs,
                           const std::vector<ScenarioResult>& results) {
  check_aligned(jobs, results);
  std::string out;
  out += "tsc3d campaign summary v1\n";
  out += std::string("code ") + service::kCodeVersion + '\n';
  out += "benchmark " + opt.benchmark + '\n';
  out += "scenarios " + std::to_string(jobs.size()) + '\n';
  out += '\n';
  for (const std::string& attack : attacks_present(jobs)) {
    const std::vector<ParetoPoint> points =
        points_for_attack(attack, jobs, results);
    const std::vector<ParetoPoint> front = pareto_front(points);
    out += '[' + attack + "]\n";
    out += "  points " + std::to_string(points.size()) + ", front " +
           std::to_string(front.size()) + '\n';
    if (!front.empty()) {
      const ParetoPoint& lo_leak = front.front();  // (leakage, overhead) sort
      const ParetoPoint& lo_cost = front.back();
      const service::JobSpec& leak_job = jobs[lo_leak.index];
      const service::JobSpec& cost_job = jobs[lo_cost.index];
      out += "  min leakage " + format_double(lo_leak.leakage) +
             " at overhead " + format_double(lo_leak.overhead) + " (" +
             leak_job.mitigation + '/' + leak_job.flavor + "/seed " +
             std::to_string(leak_job.seed) + ")\n";
      out += "  min overhead " + format_double(lo_cost.overhead) +
             " at leakage " + format_double(lo_cost.leakage) + " (" +
             cost_job.mitigation + '/' + cost_job.flavor + "/seed " +
             std::to_string(cost_job.seed) + ")\n";
    }
  }
  return out;
}

void write_report(const std::filesystem::path& dir, const CampaignOptions& opt,
                  const std::vector<service::JobSpec>& jobs,
                  const std::vector<ScenarioResult>& results) {
  check_aligned(jobs, results);
  std::filesystem::create_directories(dir);
  using service::write_file_atomic;
  write_file_atomic(dir / "scenarios.csv", render_scenarios_csv(jobs, results));
  write_file_atomic(dir / "pareto.csv", render_pareto_csv(jobs, results));
  write_file_atomic(dir / "SUMMARY.txt", render_summary(opt, jobs, results));
}

}  // namespace tsc3d::campaign
