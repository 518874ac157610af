#include "service/job_queue.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "service/frame.hpp"

namespace tsc3d::service {

namespace {

constexpr const char* kJobHeader = "tsc3d-job v1";

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("job queue: cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_entries(const std::filesystem::path& dir,
                          const std::string& ext) {
  std::size_t n = 0;
  if (!std::filesystem::exists(dir)) return 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file() && e.path().extension() == ext) ++n;
  return n;
}

/// Seconds since `claim` was written; infinite once it is gone (its
/// holder completed or released the job after the caller listed it), so
/// the caller goes on to contend for the job through O_EXCL.
double claim_age_s(const std::filesystem::path& claim) {
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(claim, ec);
  if (ec) return std::numeric_limits<double>::infinity();
  const auto now = std::filesystem::file_time_type::clock::now();
  return std::chrono::duration<double>(now - mtime).count();
}

}  // namespace

std::string format_job(const JobSpec& job) {
  std::ostringstream out;
  out << kJobHeader << "\n";
  if (!job.benchmark.empty()) out << "benchmark " << job.benchmark << "\n";
  if (!job.blocks.empty()) out << "blocks " << job.blocks << "\n";
  if (!job.nets.empty()) out << "nets " << job.nets << "\n";
  if (!job.pl.empty()) out << "pl " << job.pl << "\n";
  if (!job.power.empty()) out << "power " << job.power << "\n";
  if (!job.scenario.empty()) out << "scenario " << job.scenario << "\n";
  if (!job.mitigation.empty()) out << "mitigation " << job.mitigation << "\n";
  if (!job.flavor.empty()) out << "flavor " << job.flavor << "\n";
  out << "seed " << job.seed << "\n";
  out << "config-begin\n" << job.config_text;
  if (!job.config_text.empty() && job.config_text.back() != '\n') out << "\n";
  out << "config-end\n";
  return out.str();
}

JobSpec parse_job(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kJobHeader)
    throw std::runtime_error("job file: missing 'tsc3d-job v1' header");
  JobSpec job;
  bool in_config = false, saw_config_end = false;
  std::ostringstream config;
  while (std::getline(in, line)) {
    if (in_config) {
      if (line == "config-end") {
        in_config = false;
        saw_config_end = true;
        continue;
      }
      config << line << "\n";
      continue;
    }
    if (line.empty()) continue;
    if (line == "config-begin") {
      in_config = true;
      continue;
    }
    const auto sp = line.find(' ');
    const std::string key = line.substr(0, sp);
    const std::string val = sp == std::string::npos ? "" : line.substr(sp + 1);
    if (key == "benchmark") job.benchmark = val;
    else if (key == "blocks") job.blocks = val;
    else if (key == "nets") job.nets = val;
    else if (key == "pl") job.pl = val;
    else if (key == "power") job.power = val;
    else if (key == "scenario") job.scenario = val;
    else if (key == "mitigation") job.mitigation = val;
    else if (key == "flavor") job.flavor = val;
    else if (key == "seed") job.seed = std::stoull(val);
    else
      throw std::runtime_error("job file: unknown key '" + key + "'");
  }
  if (in_config || (!saw_config_end && !config.str().empty()))
    throw std::runtime_error("job file: unterminated config block");
  job.config_text = config.str();
  if (job.benchmark.empty() && job.blocks.empty())
    throw std::runtime_error("job file: needs a benchmark or a blocks file");
  return job;
}

std::string job_id(const JobSpec& job) {
  const std::string text = format_job(job);
  const std::uint64_t digest = fnv1a64(text);
  std::ostringstream hex;
  hex << std::hex << std::setw(16) << std::setfill('0') << digest;
  return hex.str();
}

JobQueue::JobQueue(ServiceOptions opt) : opt_(std::move(opt)) {
  if (opt_.queue_dir.empty())
    throw std::invalid_argument("JobQueue: queue_dir must not be empty");
  root_ = opt_.queue_dir;
  for (const char* sub :
       {"jobs", "claims", "checkpoints", "results", "done", "failed"})
    std::filesystem::create_directories(root_ / sub);
  std::filesystem::create_directories(cache_dir());
}

std::filesystem::path JobQueue::cache_dir() const {
  return opt_.cache_dir.empty() ? root_ / "cache"
                                : std::filesystem::path(opt_.cache_dir);
}

std::string JobQueue::enqueue(const JobSpec& job) {
  const std::string id = job_id(job);
  const std::filesystem::path pending = root_ / "jobs" / (id + ".job");
  const std::filesystem::path finished = root_ / "done" / (id + ".job");
  if (std::filesystem::exists(pending) || std::filesystem::exists(finished))
    return id;
  write_file_atomic(pending, format_job(job));
  return id;
}

std::optional<ClaimedJob> JobQueue::claim_next() {
  std::vector<std::filesystem::path> pending;
  for (const auto& e : std::filesystem::directory_iterator(root_ / "jobs"))
    if (e.is_regular_file() && e.path().extension() == ".job")
      pending.push_back(e.path());
  std::sort(pending.begin(), pending.end());

  for (const auto& job_file : pending) {
    const std::string id = job_file.stem().string();
    const std::filesystem::path claim =
        root_ / "claims" / (id + ".claim");

    if (std::filesystem::exists(claim)) {
      // A live worker holds the lease; reclaim only once it goes stale.
      if (claim_age_s(claim) <= opt_.claim_lease_s) continue;
      std::error_code ec;
      std::filesystem::remove(claim, ec);  // race-tolerant: loser moves on
    }

    // O_CREAT | O_EXCL: exactly one contender wins the claim file.
    const int fd = ::open(claim.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) continue;  // somebody else won the race
    const std::string note = "pid " + std::to_string(::getpid()) + "\n";
    (void)!::write(fd, note.data(), note.size());
    ::close(fd);

    // The job may have completed between listing and claiming.
    if (!std::filesystem::exists(job_file)) {
      std::error_code ec;
      std::filesystem::remove(claim, ec);
      continue;
    }

    ClaimedJob claimed;
    claimed.id = id;
    claimed.spec = parse_job(read_text(job_file));
    claimed.job_file = job_file;
    claimed.claim_file = claim;
    return claimed;
  }
  return std::nullopt;
}

void JobQueue::complete(const ClaimedJob& job) {
  std::filesystem::rename(job.job_file, root_ / "done" / (job.id + ".job"));
  std::error_code ec;
  std::filesystem::remove(checkpoint_path(job.id), ec);
  std::filesystem::remove(job.claim_file, ec);
}

void JobQueue::fail(const ClaimedJob& job, const std::string& reason) {
  write_file_atomic(root_ / "failed" / (job.id + ".reason"), reason + "\n");
  std::filesystem::rename(job.job_file, root_ / "failed" / (job.id + ".job"));
  std::error_code ec;
  std::filesystem::remove(checkpoint_path(job.id), ec);
  std::filesystem::remove(job.claim_file, ec);
}

void JobQueue::release(const ClaimedJob& job) {
  std::error_code ec;
  std::filesystem::remove(job.claim_file, ec);
}

std::filesystem::path JobQueue::checkpoint_path(const std::string& id) const {
  return root_ / "checkpoints" / (id + ".ckp");
}

std::filesystem::path JobQueue::result_path(const std::string& id) const {
  return root_ / "results" / (id + ".res");
}

QueueStatus JobQueue::status() const {
  QueueStatus s;
  s.pending = count_entries(root_ / "jobs", ".job");
  s.claimed = count_entries(root_ / "claims", ".claim");
  s.done = count_entries(root_ / "done", ".job");
  s.failed = count_entries(root_ / "failed", ".job");
  s.checkpoints = count_entries(root_ / "checkpoints", ".ckp");
  s.cached = count_entries(cache_dir(), ".res");
  return s;
}

}  // namespace tsc3d::service
