// The batch exploration service (src/service/): durable job queue
// semantics, checkpoint/result file validation fallbacks (the
// DtmCheckpoint discipline: any defect is a clean fresh start with a
// reason, never silent corruption), content-addressed cache key
// sensitivity, cache hits with zero annealing, and the headline crash
// contract -- a worker that dies mid-run resumes from its checkpoint
// and produces a result file BYTE-identical to an uninterrupted run's.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "benchgen/generator.hpp"
#include "config/apply.hpp"
#include "config/config_file.hpp"
#include "floorplan/floorplanner.hpp"
#include "service/checkpoint_io.hpp"
#include "service/job_queue.hpp"
#include "service/result_cache.hpp"
#include "service/version.hpp"
#include "service/worker.hpp"

namespace tsc3d::service {
namespace {

namespace fs = std::filesystem;

/// Small but real config so worker runs finish in well under a second.
constexpr const char* kConfig =
    "[floorplanning]\n"
    "sa_moves = 1500\n"
    "sa_stages = 8\n"
    "fast_grid = 16\n"
    "verify_grid = 24\n"
    "sampling_grid = 16\n";

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

JobSpec small_job(std::uint64_t seed) {
  JobSpec job;
  job.benchmark = "n100";
  job.seed = seed;
  job.config_text = kConfig;
  return job;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- job format ---------------------------------------------------------

TEST(JobFormat, RoundTripsThroughText) {
  JobSpec job;
  job.benchmark = "n200";
  job.seed = 42;
  job.config_text = "[floorplanning]\nmode = tsc\n";
  EXPECT_EQ(parse_job(format_job(job)), job);

  JobSpec files;
  files.blocks = "d/x.blocks";
  files.nets = "d/x.nets";
  files.seed = 7;
  EXPECT_EQ(parse_job(format_job(files)), files);
}

TEST(JobFormat, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_job("not a job file"), std::runtime_error);
  EXPECT_THROW((void)parse_job("tsc3d-job v1\nseed 1\n"),
               std::runtime_error);  // no design
  EXPECT_THROW(
      (void)parse_job("tsc3d-job v1\nbenchmark n100\nconfig-begin\nx = 1\n"),
      std::runtime_error);  // unterminated config
  EXPECT_THROW((void)parse_job("tsc3d-job v1\nfrobnicate yes\n"),
               std::runtime_error);
}

TEST(JobFormat, IdIsStableAndContentAddressed) {
  const JobSpec a = small_job(1);
  EXPECT_EQ(job_id(a), job_id(small_job(1)));
  EXPECT_NE(job_id(a), job_id(small_job(2)));
  JobSpec other = small_job(1);
  other.config_text += "sa_moves = 99\n";  // duplicate key is fine as text
  EXPECT_NE(job_id(a), job_id(other));
}

// --- queue lifecycle ----------------------------------------------------

ServiceOptions queue_options(const fs::path& dir) {
  ServiceOptions opt;
  opt.queue_dir = dir.string();
  return opt;
}

TEST(JobQueue, EnqueueClaimCompleteLifecycle) {
  JobQueue queue(queue_options(fresh_dir("svc_lifecycle")));
  const std::string id = queue.enqueue(small_job(1));
  EXPECT_EQ(queue.status().pending, 1u);

  // Idempotent: same content, same id, still one job.
  EXPECT_EQ(queue.enqueue(small_job(1)), id);
  EXPECT_EQ(queue.status().pending, 1u);

  const auto claimed = queue.claim_next();
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->id, id);
  EXPECT_EQ(claimed->spec, small_job(1));
  EXPECT_EQ(queue.status().claimed, 1u);

  // The claim excludes other workers.
  EXPECT_FALSE(queue.claim_next().has_value());

  queue.complete(*claimed);
  EXPECT_EQ(queue.status().pending, 0u);
  EXPECT_EQ(queue.status().claimed, 0u);
  EXPECT_EQ(queue.status().done, 1u);

  // A completed job does not re-enqueue.
  EXPECT_EQ(queue.enqueue(small_job(1)), id);
  EXPECT_EQ(queue.status().pending, 0u);
}

TEST(JobQueue, ReleaseReturnsJobToPending) {
  JobQueue queue(queue_options(fresh_dir("svc_release")));
  queue.enqueue(small_job(1));
  const auto claimed = queue.claim_next();
  ASSERT_TRUE(claimed.has_value());
  queue.release(*claimed);
  EXPECT_TRUE(queue.claim_next().has_value());
}

TEST(JobQueue, FailMovesJobAsideWithReason) {
  JobQueue queue(queue_options(fresh_dir("svc_fail")));
  const std::string id = queue.enqueue(small_job(1));
  const auto claimed = queue.claim_next();
  ASSERT_TRUE(claimed.has_value());
  queue.fail(*claimed, "boom");
  EXPECT_EQ(queue.status().failed, 1u);
  EXPECT_EQ(queue.status().pending, 0u);
  EXPECT_EQ(read_bytes(queue.root() / "failed" / (id + ".reason")), "boom\n");
}

TEST(JobQueue, StaleClaimIsReclaimed) {
  ServiceOptions opt = queue_options(fresh_dir("svc_stale"));
  opt.claim_lease_s = 0.0;  // every existing claim is instantly stale
  JobQueue queue(opt);
  queue.enqueue(small_job(1));
  const auto first = queue.claim_next();
  ASSERT_TRUE(first.has_value());
  // The "crashed" worker's claim is stale, so a second worker wins it.
  const auto second = queue.claim_next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->id, second->id);
}

// --- checkpoint file validation ----------------------------------------

/// A real (small) checkpoint to serialize: captured from a short run.
floorplan::ExplorationCheckpoint sample_checkpoint() {
  const config::ConfigFile cfg = config::ConfigFile::parse(kConfig);
  const floorplan::Floorplanner planner(
      config::make_floorplanner_options(cfg));
  Floorplan3D fp = benchgen::generate("n100", 3);
  Rng rng(3);
  floorplan::ExplorationCheckpoint snapshot;
  floorplan::ExplorationHooks hooks;
  hooks.save = [&](const floorplan::ExplorationCheckpoint& ck) {
    snapshot = ck;
  };
  (void)planner.run(fp, rng, hooks);
  return snapshot;
}

ArtifactContext sample_context() {
  ArtifactContext ctx;
  ctx.design_hash = 0x1111;
  ctx.config_hash = 0x2222;
  ctx.seed = 3;
  ctx.code_version = kCodeVersion;
  return ctx;
}

TEST(CheckpointIo, RoundTripsAndResumesEquivalently) {
  const fs::path dir = fresh_dir("svc_ckio");
  const floorplan::ExplorationCheckpoint original = sample_checkpoint();
  const ArtifactContext ctx = sample_context();
  save_checkpoint_file(dir / "a.ckp", ctx, original);

  const CheckpointLoad load = load_checkpoint_file(dir / "a.ckp", ctx);
  ASSERT_TRUE(load.ok) << load.reason;

  // The loaded checkpoint must drive the flow exactly like the in-memory
  // one: resume both and compare the final placements bitwise.
  const config::ConfigFile cfg = config::ConfigFile::parse(kConfig);
  const floorplan::Floorplanner planner(
      config::make_floorplanner_options(cfg));
  Floorplan3D fp_a = benchgen::generate("n100", 3);
  Floorplan3D fp_b = benchgen::generate("n100", 3);
  Rng rng_a(3), rng_b(3);
  floorplan::ExplorationHooks hooks_a, hooks_b;
  hooks_a.resume = &original;
  hooks_b.resume = &load.checkpoint;
  (void)planner.run(fp_a, rng_a, hooks_a);
  (void)planner.run(fp_b, rng_b, hooks_b);
  ASSERT_EQ(fp_a.modules().size(), fp_b.modules().size());
  for (std::size_t i = 0; i < fp_a.modules().size(); ++i) {
    EXPECT_EQ(fp_a.modules()[i].shape.x, fp_b.modules()[i].shape.x);
    EXPECT_EQ(fp_a.modules()[i].shape.y, fp_b.modules()[i].shape.y);
    EXPECT_EQ(fp_a.modules()[i].die, fp_b.modules()[i].die);
  }
  EXPECT_TRUE(rng_a.state() == rng_b.state());
}

TEST(CheckpointIo, RejectsEveryIdentityMismatch) {
  const fs::path file = fresh_dir("svc_ckid") / "a.ckp";
  const ArtifactContext ctx = sample_context();
  save_checkpoint_file(file, ctx, sample_checkpoint());

  ArtifactContext wrong = ctx;
  wrong.design_hash ^= 1;  // a different design's checkpoint
  EXPECT_FALSE(load_checkpoint_file(file, wrong).ok);
  EXPECT_EQ(load_checkpoint_file(file, wrong).reason,
            "design hash mismatch");

  wrong = ctx;
  wrong.config_hash ^= 1;
  EXPECT_EQ(load_checkpoint_file(file, wrong).reason,
            "config hash mismatch");

  wrong = ctx;
  wrong.seed ^= 1;
  EXPECT_EQ(load_checkpoint_file(file, wrong).reason, "seed mismatch");

  wrong = ctx;
  wrong.code_version = "tsc3d-0-other";  // producer from another build
  EXPECT_EQ(load_checkpoint_file(file, wrong).reason,
            "code version mismatch");
}

TEST(CheckpointIo, RejectsCorruptFilesCleanly) {
  const fs::path dir = fresh_dir("svc_ckbad");
  const ArtifactContext ctx = sample_context();
  save_checkpoint_file(dir / "a.ckp", ctx, sample_checkpoint());
  const std::string bytes = read_bytes(dir / "a.ckp");

  EXPECT_EQ(load_checkpoint_file(dir / "missing.ckp", ctx).reason,
            "no checkpoint file");

  {  // truncated mid-payload
    std::ofstream out(dir / "trunc.ckp", std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_FALSE(load_checkpoint_file(dir / "trunc.ckp", ctx).ok);

  {  // one flipped payload byte: checksum catches it
    std::string corrupt = bytes;
    corrupt[corrupt.size() - 3] ^= 0x40;
    std::ofstream out(dir / "flip.ckp", std::ios::binary);
    out << corrupt;
  }
  EXPECT_EQ(load_checkpoint_file(dir / "flip.ckp", ctx).reason,
            "checksum mismatch");

  {  // not a checkpoint at all
    std::ofstream out(dir / "junk.ckp", std::ios::binary);
    out << "definitely not a checkpoint";
  }
  EXPECT_EQ(load_checkpoint_file(dir / "junk.ckp", ctx).reason,
            "bad magic");

  // A checkpoint of the previous format (an older build's) or of the next
  // one restarts cleanly.
  for (const unsigned version :
       {kCheckpointFormatVersion - 1, kCheckpointFormatVersion + 1}) {
    std::string other = bytes;
    other[8] = static_cast<char>(version);  // the u64 after the 8-byte magic
    {
      std::ofstream out(dir / "other.ckp", std::ios::binary);
      out << other;
    }
    EXPECT_EQ(load_checkpoint_file(dir / "other.ckp", ctx).reason,
              "unknown format version")
        << "version " << version;
  }
}

// --- result cache -------------------------------------------------------

TEST(ResultCache, MissesWhenAnyKeyComponentChanges) {
  ResultCache cache(fresh_dir("svc_cachekey"));
  StoredResult res;
  res.context = sample_context();
  res.legal = true;
  cache.store(res);
  EXPECT_TRUE(cache.probe(res.context).has_value());

  ArtifactContext changed = res.context;
  changed.design_hash ^= 1;
  EXPECT_FALSE(cache.probe(changed).has_value());
  changed = res.context;
  changed.config_hash ^= 1;
  EXPECT_FALSE(cache.probe(changed).has_value());
  changed = res.context;
  changed.seed ^= 1;
  EXPECT_FALSE(cache.probe(changed).has_value());
  changed = res.context;
  changed.code_version = "tsc3d-0-other";
  EXPECT_FALSE(cache.probe(changed).has_value());
}

TEST(ResultCache, CollisionDegradesToMissNotWrongHit) {
  ResultCache cache(fresh_dir("svc_collide"));
  StoredResult res;
  res.context = sample_context();
  cache.store(res);
  // Plant a foreign artifact in the slot another context hashes to;
  // a probe validates the embedded context, so it must miss.
  ArtifactContext other = res.context;
  other.seed ^= 1;
  fs::copy_file(cache.path_for(res.context), cache.path_for(other));
  EXPECT_FALSE(cache.probe(other).has_value());
}

TEST(ConfigFile, CanonicalFormIgnoresFormattingOnly) {
  const auto a = config::ConfigFile::parse(
      "[floorplanning]\nsa_moves = 2000  # why not\n\nfast_grid=16\n");
  const auto b = config::ConfigFile::parse(
      "[floorplanning]\n  fast_grid = 16\nsa_moves   =2000\n");
  EXPECT_EQ(a.canonical(), b.canonical());
  const auto c = config::ConfigFile::parse(
      "[floorplanning]\nfast_grid = 16\nsa_moves = 2001\n");
  EXPECT_NE(a.canonical(), c.canonical());
}

// --- worker -------------------------------------------------------------

TEST(Worker, CacheHitServesStoredBytesWithZeroAnnealing) {
  const fs::path dir = fresh_dir("svc_cachehit");
  ResultCache cache(dir / "cache");
  const JobSpec job = small_job(4);

  const WorkReport first =
      run_job(job, dir / "a.ckp", dir / "a.res", &cache, 1);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.sa_moves, 0u);

  const WorkReport second =
      run_job(job, dir / "b.ckp", dir / "b.res", &cache, 1);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.sa_moves, 0u);
  EXPECT_EQ(read_bytes(dir / "a.res"), read_bytes(dir / "b.res"));
}

TEST(Worker, CrashMidRunResumesToByteIdenticalResult) {
  const fs::path dir = fresh_dir("svc_crash");
  const JobSpec job = small_job(5);
  const ArtifactContext ctx = job_context(job);

  // Uninterrupted reference (no cache, so the resumed run really runs).
  const WorkReport ref = run_job(job, dir / "ref.ckp", dir / "ref.res",
                                 nullptr, 1);
  ASSERT_TRUE(ref.ok) << ref.error;

  // "Crash" a worker mid-anneal: run the identical flow with durable
  // checkpoints and die (throw) right after the third snapshot lands.
  const config::ConfigFile cfg = config::ConfigFile::parse(kConfig);
  const floorplan::Floorplanner planner(
      config::make_floorplanner_options(cfg));
  Floorplan3D fp = benchgen::generate(job.benchmark, job.seed);
  Rng rng(job.seed);
  floorplan::ExplorationHooks hooks;
  int saved = 0;
  hooks.save = [&](const floorplan::ExplorationCheckpoint& ck) {
    save_checkpoint_file(dir / "job.ckp", ctx, ck);
    if (++saved == 3) throw std::runtime_error("simulated crash");
  };
  EXPECT_THROW((void)planner.run(fp, rng, hooks), std::runtime_error);

  // A new worker picks the job up from the surviving checkpoint.
  const WorkReport resumed = run_job(job, dir / "job.ckp",
                                     dir / "job.res", nullptr, 1);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_TRUE(resumed.resumed) << resumed.resume_note;
  // Restored stats continue the pre-crash count: the TOTAL matches the
  // uninterrupted run exactly, it does not double-count redone work.
  EXPECT_EQ(resumed.sa_moves, ref.sa_moves);
  EXPECT_EQ(read_bytes(dir / "ref.res"), read_bytes(dir / "job.res"));
}

TEST(Worker, DefectiveCheckpointFallsBackToFreshStart) {
  const fs::path dir = fresh_dir("svc_fallback");
  const JobSpec job = small_job(6);
  const WorkReport ref = run_job(job, dir / "ref.ckp", dir / "ref.res",
                                 nullptr, 1);
  ASSERT_TRUE(ref.ok) << ref.error;

  {  // garbage where the checkpoint should be
    std::ofstream out(dir / "bad.ckp", std::ios::binary);
    out << "garbage";
  }
  const WorkReport rerun = run_job(job, dir / "bad.ckp", dir / "bad.res",
                                   nullptr, 1);
  ASSERT_TRUE(rerun.ok) << rerun.error;
  EXPECT_FALSE(rerun.resumed);
  EXPECT_EQ(rerun.resume_note, "bad magic");
  EXPECT_EQ(read_bytes(dir / "ref.res"), read_bytes(dir / "bad.res"));
}

TEST(Worker, ServiceKeysDoNotChangeTheCacheKey) {
  // Operational settings (queue dir, lease) must not split the cache:
  // two sweeps differing only in [service] keys share artifacts.
  const JobSpec a = small_job(10);
  JobSpec b = a;
  b.config_text =
      std::string(kConfig) + "[service]\nclaim_lease_s = 5\n";
  EXPECT_EQ(job_context(a), job_context(b));
  EXPECT_NE(job_id(a), job_id(b));  // distinct queue entries, one artifact
}

TEST(Worker, RejectsUnknownConfigKeys) {
  JobSpec job = small_job(7);
  job.config_text = "[floorplanning]\nsa_movez = 10\n";
  const fs::path dir = fresh_dir("svc_typo");
  const WorkReport report =
      run_job(job, dir / "a.ckp", dir / "a.res", nullptr, 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("sa_movez"), std::string::npos);
}

TEST(Worker, WorkOneDrainsQueueAndRecordsFailures) {
  ServiceOptions opt = queue_options(fresh_dir("svc_workone"));
  JobQueue queue(opt);
  queue.enqueue(small_job(8));
  JobSpec broken = small_job(9);
  broken.config_text = "[floorplanning]\nmode = bogus\n";
  queue.enqueue(broken);

  int ok = 0, failed = 0;
  while (const auto report = work_one(queue)) {
    (report->ok ? ok : failed)++;
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(queue.status().done, 1u);
  EXPECT_EQ(queue.status().failed, 1u);
  EXPECT_EQ(queue.status().pending, 0u);
  EXPECT_EQ(queue.status().claimed, 0u);
}

}  // namespace
}  // namespace tsc3d::service
