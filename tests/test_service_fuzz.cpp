// Seeded adversarial fuzz over the service's on-disk artifact loaders
// (checkpoint_io, result_io, campaign scenario_io).  Hundreds of random
// truncations, bit flips, region splices and trailing-garbage frames
// are thrown at each loader; every defect must be FAIL-SOFT -- {ok =
// false, reason} -- never a crash, hang, or wrong accept (a mutant that
// loads ok must decode to exactly the pristine artifact).  Targeted
// cases pin the hostile-length-prefix hardening: a length field near
// 2^64, or a checksum-valid record count of 2^40, must be rejected
// before any allocation is attempted.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "benchgen/generator.hpp"
#include "campaign/scenario_io.hpp"
#include "config/apply.hpp"
#include "config/config_file.hpp"
#include "floorplan/floorplanner.hpp"
#include "service/checkpoint_io.hpp"
#include "service/frame.hpp"
#include "service/result_io.hpp"
#include "service/serialize.hpp"
#include "service/version.hpp"

namespace tsc3d::service {
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

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- pristine artifacts -------------------------------------------------

ArtifactContext sample_context() {
  ArtifactContext ctx;
  ctx.design_hash = 0xd1d1;
  ctx.config_hash = 0xc0c0;
  ctx.seed = 5;
  ctx.code_version = kCodeVersion;
  return ctx;
}

StoredResult sample_result() {
  StoredResult res;
  res.context = sample_context();
  res.legal = true;
  res.correlation = {0.25, -0.5};
  res.entropy = {3.5, 4.25};
  res.power_w = 6.5;
  res.critical_delay_ns = 1.25;
  res.wirelength_m = 2.75;
  res.peak_k = 352.5;
  res.signal_tsvs = 40;
  res.dummy_tsvs = 8;
  res.voltage_volumes = 3;
  res.clock_period_ns = 1.5;
  for (std::uint64_t i = 0; i < 12; ++i) {
    PlacedModule m;
    m.die = i % 2;
    m.x = static_cast<double>(i) * 10.0;
    m.y = static_cast<double>(i) * 5.0;
    m.w = 30.0;
    m.h = 20.0;
    m.voltage_index = i % 3;
    res.placement.push_back(m);
    StoredTsv t;
    t.x = m.x;
    t.y = m.y;
    t.count = i + 1;
    t.kind = i % 2;
    t.net = i;
    res.tsvs.push_back(t);
  }
  return res;
}

campaign::ScenarioResult sample_scenario() {
  campaign::ScenarioResult res;
  res.context.exploration = sample_context();
  res.context.attack = "monitoring";
  res.context.mitigation = "dtm";
  res.context.flavor = "tsc_secure";
  res.context.params_hash = 0xabcd;
  res.legal = true;
  res.wirelength_m = 2.75;
  res.power_w = 6.5;
  res.peak_k = 352.5;
  res.attack_success = 0.625;
  res.leakage = 0.625;
  res.overhead = 7.25;
  return res;
}

/// A real checkpoint from a short run (the checkpoint payload is by far
/// the richest format; synthetic fixtures would under-exercise it).
const std::string& pristine_checkpoint_bytes(const fs::path& dir) {
  static const std::string bytes = [&] {
    const config::ConfigFile cfg = config::ConfigFile::parse(
        "[floorplanning]\nsa_moves = 600\nsa_stages = 4\nfast_grid = 16\n"
        "verify_grid = 24\nsampling_grid = 16\n");
    const floorplan::Floorplanner planner(
        config::make_floorplanner_options(cfg));
    Floorplan3D fp = benchgen::generate("n100", 5);
    Rng rng(5);
    floorplan::ExplorationCheckpoint snapshot;
    floorplan::ExplorationHooks hooks;
    hooks.save = [&](const floorplan::ExplorationCheckpoint& ck) {
      snapshot = ck;
    };
    (void)planner.run(fp, rng, hooks);
    save_checkpoint_file(dir / "pristine.ckp", sample_context(), snapshot);
    return read_bytes(dir / "pristine.ckp");
  }();
  return bytes;
}

// --- the mutation engine ------------------------------------------------

enum class Defect { truncate, bit_flip, splice, trailing_garbage };

std::string mutate(const std::string& pristine, std::mt19937_64& rng) {
  std::string bytes = pristine;
  switch (static_cast<Defect>(rng() % 4)) {
    case Defect::truncate: {
      bytes.resize(rng() % bytes.size());
      break;
    }
    case Defect::bit_flip: {
      const std::size_t flips = 1 + rng() % 8;
      for (std::size_t i = 0; i < flips; ++i)
        bytes[rng() % bytes.size()] ^= static_cast<char>(1u << (rng() % 8));
      break;
    }
    case Defect::splice: {
      const std::size_t start = rng() % bytes.size();
      const std::size_t len =
          std::min(bytes.size() - start, 1 + rng() % 64);
      for (std::size_t i = 0; i < len; ++i)
        bytes[start + i] = static_cast<char>(rng());
      break;
    }
    case Defect::trailing_garbage: {
      const std::size_t extra = 1 + rng() % 64;
      for (std::size_t i = 0; i < extra; ++i)
        bytes.push_back(static_cast<char>(rng()));
      break;
    }
  }
  return bytes;
}

// --- fuzz runs: every defect fail-soft, never a wrong accept ------------

TEST(ServiceFuzz, CheckpointLoaderSurvivesHundredsOfCorruptFrames) {
  const fs::path dir = fresh_dir("fuzz_ckp");
  const std::string pristine = pristine_checkpoint_bytes(dir);
  const ArtifactContext ctx = sample_context();
  write_bytes(dir / "p.ckp", pristine);
  const CheckpointLoad original = load_checkpoint_file(dir / "p.ckp", ctx);
  ASSERT_TRUE(original.ok) << original.reason;

  std::mt19937_64 rng(0xC4C4C4C4u);
  std::size_t rejected = 0;
  for (int i = 0; i < 120; ++i) {
    const std::string mutant = mutate(pristine, rng);
    if (mutant == pristine) continue;
    write_bytes(dir / "m.ckp", mutant);
    const CheckpointLoad load = load_checkpoint_file(dir / "m.ckp", ctx);
    if (load.ok) {
      // Accepting is only legal if the decode is EXACTLY the pristine
      // artifact (e.g. a splice that rewrote bytes to themselves).
      EXPECT_TRUE(load.checkpoint == original.checkpoint)
          << "case " << i << ": wrong accept -- corrupted bytes decoded "
          << "to a DIFFERENT checkpoint";
    } else {
      EXPECT_FALSE(load.reason.empty()) << "case " << i;
      ++rejected;
    }
  }
  // Sanity: the fuzz actually exercised the reject paths.
  EXPECT_GT(rejected, 100u);
}

TEST(ServiceFuzz, ResultLoaderSurvivesHundredsOfCorruptFrames) {
  const fs::path dir = fresh_dir("fuzz_res");
  const StoredResult original = sample_result();
  save_result_file(dir / "pristine.res", original);
  const std::string pristine = read_bytes(dir / "pristine.res");

  std::mt19937_64 rng(0xE5E5E5E5u);
  std::size_t rejected = 0;
  for (int i = 0; i < 120; ++i) {
    const std::string mutant = mutate(pristine, rng);
    if (mutant == pristine) continue;
    write_bytes(dir / "m.res", mutant);
    const ResultLoad load =
        load_result_file(dir / "m.res", &original.context);
    if (load.ok) {
      EXPECT_EQ(load.result, original)
          << "case " << i << ": wrong accept -- corrupted bytes decoded "
          << "to a DIFFERENT result";
    } else {
      EXPECT_FALSE(load.reason.empty()) << "case " << i;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 100u);
}

TEST(ServiceFuzz, ScenarioLoaderSurvivesHundredsOfCorruptFrames) {
  const fs::path dir = fresh_dir("fuzz_scn");
  const campaign::ScenarioResult original = sample_scenario();
  campaign::save_scenario_file(dir / "pristine.scn", original);
  const std::string pristine = read_bytes(dir / "pristine.scn");

  std::mt19937_64 rng(0xF6F6F6F6u);
  std::size_t rejected = 0;
  for (int i = 0; i < 120; ++i) {
    const std::string mutant = mutate(pristine, rng);
    if (mutant == pristine) continue;
    write_bytes(dir / "m.scn", mutant);
    const campaign::ScenarioLoad load =
        campaign::load_scenario_file(dir / "m.scn", &original.context);
    if (load.ok) {
      EXPECT_EQ(load.result, original)
          << "case " << i << ": wrong accept";
    } else {
      EXPECT_FALSE(load.reason.empty()) << "case " << i;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 100u);
}

// --- targeted hostile frames -------------------------------------------

TEST(ServiceFuzz, HostileLengthPrefixIsRejectedBeforeAllocation) {
  // A container length near 2^64 must be caught by the divide-based
  // bounds check, not multiplied into a small number and "accepted".
  ByteWriter w;
  w.u64(0xFFFFFFFFFFFFFFF0ULL);
  const std::vector<std::uint8_t>& buf = w.bytes();
  {
    ByteReader r(buf.data(), buf.size());
    std::vector<double> v;
    EXPECT_THROW(r(v), std::runtime_error);
  }
  {
    ByteReader r(buf.data(), buf.size());
    std::vector<std::uint64_t> v;
    EXPECT_THROW(r(v), std::runtime_error);
  }

  // Checksum-valid frames whose record count claims 2^40 elements: the
  // count is checked against the remaining payload before any vector is
  // sized, so each load is a clean miss instead of std::bad_alloc (or an
  // allocator abort under ASan).
  const fs::path dir = fresh_dir("fuzz_count");
  constexpr std::uint64_t kHostileCount = std::uint64_t{1} << 40;
  const std::string truncated = "ByteReader: truncated artifact";

  ByteWriter res;  // StoredResult's fields up to the placement list
  const StoredResult head;
  res(sample_context(), head.legal, head.correlation, head.entropy,
      head.power_w, head.critical_delay_ns, head.wirelength_m, head.peak_k,
      head.signal_tsvs, head.dummy_tsvs, head.voltage_volumes,
      head.clock_period_ns);
  res.u64(kHostileCount);  // placement
  write_frame(dir / "count.res",
              {{'T', 'S', 'C', '3', 'D', 'R', 'E', 'S'}, kResultFormatVersion,
               "result"},
              res);
  EXPECT_EQ(load_result_file(dir / "count.res", nullptr).reason, truncated);

  ByteWriter ckp;  // the context and the clock budget, then the chains
  ckp(sample_context(), 1.5);
  ckp.u64(kHostileCount);  // chains
  write_frame(dir / "count.ckp",
              {{'T', 'S', 'C', '3', 'D', 'C', 'K', 'P'},
               kCheckpointFormatVersion, "checkpoint"},
              ckp);
  EXPECT_EQ(load_checkpoint_file(dir / "count.ckp", sample_context()).reason,
            truncated);
}

TEST(ServiceFuzz, OversizedPayloadSizeFieldIsACleanMiss) {
  const fs::path dir = fresh_dir("fuzz_oversize");
  // Valid magic + version, then a payload_size of 2^64 - 1: every loader
  // must reject on the size/remaining mismatch without touching payload.
  const auto craft = [&](const char* magic, std::uint64_t version) {
    ByteWriter w;
    for (std::size_t i = 0; i < 8; ++i)
      w.u8(static_cast<std::uint8_t>(magic[i]));
    w.u64(version);
    w.u64(0xFFFFFFFFFFFFFFFFULL);   // payload size
    w.u64(0);                       // checksum
    std::string bytes(w.bytes().begin(), w.bytes().end());
    return bytes;
  };
  const std::string oversized = "truncated or oversized payload";

  write_bytes(dir / "h.ckp", craft("TSC3DCKP", kCheckpointFormatVersion));
  EXPECT_EQ(load_checkpoint_file(dir / "h.ckp", sample_context()).reason,
            oversized);

  write_bytes(dir / "h.res", craft("TSC3DRES", kResultFormatVersion));
  EXPECT_EQ(load_result_file(dir / "h.res", nullptr).reason, oversized);

  write_bytes(dir / "h.scn", craft("TSC3DSCN", kScenarioFormatVersion));
  EXPECT_EQ(campaign::load_scenario_file(dir / "h.scn", nullptr).reason,
            oversized);
}

TEST(ServiceFuzz, EmptyAndMissingFilesAreCleanMisses) {
  const fs::path dir = fresh_dir("fuzz_empty");
  write_bytes(dir / "empty.res", "");
  EXPECT_FALSE(load_result_file(dir / "empty.res", nullptr).ok);
  EXPECT_FALSE(load_result_file(dir / "absent.res", nullptr).ok);
  EXPECT_FALSE(load_checkpoint_file(dir / "absent.ckp", sample_context()).ok);
  EXPECT_FALSE(campaign::load_scenario_file(dir / "absent.scn", nullptr).ok);
}

}  // namespace
}  // namespace tsc3d::service
