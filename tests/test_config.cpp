// Tests for the Corblivar-style config parser (config/config_file.hpp)
// and its mapping onto option structs (config/apply.hpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>

#include "config/apply.hpp"
#include "config/config_file.hpp"

namespace tsc3d::config {
namespace {

TEST(ConfigFile, ParsesSectionsAndScalars) {
  const auto cfg = ConfigFile::parse(
      "top = 1\n"
      "[a]\n"
      "x = 2.5\n"
      "name = hello world\n"
      "[b]\n"
      "x = 7\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("top", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(cfg.get_double("a.x", 0.0), 2.5);
  EXPECT_EQ(cfg.get_string("a.name", ""), "hello world");
  EXPECT_EQ(cfg.get_size("b.x", 0), 7u);
}

TEST(ConfigFile, CommentsAndBlankLinesIgnored) {
  const auto cfg = ConfigFile::parse(
      "# full-line comment\n"
      "\n"
      "key = 3   # trailing comment\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("key", 0.0), 3.0);
}

TEST(ConfigFile, FallbacksWhenAbsent) {
  const auto cfg = ConfigFile::parse("");
  EXPECT_DOUBLE_EQ(cfg.get_double("nope", 4.5), 4.5);
  EXPECT_EQ(cfg.get_string("nope", "dflt"), "dflt");
  EXPECT_TRUE(cfg.get_bool("nope", true));
  EXPECT_EQ(cfg.get_size("nope", 9), 9u);
}

TEST(ConfigFile, BooleanSpellings) {
  const auto cfg = ConfigFile::parse(
      "a = true\nb = Yes\nc = ON\nd = 1\ne = false\nf = no\ng = off\nh = 0\n");
  for (const char* key : {"a", "b", "c", "d"})
    EXPECT_TRUE(cfg.get_bool(key, false)) << key;
  for (const char* key : {"e", "f", "g", "h"})
    EXPECT_FALSE(cfg.get_bool(key, true)) << key;
}

TEST(ConfigFile, MalformedLinesThrowWithLineNumbers) {
  try {
    (void)ConfigFile::parse("ok = 1\nbroken line\n", "test.conf");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("test.conf:2"), std::string::npos);
  }
}

TEST(ConfigFile, RejectsDuplicateKeys) {
  EXPECT_THROW((void)ConfigFile::parse("x = 1\nx = 2\n"), ConfigError);
}

TEST(ConfigFile, RejectsBadSectionHeader) {
  EXPECT_THROW((void)ConfigFile::parse("[oops\n"), ConfigError);
  EXPECT_THROW((void)ConfigFile::parse("[]\n"), ConfigError);
}

TEST(ConfigFile, RejectsEmptyKeyAndBadNumbers) {
  EXPECT_THROW((void)ConfigFile::parse("= 3\n"), ConfigError);
  const auto cfg = ConfigFile::parse("x = abc\ny = 1.5zzz\nz = -3\n");
  EXPECT_THROW((void)cfg.get_double("x", 0.0), ConfigError);
  EXPECT_THROW((void)cfg.get_double("y", 0.0), ConfigError);
  EXPECT_THROW((void)cfg.get_size("z", 0), ConfigError);
  EXPECT_THROW((void)cfg.get_bool("x", false), ConfigError);
}

TEST(ConfigFile, RequireThrowsOnMissing) {
  const auto cfg = ConfigFile::parse("x = 1\n");
  EXPECT_DOUBLE_EQ(cfg.require_double("x"), 1.0);
  EXPECT_THROW((void)cfg.require_double("missing"), ConfigError);
  EXPECT_THROW((void)cfg.require_string("missing"), ConfigError);
}

TEST(ConfigFile, UnusedKeysTracksReads) {
  const auto cfg = ConfigFile::parse("a = 1\nb = 2\n");
  (void)cfg.get_double("a", 0.0);
  const auto unused = cfg.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "b");
}

TEST(ConfigFile, LoadFromDiskRoundTrips) {
  // Run-unique filename: a fixed path would race a concurrent run of
  // this binary (ctest --repeat, sanitizer jobs sharing /tmp).
  const auto path = std::filesystem::temp_directory_path() /
                    ("tsc3d_test_" + std::to_string(std::random_device{}()) +
                     ".conf");
  {
    std::ofstream out(path);
    out << "[s]\nkey = 42\n";
  }
  const auto cfg = ConfigFile::load(path);
  EXPECT_EQ(cfg.get_size("s.key", 0), 42u);
  std::filesystem::remove(path);
}

TEST(ConfigFile, LoadMissingFileThrows) {
  EXPECT_THROW((void)ConfigFile::load("/nonexistent/nowhere.conf"),
               ConfigError);
}

TEST(ApplyTechnology, OverlaysFields) {
  const auto cfg = ConfigFile::parse(
      "[technology]\n"
      "num_dies = 3\n"
      "die_width_um = 1234\n"
      "tsv_pitch_um = 12\n");
  TechnologyConfig tech;
  apply_technology(cfg, tech);
  EXPECT_EQ(tech.num_dies, 3u);
  EXPECT_DOUBLE_EQ(tech.die_width_um, 1234.0);
  EXPECT_DOUBLE_EQ(tech.tsv.pitch_um, 12.0);
  // Untouched fields keep defaults.
  EXPECT_DOUBLE_EQ(tech.die_height_um, 4000.0);
}

TEST(ApplyTechnology, MonolithicFlavorSwitchesViaGeometry) {
  const auto cfg = ConfigFile::parse("[technology]\nflavor = monolithic\n");
  TechnologyConfig tech;
  apply_technology(cfg, tech);
  EXPECT_EQ(tech.flavor, IntegrationFlavor::monolithic);
  EXPECT_LT(tech.tsv.diameter_um, 1.0);
}

TEST(ApplyTechnology, RejectsUnknownFlavor) {
  const auto cfg = ConfigFile::parse("[technology]\nflavor = quantum\n");
  TechnologyConfig tech;
  EXPECT_THROW(apply_technology(cfg, tech), ConfigError);
}

TEST(ApplyThermal, OverlaysAndValidates) {
  const auto cfg = ConfigFile::parse(
      "[thermal]\n"
      "grid_nx = 32\n"
      "ambient_k = 300\n");
  ThermalConfig thermal;
  apply_thermal(cfg, thermal);
  EXPECT_EQ(thermal.grid_nx, 32u);
  EXPECT_DOUBLE_EQ(thermal.ambient_k, 300.0);

  const auto bad = ConfigFile::parse("[thermal]\ngrid_nx = 2\n");
  ThermalConfig t2;
  EXPECT_THROW(apply_thermal(bad, t2), std::invalid_argument);
}

TEST(ApplyThermal, SolverBackendSelection) {
  const auto cfg = ConfigFile::parse("[thermal]\nsolver = multigrid\n");
  ThermalConfig thermal;
  apply_thermal(cfg, thermal);
  EXPECT_EQ(thermal.solver, SolverBackend::multigrid);

  ThermalConfig defaults;
  apply_thermal(ConfigFile::parse(""), defaults);
  EXPECT_EQ(defaults.solver, SolverBackend::auto_select);

  const auto autosel = ConfigFile::parse("[thermal]\nsolver = auto\n");
  ThermalConfig t_auto;
  apply_thermal(autosel, t_auto);
  EXPECT_EQ(t_auto.solver, SolverBackend::auto_select);

  const auto forced = ConfigFile::parse("[thermal]\nsolver = sor\n");
  ThermalConfig t_forced;
  apply_thermal(forced, t_forced);
  EXPECT_EQ(t_forced.solver, SolverBackend::sor);

  const auto bad = ConfigFile::parse("[thermal]\nsolver = jacobi\n");
  ThermalConfig t2;
  EXPECT_THROW(apply_thermal(bad, t2), ConfigError);
}

TEST(MakeFloorplannerOptions, InnerToleranceScaleOverlay) {
  const auto cfg = ConfigFile::parse(
      "[floorplanning]\n"
      "inner_tolerance_scale = 5\n");
  const auto opt = make_floorplanner_options(cfg);
  EXPECT_DOUBLE_EQ(opt.anneal.inner_tolerance_scale, 5.0);
}

TEST(MakeFloorplannerOptions, ModePresetThenOverrides) {
  const auto cfg = ConfigFile::parse(
      "[floorplanning]\n"
      "mode = tsc\n"
      "sa_moves = 777\n"
      "dummy_insertion = false\n");
  const auto opt = make_floorplanner_options(cfg);
  EXPECT_EQ(opt.mode, floorplan::FlowMode::tsc_aware);
  EXPECT_EQ(opt.anneal.total_moves, 777u);
  EXPECT_FALSE(opt.dummy_insertion);
}

TEST(MakeFloorplannerOptions, ModeOverrideKeepsTheFileKeys) {
  // tsc3d_cli --mode picks the preset; the file's own [floorplanning]
  // keys still overlay it instead of being dropped.
  const auto cfg = ConfigFile::load(std::filesystem::path(TSC3D_SOURCE_DIR) /
                                    "configs" / "tempering.conf");
  const auto opt = make_floorplanner_options(cfg, "tsc");
  EXPECT_EQ(opt.mode, floorplan::FlowMode::tsc_aware);
  EXPECT_EQ(opt.chains.chains, 4u);
  EXPECT_EQ(opt.anneal.stages, 40u);
  EXPECT_EQ(opt.fast_grid, 16u);
  EXPECT_EQ(opt.parallel.threads, 2u);
  TechnologyConfig tech;
  apply_technology(cfg, tech);
  EXPECT_TRUE(cfg.unused_keys().empty());  // the file's mode counts as read

  const auto power = make_floorplanner_options(cfg, "power");
  EXPECT_EQ(power.mode, floorplan::FlowMode::power_aware);
  EXPECT_EQ(power.chains.chains, 4u);
}

TEST(MakeFloorplannerOptions, RejectsUnknownMode) {
  const auto cfg = ConfigFile::parse("[floorplanning]\nmode = fast\n");
  EXPECT_THROW((void)make_floorplanner_options(cfg), ConfigError);
}

TEST(MakeFloorplannerOptions, DefaultIsPowerAware) {
  const auto cfg = ConfigFile::parse("");
  const auto opt = make_floorplanner_options(cfg);
  EXPECT_EQ(opt.mode, floorplan::FlowMode::power_aware);
}

TEST(ShippedConfigs, AllExampleConfigsParseCleanly) {
  // The configs shipped in configs/ must parse and map without errors or
  // unused (misspelled) keys.
  const std::filesystem::path dir = std::filesystem::path(TSC3D_SOURCE_DIR)
                                    / "configs";
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".conf") continue;
    ++seen;
    const auto cfg = ConfigFile::load(entry.path());
    TechnologyConfig tech;
    EXPECT_NO_THROW(apply_technology(cfg, tech)) << entry.path();
    EXPECT_NO_THROW((void)make_floorplanner_options(cfg)) << entry.path();
    EXPECT_TRUE(cfg.unused_keys().empty())
        << entry.path() << ": unused keys present";
  }
  EXPECT_GE(seen, 3u);
}

}  // namespace
}  // namespace tsc3d::config
