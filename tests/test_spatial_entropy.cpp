// Tests of the spatial entropy of power maps (Eq. 3) and its
// nested-means classification.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "core/rng.hpp"
#include "floorplan/annealer.hpp"
#include "leakage/spatial_entropy.hpp"
#include "service/serialize.hpp"

namespace tsc3d::leakage {
namespace {

/// Power maps the floorplanner feeds the kernel: generated n100 designs,
/// each packed from an initial layout and again after random
/// sequence-pair swaps, at the in-loop (32^2) and verify (64^2) grids.
std::vector<GridD> flow_maps() {
  std::vector<GridD> maps;
  for (const std::uint64_t design : {1ull, 2ull, 3ull}) {
    Floorplan3D fp = benchgen::generate("n100", design);
    Rng rng(design);
    floorplan::LayoutState s = floorplan::LayoutState::initial(fp, rng);
    for (int round = 0; round < 2; ++round) {
      for (int swap = 0; swap < 40 * round; ++swap) {
        floorplan::SequencePair& sp = s.die_sp[rng.index(s.die_sp.size())];
        const std::size_t i = rng.index(sp.size());
        std::size_t j = rng.index(sp.size() - 1);
        if (j >= i) ++j;
        sp.swap_both(sp.positive()[i], sp.positive()[j]);
        s.touch_die(s.die_of[sp.positive()[i]]);
      }
      s.apply_to(fp);
      for (std::size_t d = 0; d < fp.tech().num_dies; ++d)
        for (const std::size_t g : {32u, 64u})
          maps.push_back(fp.power_map(d, g, g));
    }
  }
  return maps;
}

/// Hand-made maps for the corners: ties, negative values, signed zeros,
/// one class, non-square and 1xN grids.
std::vector<GridD> synthetic_maps() {
  std::vector<GridD> maps;
  Rng rng(11);
  const auto random_map = [&](std::size_t nx, std::size_t ny, auto draw) {
    GridD m(nx, ny, 0.0);
    for (double& v : m) v = draw();
    maps.push_back(m);
  };
  random_map(32, 32, [&] { return rng.lognormal(0.0, 1.0); });
  random_map(32, 32, [&] {  // heavy ties: four levels
    static constexpr double kLevels[] = {0.0, 1.0, 2.0, 5.0};
    return kLevels[rng.index(4)];
  });
  random_map(32, 32, [&] {  // mostly zero, like a sparse die
    return rng.uniform() < 0.15 ? 0.0 : rng.lognormal(-3.0, 0.7);
  });
  random_map(24, 24, [&] { return rng.uniform(-3.0, 3.0); });
  random_map(16, 16, [&] {  // signed zeros among positive ties
    static constexpr double kLevels[] = {-0.0, 0.0, 1.5, 3.0};
    return kLevels[rng.index(4)];
  });
  random_map(16, 16, [&] {  // signed zeros only: one class
    return rng.uniform() < 0.5 ? -0.0 : 0.0;
  });
  for (int k = 0; k < 6; ++k) {
    // Negatives, zeros of both signs and ties: a class starts at a zero,
    // and the sort's permutation decides that cut's sign.
    random_map(24, 20, [&] {
      static constexpr double kLevels[] = {-2.0, -0.0, 0.0, 0.0, 4.0, -1.0};
      return kLevels[rng.index(6)];
    });
  }
  random_map(7, 13, [&] { return rng.uniform(); });
  random_map(40, 9, [&] { return std::floor(rng.uniform(0.0, 17.0)); });
  random_map(1, 50, [&] { return rng.lognormal(0.0, 0.5); });
  random_map(50, 1, [&] { return rng.uniform(-1.0, 1.0); });
  random_map(1, 2, [&] { return rng.uniform(); });
  random_map(1, 1, [&] { return rng.uniform(); });
  random_map(12, 12, [&] { return 2.5 + 1e-12 * rng.uniform(); });
  maps.emplace_back(8, 8, 3.0);  // uniform: one class
  GridD halves(16, 16, 0.0), checker(16, 16, 0.0), ramp(64, 32, 0.0);
  for (std::size_t iy = 0; iy < 16; ++iy) {
    for (std::size_t ix = 0; ix < 16; ++ix) {
      halves.at(ix, iy) = ix < 8 ? 1.0 : 9.0;
      checker.at(ix, iy) = (ix + iy) % 2 == 0 ? 1.0 : 9.0;
    }
  }
  for (std::size_t i = 0; i < ramp.size(); ++i)
    ramp[i] = static_cast<double>(i % 97);
  maps.push_back(halves);
  maps.push_back(checker);
  maps.push_back(ramp);
  return maps;
}

/// Both ratios under three tolerances and three depth caps.
std::vector<SpatialEntropyOptions> golden_options() {
  std::vector<SpatialEntropyOptions> all;
  for (const EntropyRatio ratio :
       {EntropyRatio::paper_literal, EntropyRatio::claramunt}) {
    for (const double tol : {0.05, 0.0, 0.3}) {
      for (const std::size_t depth : {8u, 2u, 12u}) {
        SpatialEntropyOptions o;
        o.ratio = ratio;
        o.std_tolerance = tol;
        o.max_depth = depth;
        all.push_back(o);
      }
    }
  }
  return all;
}

std::uint64_t mix(std::uint64_t h, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return service::fnv1a64(&bits, sizeof(bits), h);
}

std::uint64_t mix(std::uint64_t h, std::size_t v) {
  const auto bits = static_cast<std::uint64_t>(v);
  return service::fnv1a64(&bits, sizeof(bits), h);
}

/// Chains into `h` the bits of spatial_entropy(), of every field of
/// spatial_entropy_detailed() and of nested_means_cuts() on one map.
std::uint64_t mix_all(std::uint64_t h, const GridD& map,
                      const SpatialEntropyOptions& o) {
  h = mix(h, spatial_entropy(map, o));
  const SpatialEntropyResult r = spatial_entropy_detailed(map, o);
  h = mix(mix(h, r.entropy), r.shannon);
  h = mix(h, r.classes.size());
  for (const PowerClass& c : r.classes) {
    h = mix(mix(mix(h, c.lo), c.hi), c.members);
    h = mix(mix(h, c.d_intra), c.d_inter);
  }
  for (const double cut :
       nested_means_cuts(map.data(), o.std_tolerance, o.max_depth))
    h = mix(h, cut);
  return h;
}

std::vector<GridD> all_maps() {
  std::vector<GridD> maps = flow_maps();
  for (GridD& m : synthetic_maps()) maps.push_back(std::move(m));
  return maps;
}

TEST(SpatialEntropy, GoldenBits) {
  // Pins the exact bits of Eq. 3 -- the cost evaluator's per-die memo
  // and every cached or checkpointed entropy rely on them -- over the
  // maps the flow produces and the corners above.  A changed constant is
  // a changed kernel (or changed generated inputs): every annealing
  // trajectory under TSC weights moves with it.
  const std::vector<GridD> maps = all_maps();
  std::uint64_t h = service::kFnvOffset;
  for (const GridD& map : maps)
    for (const SpatialEntropyOptions& o : golden_options())
      h = mix_all(h, map, o);
  EXPECT_EQ(maps.size(), 47u);
  EXPECT_EQ(h, 0x9d47de0b90eca4e1ULL);
}

TEST(SpatialEntropyParallel, ConcurrentCallsMatchSerial) {
  // Tempering chains score their maps on their own threads: four threads
  // scoring different maps at once, each in its own order, must each see
  // the serial bits.
  const std::vector<GridD> maps = all_maps();
  const SpatialEntropyOptions o;
  std::vector<std::uint64_t> serial;
  for (const GridD& map : maps)
    serial.push_back(mix_all(service::kFnvOffset, map, o));
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::uint64_t>> seen(
      kThreads, std::vector<std::uint64_t>(maps.size(), 0));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // Twice over every map: even threads forward, odd ones backward,
      // each from its own starting point.
      const std::size_t n = maps.size();
      for (std::size_t k = 0; k < 2 * n; ++k) {
        const std::size_t step = t % 2 == 0 ? k : 2 * n - 1 - k;
        const std::size_t i = (step + t * n / kThreads) % n;
        seen[t][i] = mix_all(service::kFnvOffset, maps[i], o);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], serial);
}

TEST(NestedMeans, UniformValuesProduceNoCuts) {
  const std::vector<double> v(64, 2.5);
  EXPECT_TRUE(nested_means_cuts(v, 0.05, 8).empty());
}

TEST(NestedMeans, TwoClustersProduceOneSeparatingCut) {
  std::vector<double> v;
  for (int i = 0; i < 10; ++i) v.push_back(1.0);
  for (int i = 0; i < 10; ++i) v.push_back(9.0);
  const auto cuts = nested_means_cuts(v, 0.05, 8);
  ASSERT_FALSE(cuts.empty());
  // Some cut must separate the clusters.
  bool separates = false;
  for (const double c : cuts) separates |= (c > 1.0 && c <= 9.0);
  EXPECT_TRUE(separates);
}

TEST(NestedMeans, DepthCapBoundsClassCount) {
  std::vector<double> v;
  for (int i = 0; i < 256; ++i) v.push_back(static_cast<double>(i));
  const auto cuts = nested_means_cuts(v, 0.0, 3);
  EXPECT_LE(cuts.size() + 1, 8u);  // 2^3 classes max
}

TEST(NestedMeans, CutsAreSortedAscending) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(static_cast<double>(i % 17));
  const auto cuts = nested_means_cuts(v, 0.01, 6);
  for (std::size_t i = 1; i < cuts.size(); ++i)
    EXPECT_LE(cuts[i - 1], cuts[i]);
}

TEST(SpatialEntropy, UniformMapHasZeroEntropy) {
  const GridD p(16, 16, 1.0);
  EXPECT_DOUBLE_EQ(spatial_entropy(p), 0.0);
}

TEST(SpatialEntropy, SingleClassReported) {
  const GridD p(8, 8, 3.0);
  const SpatialEntropyResult res = spatial_entropy_detailed(p);
  EXPECT_EQ(res.classes.size(), 1u);
  EXPECT_EQ(res.classes[0].members, 64u);
}

TEST(SpatialEntropy, RatioOrientationsMeasureOppositeThings) {
  // The default (literal Eq. 3) ratio rewards compact, segregated classes
  // -- the configurations with large coherent thermal gradients (high
  // leakage).  Claramunt's orientation rewards mixing.  A checkerboard
  // mixes the two power classes maximally; two separated halves keep
  // them apart.
  GridD checker(16, 16, 0.0);
  GridD halves(16, 16, 0.0);
  for (std::size_t iy = 0; iy < 16; ++iy) {
    for (std::size_t ix = 0; ix < 16; ++ix) {
      checker.at(ix, iy) = ((ix + iy) % 2 == 0) ? 1.0 : 9.0;
      halves.at(ix, iy) = (ix < 8) ? 1.0 : 9.0;
    }
  }
  // Literal Eq. 3 (default): segregated halves score higher.
  EXPECT_GT(spatial_entropy(halves), spatial_entropy(checker));
  // Claramunt orientation: the mixed checkerboard scores higher.
  SpatialEntropyOptions claramunt;
  claramunt.ratio = EntropyRatio::claramunt;
  EXPECT_GT(spatial_entropy(checker, claramunt),
            spatial_entropy(halves, claramunt));
}

TEST(SpatialEntropy, ShannonTermMatchesTwoBalancedClasses) {
  GridD halves(8, 8, 0.0);
  for (std::size_t iy = 0; iy < 8; ++iy)
    for (std::size_t ix = 0; ix < 8; ++ix)
      halves.at(ix, iy) = (ix < 4) ? 1.0 : 9.0;
  const SpatialEntropyResult res = spatial_entropy_detailed(halves);
  // Two perfectly balanced classes: plain Shannon entropy = 1 bit.
  EXPECT_NEAR(res.shannon, 1.0, 1e-9);
  ASSERT_EQ(res.classes.size(), 2u);
  EXPECT_EQ(res.classes[0].members, 32u);
  EXPECT_EQ(res.classes[1].members, 32u);
}

TEST(SpatialEntropy, ClassDistancesSane) {
  GridD halves(8, 8, 0.0);
  for (std::size_t iy = 0; iy < 8; ++iy)
    for (std::size_t ix = 0; ix < 8; ++ix)
      halves.at(ix, iy) = (ix < 4) ? 1.0 : 9.0;
  const SpatialEntropyResult res = spatial_entropy_detailed(halves);
  for (const PowerClass& c : res.classes) {
    EXPECT_GT(c.d_intra, 0.0);
    EXPECT_GT(c.d_inter, 0.0);
    // Members of a compact half-plane class are mutually closer than they
    // are to the other half.
    EXPECT_LT(c.d_intra, c.d_inter);
  }
}

TEST(SpatialEntropy, PaperLiteralRatioIsLargerForCompactClasses) {
  // For compact classes d_inter > d_intra, so the literal Eq. 3 ratio
  // produces a larger value than the Claramunt orientation.
  GridD halves(8, 8, 0.0);
  for (std::size_t iy = 0; iy < 8; ++iy)
    for (std::size_t ix = 0; ix < 8; ++ix)
      halves.at(ix, iy) = (ix < 4) ? 1.0 : 9.0;
  SpatialEntropyOptions claramunt;
  claramunt.ratio = EntropyRatio::claramunt;
  SpatialEntropyOptions literal;
  literal.ratio = EntropyRatio::paper_literal;
  EXPECT_GT(spatial_entropy(halves, literal),
            spatial_entropy(halves, claramunt));
  // And for the perfectly compact split the literal entropy exceeds the
  // plain Shannon entropy (ratio > 1), as in the paper's S ~ 2.7..4.5
  // magnitudes.
  EXPECT_GT(spatial_entropy(halves, literal),
            spatial_entropy_detailed(halves, literal).shannon);
}

TEST(SpatialEntropy, MoreClassesMoreEntropyForScatteredValues) {
  // A map with 4 interleaved regimes should exceed one with 2.
  GridD two(16, 16, 0.0), four(16, 16, 0.0);
  for (std::size_t iy = 0; iy < 16; ++iy) {
    for (std::size_t ix = 0; ix < 16; ++ix) {
      two.at(ix, iy) = ((ix + iy) % 2 == 0) ? 1.0 : 9.0;
      four.at(ix, iy) = 1.0 + 3.0 * static_cast<double>((ix + iy) % 4);
    }
  }
  EXPECT_GT(spatial_entropy(four), spatial_entropy(two));
}

TEST(SpatialEntropy, InsensitiveToUniformScaling) {
  // Nested means partitions scale with the data, so a uniformly scaled
  // map yields the same classes and the same entropy.
  GridD p(8, 8, 0.0);
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<double>(i % 5);
  GridD scaled = p;
  scaled *= 42.0;
  EXPECT_NEAR(spatial_entropy(p), spatial_entropy(scaled), 1e-9);
}

TEST(SpatialEntropy, SegregatedGradientScoresHigherThanScatteredMix) {
  // Under the default (literal) orientation, a coarse segregated
  // gradient -- the leaky configuration per Sec. 3 finding (i) -- scores
  // HIGHER spatial entropy than the same two power levels scattered
  // bin-by-bin (which thermal diffusion decorrelates).  This is exactly
  // the "lower entropy ~ lower correlation" trend of Sec. 4.2.
  GridD grouped(16, 16, 0.0), scattered(16, 16, 0.0);
  for (std::size_t iy = 0; iy < 16; ++iy) {
    for (std::size_t ix = 0; ix < 16; ++ix) {
      grouped.at(ix, iy) = (iy < 8) ? 2.0 : 8.0;
      scattered.at(ix, iy) = ((ix * 7 + iy * 13) % 2 == 0) ? 2.0 : 8.0;
    }
  }
  EXPECT_GT(spatial_entropy(grouped), spatial_entropy(scattered));
}

}  // namespace
}  // namespace tsc3d::leakage
