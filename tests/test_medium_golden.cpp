// Medium bit-reproducibility locks.
//
// The Exact-mode golden hashes below were captured from the
// pre-SoA-refactor Medium (the seed implementation with the scalar
// per-pair loop) and must never change: they pin the contract that MediumMode::Exact results are
// bit-identical across refactors, optimization levels, and thread counts.
// If a change legitimately needs to break them (e.g. an intentional model
// change), that is a documented compatibility break, not a refresh.
#include <gtest/gtest.h>

#include <vector>

#include "geom/deployment.h"
#include "sinr/medium.h"
#include "test_support.h"
#include "util/rng.h"

namespace mcs {
namespace {

using test::bits;
using test::fnv1a;

/// Folds every bit of every Reception into the FNV hash `h`.
std::uint64_t hashReceptions(std::uint64_t h, const std::vector<Reception>& rx) {
  for (const Reception& r : rx) {
    h = fnv1a(h, r.received ? 1 : 0);
    h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(r.msg.src)));
    h = fnv1a(h, bits(r.totalPower));
    h = fnv1a(h, bits(r.signalPower));
    h = fnv1a(h, bits(r.sinr));
    h = fnv1a(h, bits(r.senderDistance));
  }
  return h;
}

/// Hashes every Reception bit pattern over `slots` Exact-mode slots of a
/// fixed workload: n=600 uniform nodes, 8% transmitters, 2% idlers.  The
/// recipe (deployment, intent draws, fading key) must stay frozen — it
/// is what the golden constants were captured against.
std::uint64_t hashExactSlots(double alpha, int channels, FadingModel fading, int slots,
                             int threads) {
  SinrParams p;
  p.alpha = alpha;
  p = p.withRange(1.0);
  p.fading.model = fading;
  Rng rng(12345);
  const int n = 600;
  const auto pos = deployUniformSquare(n, 2.0, rng);
  std::vector<Intent> intents(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto c = static_cast<ChannelId>(rng.below(static_cast<std::uint64_t>(channels)));
    if (rng.bernoulli(0.08)) {
      Message msg;
      msg.type = MsgType::Data;
      msg.src = v;
      intents[static_cast<std::size_t>(v)] = Intent::transmit(c, msg);
    } else if (rng.bernoulli(0.1)) {
      intents[static_cast<std::size_t>(v)] = Intent::idle();
    } else {
      intents[static_cast<std::size_t>(v)] = Intent::listen(c);
    }
  }
  Medium medium(p, channels, threads);
  medium.seedFading(987654321ull);
  std::vector<Reception> rx;
  std::uint64_t h = 1469598103934665603ull;
  for (int s = 0; s < slots; ++s) {
    medium.resolveSlot(pos, intents, rx);
    h = hashReceptions(h, rx);
  }
  return h;
}

TEST(MediumGolden, ExactAlpha3FourChannels) {
  EXPECT_EQ(hashExactSlots(3.0, 4, FadingModel::None, 3, 1), 0x67ab07fc693655a4ull);
}

TEST(MediumGolden, ExactHalfIntegerAlpha) {
  EXPECT_EQ(hashExactSlots(2.5, 2, FadingModel::None, 3, 1), 0xfba84415461a7a81ull);
}

TEST(MediumGolden, ExactIrrationalAlphaPowFallback) {
  EXPECT_EQ(hashExactSlots(3.14159, 1, FadingModel::None, 3, 1), 0x7a614bc18a0d8433ull);
}

TEST(MediumGolden, ExactRayleighFading) {
  EXPECT_EQ(hashExactSlots(3.0, 4, FadingModel::Rayleigh, 3, 1), 0x85d2bd60cae7e745ull);
}

TEST(MediumGolden, ExactCompositeFadingAlpha4) {
  EXPECT_EQ(hashExactSlots(4.0, 8, FadingModel::RayleighLognormal, 3, 1),
            0x26cb6c57222b3dd4ull);
}

TEST(MediumGolden, ExactThreadedMatchesSerialGolden) {
  EXPECT_EQ(hashExactSlots(3.0, 4, FadingModel::None, 3, 4), 0x67ab07fc693655a4ull);
}

/// Gridded-mode counterpart of hashExactSlots' recipe: n=1500 uniform
/// nodes on a 12 x 12 field (R_T = 1, so the near radius is 2 and the
/// pyramid has four levels), 8% transmitters on two channels, four slots.
/// With `drifting`, every node moves by up to 0.05 per slot after the
/// first.  The recipe must stay frozen, like hashExactSlots'.
struct GriddedRecipe {
  SinrParams params;
  int channels = 2;
  std::vector<Intent> intents;
  std::vector<std::vector<Vec2>> slotPositions;
};

GriddedRecipe griddedRecipe(MediumMode mode, bool drifting, FadingModel fading,
                            double theta = 0.5) {
  GriddedRecipe r;
  r.params = r.params.withRange(1.0);
  r.params.mediumMode = mode;
  r.params.hierTheta = theta;
  r.params.fading.model = fading;
  Rng rng(24680);
  const int n = 1500;
  auto pos = deployUniformSquare(n, 12.0, rng);
  r.intents.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto c = static_cast<ChannelId>(rng.below(static_cast<std::uint64_t>(r.channels)));
    if (rng.bernoulli(0.08)) {
      Message msg;
      msg.type = MsgType::Data;
      msg.src = v;
      r.intents[static_cast<std::size_t>(v)] = Intent::transmit(c, msg);
    } else {
      r.intents[static_cast<std::size_t>(v)] = Intent::listen(c);
    }
  }
  for (int s = 0; s < 4; ++s) {
    if (drifting && s > 0) {
      for (Vec2& q : pos) q = q + Vec2{rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)};
    }
    r.slotPositions.push_back(pos);
  }
  return r;
}

std::uint64_t hashGriddedSlots(MediumMode mode, bool drifting, FadingModel fading, int threads,
                               double theta = 0.5) {
  const GriddedRecipe r = griddedRecipe(mode, drifting, fading, theta);
  Medium medium(r.params, r.channels, threads);
  medium.seedFading(987654321ull);
  std::vector<Reception> rx;
  std::uint64_t h = 1469598103934665603ull;
  for (const std::vector<Vec2>& pos : r.slotPositions) {
    medium.resolveSlot(pos, r.intents, rx);
    h = hashReceptions(h, rx);
  }
  return h;
}

// NearFar and Hierarchical are approximations, but deterministic ones:
// the far-field walk's summation order is part of the contract, so these
// hashes pin both modes bit for bit across traversal refactors, static
// and drifting positions, fading, and thread counts.
TEST(MediumGolden, NearFarStatic) {
  EXPECT_EQ(hashGriddedSlots(MediumMode::NearFar, false, FadingModel::None, 1),
            0x484c3a71843d0b7bull);
}

TEST(MediumGolden, NearFarDrifting) {
  EXPECT_EQ(hashGriddedSlots(MediumMode::NearFar, true, FadingModel::None, 1),
            0xd9b8fa31a146c764ull);
}

TEST(MediumGolden, NearFarRayleighStaticAndDrifting) {
  EXPECT_EQ(hashGriddedSlots(MediumMode::NearFar, false, FadingModel::Rayleigh, 1),
            0xd84e957960d52469ull);
  EXPECT_EQ(hashGriddedSlots(MediumMode::NearFar, true, FadingModel::Rayleigh, 1),
            0x172742aa465fec5aull);
}

TEST(MediumGolden, NearFarThreadedMatchesSerialGolden) {
  EXPECT_EQ(hashGriddedSlots(MediumMode::NearFar, false, FadingModel::None, 4),
            0x484c3a71843d0b7bull);
  EXPECT_EQ(hashGriddedSlots(MediumMode::NearFar, true, FadingModel::Rayleigh, 4),
            0x172742aa465fec5aull);
}

TEST(MediumGolden, HierStatic) {
  EXPECT_EQ(hashGriddedSlots(MediumMode::Hierarchical, false, FadingModel::None, 1),
            0x9e0ad5d415d505a3ull);
}

TEST(MediumGolden, HierDrifting) {
  EXPECT_EQ(hashGriddedSlots(MediumMode::Hierarchical, true, FadingModel::None, 1),
            0x222616bc05902cc3ull);
}

TEST(MediumGolden, HierRayleighStaticAndDrifting) {
  EXPECT_EQ(hashGriddedSlots(MediumMode::Hierarchical, false, FadingModel::Rayleigh, 1),
            0x3bb691c3f7f6fcd9ull);
  EXPECT_EQ(hashGriddedSlots(MediumMode::Hierarchical, true, FadingModel::Rayleigh, 1),
            0xd75570265260dacbull);
}

TEST(MediumGolden, HierThreadedMatchesSerialGolden) {
  EXPECT_EQ(hashGriddedSlots(MediumMode::Hierarchical, false, FadingModel::None, 4),
            0x9e0ad5d415d505a3ull);
  EXPECT_EQ(hashGriddedSlots(MediumMode::Hierarchical, true, FadingModel::Rayleigh, 4),
            0xd75570265260dacbull);
}

TEST(MediumGolden, DriftingSlotsMatchAFreshMediumPerSlot) {
  // A Medium carries no position state between slots: resolving drifting
  // slots in sequence gives the receptions a fresh Medium gives each slot
  // on its own.  (Without fading, since the fading slot ordinal does
  // advance per slot.)
  for (const MediumMode mode : {MediumMode::NearFar, MediumMode::Hierarchical}) {
    const GriddedRecipe r = griddedRecipe(mode, true, FadingModel::None);
    for (const int threads : {1, 4}) {
      Medium reused(r.params, r.channels, threads);
      std::vector<Reception> a, b;
      for (std::size_t s = 0; s < r.slotPositions.size(); ++s) {
        reused.resolveSlot(r.slotPositions[s], r.intents, a);
        Medium fresh(r.params, r.channels, threads);
        fresh.resolveSlot(r.slotPositions[s], r.intents, b);
        const std::uint64_t h0 = 1469598103934665603ull;
        EXPECT_EQ(hashReceptions(h0, a), hashReceptions(h0, b))
            << "mode " << static_cast<int>(mode) << " threads " << threads << " slot " << s;
      }
    }
  }
}

TEST(MediumGolden, HierNarrowTheta) {
  // theta = 0.3 lifts every level's admissibility threshold above the
  // near radius, so some base cells beyond the near ball resolve exactly.
  EXPECT_EQ(hashGriddedSlots(MediumMode::Hierarchical, false, FadingModel::None, 1, 0.3),
            0x4403df5b3f3722e3ull);
}

// The SoA sweep evaluates path loss through PowerKernel::batch; the
// contract is per-element bit-identity with the scalar operator() for
// every exponent class (whole, half-integer, quarter, and the std::pow
// fallback).
TEST(MediumGolden, KernelBatchBitIdenticalToScalar) {
  Rng rng(777);
  std::vector<double> d2(1537);  // odd length: exercises the tail
  for (double& v : d2) v = 1e-6 + 100.0 * rng.uniform();
  std::vector<double> out(d2.size());
  for (const double alpha : {0.5, 1.0, 2.5, 3.0, 3.5, 4.0, 5.25, 6.0, 9.5, 12.0, 17.0,
                             3.14159, 2.000001}) {
    const PowerKernel kern(1.7, alpha);
    kern.batch(d2.data(), out.data(), d2.size());
    for (std::size_t i = 0; i < d2.size(); ++i) {
      ASSERT_EQ(bits(out[i]), bits(kern(d2[i])))
          << "alpha=" << alpha << " i=" << i << " d2=" << d2[i];
    }
  }
}

// The channel-range check must survive Release builds (plain asserts
// compile out, which would leave out-of-bounds indexing in -DNDEBUG).
TEST(MediumGoldenDeathTest, OutOfRangeChannelAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SinrParams p;
  Medium medium(p, 2);
  const std::vector<Vec2> pos{{0.0, 0.0}, {1.0, 0.0}};
  std::vector<Intent> intents{Intent::listen(0), Intent::listen(0)};
  intents[1].channel = 7;  // out of [0, 2)
  std::vector<Reception> rx;
  EXPECT_DEATH(medium.resolveSlot(pos, intents, rx), "channel 7");
}

}  // namespace
}  // namespace mcs
