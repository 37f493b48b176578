// Algebraic property tests of the lattice-distribution toolkit over
// randomly generated pmfs.
#include <gtest/gtest.h>

#include <vector>

#include "dist/families.hpp"
#include "dist/pmf.hpp"
#include "sim/rng.hpp"
#include "sim/sampling.hpp"

namespace {

using tcw::dist::Pmf;

Pmf random_pmf(tcw::sim::Rng& rng, std::size_t max_support) {
  const std::size_t n = 1 + tcw::sim::uniform_index(rng, max_support);
  std::vector<double> p(n);
  double total = 0.0;
  for (auto& v : p) {
    v = tcw::sim::uniform01(rng) < 0.3 ? 0.0 : tcw::sim::uniform01(rng);
    total += v;
  }
  if (total == 0.0) p[0] = total = 1.0;
  for (auto& v : p) v /= total;
  return Pmf(std::move(p));
}

class DistPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  tcw::sim::Rng rng_{4000 + static_cast<unsigned>(GetParam())};
};

TEST_P(DistPropertyTest, ConvolutionIsAssociative) {
  const Pmf a = random_pmf(rng_, 12);
  const Pmf b = random_pmf(rng_, 12);
  const Pmf c = random_pmf(rng_, 12);
  const Pmf left = Pmf::convolve(Pmf::convolve(a, b, 64), c, 64);
  const Pmf right = Pmf::convolve(a, Pmf::convolve(b, c, 64), 64);
  ASSERT_EQ(left.size(), right.size());
  for (std::size_t k = 0; k < left.size(); ++k) {
    EXPECT_NEAR(left.at(k), right.at(k), 1e-12) << k;
  }
}

TEST_P(DistPropertyTest, ConvolutionPreservesTotalMass) {
  const Pmf a = random_pmf(rng_, 16);
  const Pmf b = random_pmf(rng_, 16);
  const Pmf ab = Pmf::convolve(a, b, 64);
  EXPECT_NEAR(ab.total_mass(), 1.0, 1e-12);
}

TEST_P(DistPropertyTest, MeanAndVarianceAreAdditiveUnderConvolution) {
  const Pmf a = random_pmf(rng_, 16);
  const Pmf b = random_pmf(rng_, 16);
  const Pmf ab = Pmf::convolve(a, b, 128);
  EXPECT_NEAR(ab.mean(), a.mean() + b.mean(), 1e-10);
  EXPECT_NEAR(ab.variance(), a.variance() + b.variance(), 1e-10);
}

TEST_P(DistPropertyTest, EquilibriumSumsToOneAndHasKnownMean) {
  Pmf a = random_pmf(rng_, 16);
  if (a.mean() == 0.0) a = tcw::dist::uniform_int(1, 4);
  const Pmf eq = a.equilibrium();
  EXPECT_NEAR(eq.total_mass(), 1.0, 1e-10);
  // E[equilibrium] = E[X(X-1)] / (2 E[X]) on the integer lattice.
  const double m1 = a.mean();
  const double m2 = a.variance() + m1 * m1;
  EXPECT_NEAR(eq.mean(), (m2 - m1) / (2.0 * m1), 1e-9);
}

TEST_P(DistPropertyTest, ShiftMovesMeanExactly) {
  const Pmf a = random_pmf(rng_, 16);
  const std::size_t c = tcw::sim::uniform_index(rng_, 10);
  const Pmf shifted = a.shifted(c);
  EXPECT_NEAR(shifted.mean(), a.mean() + static_cast<double>(c), 1e-12);
  EXPECT_NEAR(shifted.variance(), a.variance(), 1e-10);
}

TEST_P(DistPropertyTest, QuantileIsGeneralizedInverseOfCdf) {
  const Pmf a = random_pmf(rng_, 20);
  for (const double q : {0.1, 0.5, 0.9}) {
    const std::size_t k = a.quantile(q);
    EXPECT_GE(a.cdf(k), q - 1e-12);
    if (k > 0) {
      EXPECT_LT(a.cdf(k - 1), q);
    }
  }
}

TEST_P(DistPropertyTest, MixtureMeanIsWeightedAverage) {
  const Pmf a = random_pmf(rng_, 12);
  const Pmf b = random_pmf(rng_, 12);
  const double wa = 0.1 + tcw::sim::uniform01(rng_);
  const double wb = 0.1 + tcw::sim::uniform01(rng_);
  const Pmf mix = Pmf::mixture({a, b}, {wa, wb});
  const double expect =
      (wa * a.mean() + wb * b.mean()) / (wa + wb);
  EXPECT_NEAR(mix.mean(), expect, 1e-10);
  EXPECT_NEAR(mix.total_mass(), 1.0, 1e-12);
}

TEST_P(DistPropertyTest, ConvolvePowerMatchesMoments) {
  Pmf a = random_pmf(rng_, 8);
  const std::size_t n = 1 + tcw::sim::uniform_index(rng_, 6);
  const Pmf an = Pmf::convolve_power(a, n, 256);
  EXPECT_NEAR(an.mean(), static_cast<double>(n) * a.mean(), 1e-9);
  EXPECT_NEAR(an.variance(), static_cast<double>(n) * a.variance(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DistPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
