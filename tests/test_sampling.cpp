#include "sim/sampling.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/stats.hpp"
#include "util/contract.hpp"

namespace {

using tcw::sim::Rng;

TEST(Uniform01, InUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = tcw::sim::uniform01(rng);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Uniform01, MeanAndVarianceMatch) {
  Rng rng(2);
  tcw::sim::RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(tcw::sim::uniform01(rng));
  EXPECT_NEAR(s.mean(), 0.5, 0.005);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Uniform, RespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = tcw::sim::uniform(rng, -2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(UniformIndex, CoversRangeUniformly) {
  Rng rng(4);
  std::vector<int> counts(7, 0);
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[tcw::sim::uniform_index(rng, 7)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / 7.0, 5.0 * std::sqrt(kDraws / 7.0));
  }
}

TEST(UniformIndex, SingletonRange) {
  Rng rng(5);
  EXPECT_EQ(tcw::sim::uniform_index(rng, 1), 0u);
  EXPECT_THROW(tcw::sim::uniform_index(rng, 0), tcw::ContractViolation);
}

TEST(Exponential, MeanMatchesRate) {
  Rng rng(6);
  tcw::sim::RunningStats s;
  const double lambda = 0.4;
  for (int i = 0; i < 200000; ++i) {
    const double x = tcw::sim::exponential(rng, lambda);
    EXPECT_GE(x, 0.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 1.0 / lambda, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0 / lambda, 0.05);
}

TEST(Exponential, MemorylessTailFraction) {
  Rng rng(7);
  const double lambda = 1.0;
  int beyond1 = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (tcw::sim::exponential(rng, lambda) > 1.0) ++beyond1;
  }
  EXPECT_NEAR(static_cast<double>(beyond1) / kDraws, std::exp(-1.0), 0.01);
}

TEST(Bernoulli, FrequencyMatchesP) {
  Rng rng(8);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (tcw::sim::bernoulli(rng, 0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
}

TEST(Bernoulli, DegenerateProbabilities) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(tcw::sim::bernoulli(rng, 0.0));
    EXPECT_TRUE(tcw::sim::bernoulli(rng, 1.0));
  }
}

TEST(Geometric1, SupportAndMean) {
  Rng rng(10);
  tcw::sim::RunningStats s;
  const double p = 0.25;
  for (int i = 0; i < 100000; ++i) {
    const auto k = tcw::sim::geometric1(rng, p);
    EXPECT_GE(k, 1u);
    s.add(static_cast<double>(k));
  }
  EXPECT_NEAR(s.mean(), 1.0 / p, 0.1);
}

TEST(Geometric1, CertainSuccessIsOne) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(tcw::sim::geometric1(rng, 1.0), 1u);
  }
}

TEST(Poisson, SmallMeanMatches) {
  Rng rng(12);
  tcw::sim::RunningStats s;
  const double mu = 1.3;
  for (int i = 0; i < 200000; ++i) {
    s.add(static_cast<double>(tcw::sim::poisson(rng, mu)));
  }
  EXPECT_NEAR(s.mean(), mu, 0.02);
  EXPECT_NEAR(s.variance(), mu, 0.05);
}

TEST(Poisson, LargeMeanUsesSplitPathCorrectly) {
  Rng rng(13);
  tcw::sim::RunningStats s;
  const double mu = 90.0;
  for (int i = 0; i < 20000; ++i) {
    s.add(static_cast<double>(tcw::sim::poisson(rng, mu)));
  }
  EXPECT_NEAR(s.mean(), mu, 0.5);
  EXPECT_NEAR(s.variance(), mu, 4.0);
}

TEST(Poisson, ZeroMeanIsZero) {
  Rng rng(14);
  EXPECT_EQ(tcw::sim::poisson(rng, 0.0), 0u);
}

TEST(Poisson, NonFiniteOrNegativeMeanRejected) {
  Rng rng(14);
  for (const double mu : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0}) {
    EXPECT_THROW(tcw::sim::poisson(rng, mu), tcw::ContractViolation) << mu;
    EXPECT_THROW(tcw::sim::PoissonSampler{mu}, tcw::ContractViolation) << mu;
  }
}

TEST(Poisson, SamplerDrawsTheSameStreamAsPoisson) {
  for (const double mu : {0.0, 0.7, 4.5, 29.99, 30.0, 95.0}) {
    Rng a(21);
    Rng b(21);
    const tcw::sim::PoissonSampler sampler(mu);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(sampler(a), tcw::sim::poisson(b, mu)) << mu;
    }
    EXPECT_EQ(a(), b()) << mu;
  }
}

TEST(Binomial, MeanAndVariance) {
  Rng rng(15);
  tcw::sim::RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    const auto k = tcw::sim::binomial(rng, 10, 0.5);
    EXPECT_LE(k, 10u);
    s.add(static_cast<double>(k));
  }
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.variance(), 2.5, 0.1);
}

TEST(Discrete, HonorsWeights) {
  Rng rng(16);
  const std::vector<double> w{1.0, 3.0, 0.0, 4.0};
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[tcw::sim::discrete(rng, w)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.125, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.375, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(kDraws), 0.5, 0.01);
}

TEST(Discrete, RejectsDegenerateInput) {
  Rng rng(17);
  EXPECT_THROW(tcw::sim::discrete(rng, {}), tcw::ContractViolation);
  EXPECT_THROW(tcw::sim::discrete(rng, {0.0, 0.0}), tcw::ContractViolation);
  EXPECT_THROW(tcw::sim::discrete(rng, {1.0, -1.0}), tcw::ContractViolation);
}

TEST(Shuffle, IsAPermutation) {
  Rng rng(18);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  tcw::sim::shuffle(rng, v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Shuffle, FirstPositionIsUniform) {
  Rng rng(19);
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    std::vector<int> v{0, 1, 2, 3};
    tcw::sim::shuffle(rng, v);
    ++counts[static_cast<std::size_t>(v[0])];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / 4.0, 5.0 * std::sqrt(kDraws / 4.0));
  }
}

}  // namespace
