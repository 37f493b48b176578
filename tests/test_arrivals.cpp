#include "chan/arrivals.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/stats.hpp"
#include "util/contract.hpp"

namespace {

using tcw::sim::Rng;
namespace chan = tcw::chan;

TEST(Poisson, StrictlyIncreasing) {
  chan::PoissonProcess p(0.5);
  Rng rng(1);
  double last = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double t = p.next(rng);
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(Poisson, RateMatches) {
  chan::PoissonProcess p(0.25);
  Rng rng(2);
  double t = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) t = p.next(rng);
  EXPECT_NEAR(kDraws / t, 0.25, 0.005);
  EXPECT_DOUBLE_EQ(p.mean_rate(), 0.25);
}

TEST(Poisson, InterarrivalVarianceMatchesExponential) {
  chan::PoissonProcess p(1.0);
  Rng rng(3);
  tcw::sim::RunningStats gaps;
  double last = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double t = p.next(rng);
    gaps.add(t - last);
    last = t;
  }
  EXPECT_NEAR(gaps.mean(), 1.0, 0.02);
  EXPECT_NEAR(gaps.variance(), 1.0, 0.05);
}

TEST(Poisson, InvalidRateRejected) {
  EXPECT_THROW(chan::PoissonProcess(0.0), tcw::ContractViolation);
  EXPECT_THROW(chan::PoissonProcess(-1.0), tcw::ContractViolation);
}

TEST(OnOffVoice, StrictlyIncreasing) {
  chan::OnOffVoiceProcess v(400.0, 600.0, 8.0);
  Rng rng(4);
  double last = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double t = v.next(rng);
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(OnOffVoice, LongRunRateNearOnFractionOverPeriod) {
  chan::OnOffVoiceProcess v(400.0, 600.0, 8.0);
  Rng rng(5);
  double t = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) t = v.next(rng);
  const double measured = kDraws / t;
  EXPECT_NEAR(measured, v.mean_rate(), 0.15 * v.mean_rate());
}

TEST(OnOffVoice, PacketsSpacedByPeriodWithinTalkspurt) {
  chan::OnOffVoiceProcess v(10000.0, 1.0, 5.0);  // almost always on
  Rng rng(6);
  double last = v.next(rng);
  int period_gaps = 0;
  for (int i = 0; i < 100; ++i) {
    const double t = v.next(rng);
    if (std::abs((t - last) - 5.0) < 1e-9) ++period_gaps;
    last = t;
  }
  EXPECT_GE(period_gaps, 95);  // nearly every gap is one packet period
}

TEST(PeriodicJitter, OneArrivalPerPeriod) {
  chan::PeriodicJitterProcess s(10.0, 2.0);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const double t = s.next(rng);
    EXPECT_GE(t, i * 10.0);
    EXPECT_LT(t, i * 10.0 + 2.0);
  }
  EXPECT_DOUBLE_EQ(s.mean_rate(), 0.1);
}

TEST(PeriodicJitter, ZeroJitterIsExactlyPeriodic) {
  chan::PeriodicJitterProcess s(4.0, 0.0, 1.0);
  Rng rng(8);
  EXPECT_DOUBLE_EQ(s.next(rng), 1.0);
  EXPECT_DOUBLE_EQ(s.next(rng), 5.0);
  EXPECT_DOUBLE_EQ(s.next(rng), 9.0);
}

TEST(PeriodicJitter, FullJitterStaysMonotone) {
  chan::PeriodicJitterProcess s(1.0, 1.0);
  Rng rng(9);
  double last = -1.0;
  for (int i = 0; i < 10000; ++i) {
    const double t = s.next(rng);
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(PeriodicJitter, ExcessJitterRejected) {
  EXPECT_THROW(chan::PeriodicJitterProcess(1.0, 1.5),
               tcw::ContractViolation);
}

TEST(Factory, OfferedLoadConversion) {
  const auto p = chan::make_poisson_for_offered_load(0.5, 25.0);
  EXPECT_NEAR(p->mean_rate(), 0.02, 1e-12);
}

}  // namespace
