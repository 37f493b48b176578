#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/sampling.hpp"
#include "util/contract.hpp"

namespace {

using tcw::sim::RatioCounter;
using tcw::sim::RunLengthStats;
using tcw::sim::RunningStats;
using tcw::sim::TimeWeightedStats;

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownSmallSample) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum sq dev = 32 -> 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, NumericallyStableForShiftedData) {
  RunningStats s;
  const double big = 1e9;
  for (const double x : {big + 1.0, big + 2.0, big + 3.0}) s.add(x);
  EXPECT_NEAR(s.mean(), big + 2.0, 1e-3);
  EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.add(1.0);
  b.add(3.0);
  a.merge(b);  // empty.merge(full)
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  RunningStats c;
  a.merge(c);  // full.merge(empty)
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_EQ(a.count(), 2u);
}

TEST(RunningStats, CiShrinksWithSamples) {
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 10; ++i) small.add(i % 3);
  for (int i = 0; i < 1000; ++i) large.add(i % 3);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

// Every field a summary reports, as exact hex (and nan/-nan) text.
std::string bits(const RunningStats& s) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "%llu/%a/%a/%a/%a/%a",
                static_cast<unsigned long long>(s.count()), s.mean(), s.sum(),
                s.variance(), s.min(), s.max());
  return buf;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// A stream of runs of equal values, some long, drawn from a palette that
// includes both zeros and a NaN.
std::vector<double> run_stream(tcw::sim::Rng& gen,
                               const std::vector<double>& palette) {
  std::vector<double> out;
  for (int r = 0; r < 300; ++r) {
    const double x = palette[tcw::sim::uniform_index(gen, palette.size())];
    const std::uint64_t len = tcw::sim::uniform_index(gen, 4) == 0
                                  ? 200 + tcw::sim::uniform_index(gen, 2000)
                                  : 1 + tcw::sim::uniform_index(gen, 5);
    out.insert(out.end(), len, x);
  }
  return out;
}

TEST(RunLengthStats, SummaryIgnoresHowTheStreamIsBatched) {
  tcw::sim::Rng gen(0x5A11u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A NaN turns mean, sum and variance into NaN for good, so the finite
  // palette is what pins the folding; the second one adds a NaN run.
  for (const std::vector<double>& palette :
       {std::vector<double>{0.0, -0.0, 1.0, 2.5, 1.0 / 3.0, -7.25, 1e9 + 0.1},
        std::vector<double>{0.0, -0.0, 1.0 / 3.0, -7.25, nan}}) {
    const std::vector<double> stream = run_stream(gen, palette);
    RunLengthStats one_by_one;
    for (const double x : stream) one_by_one.add(x);
    const std::string want = bits(one_by_one.summary());
    for (int trial = 0; trial < 25; ++trial) {
      RunLengthStats batched;
      std::size_t i = 0;
      while (i < stream.size()) {
        // Batch a random prefix of the equal-bits run starting at i.
        std::size_t run = 1;
        while (i + run < stream.size() &&
               same_bits(stream[i + run], stream[i])) {
          ++run;
        }
        const std::size_t n = 1 + tcw::sim::uniform_index(gen, run);
        switch (tcw::sim::uniform_index(gen, 3)) {
          case 0:
            batched.add_run(stream[i], n);
            break;
          case 1:
            for (std::size_t j = 0; j < n; ++j) batched.add(stream[i]);
            break;
          default:
            batched.add_run(stream[i], 0);  // a no-op
            batched.add(stream[i]);
            batched.add_run(stream[i], n - 1);
            break;
        }
        i += n;
        // Reading a summary mid-stream must not disturb the buffer.
        if (tcw::sim::uniform_index(gen, 8) == 0) (void)batched.summary();
      }
      EXPECT_EQ(bits(batched.summary()), want) << "trial " << trial;
      EXPECT_EQ(batched.count(), stream.size());
    }
  }
}

TEST(RunLengthStats, AgreesWithPlainAddsOnIntegerRuns) {
  tcw::sim::Rng gen(0x1E7u);
  const std::vector<double> stream =
      run_stream(gen, {0.0, 1.0, 2.0, 3.0, 5.0, 40.0, -12.0, 1e6});
  RunLengthStats runs;
  RunningStats plain;
  for (const double x : stream) {
    runs.add(x);
    plain.add(x);
  }
  const RunningStats got = runs.summary();
  EXPECT_EQ(got.count(), plain.count());
  EXPECT_EQ(got.sum(), plain.sum());
  EXPECT_EQ(got.min(), plain.min());
  EXPECT_EQ(got.max(), plain.max());
  EXPECT_NEAR(got.mean(), plain.mean(), 1e-12 * std::fabs(plain.mean()));
  EXPECT_NEAR(got.variance(), plain.variance(),
              1e-12 * std::fabs(plain.variance()));
  EXPECT_EQ(runs.count(), plain.count());
  EXPECT_EQ(runs.mean(), got.mean());
}

TEST(RunLengthStats, StreamWithoutRepeatsFoldsLikePlainAdds) {
  // Alternating zeros and repeated NaNs never coalesce, so every sample
  // is folded by RunningStats::add.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& stream :
       {std::vector<double>{0.0, -0.0, 0.0, -0.0, 3.5, -0.0, 0.0},
        std::vector<double>{1.0, nan, nan, nan, 2.0},
        std::vector<double>{nan, nan, 4.0, 4.5, 4.0}}) {
    RunLengthStats runs;
    RunningStats plain;
    for (const double x : stream) {
      runs.add(x);
      plain.add(x);
    }
    EXPECT_EQ(bits(runs.summary()), bits(plain));
  }
}

TEST(RunningStats, AddRunOfNEqualSamples) {
  RunningStats s;
  s.add_run(2.0, 0);
  EXPECT_EQ(s.count(), 0u);
  s.add_run(2.0, 3);
  s.add(6.0);
  s.add_run(6.0, 4);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.sum(), 36.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  // Three 2s and five 6s around the mean 4.5: m2 = 3 * 2.5^2 + 5 * 1.5^2.
  EXPECT_DOUBLE_EQ(s.variance(), (3 * 6.25 + 5 * 2.25) / 7.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 6.0);
}

TEST(TimeWeighted, ConstantSignal) {
  TimeWeightedStats tw(0.0);
  tw.update(0.0, 3.0);
  EXPECT_DOUBLE_EQ(tw.time_average(10.0), 3.0);
}

TEST(TimeWeighted, StepSignal) {
  TimeWeightedStats tw(0.0);
  tw.update(0.0, 0.0);
  tw.update(5.0, 10.0);  // value 0 for [0,5), then 10
  EXPECT_DOUBLE_EQ(tw.time_average(10.0), 5.0);
}

TEST(TimeWeighted, QueueLengthStyle) {
  TimeWeightedStats tw(0.0);
  tw.update(0.0, 1.0);
  tw.update(2.0, 2.0);
  tw.update(3.0, 0.0);
  // avg over [0,4): (1*2 + 2*1 + 0*1)/4 = 1.0
  EXPECT_DOUBLE_EQ(tw.time_average(4.0), 1.0);
}

TEST(TimeWeighted, BackwardTimeRejected) {
  TimeWeightedStats tw(5.0);
  tw.update(6.0, 1.0);
  EXPECT_THROW(tw.update(5.5, 2.0), tcw::ContractViolation);
}

TEST(RatioCounter, Basics) {
  RatioCounter rc;
  EXPECT_DOUBLE_EQ(rc.ratio(), 0.0);
  rc.add(true);
  rc.add(false);
  rc.add(false);
  rc.add(true);
  EXPECT_EQ(rc.hits(), 2u);
  EXPECT_EQ(rc.total(), 4u);
  EXPECT_DOUBLE_EQ(rc.ratio(), 0.5);
}

TEST(RatioCounter, CiBehaves) {
  RatioCounter rc;
  for (int i = 0; i < 10000; ++i) rc.add(i % 4 == 0);
  EXPECT_NEAR(rc.ratio(), 0.25, 1e-9);
  // 1.96 * sqrt(p(1-p)/n)
  EXPECT_NEAR(rc.ci95_halfwidth(),
              1.96 * std::sqrt(0.25 * 0.75 / 10000.0), 1e-4);
}

}  // namespace
