// Validates the renewal analysis of the windowing process against closed
// forms and an independent Monte-Carlo implementation of the splitting
// dynamics.
#include "analysis/splitting.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.hpp"
#include "sim/sampling.hpp"
#include "sim/stats.hpp"
#include "util/contract.hpp"

namespace {

namespace analysis = tcw::analysis;

// Independent straight-line simulation of one collision-resolution run:
// window [0,1) known to hold the given sorted arrival positions (n >= 2),
// probing older halves first. Returns (probes incl. success, resolved end).
struct McResult {
  int probes = 0;
  double resolved_end = 0.0;
};

McResult mc_split(const std::vector<double>& pos) {
  std::vector<std::pair<double, double>> stack;
  double lo = 0.0;
  double hi = 1.0;
  // The caller guarantees a collision happened on [0,1): start by splitting.
  int probes = 0;
  double cur_lo = lo;
  double cur_hi = (lo + hi) / 2.0;
  stack.emplace_back(cur_hi, hi);
  while (true) {
    ++probes;
    const auto count = static_cast<std::size_t>(
        std::count_if(pos.begin(), pos.end(), [&](double x) {
          return x >= cur_lo && x < cur_hi;
        }));
    if (count == 1) return {probes, cur_hi};
    if (count == 0) {
      const auto sib = stack.back();
      stack.pop_back();
      const double mid = (sib.first + sib.second) / 2.0;
      stack.emplace_back(mid, sib.second);
      cur_lo = sib.first;
      cur_hi = mid;
    } else {
      const double mid = (cur_lo + cur_hi) / 2.0;
      stack.emplace_back(mid, cur_hi);
      cur_hi = mid;
    }
  }
}

TEST(SplitProbes, ClosedFormSmallN) {
  const auto r = analysis::expected_split_probes(8);
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_DOUBLE_EQ(r[1], 0.0);
  EXPECT_NEAR(r[2], 2.0, 1e-12);         // hand-derived
  EXPECT_NEAR(r[3], 7.0 / 3.0, 1e-12);   // hand-derived
  EXPECT_GT(r[4], r[3]);
  EXPECT_GT(r[8], r[4]);
}

TEST(SplitProbes, GrowsLogarithmically) {
  const auto r = analysis::expected_split_probes(64);
  // Splitting isolates one of n by binary search-like halving; the probe
  // count grows slowly (roughly log2 n plus a constant).
  EXPECT_LT(r[64], r[2] + 2.0 * std::log2(64.0));
  for (std::size_t n = 3; n <= 64; ++n) EXPECT_GE(r[n], r[n - 1]);
}

class SplitProbesMcTest : public ::testing::TestWithParam<int> {};

TEST_P(SplitProbesMcTest, RecursionMatchesMonteCarlo) {
  const int n = GetParam();
  const auto r = analysis::expected_split_probes(static_cast<std::size_t>(n));
  tcw::sim::Rng rng(1000 + static_cast<unsigned>(n));
  tcw::sim::RunningStats probes;
  std::vector<double> pos(static_cast<std::size_t>(n));
  for (int rep = 0; rep < 40000; ++rep) {
    for (auto& x : pos) x = tcw::sim::uniform01(rng);
    std::sort(pos.begin(), pos.end());
    probes.add(static_cast<double>(mc_split(pos).probes));
  }
  EXPECT_NEAR(probes.mean(), r[static_cast<std::size_t>(n)],
              4.0 * probes.ci95_halfwidth() + 0.01);
}

INSTANTIATE_TEST_SUITE_P(SmallCounts, SplitProbesMcTest,
                         ::testing::Values(2, 3, 4, 5, 7, 10));

TEST(SplitProbeDistribution, MatchesMeanAndNormalizes) {
  for (const std::size_t n : {2u, 3u, 5u, 8u}) {
    const auto q = analysis::split_probe_distribution(n, 512);
    EXPECT_NEAR(q.total_mass(), 1.0, 1e-9) << n;
    const auto r = analysis::expected_split_probes(n);
    EXPECT_NEAR(q.mean(), r[n], 1e-6) << n;
    EXPECT_DOUBLE_EQ(q.at(0), 0.0) << "at least one probe";
  }
}

TEST(SplitProbeDistribution, N2IsGeometricHalf) {
  const auto q = analysis::split_probe_distribution(2, 64);
  for (std::size_t s = 1; s <= 10; ++s) {
    EXPECT_NEAR(q.at(s), std::pow(0.5, s), 1e-12) << s;
  }
}

TEST(ProcessSlots, EmptyWindowCostsOneProbe) {
  EXPECT_NEAR(analysis::expected_process_slots(0.0), 1.0, 1e-12);
}

TEST(ProcessSlots, IncreasesWithLoad) {
  double prev = analysis::expected_process_slots(0.1);
  for (double nu = 0.5; nu <= 4.0; nu += 0.5) {
    const double cur = analysis::expected_process_slots(nu);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(ProcessMessages, IsOneMinusExpMinusNu) {
  EXPECT_NEAR(analysis::expected_process_messages(0.7), 1.0 - std::exp(-0.7),
              1e-12);
  EXPECT_DOUBLE_EQ(analysis::expected_process_messages(0.0), 0.0);
}

TEST(SlotsPerMessage, DivergesAtExtremes) {
  const double nu_star = analysis::optimal_window_load();
  const double at_star = analysis::slots_per_message(nu_star);
  EXPECT_GT(analysis::slots_per_message(0.05), at_star);
  EXPECT_GT(analysis::slots_per_message(6.0), at_star);
}

TEST(OptimalWindowLoad, MatchesLiteratureBallpark) {
  // The optimal expected arrivals per window for binary splitting with
  // immediate re-split sits near 1.1 (cf. Gallager's 0.487-throughput
  // FCFS algorithm whose optimum window holds ~1.26 arrivals under a
  // slightly different continuation rule).
  const double nu = analysis::optimal_window_load();
  EXPECT_GT(nu, 0.8);
  EXPECT_LT(nu, 1.6);
}

TEST(OptimalWindowLoad, IsAStationaryPoint) {
  const double nu = analysis::optimal_window_load();
  const double f0 = analysis::slots_per_message(nu);
  EXPECT_LE(f0, analysis::slots_per_message(nu * 1.02));
  EXPECT_LE(f0, analysis::slots_per_message(nu * 0.98));
}

TEST(ConditionalSchedulingMean, ZeroAtZeroLoad) {
  EXPECT_DOUBLE_EQ(analysis::conditional_scheduling_mean(0.0), 0.0);
}

TEST(ConditionalSchedulingMean, BelowAmortizedOverhead) {
  // Amortized slots/message also pays for empty windows, so it dominates
  // scheduling-only conditional mean + the success probe.
  for (const double nu : {0.5, 1.0, 2.0}) {
    EXPECT_LT(analysis::conditional_scheduling_mean(nu),
              analysis::slots_per_message(nu)) << nu;
  }
}

TEST(SchedulingDistribution, NormalizedWithMatchingMean) {
  for (const double nu : {0.3, 1.0, 2.5}) {
    const auto d = analysis::scheduling_distribution(nu);
    EXPECT_NEAR(d.total_mass(), 1.0, 1e-9) << nu;
    EXPECT_NEAR(d.mean(), analysis::conditional_scheduling_mean(nu), 1e-6)
        << nu;
  }
}

TEST(SchedulingDistribution, LightLoadConcentratesAtZero) {
  const auto d = analysis::scheduling_distribution(0.01);
  EXPECT_GT(d.at(0), 0.99);
}

TEST(ResolvedFraction, BoundsAndLimits) {
  const auto f = analysis::resolved_fraction_by_count(32);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 1.0);
  EXPECT_NEAR(f[2], 0.5, 1e-12);  // hand-derived in splitting.cpp comments
  for (std::size_t n = 2; n <= 32; ++n) {
    EXPECT_GT(f[n], 0.0);
    EXPECT_LT(f[n], 1.0);
    if (n > 2) {
      EXPECT_LT(f[n], f[n - 1]);  // more arrivals resolve less
    }
  }
}

class ResolvedFractionMcTest : public ::testing::TestWithParam<int> {};

TEST_P(ResolvedFractionMcTest, RecursionMatchesMonteCarlo) {
  const int n = GetParam();
  const auto f = analysis::resolved_fraction_by_count(
      static_cast<std::size_t>(n));
  tcw::sim::Rng rng(500 + static_cast<unsigned>(n));
  tcw::sim::RunningStats resolved;
  std::vector<double> pos(static_cast<std::size_t>(n));
  for (int rep = 0; rep < 40000; ++rep) {
    for (auto& x : pos) x = tcw::sim::uniform01(rng);
    std::sort(pos.begin(), pos.end());
    resolved.add(mc_split(pos).resolved_end);
  }
  EXPECT_NEAR(resolved.mean(), f[static_cast<std::size_t>(n)],
              4.0 * resolved.ci95_halfwidth() + 0.005);
}

INSTANTIATE_TEST_SUITE_P(SmallCounts, ResolvedFractionMcTest,
                         ::testing::Values(2, 3, 5, 8));

TEST(ExpectedResolvedFraction, OneAtZeroLoadAndDecreasing) {
  EXPECT_DOUBLE_EQ(analysis::expected_resolved_fraction(0.0), 1.0);
  double prev = 1.0;
  for (double nu = 0.5; nu <= 4.0; nu += 0.5) {
    const double cur = analysis::expected_resolved_fraction(nu);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

}  // namespace
