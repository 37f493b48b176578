#include "util/interval_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.hpp"
#include "sim/sampling.hpp"
#include "util/contract.hpp"

namespace {

using tcw::Interval;
using tcw::IntervalSet;

TEST(Interval, Basics) {
  const Interval iv{1.0, 3.0};
  EXPECT_DOUBLE_EQ(iv.length(), 2.0);
  EXPECT_FALSE(iv.empty());
  EXPECT_TRUE(iv.contains(1.0));
  EXPECT_TRUE(iv.contains(2.9));
  EXPECT_FALSE(iv.contains(3.0));  // half-open
  EXPECT_FALSE(iv.contains(0.99));
}

TEST(IntervalSet, StartsEmpty) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.total_measure(), 0.0);
  EXPECT_FALSE(s.contains(0.0));
  EXPECT_DOUBLE_EQ(s.first_uncovered(5.0), 5.0);
}

TEST(IntervalSet, InsertDisjoint) {
  IntervalSet s;
  s.insert(0.0, 1.0);
  s.insert(2.0, 3.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(0.5));
  EXPECT_FALSE(s.contains(1.5));
  EXPECT_TRUE(s.contains(2.0));
  EXPECT_TRUE(s.check_invariant());
}

TEST(IntervalSet, InsertMergesOverlaps) {
  IntervalSet s;
  s.insert(0.0, 2.0);
  s.insert(1.0, 3.0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.total_measure(), 3.0);
}

TEST(IntervalSet, InsertMergesAdjacent) {
  IntervalSet s;
  s.insert(0.0, 1.0);
  s.insert(1.0, 2.0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.total_measure(), 2.0);
  EXPECT_DOUBLE_EQ(s.first_uncovered(0.0), 2.0);
}

TEST(IntervalSet, InsertBridgesManyParts) {
  IntervalSet s;
  s.insert(0.0, 1.0);
  s.insert(2.0, 3.0);
  s.insert(4.0, 5.0);
  s.insert(0.5, 4.5);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.total_measure(), 5.0);
}

TEST(IntervalSet, EmptyInsertIsNoop) {
  IntervalSet s;
  s.insert(1.0, 1.0);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, EraseSplitsInterval) {
  IntervalSet s;
  s.insert(0.0, 10.0);
  s.erase(3.0, 7.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(2.9));
  EXPECT_FALSE(s.contains(3.0));
  EXPECT_FALSE(s.contains(6.9));
  EXPECT_TRUE(s.contains(7.0));
  EXPECT_DOUBLE_EQ(s.total_measure(), 6.0);
}

TEST(IntervalSet, EraseBelowTrims) {
  IntervalSet s;
  s.insert(0.0, 2.0);
  s.insert(3.0, 5.0);
  s.erase_below(4.0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.total_measure(), 1.0);
  EXPECT_TRUE(s.contains(4.5));
}

TEST(IntervalSet, MeasureWithinRange) {
  IntervalSet s;
  s.insert(0.0, 2.0);
  s.insert(3.0, 5.0);
  EXPECT_DOUBLE_EQ(s.measure(1.0, 4.0), 2.0);  // [1,2) + [3,4)
  EXPECT_DOUBLE_EQ(s.measure(-5.0, 10.0), 4.0);
  EXPECT_DOUBLE_EQ(s.measure(2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(s.measure(4.0, 4.0), 0.0);
}

TEST(IntervalSet, FirstUncoveredWalksThroughParts) {
  IntervalSet s;
  s.insert(0.0, 2.0);
  s.insert(2.0, 4.0);  // merges
  s.insert(5.0, 6.0);
  EXPECT_DOUBLE_EQ(s.first_uncovered(0.0), 4.0);
  EXPECT_DOUBLE_EQ(s.first_uncovered(4.5), 4.5);
  EXPECT_DOUBLE_EQ(s.first_uncovered(5.0), 6.0);
  EXPECT_DOUBLE_EQ(s.first_uncovered(7.0), 7.0);
}

TEST(IntervalSet, GapsWithinRange) {
  IntervalSet s;
  s.insert(1.0, 2.0);
  s.insert(3.0, 4.0);
  const auto gaps = s.gaps(0.0, 5.0);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (Interval{0.0, 1.0}));
  EXPECT_EQ(gaps[1], (Interval{2.0, 3.0}));
  EXPECT_EQ(gaps[2], (Interval{4.0, 5.0}));
}

TEST(IntervalSet, GapsOfEmptySetIsWholeRange) {
  IntervalSet s;
  const auto gaps = s.gaps(2.0, 7.0);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0], (Interval{2.0, 7.0}));
}

TEST(IntervalSet, GapsOfFullyCoveredRangeIsEmpty) {
  IntervalSet s;
  s.insert(0.0, 10.0);
  EXPECT_TRUE(s.gaps(2.0, 7.0).empty());
}

TEST(IntervalSet, MaxCovered) {
  IntervalSet s;
  EXPECT_FALSE(s.max_covered().has_value());
  s.insert(1.0, 2.0);
  s.insert(5.0, 8.0);
  EXPECT_DOUBLE_EQ(s.max_covered().value(), 8.0);
}

TEST(IntervalSet, BackwardsIntervalRejected) {
  IntervalSet s;
  EXPECT_THROW(s.insert(2.0, 1.0), tcw::ContractViolation);
  EXPECT_THROW(s.erase(2.0, 1.0), tcw::ContractViolation);
}

// ---------------------------------------------------------------------------
// Property test: a random operation sequence agrees with a brute-force
// boolean-grid model, and the structural invariant always holds.
// ---------------------------------------------------------------------------

class IntervalSetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSetPropertyTest, MatchesBruteForceModel) {
  // Model: cover [0, 200) at resolution 0.5 => 400 cells.
  constexpr int kCells = 400;
  constexpr double kRes = 0.5;
  std::vector<bool> model(kCells, false);
  IntervalSet s;
  tcw::sim::Rng rng(0xABCD + static_cast<unsigned>(GetParam()));

  for (int op = 0; op < 300; ++op) {
    const auto a = static_cast<double>(tcw::sim::uniform_index(rng, kCells));
    const auto len = static_cast<double>(tcw::sim::uniform_index(rng, 60));
    const double lo = a * kRes;
    const double hi = std::min(lo + len * kRes, kCells * kRes);
    const bool insert = tcw::sim::bernoulli(rng, 0.6);
    if (insert) {
      s.insert(lo, hi);
    } else {
      s.erase(lo, hi);
    }
    for (int c = static_cast<int>(lo / kRes); c < static_cast<int>(hi / kRes);
         ++c) {
      model[static_cast<std::size_t>(c)] = insert;
    }
    ASSERT_TRUE(s.check_invariant());
  }

  // Compare membership at cell midpoints and aggregate measure.
  double model_measure = 0.0;
  for (int c = 0; c < kCells; ++c) {
    const double mid = (c + 0.5) * kRes;
    EXPECT_EQ(s.contains(mid), model[static_cast<std::size_t>(c)])
        << "cell " << c;
    if (model[static_cast<std::size_t>(c)]) model_measure += kRes;
  }
  EXPECT_NEAR(s.total_measure(), model_measure, 1e-9);

  // first_uncovered agrees with a scan over the model.
  for (double x : {0.0, 10.25, 100.0, 199.75}) {
    int cell = static_cast<int>(x / kRes);
    double expect = x;
    while (cell < kCells && model[static_cast<std::size_t>(cell)] &&
           expect >= cell * kRes) {
      expect = (cell + 1) * kRes;
      ++cell;
    }
    EXPECT_DOUBLE_EQ(s.first_uncovered(x), expect) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, IntervalSetPropertyTest,
                         ::testing::Range(0, 8));

// The copy-based erase_below that the in-place one replaced: keep every
// part with hi > x, each clamped to start at x or later.
std::vector<Interval> copy_erase_below(const std::vector<Interval>& parts,
                                       double x) {
  std::vector<Interval> out;
  for (const Interval& p : parts) {
    if (p.hi <= x) continue;
    out.push_back(Interval{std::max(p.lo, x), p.hi});
  }
  return out;
}

TEST(IntervalSet, EraseBelowMatchesCopySemanticsOnRandomSets) {
  tcw::sim::Rng rng(0xE1A5E);
  for (int trial = 0; trial < 500; ++trial) {
    IntervalSet s;
    const std::size_t parts = tcw::sim::uniform_index(rng, 8);
    for (std::size_t i = 0; i < parts; ++i) {
      const double lo = tcw::sim::uniform(rng, 0.0, 100.0);
      s.insert(lo, lo + tcw::sim::uniform(rng, 0.0, 15.0));
    }
    // Cut points inside parts, on their edges, and outside the set.
    std::vector<double> cuts = {-1.0, 0.0, 50.0, 200.0,
                                tcw::sim::uniform(rng, -5.0, 120.0)};
    for (const Interval& p : s.parts()) {
      cuts.push_back(p.lo);
      cuts.push_back(p.hi);
      cuts.push_back(0.5 * (p.lo + p.hi));
    }
    for (const double x : cuts) {
      IntervalSet t = s;
      t.erase_below(x);
      ASSERT_EQ(t.parts(), copy_erase_below(s.parts(), x))
          << "trial " << trial << " x=" << x;
      ASSERT_TRUE(t.check_invariant());
    }
  }
}

}  // namespace
