// Validates the lattice busy-period machinery (Takacs/cycle-lemma) against
// closed forms and a brute-force workload simulation, and the LCFS
// waiting-time model built on it.
#include "analysis/busy_period.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/mg1.hpp"
#include "dist/families.hpp"
#include "obs/registry.hpp"
#include "sim/rng.hpp"
#include "sim/sampling.hpp"
#include "util/contract.hpp"

namespace {

namespace analysis = tcw::analysis;
namespace dist = tcw::dist;

TEST(OneSlotWork, MassAndMean) {
  const auto s = dist::deterministic(10);
  const double lambda = 0.05;
  const auto c1 = analysis::one_slot_work(s, lambda);
  EXPECT_NEAR(c1.total_mass(), 1.0, 1e-12);
  // E[work per slot] = lambda * E[S] = rho.
  EXPECT_NEAR(c1.mean(), 0.5, 1e-9);
  // P(no arrival) = e^-lambda.
  EXPECT_NEAR(c1.at(0), std::exp(-lambda), 1e-12);
  // Work arrives in multiples of 10.
  EXPECT_DOUBLE_EQ(c1.at(5), 0.0);
  EXPECT_GT(c1.at(10), 0.0);
  EXPECT_GT(c1.at(20), 0.0);
}

TEST(BusyPeriod, MeanMatchesClosedForm) {
  // E[T] = E[S]/(1 - rho) for the M/G/1 busy period.
  const auto s = dist::deterministic(10);
  const double lambda = 0.05;  // rho = 0.5
  const auto t = analysis::busy_period_distribution(s, lambda, 3000);
  EXPECT_LT(t.tail_mass(), 1e-9);
  EXPECT_NEAR(t.mean(), 10.0 / 0.5, 0.01);
}

TEST(BusyPeriod, AtomStructureForDeterministicService) {
  // M/D/1 busy periods are multiples of the service time, with
  // P(T = s) = e^(-lambda*s) (no arrivals during the first service).
  const auto s = dist::deterministic(10);
  const double lambda = 0.04;
  const auto t = analysis::busy_period_distribution(s, lambda, 1000);
  EXPECT_NEAR(t.at(10), std::exp(-0.4), 1e-9);
  EXPECT_DOUBLE_EQ(t.at(15), 0.0);
  // Borel distribution: P(T = 2s) = (lambda*s) e^(-2*lambda*s).
  EXPECT_NEAR(t.at(20), 0.4 * std::exp(-0.8), 1e-9);
  // General Borel term: P(T = ns) = (n*lambda*s)^(n-1)/n! * e^(-n*lambda*s).
  EXPECT_NEAR(t.at(30), std::pow(1.2, 2) / 6.0 * std::exp(-1.2), 1e-9);
}

TEST(BusyPeriod, GeometricServiceMeanAlsoMatches) {
  const auto s = dist::geometric1_with_mean(8.0);
  const double lambda = 0.05;  // rho = 0.4
  const auto t = analysis::busy_period_distribution(s, lambda, 4000);
  EXPECT_NEAR(t.mean(), 8.0 / 0.6, 0.05);
}

TEST(BusyPeriod, StepCounterAddsOnePerLatticeStep) {
  const tcw::obs::Counter steps =
      tcw::obs::Registry::global().counter("analysis.busy_period_steps");
  const std::uint64_t before = steps.value();
  analysis::busy_period_distribution(dist::deterministic(10), 0.05, 300);
  EXPECT_EQ(steps.value() - before, 299u);
}

TEST(BusyPeriod, InitialWorkAtomAtZeroPassesThrough) {
  dist::Pmf initial(std::vector<double>{0.3, 0.0, 0.7});  // 0 or 2 slots
  const auto s = dist::deterministic(5);
  const auto t = analysis::busy_period_from_work(initial, s, 0.02, 500);
  EXPECT_NEAR(t.at(0), 0.3, 1e-12);
  EXPECT_NEAR(t.total_mass(), 1.0, 1e-9);
}

TEST(BusyPeriod, HeavierLoadMeansLongerBusyPeriods) {
  const auto s = dist::deterministic(10);
  const auto light = analysis::busy_period_distribution(s, 0.02, 4000);
  const auto heavy = analysis::busy_period_distribution(s, 0.08, 4000);
  EXPECT_GT(heavy.mean(), light.mean());
}

// Brute-force busy-period simulation: workload process ground truth.
double simulate_busy_period_tail(double lambda, std::size_t service,
                                 double K, std::uint64_t reps,
                                 std::uint64_t seed) {
  tcw::sim::Rng rng(seed);
  std::uint64_t longer = 0;
  for (std::uint64_t r = 0; r < reps; ++r) {
    double work = static_cast<double>(service);
    double t = 0.0;
    while (work > 0.0 && t <= K + 1.0) {
      // Next arrival or exhaustion of current work, whichever first.
      const double gap = tcw::sim::exponential(rng, lambda);
      if (gap >= work) {
        t += work;
        work = 0.0;
      } else {
        t += gap;
        work = work - gap + static_cast<double>(service);
      }
    }
    if (t > K) ++longer;
  }
  return static_cast<double>(longer) / static_cast<double>(reps);
}

TEST(BusyPeriod, TailMatchesBruteForceSimulation) {
  const double lambda = 0.06;
  const std::size_t service = 10;
  const auto t = analysis::busy_period_distribution(
      dist::deterministic(service), lambda, 2048);
  for (const double k : {10.0, 30.0, 60.0}) {
    const double model_tail =
        1.0 - t.cdf(static_cast<std::size_t>(k));
    const double sim_tail =
        simulate_busy_period_tail(lambda, service, k, 200000, 11);
    EXPECT_NEAR(model_tail, sim_tail, 0.01) << "K=" << k;
  }
}

// The recursion busy_period_from_work tiles, as a plain scatter on the full
// lattice: A_n = A_{n-1} + one slot of work by next[m + j] += A[m] * q over
// ascending m, then the cycle lemma over ascending j. Every cell adds the
// same nonzero terms in the same order as the kernel, so the two agree bit
// for bit.
dist::Pmf naive_busy_period(const dist::Pmf& initial,
                            const dist::Pmf& service, double lambda,
                            std::size_t max_len) {
  const dist::Pmf work = analysis::one_slot_work(service, lambda);
  std::vector<double> out(max_len, 0.0);
  out[0] = initial.at(0);
  std::vector<double> arrived(max_len, 0.0);
  arrived[0] = 1.0;
  for (std::size_t n = 1; n < max_len; ++n) {
    std::vector<double> next(max_len, 0.0);
    for (std::size_t m = 0; m < max_len; ++m) {
      for (std::size_t j = 0; j < work.size() && m + j < max_len; ++j) {
        if (work.at(j) > 1e-15) next[m + j] += arrived[m] * work.at(j);
      }
    }
    arrived.swap(next);
    double mass = 0.0;
    for (std::size_t j = 1; j < initial.size() && j <= n; ++j) {
      mass += initial.at(j) * static_cast<double>(j) /
              static_cast<double>(n) * arrived[n - j];
    }
    out[n] = mass;
  }
  double total = 0.0;
  for (const double v : out) total += v;
  return dist::Pmf(std::move(out),
                   std::max(0.0, initial.total_mass() - total));
}

void expect_same_bits(const dist::Pmf& got, const dist::Pmf& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t n = 0; n < want.size(); ++n) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.at(n)),
              std::bit_cast<std::uint64_t>(want.at(n)))
        << what << " P(T = " << n << "): got " << got.at(n) << ", want "
        << want.at(n);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.tail_mass()),
            std::bit_cast<std::uint64_t>(want.tail_mass()))
      << what << " tail mass";
}

// The kernel computes 16 cells per tile; the lengths run from 2 (shorter
// than one tile) to three tiles and one cell.
constexpr std::size_t kMaxLenTop = 3 * 16 + 1;

TEST(BusyPeriodTiles, MatchNaiveScatterOnEveryLengthAndStride) {
  // Strides 1, 3 and 10. The one-slot work has support entries up to
  // about eight services, so short tables drop entries at and beyond
  // max_len (for stride 10, every nonzero one below 10 slots).
  for (const std::size_t stride : {1u, 3u, 10u}) {
    const auto s = dist::deterministic(stride);
    const double lambda = 0.4 / static_cast<double>(stride);
    for (std::size_t len = 2; len <= kMaxLenTop; ++len) {
      expect_same_bits(analysis::busy_period_distribution(s, lambda, len),
                       naive_busy_period(s, s, lambda, len),
                       "g=" + std::to_string(stride) +
                           " len=" + std::to_string(len));
    }
  }
}

TEST(BusyPeriodTiles, MatchNaiveScatterForWideGeometricSupport) {
  // Stride 1 with a support that reaches past one tile: the service of
  // the Figure-7 baselines at M = 25.
  const auto s = dist::geometric0_with_mean(1.5).shifted(26);
  const double lambda = 0.02;
  for (std::size_t len = 2; len <= kMaxLenTop; ++len) {
    expect_same_bits(analysis::busy_period_distribution(s, lambda, len),
                     naive_busy_period(s, s, lambda, len),
                     "len=" + std::to_string(len));
  }
  expect_same_bits(analysis::busy_period_distribution(s, lambda, 300),
                   naive_busy_period(s, s, lambda, 300), "len=300");
}

TEST(BusyPeriodTiles, MatchNaiveScatterWithAtomAtZeroAndOffLatticeWork) {
  // An initial work with an atom at 0, and one that is off the service's
  // stride-10 lattice (the LCFS residual, shifted one slot).
  const auto s = dist::deterministic(10);
  const dist::Pmf atom(std::vector<double>{0.25, 0.1, 0.0, 0.4, 0.25});
  const dist::Pmf residual = s.equilibrium().shifted(1);
  for (std::size_t len = 2; len <= kMaxLenTop; ++len) {
    const std::string at = " len=" + std::to_string(len);
    expect_same_bits(analysis::busy_period_from_work(atom, s, 0.05, len),
                     naive_busy_period(atom, s, 0.05, len), "atom" + at);
    expect_same_bits(analysis::busy_period_from_work(residual, s, 0.05, len),
                     naive_busy_period(residual, s, 0.05, len),
                     "residual" + at);
  }
}

TEST(LcfsWaiting, AtomAtZeroIsOneMinusRho) {
  const auto s = dist::deterministic(10);
  const double lambda = 0.05;
  const auto w = analysis::lcfs_waiting_distribution(s, lambda, 2000);
  EXPECT_NEAR(w.at(0), 0.5, 1e-9);
  EXPECT_NEAR(w.total_mass(), 1.0, 1e-6);
}

TEST(LcfsWaiting, MeanMatchesPollaczekKhinchine) {
  // Non-preemptive LCFS has the same *mean* wait as FCFS (work
  // conservation among non-preemptive, non-idling disciplines).
  const auto s = dist::deterministic(10);
  const double lambda = 0.05;
  const auto w = analysis::lcfs_waiting_distribution(s, lambda, 60000);
  EXPECT_NEAR(w.mean(), analysis::pk_mean_wait(s, lambda), 0.6);
}

TEST(LcfsWaiting, HeavierTailThanFcfs) {
  // Same mean, more variance: LCFS must cross FCFS's cdf from above.
  const auto s = dist::deterministic(10);
  const double lambda = 0.08;
  const double k = 120.0;
  const double lcfs = analysis::lcfs_waiting_cdf(s, lambda, k);
  const double fcfs = analysis::mg1_waiting_cdf(s, lambda, k);
  EXPECT_LT(lcfs, fcfs);
}

TEST(LcfsWaiting, CdfMonotoneInK) {
  const auto s = dist::deterministic(10);
  double prev = 0.0;
  for (const double k : {0.0, 10.0, 40.0, 160.0, 640.0}) {
    const double f = analysis::lcfs_waiting_cdf(s, 0.05, k);
    EXPECT_GE(f, prev - 1e-12);
    prev = f;
  }
  EXPECT_GT(prev, 0.99);
}

TEST(LcfsWaiting, UnstableQueueRejected) {
  const auto s = dist::deterministic(10);
  EXPECT_THROW(analysis::lcfs_waiting_cdf(s, 0.2, 10.0),
               tcw::ContractViolation);
}

}  // namespace
