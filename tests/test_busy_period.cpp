// Validates the lattice busy-period machinery (Takacs/cycle-lemma) against
// closed forms and a brute-force workload simulation, and the LCFS
// waiting-time model built on it.
#include "analysis/busy_period.hpp"

#include <gtest/gtest.h>

#include <cmath>

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
