// Validates the lattice busy-period machinery (Takacs/cycle-lemma) against
// closed forms, the n-step arrived-work recursion and a brute-force
// workload simulation, and the LCFS waiting-time model built on it.
#include "analysis/busy_period.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "analysis/loss_model.hpp"
#include "analysis/mg1.hpp"
#include "dist/families.hpp"
#include "obs/registry.hpp"
#include "sim/rng.hpp"
#include "sim/sampling.hpp"
#include "util/contract.hpp"

namespace {

namespace analysis = tcw::analysis;
namespace dist = tcw::dist;

/// Distribution of the total work arriving in one slot: a compound
/// Poisson(lambda) of the service distribution, truncated at `tol`. The
/// oracle below steps A_n forward by it one slot at a time.
dist::Pmf one_slot_work(const dist::Pmf& service, double lambda,
                        double tol = 1e-15) {
  // sum_j e^-lambda lambda^j / j! * B^(j); the Poisson weights die fast
  // for the per-slot rates this library works at (lambda << 1).
  std::vector<dist::Pmf> components;
  std::vector<double> weights;
  double weight = std::exp(-lambda);
  dist::Pmf convolution_power(std::vector<double>{1.0});  // B^(0)
  std::size_t j = 0;
  double remaining = 1.0;
  const std::size_t cap = 64 * service.size() + 64;
  while (remaining > tol && j < 200) {
    components.push_back(convolution_power);
    weights.push_back(weight);
    remaining -= weight;
    ++j;
    weight *= lambda / static_cast<double>(j);
    convolution_power = dist::Pmf::convolve(convolution_power, service, cap);
  }
  dist::Pmf out = dist::Pmf::mixture(components, weights);
  // The dropped Poisson tail is genuine probability mass "somewhere high".
  out = dist::Pmf(out.probabilities(), out.tail_mass() +
                                           std::max(remaining, 0.0));
  out.trim(0.0);
  return out;
}

TEST(OneSlotWork, MassAndMean) {
  const auto s = dist::deterministic(10);
  const double lambda = 0.05;
  const auto c1 = one_slot_work(s, lambda);
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

TEST(BusyPeriod, DeterministicServiceMatchesBorelExactly) {
  // Borel-Tanner: P(T = ns) = (n lambda s)^(n-1) / n! * e^(-n lambda s)
  // for every n whose table cell lies below max_len.
  const std::size_t s = 10;
  const double lambda = 0.05;
  const auto t =
      analysis::busy_period_distribution(dist::deterministic(s), lambda, 1000);
  double log_n_factorial = 0.0;
  for (std::size_t n = 1; n < 100; ++n) {
    log_n_factorial += std::log(static_cast<double>(n));
    const double mu = static_cast<double>(n * s) * lambda;
    const double borel = std::exp(static_cast<double>(n - 1) * std::log(mu) -
                                  log_n_factorial - mu);
    EXPECT_NEAR(t.at(n * s) / borel, 1.0, 1e-12) << "n=" << n;
  }
}

TEST(BusyPeriod, ServiceWithMassAtZeroRejected) {
  // A zero-slot service would let E_k stay below 1 + k s_min.
  const dist::Pmf s(std::vector<double>{0.1, 0.0, 0.9});
  EXPECT_THROW(analysis::busy_period_distribution(s, 0.05, 100),
               tcw::ContractViolation);
}

TEST(BusyPeriod, GeometricServiceMeanAlsoMatches) {
  const auto s = dist::geometric1_with_mean(8.0);
  const double lambda = 0.05;  // rho = 0.4
  const auto t = analysis::busy_period_distribution(s, lambda, 4000);
  EXPECT_NEAR(t.mean(), 8.0 / 0.6, 0.05);
}

TEST(BusyPeriod, StepCounterCountsMixtureMultiplyAdds) {
  const tcw::obs::Counter steps =
      tcw::obs::Registry::global().counter("analysis.busy_period_steps");
  const std::uint64_t before = steps.value();
  analysis::busy_period_distribution(dist::deterministic(10), 0.05, 300);
  // B = delta_10, so E_k is the single cell 10 (k + 1): passes k = 0..28
  // weight one cell each (29), and k = 0..27 convolve one cell against
  // the one-point support (28); E_29 would start at 300 = max_len.
  EXPECT_EQ(steps.value() - before, 57u);
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

// The n-step recursion the Poisson mixture replaces, as a plain scatter
// on the full lattice: A_n = A_{n-1} + one slot of work by
// next[m + j] += A[m] * q over ascending m, then the cycle lemma over
// ascending j.
dist::Pmf naive_busy_period(const dist::Pmf& initial,
                            const dist::Pmf& service, double lambda,
                            std::size_t max_len) {
  const dist::Pmf work = one_slot_work(service, lambda);
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

// The oracle's one-slot work is truncated at 1e-15, so the two agree to
// rounding, not bit for bit.
void expect_close(const dist::Pmf& got, const dist::Pmf& want,
                  const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t n = 0; n < want.size(); ++n) {
    EXPECT_NEAR(got.at(n), want.at(n), 1e-14) << what << " P(T = " << n
                                               << ")";
  }
  EXPECT_NEAR(got.tail_mass(), want.tail_mass(), 1e-12) << what << " tail";
}

// Lengths from 2 to 49, across the range where the mixture's k cutoff
// and the service support's truncation at max_len change.
constexpr std::size_t kMaxLenTop = 49;

TEST(BusyPeriodMixture, MatchNaiveScatterOnEveryLengthAndStride) {
  // Strides 1, 3 and 10; short tables drop the services at and beyond
  // max_len.
  for (const std::size_t stride : {1u, 3u, 10u}) {
    const auto s = dist::deterministic(stride);
    const double lambda = 0.4 / static_cast<double>(stride);
    for (std::size_t len = 2; len <= kMaxLenTop; ++len) {
      expect_close(analysis::busy_period_distribution(s, lambda, len),
                   naive_busy_period(s, s, lambda, len),
                   "g=" + std::to_string(stride) +
                       " len=" + std::to_string(len));
    }
  }
}

TEST(BusyPeriodMixture, MatchNaiveScatterForWideGeometricSupport) {
  // A service support of about 55 slots, shaped like the Figure-7
  // baselines' service at M = 25.
  const auto s = dist::geometric0_with_mean(1.5).shifted(26);
  const double lambda = 0.02;
  for (std::size_t len = 2; len <= kMaxLenTop; ++len) {
    expect_close(analysis::busy_period_distribution(s, lambda, len),
                 naive_busy_period(s, s, lambda, len),
                 "len=" + std::to_string(len));
  }
  expect_close(analysis::busy_period_distribution(s, lambda, 300),
               naive_busy_period(s, s, lambda, 300), "len=300");
}

TEST(BusyPeriodMixture, MatchNaiveScatterWithAtomAtZeroAndOffLatticeWork) {
  // An initial work with an atom at 0, and one that is off the service's
  // stride-10 lattice (the LCFS residual, shifted one slot).
  const auto s = dist::deterministic(10);
  const dist::Pmf atom(std::vector<double>{0.25, 0.1, 0.0, 0.4, 0.25});
  const dist::Pmf residual = s.equilibrium().shifted(1);
  for (std::size_t len = 2; len <= kMaxLenTop; ++len) {
    const std::string at = " len=" + std::to_string(len);
    expect_close(analysis::busy_period_from_work(atom, s, 0.05, len),
                 naive_busy_period(atom, s, 0.05, len), "atom" + at);
    expect_close(analysis::busy_period_from_work(residual, s, 0.05, len),
                 naive_busy_period(residual, s, 0.05, len), "residual" + at);
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

TEST(LcfsConcurrent, FourThreadsMatchSerialBits) {
  // The analytic layer keeps no state across calls, so the Figure-7 LCFS
  // curve computed on four threads at once equals a serial run bit for
  // bit.
  analysis::ProtocolModelConfig cfg;
  cfg.offered_load = 0.5;
  cfg.message_length = 25.0;
  const std::vector<double> grid = {12.5, 25,  37.5, 50,  75,
                                    100,  150, 200,  300, 400};
  const auto curve = [&] {
    std::vector<double> out;
    for (const double k : grid) {
      out.push_back(analysis::lcfs_nodiscard_loss(cfg, k));
    }
    return out;
  };
  const std::vector<double> serial = curve();
  std::vector<std::vector<double>> parallel(4);
  std::vector<std::thread> threads;
  for (auto& slot : parallel) {
    threads.emplace_back([&slot, &curve] { slot = curve(); });
  }
  for (auto& t : threads) t.join();
  for (const auto& got : parallel) {
    ASSERT_EQ(got.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(serial[i]))
          << "K=" << grid[i];
    }
  }
}

}  // namespace
