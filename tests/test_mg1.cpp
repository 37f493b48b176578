// Validates the M/G/1 machinery: the renewal-function series against
// direct convolution, classical closed forms (M/M/1-like geometric checks,
// Pollaczek-Khinchine), the paper's eq. 4.7 limits, and a brute-force
// event simulation of the impatient (balking) queue.
#include "analysis/mg1.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dist/families.hpp"
#include "sim/rng.hpp"
#include "sim/sampling.hpp"
#include "util/contract.hpp"

namespace {

namespace analysis = tcw::analysis;
namespace dist = tcw::dist;

TEST(OfferedIntensity, LambdaTimesMean) {
  const auto s = dist::deterministic(10);
  EXPECT_DOUBLE_EQ(analysis::offered_intensity(s, 0.05), 0.5);
}

TEST(PkMeanWait, MatchesMd1ClosedForm) {
  // M/D/1: W = rho*S/(2(1-rho)).
  const double lambda = 0.08;
  const std::size_t m = 10;
  const auto s = dist::deterministic(m);
  const double rho = lambda * m;
  EXPECT_NEAR(analysis::pk_mean_wait(s, lambda),
              rho * m / (2.0 * (1.0 - rho)), 1e-12);
}

TEST(PkMeanWait, UnstableQueueRejected) {
  const auto s = dist::deterministic(10);
  EXPECT_THROW(analysis::pk_mean_wait(s, 0.2), tcw::ContractViolation);
}

TEST(RenewalFunction, MatchesDirectSeries) {
  // U = sum_i rho^i beta^(i) computed directly by repeated convolution.
  const std::vector<double> beta{0.5, 0.3, 0.2};
  const double rho = 0.6;
  const std::size_t len = 24;
  const auto u = analysis::renewal_function(beta, rho, len);

  std::vector<double> direct(len, 0.0);
  std::vector<double> conv{1.0};  // beta^(0) = delta0
  double rho_pow = 1.0;
  for (int i = 0; i < 200; ++i) {
    for (std::size_t k = 0; k < std::min(conv.size(), len); ++k) {
      direct[k] += rho_pow * conv[k];
    }
    // conv <- conv * beta
    std::vector<double> next(std::min(conv.size() + beta.size() - 1,
                                      static_cast<std::size_t>(len)),
                             0.0);
    for (std::size_t a = 0; a < conv.size(); ++a) {
      for (std::size_t b = 0; b < beta.size(); ++b) {
        if (a + b < next.size()) next[a + b] += conv[a] * beta[b];
      }
    }
    conv = std::move(next);
    rho_pow *= rho;
    if (rho_pow < 1e-16) break;
  }
  for (std::size_t k = 0; k < len; ++k) {
    EXPECT_NEAR(u[k], direct[k], 1e-10) << "k=" << k;
  }
}

TEST(RenewalFunction, GeometricClosedFormForBernoulliBeta) {
  // beta = delta_1: U[k] = rho^k.
  const std::vector<double> beta{0.0, 1.0};
  const auto u = analysis::renewal_function(beta, 0.7, 10);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(u[k], std::pow(0.7, k), 1e-12);
  }
}

TEST(RenewalFunction, EmptyBetaIsDeltaAtZero) {
  // No beta mass: only the i = 0 term of the series survives.
  const auto u = analysis::renewal_function({}, 0.7, 6);
  ASSERT_EQ(u.size(), 6u);
  EXPECT_EQ(u[0], 1.0);
  for (std::size_t k = 1; k < u.size(); ++k) EXPECT_EQ(u[k], 0.0);
}

TEST(WaitingCdf, IncreasesToOne) {
  const auto s = dist::deterministic(8);
  const double lambda = 0.08;  // rho = 0.64
  double prev = 0.0;
  for (const double k : {0.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0}) {
    const double f = analysis::mg1_waiting_cdf(s, lambda, k);
    EXPECT_GE(f, prev - 1e-12);
    EXPECT_LE(f, 1.0 + 1e-12);
    prev = f;
  }
  EXPECT_NEAR(prev, 1.0, 1e-5);
}

TEST(WaitingCdf, AtZeroIsIdleProbability) {
  // P(W = 0) = 1 - rho for M/G/1.
  const auto s = dist::deterministic(5);
  const double lambda = 0.1;
  EXPECT_NEAR(analysis::mg1_waiting_cdf(s, lambda, 0.0), 0.5, 0.02);
}

TEST(WaitingCdf, MeanMatchesPollaczekKhinchine) {
  const auto s = dist::deterministic(6);
  const double lambda = 0.1;  // rho = 0.6
  // E[W] = integral of (1 - F(w)) dw, midpoint rule on a fine grid.
  double mean = 0.0;
  for (int k = 0; k < 600; ++k) {
    mean += 1.0 - analysis::mg1_waiting_cdf(s, lambda, k + 0.5, 16);
  }
  // Residual lattice bias shrinks with the refinement factor; at 16 the
  // midpoint-rule integral should land within a tenth of a slot.
  EXPECT_NEAR(mean, analysis::pk_mean_wait(s, lambda), 0.1);
}

TEST(WaitingDistribution, MassAtomAndMean) {
  const auto s = dist::deterministic(10);
  const double lambda = 0.05;  // rho = 0.5
  const auto w = analysis::mg1_waiting_distribution(s, lambda, 400);
  EXPECT_NEAR(w.total_mass(), 1.0, 1e-9);
  // Cell [0,1) holds the idle atom 1 - rho plus the waits inside (0, 1).
  EXPECT_GE(w.at(0), 0.5 - 1e-9);
  EXPECT_LE(w.at(0), 0.56);
  EXPECT_NEAR(w.mean(), analysis::pk_mean_wait(s, lambda), 0.6);
}

TEST(WaitingDistribution, CdfAgreesWithScalarApi) {
  const auto s = dist::deterministic(8);
  const double lambda = 0.08;
  const auto w = analysis::mg1_waiting_distribution(s, lambda, 300);
  for (const double k : {10.0, 40.0, 120.0}) {
    EXPECT_NEAR(w.cdf(static_cast<std::size_t>(k)),
                analysis::mg1_waiting_cdf(s, lambda, k + 0.999), 0.02)
        << k;
  }
}

TEST(ImpatientLoss, KZeroClosedForm) {
  // p(loss) -> rho/(1+rho) as K -> 0 (paper's sanity check of eq. 4.7).
  const auto s = dist::deterministic(10);
  const double lambda = 0.05;
  const auto r = analysis::mg1_impatient_loss(s, lambda, 0.0);
  EXPECT_NEAR(r.p_loss, 0.5 / 1.5, 1e-9);
  EXPECT_NEAR(r.p_idle, 1.0 / 1.5, 1e-9);
}

TEST(ImpatientLoss, VanishesAsKGrows) {
  const auto s = dist::deterministic(10);
  const double lambda = 0.05;  // rho = 0.5 < 1
  const auto r = analysis::mg1_impatient_loss(s, lambda, 400.0);
  EXPECT_LT(r.p_loss, 1e-6);
}

TEST(ImpatientLoss, MonotoneDecreasingInK) {
  const auto s = dist::deterministic(10);
  const double lambda = 0.08;
  double prev = 1.0;
  for (const double k : {0.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0}) {
    const auto r = analysis::mg1_impatient_loss(s, lambda, k);
    EXPECT_LE(r.p_loss, prev + 1e-9) << k;
    prev = r.p_loss;
  }
}

TEST(ImpatientLoss, OverloadedQueueStillConverges) {
  // rho >= 1: the loss system remains stable; loss stays near 1 - 1/rho.
  const auto s = dist::deterministic(10);
  const double lambda = 0.15;  // rho = 1.5
  const auto r = analysis::mg1_impatient_loss(s, lambda, 200.0);
  EXPECT_GT(r.p_loss, 1.0 - 1.0 / r.rho - 0.05);
  EXPECT_LT(r.p_loss, 1.0);
}

TEST(ImpatientLoss, BracketsAreOrderedAndTight) {
  const auto s = dist::deterministic(12);
  const auto r = analysis::mg1_impatient_loss(s, 0.06, 30.0, 8);
  EXPECT_LE(r.z_lower, r.z_upper);
  EXPECT_LE(r.loss_lower, r.p_loss + 1e-12);
  EXPECT_LE(r.p_loss, r.loss_upper + 1e-12);
  EXPECT_LT(r.loss_upper - r.loss_lower, 0.02);
}

TEST(ImpatientLoss, RefinementTightensBracket) {
  const auto s = dist::deterministic(12);
  const auto coarse = analysis::mg1_impatient_loss(s, 0.06, 30.0, 1);
  const auto fine = analysis::mg1_impatient_loss(s, 0.06, 30.0, 8);
  EXPECT_LE(fine.z_upper - fine.z_lower, coarse.z_upper - coarse.z_lower);
}

TEST(AcceptedWaitDistribution, SumsToAcceptanceProbability) {
  const auto s = dist::deterministic(10);
  const double lambda = 0.06;
  const std::size_t k = 40;
  const auto f = analysis::accepted_wait_distribution(s, lambda, k);
  const auto loss = analysis::mg1_impatient_loss(s, lambda,
                                                 static_cast<double>(k));
  EXPECT_NEAR(f.total_mass(), 1.0 - loss.p_loss, 0.02);
  EXPECT_EQ(f.size(), k + 1);
}

TEST(AcceptedWaitDistribution, AtomAtZeroIsIdleProbability) {
  const auto s = dist::deterministic(10);
  const double lambda = 0.06;
  const auto f = analysis::accepted_wait_distribution(s, lambda, 40);
  const auto loss = analysis::mg1_impatient_loss(s, lambda, 40.0);
  // The first slot cell holds the idle atom plus waits inside (0, 1).
  EXPECT_GE(f.at(0), loss.p_idle - 0.01);
  EXPECT_LE(f.at(0), loss.p_idle + 0.05);
}

// ---------------------------------------------------------------------------
// Ground-truth cross-check: brute-force simulation of the M/G/1 queue with
// balking (customers join only if the current unfinished work <= K).
// ---------------------------------------------------------------------------

double simulate_balking_loss(double lambda, const dist::Pmf& service,
                             double K, std::uint64_t customers,
                             std::uint64_t seed) {
  tcw::sim::Rng rng(seed);
  // Sample service by inverse CDF.
  std::vector<double> cdf(service.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < service.size(); ++i) {
    acc += service.at(i);
    cdf[i] = acc;
  }
  double work = 0.0;  // unfinished work at the last arrival
  std::uint64_t lost = 0;
  for (std::uint64_t n = 0; n < customers; ++n) {
    const double gap = tcw::sim::exponential(rng, lambda);
    work = std::max(0.0, work - gap);
    if (work > K) {
      ++lost;
      continue;
    }
    const double u = tcw::sim::uniform01(rng);
    std::size_t s = 0;
    while (s + 1 < cdf.size() && cdf[s] < u) ++s;
    work += static_cast<double>(s);
  }
  return static_cast<double>(lost) / static_cast<double>(customers);
}

class ImpatientSimCheck
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ImpatientSimCheck, Eq47MatchesBruteForceSimulation) {
  const double lambda = std::get<0>(GetParam());
  const double K = std::get<1>(GetParam());
  const auto service = dist::deterministic(10);
  const auto model = analysis::mg1_impatient_loss(service, lambda, K);
  const double sim =
      simulate_balking_loss(lambda, service, K, 400000, 99);
  EXPECT_NEAR(model.p_loss, sim, 0.012)
      << "lambda=" << lambda << " K=" << K;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ImpatientSimCheck,
    ::testing::Values(std::make_tuple(0.05, 0.0), std::make_tuple(0.05, 10.0),
                      std::make_tuple(0.05, 30.0), std::make_tuple(0.08, 20.0),
                      std::make_tuple(0.12, 25.0),   // rho = 1.2: overload
                      std::make_tuple(0.08, 60.0)));

TEST(ImpatientSimCheck, GeometricServiceAlsoMatches) {
  const double lambda = 0.06;
  const double K = 25.0;
  const auto service = dist::geometric1_with_mean(8.0);
  const auto model = analysis::mg1_impatient_loss(service, lambda, K);
  const double sim = simulate_balking_loss(lambda, service, K, 400000, 7);
  EXPECT_NEAR(model.p_loss, sim, 0.012);
}

}  // namespace
