#include "analysis/loss_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "analysis/mg1.hpp"
#include "analysis/splitting.hpp"
#include "obs/registry.hpp"
#include "util/contract.hpp"

namespace {

namespace analysis = tcw::analysis;

analysis::ProtocolModelConfig paper_config(double rho, double m) {
  analysis::ProtocolModelConfig cfg;
  cfg.offered_load = rho;
  cfg.message_length = m;
  return cfg;
}

// One application of the fixpoint map: eq. 4.7 when a fraction 1 - p of
// the messages is accepted and so scheduled.
double loss_at(const analysis::ProtocolModelConfig& cfg, double K, double p) {
  const double nu = K == 0.0 ? 0.0 : analysis::effective_window_load(1.0 - p);
  return analysis::mg1_impatient_loss(analysis::service_distribution(cfg, nu),
                                      cfg.lambda(), K, cfg.refine)
      .p_loss;
}

// Reference: the damped iteration p <- (p + loss(p))/2, with the stopping
// test and the cap of controlled_loss_at. Returns p and the evaluations.
std::pair<double, int> damped_fixpoint(const analysis::ProtocolModelConfig& cfg,
                                       double K, double p) {
  int evaluations = 0;
  while (evaluations < cfg.fixpoint_max_iters) {
    ++evaluations;
    const double loss = loss_at(cfg, K, p);
    const bool converged = std::abs(loss - p) < cfg.fixpoint_tol;
    p = 0.5 * p + 0.5 * loss;
    if (converged) break;
  }
  return {p, evaluations};
}

// A Figure-7 panel's K grid.
std::vector<double> figure7_grid(double m) {
  std::vector<double> grid;
  for (const double r : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0}) {
    grid.push_back(r * m);
  }
  return grid;
}

TEST(EffectiveWindowLoad, ScalesWithAcceptance) {
  const double nu_star = analysis::optimal_window_load();
  EXPECT_DOUBLE_EQ(analysis::effective_window_load(1.0), nu_star);
  EXPECT_DOUBLE_EQ(analysis::effective_window_load(0.5), 0.5 * nu_star);
  EXPECT_DOUBLE_EQ(analysis::effective_window_load(0.0), 0.0);
}

TEST(ServiceDistribution, NoSchedulingIsPureTransmission) {
  auto cfg = paper_config(0.5, 25.0);
  cfg.scheduling = analysis::SchedulingModel::None;
  const auto s = analysis::service_distribution(cfg, 1.0);
  EXPECT_DOUBLE_EQ(s.at(26), 1.0);  // M + 1 detection slot
  EXPECT_DOUBLE_EQ(s.mean(), 26.0);
}

TEST(ServiceDistribution, GeometricAddsMatchedMean) {
  auto cfg = paper_config(0.5, 25.0);
  const double nu = 1.0;
  const auto s = analysis::service_distribution(cfg, nu);
  EXPECT_NEAR(s.mean(), 26.0 + analysis::conditional_scheduling_mean(nu),
              1e-6);
  EXPECT_DOUBLE_EQ(s.at(25), 0.0);  // nothing faster than the transmission
}

TEST(ServiceDistribution, ExactConditionalAddsMatchedMean) {
  auto cfg = paper_config(0.5, 25.0);
  cfg.scheduling = analysis::SchedulingModel::ExactConditional;
  const double nu = 1.3;
  const auto s = analysis::service_distribution(cfg, nu);
  EXPECT_NEAR(s.mean(), 26.0 + analysis::conditional_scheduling_mean(nu),
              1e-6);
}

TEST(ServiceDistribution, ZeroLoadDegeneratesToTransmission) {
  auto cfg = paper_config(0.5, 25.0);
  const auto s = analysis::service_distribution(cfg, 0.0);
  EXPECT_DOUBLE_EQ(s.at(26), 1.0);
}

TEST(ServiceDistribution, FractionalMessageLengthRejected) {
  auto cfg = paper_config(0.5, 25.5);
  EXPECT_THROW(analysis::service_distribution(cfg, 1.0),
               tcw::ContractViolation);
}

TEST(ControlledLoss, AnchorsAtClosedFormForKZero) {
  const auto cfg = paper_config(0.5, 25.0);
  const auto pt = analysis::controlled_loss_at(cfg, 0.0, 0.9);
  const double rho0 = cfg.lambda() * 26.0;
  EXPECT_NEAR(pt.p_loss, rho0 / (1.0 + rho0), 1e-6);
  EXPECT_NEAR(pt.sched_mean, 0.0, 1e-6);  // all arrivals balk: nu_eff ~ 0
}

TEST(ControlledLoss, FixpointIsInsensitiveToInitialGuess) {
  const auto cfg = paper_config(0.5, 25.0);
  const auto lo = analysis::controlled_loss_at(cfg, 50.0, 0.0);
  const auto hi = analysis::controlled_loss_at(cfg, 50.0, 1.0);
  EXPECT_NEAR(lo.p_loss, hi.p_loss, 1e-7);
}

TEST(ControlledLoss, CurveIsMonotoneDecreasing) {
  const auto cfg = paper_config(0.5, 25.0);
  const auto curve = analysis::controlled_loss_curve(
      cfg, {0.0, 25.0, 50.0, 100.0, 200.0, 400.0});
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].p_loss, curve[i - 1].p_loss + 1e-9) << i;
  }
  EXPECT_LT(curve.back().p_loss, 1e-4);  // rho < 1: loss dies out
}

TEST(ControlledLoss, HigherLoadLosesMore) {
  const auto grid = std::vector<double>{50.0, 100.0, 200.0};
  const auto low = analysis::controlled_loss_curve(paper_config(0.25, 25.0),
                                                   grid);
  const auto high = analysis::controlled_loss_curve(paper_config(0.75, 25.0),
                                                    grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_GT(high[i].p_loss, low[i].p_loss) << i;
  }
}

TEST(ControlledLoss, LongerMessagesNeedProportionallyLargerK) {
  // At the same rho' and K measured in messages (K = c*M), loss should be
  // in the same ballpark; at equal absolute K, larger M loses more.
  const auto m25 = analysis::controlled_loss_at(paper_config(0.5, 25.0),
                                                100.0, 0.1);
  const auto m100 = analysis::controlled_loss_at(paper_config(0.5, 100.0),
                                                 100.0, 0.1);
  EXPECT_GT(m100.p_loss, m25.p_loss);
}

TEST(ControlledLoss, OverloadStillConverges) {
  const auto cfg = paper_config(1.5, 25.0);
  const auto pt = analysis::controlled_loss_at(cfg, 100.0, 0.5);
  EXPECT_GT(pt.p_loss, 0.3);  // must shed at least 1 - 1/rho
  EXPECT_LT(pt.p_loss, 1.0);
  EXPECT_LE(pt.iterations, cfg.fixpoint_max_iters);
}

TEST(ControlledLoss, SchedulingModelsAgreeClosely) {
  auto geo = paper_config(0.5, 25.0);
  auto exact = paper_config(0.5, 25.0);
  exact.scheduling = analysis::SchedulingModel::ExactConditional;
  const auto a = analysis::controlled_loss_at(geo, 75.0, 0.1);
  const auto b = analysis::controlled_loss_at(exact, 75.0, 0.1);
  EXPECT_NEAR(a.p_loss, b.p_loss, 0.01);
}

TEST(ControlledLoss, UnsortedGridRejected) {
  const auto cfg = paper_config(0.5, 25.0);
  EXPECT_THROW(analysis::controlled_loss_curve(cfg, {50.0, 25.0}),
               tcw::ContractViolation);
}

TEST(ControlledLoss, CountersTrackFixpointAndRenewalSolves) {
  // Every loss evaluation of the fixpoint at K > 0 solves the left and the
  // right renewal bracket once each; the counters move once per call.
  auto& registry = tcw::obs::Registry::global();
  const tcw::obs::Counter iters = registry.counter("analysis.fixpoint_iters");
  const tcw::obs::Counter solves = registry.counter("analysis.renewal_solves");
  const std::uint64_t iters_before = iters.value();
  const std::uint64_t solves_before = solves.value();
  const auto curve = analysis::controlled_loss_curve(
      paper_config(0.5, 25.0), {12.5, 25.0, 50.0, 100.0});
  std::uint64_t sum = 0;
  for (const auto& pt : curve) {
    sum += static_cast<std::uint64_t>(pt.iterations);
  }
  EXPECT_GT(sum, curve.size());
  EXPECT_EQ(iters.value() - iters_before, sum);
  EXPECT_EQ(solves.value() - solves_before, 2 * sum);
}

TEST(ControlledLoss, SecantOutsideUnitIntervalFallsBackToDamped) {
  // At K = 16 M eq. 4.7 is 0 to rounding, so from p = 1 the first secant
  // step (after the damped first step) lands just below 0 and the second
  // step must be the damped one, bit for bit.
  const auto cfg = paper_config(0.25, 25.0);
  const double K = 400.0;
  const double p0 = 1.0;
  const double loss0 = loss_at(cfg, K, p0);
  const double g0 = loss0 - p0;
  const double p1 = 0.5 * p0 + 0.5 * loss0;
  const double g1 = loss_at(cfg, K, p1) - p1;
  const double secant = p1 - g1 * (p1 - p0) / (g1 - g0);
  ASSERT_FALSE(secant >= 0.0 && secant <= 1.0) << secant;
  auto two_steps = cfg;
  two_steps.fixpoint_max_iters = 2;
  const auto pt2 = analysis::controlled_loss_at(two_steps, K, p0);
  const auto [damped, evaluations] = damped_fixpoint(two_steps, K, p0);
  EXPECT_EQ(pt2.iterations, 2);
  EXPECT_EQ(evaluations, 2);
  EXPECT_EQ(pt2.p_loss, damped);
  // Left to run, the iteration converges to a self-consistent p >= 0.
  const auto pt = analysis::controlled_loss_at(cfg, K, p0);
  EXPECT_LT(pt.iterations, cfg.fixpoint_max_iters);
  EXPECT_GE(pt.p_loss, 0.0);
  EXPECT_NEAR(loss_at(cfg, K, pt.p_loss), pt.p_loss, 1e-9);
}

TEST(FcfsBaseline, WorseThanControlledAtEveryK) {
  const auto cfg = paper_config(0.5, 25.0);
  const auto controlled = analysis::controlled_loss_curve(
      cfg, {25.0, 50.0, 100.0, 200.0});
  for (const auto& pt : controlled) {
    const double fcfs = analysis::fcfs_nodiscard_loss(cfg, pt.K);
    EXPECT_GE(fcfs, pt.p_loss - 1e-6) << pt.K;
  }
}

TEST(FcfsBaseline, MonotoneDecreasing) {
  const auto cfg = paper_config(0.5, 25.0);
  double prev = 1.0;
  for (const double k : {0.0, 25.0, 50.0, 100.0, 200.0, 400.0}) {
    const double loss = analysis::fcfs_nodiscard_loss(cfg, k);
    EXPECT_LE(loss, prev + 1e-9);
    prev = loss;
  }
}

TEST(FcfsBaseline, UnstableQueueLosesEverything) {
  const auto cfg = paper_config(1.2, 25.0);
  EXPECT_DOUBLE_EQ(analysis::fcfs_nodiscard_loss(cfg, 500.0), 1.0);
}

TEST(LossModel, NoNegativeLossAtLargeK) {
  // At rho' = 0.25, K = 16M the losses are a few ulps from 0, where
  // 1 - P(W <= K) and 1 - z/(1 + rho z) cancel; they must not go below 0.
  const auto cfg = paper_config(0.25, 25.0);
  EXPECT_GE(analysis::fcfs_nodiscard_loss(cfg, 400.0), 0.0);
  EXPECT_GE(analysis::lcfs_nodiscard_loss(cfg, 400.0), 0.0);
  EXPECT_GE(analysis::controlled_loss_at(cfg, 400.0, 0.0).p_loss, 0.0);
}

class ControlledLossGridTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ControlledLossGridTest, LossIsAProbabilityEverywhere) {
  const auto [rho, m] = GetParam();
  const auto cfg = paper_config(rho, m);
  const auto curve = analysis::controlled_loss_curve(
      cfg, {0.0, m, 2 * m, 4 * m, 8 * m, 16 * m});
  for (const auto& pt : curve) {
    EXPECT_GE(pt.p_loss, 0.0);
    EXPECT_LE(pt.p_loss, 1.0);
    EXPECT_GE(pt.sched_mean, -1e-9);
    EXPECT_GT(pt.rho, 0.0);
  }
}

TEST_P(ControlledLossGridTest, FixpointIsSelfConsistentOnFigure7Grid) {
  const auto [rho, m] = GetParam();
  const auto cfg = paper_config(rho, m);
  for (const auto& pt : analysis::controlled_loss_curve(cfg, figure7_grid(m))) {
    EXPECT_NEAR(loss_at(cfg, pt.K, pt.p_loss), pt.p_loss, 1e-9) << pt.K;
    EXPECT_LT(pt.iterations, cfg.fixpoint_max_iters);
  }
}

TEST_P(ControlledLossGridTest, FixpointAgreesWithDampedReference) {
  const auto [rho, m] = GetParam();
  const auto cfg = paper_config(rho, m);
  const auto grid = figure7_grid(m);
  const auto curve = analysis::controlled_loss_curve(cfg, grid);
  // Warm-started along the grid from the K = 0 anchor, as the curve is.
  const double rho0 = cfg.lambda() * (m + cfg.success_overhead);
  double guess = rho0 / (1.0 + rho0);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    guess = damped_fixpoint(cfg, grid[i], guess).first;
    EXPECT_NEAR(curve[i].p_loss, guess, 1e-10) << grid[i];
  }
}

TEST_P(ControlledLossGridTest, KZeroConvergesInOneEvaluation) {
  // The curve's anchor guess is the closed-form loss at K = 0.
  const auto [rho, m] = GetParam();
  const auto curve = analysis::controlled_loss_curve(paper_config(rho, m),
                                                     {0.0});
  EXPECT_EQ(curve[0].iterations, 1);
}

INSTANTIATE_TEST_SUITE_P(
    PaperPanels, ControlledLossGridTest,
    ::testing::Values(std::make_tuple(0.25, 25.0), std::make_tuple(0.25, 100.0),
                      std::make_tuple(0.50, 25.0), std::make_tuple(0.50, 100.0),
                      std::make_tuple(0.75, 25.0),
                      std::make_tuple(0.75, 100.0)));

}  // namespace
