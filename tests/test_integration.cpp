// End-to-end checks that tie the analytic model, the simulators and the
// paper's claims together at reduced scale:
//  * analytic eq. 4.7 curve vs the protocol simulation (Figure 7 pipeline),
//  * Theorem 1: the optimal (position, split) pair beats every alternative,
//  * element (4) ablation: discard helps under tight constraints,
//  * channel accounting invariants across the full stack.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "analysis/loss_model.hpp"
#include "analysis/splitting.hpp"
#include "net/experiment.hpp"

namespace {

namespace analysis = tcw::analysis;
namespace net = tcw::net;
using tcw::core::ControlPolicy;
using tcw::core::PositionRule;
using tcw::core::SplitRule;

net::SweepConfig sweep_config(double rho, double m) {
  net::SweepConfig cfg;
  cfg.offered_load = rho;
  cfg.message_length = m;
  cfg.t_end = 150000.0;
  cfg.warmup = 10000.0;
  cfg.replications = 2;
  return cfg;
}

std::vector<net::SweepPoint> sweep(const net::SweepConfig& cfg,
                                   net::ProtocolVariant v,
                                   const std::vector<double>& grid) {
  return net::run_sweep({.config = cfg, .constraints = grid, .variant = v,
                         .make_policy = {}})
      .points();
}

class AnalyticVsSimTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(AnalyticVsSimTest, ControlledLossAgreesInShape) {
  const auto [rho, k_over_m] = GetParam();
  const double m = 25.0;
  const double k = k_over_m * m;

  analysis::ProtocolModelConfig acfg;
  acfg.offered_load = rho;
  acfg.message_length = m;
  const auto analytic = analysis::controlled_loss_at(acfg, k, 0.2);

  const auto sim =
      sweep(sweep_config(rho, m), net::ProtocolVariant::Controlled, {k});

  // The paper's own analytic/simulation agreement is a few points of loss;
  // accept the same order of agreement here (absolute + relative slack).
  EXPECT_NEAR(sim[0].p_loss, analytic.p_loss,
              0.03 + 0.35 * analytic.p_loss)
      << "rho=" << rho << " K=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AnalyticVsSimTest,
    ::testing::Values(std::make_tuple(0.25, 2.0), std::make_tuple(0.25, 4.0),
                      std::make_tuple(0.50, 2.0), std::make_tuple(0.50, 4.0),
                      std::make_tuple(0.75, 2.0),
                      std::make_tuple(0.75, 6.0)));

TEST(Theorem1, OptimalElementsMinimizeLossAmongAllCombos) {
  // Fix element (2) (same width for everyone) and element (4) on, exactly
  // the setting of Theorem 1; vary elements (1) and (3).
  const auto cfg = sweep_config(0.6, 25.0);
  const double k = 60.0;
  const double width = cfg.heuristic_window_width();

  std::map<std::pair<PositionRule, SplitRule>, double> loss;
  for (const auto pos : {PositionRule::OldestFirst, PositionRule::NewestFirst,
                         PositionRule::RandomGap}) {
    for (const auto split : {SplitRule::OlderHalf, SplitRule::YoungerHalf,
                             SplitRule::RandomHalf}) {
      auto make = [=](double deadline) {
        ControlPolicy p = ControlPolicy::optimal(deadline, width);
        p.position = pos;
        p.split = split;
        return p;
      };
      const auto pts =
          net::run_sweep(
              {.config = cfg, .constraints = {k}, .make_policy = make})
              .points();
      loss[{pos, split}] = pts[0].p_loss;
    }
  }
  const double optimal = loss[{PositionRule::OldestFirst,
                               SplitRule::OlderHalf}];
  for (const auto& [combo, value] : loss) {
    EXPECT_LE(optimal, value + 0.015)
        << to_string(combo.first) << "/" << to_string(combo.second);
  }
  // And the worst combination should be clearly worse, not a wash.
  double worst = 0.0;
  for (const auto& [combo, value] : loss) worst = std::max(worst, value);
  EXPECT_GT(worst, optimal + 0.01);
}

TEST(ElementFourAblation, DiscardHelpsUnderTightConstraints) {
  const auto cfg = sweep_config(0.75, 25.0);
  const double k = 50.0;
  const auto with = sweep(cfg, net::ProtocolVariant::Controlled, {k});
  const auto without = sweep(cfg, net::ProtocolVariant::FcfsNoDiscard, {k});
  EXPECT_LT(with[0].p_loss, without[0].p_loss);
}

TEST(VariantOrdering, ControlledBestThenFcfsThenLcfs) {
  const auto cfg = sweep_config(0.5, 25.0);
  const double k = 100.0;
  const double controlled =
      sweep(cfg, net::ProtocolVariant::Controlled, {k})[0].p_loss;
  const double fcfs =
      sweep(cfg, net::ProtocolVariant::FcfsNoDiscard, {k})[0].p_loss;
  const double lcfs =
      sweep(cfg, net::ProtocolVariant::LcfsNoDiscard, {k})[0].p_loss;
  EXPECT_LE(controlled, fcfs + 0.01);
  EXPECT_LT(fcfs, lcfs + 0.01);
}

TEST(AnalyticBaseline, FcfsFormulaMatchesFcfsSimulation) {
  analysis::ProtocolModelConfig acfg;
  acfg.offered_load = 0.5;
  acfg.message_length = 25.0;
  const double k = 100.0;
  const double analytic = analysis::fcfs_nodiscard_loss(acfg, k);
  const auto sim = sweep(sweep_config(0.5, 25.0),
                         net::ProtocolVariant::FcfsNoDiscard, {k});
  EXPECT_NEAR(sim[0].p_loss, analytic, 0.02 + 0.5 * analytic);
}

TEST(KZeroLimit, SimLossApproachesOneAnalyticApproachesClosedForm) {
  // The paper's waiting-time definition excludes the message's own
  // windowing process; the simulator counts true waits, so at K -> 0 the
  // sim loses everything while eq. 4.7 tends to rho/(1+rho). Both ends of
  // that gap are intentional (Section 4.2 discussion).
  analysis::ProtocolModelConfig acfg;
  acfg.offered_load = 0.5;
  acfg.message_length = 25.0;
  const auto analytic = analysis::controlled_loss_at(acfg, 0.0, 0.9);
  const double rho0 = acfg.lambda() * 26.0;
  EXPECT_NEAR(analytic.p_loss, rho0 / (1.0 + rho0), 1e-6);

  auto cfg = sweep_config(0.5, 25.0);
  cfg.t_end = 40000.0;
  const auto sim = sweep(cfg, net::ProtocolVariant::Controlled, {0.0});
  EXPECT_GT(sim[0].p_loss, 0.99);
}

TEST(LargeKLimit, EverythingDeliveredWhenStable) {
  auto cfg = sweep_config(0.5, 25.0);
  cfg.t_end = 60000.0;
  const auto sim = sweep(cfg, net::ProtocolVariant::Controlled, {2000.0});
  EXPECT_LT(sim[0].p_loss, 0.002);
}

class OverloadRegimeTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(OverloadRegimeTest, Eq47TracksSimulationBeyondCapacity) {
  // The impatient-customer system is stable for rho >= 1 (element 4 sheds
  // the excess); eq. 4.7 should keep tracking the simulation there, with
  // the usual waiting-definition bias (sim slightly higher).
  const auto [rho, k] = GetParam();
  analysis::ProtocolModelConfig acfg;
  acfg.offered_load = rho;
  acfg.message_length = 25.0;
  const auto analytic = analysis::controlled_loss_at(acfg, k, 0.5);

  auto cfg = sweep_config(rho, 25.0);
  cfg.replications = 2;
  const auto sim = sweep(cfg, net::ProtocolVariant::Controlled, {k});

  EXPECT_GT(sim[0].p_loss, 1.0 - 1.0 / analytic.rho - 0.02)
      << "must shed at least the capacity excess";
  EXPECT_NEAR(sim[0].p_loss, analytic.p_loss, 0.02 + 0.2 * analytic.p_loss);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OverloadRegimeTest,
    ::testing::Values(std::make_tuple(1.0, 100.0),
                      std::make_tuple(1.25, 100.0),
                      std::make_tuple(1.5, 200.0)));

TEST(Scheduling, SimMatchesRenewalPrediction) {
  // Mean scheduling slots per message should track the conditional
  // renewal value at the effective window load.
  auto cfg = sweep_config(0.5, 25.0);
  cfg.t_end = 200000.0;
  const auto sim = sweep(cfg, net::ProtocolVariant::Controlled, {500.0});
  const double predicted = analysis::conditional_scheduling_mean(
      analysis::optimal_window_load());
  EXPECT_NEAR(sim[0].mean_scheduling, predicted, 1.0);
}

}  // namespace
