#include "net/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/splitting.hpp"
#include "net/aggregate_sim.hpp"
#include "sim/batch_means.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "util/contract.hpp"

namespace {

namespace net = tcw::net;

net::SweepConfig quick_config() {
  net::SweepConfig cfg;
  cfg.offered_load = 0.5;
  cfg.message_length = 25.0;
  cfg.t_end = 30000.0;
  cfg.warmup = 2000.0;
  cfg.replications = 2;
  return cfg;
}

// Every sweep in this file drives the single entry point, net::run_sweep.
std::vector<net::SweepPoint> sweep(const net::SweepConfig& cfg,
                                   net::ProtocolVariant v,
                                   const std::vector<double>& grid) {
  return net::run_sweep({.config = cfg, .constraints = grid, .variant = v,
                         .make_policy = {}})
      .points();
}

TEST(LinearGrid, EndpointsAndSpacing) {
  const auto g = net::linear_grid(0.0, 100.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 100.0);
  EXPECT_DOUBLE_EQ(g[1], 25.0);
}

TEST(LinearGrid, DegenerateInputsRejected) {
  EXPECT_THROW(net::linear_grid(0.0, 1.0, 1), tcw::ContractViolation);
  EXPECT_THROW(net::linear_grid(1.0, 0.0, 3), tcw::ContractViolation);
}

TEST(PolicyFor, VariantsMapToExpectedShapes) {
  using tcw::core::PositionRule;
  const auto controlled =
      net::policy_for(net::ProtocolVariant::Controlled, 50.0, 10.0);
  EXPECT_TRUE(controlled.discard);
  const auto lcfs =
      net::policy_for(net::ProtocolVariant::LcfsNoDiscard, 50.0, 10.0);
  EXPECT_FALSE(lcfs.discard);
  EXPECT_EQ(lcfs.position, PositionRule::NewestFirst);
}

TEST(ToString, VariantNames) {
  EXPECT_EQ(net::to_string(net::ProtocolVariant::Controlled), "controlled");
  EXPECT_EQ(net::to_string(net::ProtocolVariant::LcfsNoDiscard),
            "lcfs-nodiscard");
}

TEST(SweepConfig, HeuristicWidthIsNuStarOverLambda) {
  const auto cfg = quick_config();
  EXPECT_NEAR(cfg.heuristic_window_width(),
              tcw::analysis::optimal_window_load() / cfg.lambda(), 1e-12);
}

TEST(Sweep, ProducesOnePointPerConstraint) {
  const auto pts = sweep(quick_config(), net::ProtocolVariant::Controlled,
                         {25.0, 50.0, 100.0});
  ASSERT_EQ(pts.size(), 3u);
  for (const auto& p : pts) {
    EXPECT_GE(p.p_loss, 0.0);
    EXPECT_LE(p.p_loss, 1.0);
    EXPECT_GT(p.messages, 0u);
  }
}

TEST(Sweep, LossDecreasesWithK) {
  const auto pts = sweep(quick_config(), net::ProtocolVariant::Controlled,
                         {25.0, 100.0, 400.0});
  EXPECT_GT(pts[0].p_loss, pts[2].p_loss);
}

TEST(Sweep, DeterministicGivenSeed) {
  const auto a = sweep(quick_config(), net::ProtocolVariant::Controlled,
                       {50.0});
  const auto b = sweep(quick_config(), net::ProtocolVariant::Controlled,
                       {50.0});
  EXPECT_DOUBLE_EQ(a[0].p_loss, b[0].p_loss);
}

TEST(Sweep, CustomPolicyFactoryIsHonored) {
  int calls = 0;
  const auto pts = net::run_sweep({.config = quick_config(),
                                  .constraints = {30.0, 60.0},
                                  .make_policy =
                                      [&calls](double k) {
                                        ++calls;
                                        return tcw::core::ControlPolicy::
                                            optimal(k, 40.0);
                                      }})
                       .points();
  EXPECT_EQ(pts.size(), 2u);
  EXPECT_EQ(calls, 2 * quick_config().replications);
}

TEST(Sweep, SingleReplicationUsesWithinRunCi) {
  auto cfg = quick_config();
  cfg.replications = 1;
  const auto pts = sweep(cfg, net::ProtocolVariant::Controlled, {30.0});
  EXPECT_GT(pts[0].ci95, 0.0);
}

TEST(Sweep, SeedsAreHashDerivedPerJob) {
  // The engine must seed job (ki, rep) with
  // derive_stream_seed(base_seed, ki, rep): a replication re-run by hand
  // with that seed reproduces the sweep's per-rep simulator output.
  auto cfg = quick_config();
  cfg.replications = 1;
  const double k = 50.0;
  const auto pts = sweep(cfg, net::ProtocolVariant::Controlled, {k});

  tcw::net::AggregateConfig sim_cfg;
  sim_cfg.policy = net::policy_for(net::ProtocolVariant::Controlled, k,
                                   cfg.heuristic_window_width());
  sim_cfg.message_length = cfg.message_length;
  sim_cfg.success_overhead = cfg.success_overhead;
  sim_cfg.t_end = cfg.t_end;
  sim_cfg.warmup = cfg.warmup;
  sim_cfg.seed = tcw::sim::derive_stream_seed(cfg.base_seed, 0, 0);
  tcw::net::AggregateSimulator sim(
      sim_cfg, std::make_unique<tcw::chan::PoissonProcess>(cfg.lambda()));
  const auto& m = sim.run();
  EXPECT_EQ(pts[0].p_loss, m.p_loss());
  EXPECT_EQ(pts[0].messages, m.decided());
}

TEST(Sweep, AcrossReplicationCiUsesStudentT) {
  // Recompute the across-replication interval by hand: run each
  // replication with the engine's derived seed, then apply the t-quantile
  // on the replication means. The sweep's ci95 must match (and must not
  // be any single rep's binomial CI, the pre-fix behavior).
  auto cfg = quick_config();
  cfg.replications = 3;
  const double k = 50.0;
  const auto pts = sweep(cfg, net::ProtocolVariant::Controlled, {k});

  tcw::sim::RunningStats loss;
  double last_rep_binomial_ci = 0.0;
  for (int rep = 0; rep < cfg.replications; ++rep) {
    tcw::net::AggregateConfig sim_cfg;
    sim_cfg.policy = net::policy_for(net::ProtocolVariant::Controlled, k,
                                     cfg.heuristic_window_width());
    sim_cfg.message_length = cfg.message_length;
    sim_cfg.success_overhead = cfg.success_overhead;
    sim_cfg.t_end = cfg.t_end;
    sim_cfg.warmup = cfg.warmup;
    sim_cfg.seed = tcw::sim::derive_stream_seed(
        cfg.base_seed, 0, static_cast<std::uint64_t>(rep));
    tcw::net::AggregateSimulator sim(
        sim_cfg, std::make_unique<tcw::chan::PoissonProcess>(cfg.lambda()));
    const auto& m = sim.run();
    loss.add(m.p_loss());
    last_rep_binomial_ci = m.p_loss_ci95();
  }
  const double expected = tcw::sim::student_t_975(2) * loss.stddev() /
                          std::sqrt(3.0);
  EXPECT_NEAR(pts[0].ci95, expected, 1e-12);
  EXPECT_NEAR(pts[0].p_loss, loss.mean(), 1e-12);
  // Guard against the old bug resurfacing: the across-rep interval is not
  // the last replication's within-run binomial CI.
  EXPECT_NE(pts[0].ci95, last_rep_binomial_ci);
}

TEST(Sweep, ControlledBeatsBaselinesAtModerateK) {
  const auto cfg = quick_config();
  const std::vector<double> grid{75.0};
  const auto controlled = sweep(cfg, net::ProtocolVariant::Controlled, grid);
  const auto lcfs = sweep(cfg, net::ProtocolVariant::LcfsNoDiscard, grid);
  EXPECT_LT(controlled[0].p_loss, lcfs[0].p_loss + 0.02);
}

}  // namespace
