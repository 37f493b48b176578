#include "net/network.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "net/aggregate_sim.hpp"
#include "util/contract.hpp"

namespace {

using tcw::core::ControlPolicy;
using tcw::net::Network;
using tcw::net::NetworkConfig;
using tcw::net::SimMetrics;

NetworkConfig base_config(double deadline, double width) {
  NetworkConfig cfg;
  cfg.policy = ControlPolicy::optimal(deadline, width);
  cfg.message_length = 25.0;
  cfg.t_end = 20000.0;
  cfg.warmup = 1000.0;
  cfg.seed = 3;
  cfg.consistency_check_every = 64;
  return cfg;
}

TEST(Network, RequiresStations) {
  Network net(base_config(100.0, 50.0));
  EXPECT_THROW(net.run(), tcw::ContractViolation);
}

TEST(Network, StationsStayConsistent) {
  auto net = Network::homogeneous_poisson(base_config(100.0, 50.0), 8, 0.02);
  net.run();
  EXPECT_GT(net.consistency_checks_run(), 10u);
  EXPECT_TRUE(net.stations_consistent());
}

TEST(Network, ConsistencyHoldsForEveryPolicyShape) {
  for (const auto& policy :
       {ControlPolicy::optimal(80.0, 40.0),
        ControlPolicy::fcfs_baseline(80.0, 40.0),
        ControlPolicy::lcfs_baseline(80.0, 40.0),
        ControlPolicy::random_baseline(80.0, 40.0)}) {
    NetworkConfig cfg = base_config(80.0, 40.0);
    cfg.policy = policy;
    cfg.t_end = 8000.0;
    auto net = Network::homogeneous_poisson(cfg, 5, 0.02);
    net.run();
    EXPECT_TRUE(net.stations_consistent())
        << to_string(policy.position) << "/" << to_string(policy.split);
  }
}

TEST(Network, MessageConservation) {
  auto net = Network::homogeneous_poisson(base_config(100.0, 50.0), 6, 0.02);
  const SimMetrics& m = net.run();
  EXPECT_EQ(m.arrivals, m.delivered + m.lost_sender + m.lost_receiver +
                            m.censored_lost + m.pending_at_end);
}

TEST(Network, DeterministicForSeed) {
  auto a = Network::homogeneous_poisson(base_config(100.0, 50.0), 6, 0.02);
  auto b = Network::homogeneous_poisson(base_config(100.0, 50.0), 6, 0.02);
  const SimMetrics& ma = a.run();
  const SimMetrics& mb = b.run();
  EXPECT_EQ(ma.delivered, mb.delivered);
  EXPECT_DOUBLE_EQ(ma.wait_all.mean(), mb.wait_all.mean());
}

TEST(Network, ManyStationsApproachAggregateModel) {
  // Same workload through the finite-station network and the
  // infinite-population simulator; loss should agree within a few points.
  const double deadline = 80.0;
  const double width = 54.0;
  const double rate = 0.02;  // rho' = 0.5

  NetworkConfig ncfg = base_config(deadline, width);
  ncfg.t_end = 60000.0;
  ncfg.warmup = 3000.0;
  ncfg.consistency_check_every = 0;  // speed
  auto net = Network::homogeneous_poisson(ncfg, 32, rate);
  const double net_loss = net.run().p_loss();

  tcw::net::AggregateConfig acfg;
  acfg.policy = ControlPolicy::optimal(deadline, width);
  acfg.message_length = 25.0;
  acfg.t_end = 60000.0;
  acfg.warmup = 3000.0;
  acfg.seed = 3;
  tcw::net::AggregateSimulator agg(
      acfg, std::make_unique<tcw::chan::PoissonProcess>(rate));
  const double agg_loss = agg.run().p_loss();

  EXPECT_NEAR(net_loss, agg_loss, 0.03);
}

TEST(Network, SingleStationNeverCollides) {
  auto net = Network::homogeneous_poisson(base_config(200.0, 50.0), 1, 0.02);
  const SimMetrics& m = net.run();
  EXPECT_DOUBLE_EQ(m.usage.collision_slots(), 0.0);
  EXPECT_GT(m.delivered, 0u);
}

TEST(Network, MixedTrafficSources) {
  NetworkConfig cfg = base_config(150.0, 60.0);
  Network net(cfg);
  net.add_station(std::make_unique<tcw::chan::PoissonProcess>(0.01));
  net.add_station(
      std::make_unique<tcw::chan::OnOffVoiceProcess>(400.0, 600.0, 100.0));
  net.add_station(
      std::make_unique<tcw::chan::PeriodicJitterProcess>(120.0, 30.0));
  const SimMetrics& m = net.run();
  EXPECT_GT(m.delivered, 0u);
  EXPECT_TRUE(net.stations_consistent());
}

TEST(Network, DeliveredRespectDeadline) {
  auto net = Network::homogeneous_poisson(base_config(60.0, 50.0), 6, 0.02);
  const SimMetrics& m = net.run();
  EXPECT_LE(m.wait_delivered.max(), 60.0);
}

TEST(Network, StationCountAccessor) {
  auto net = Network::homogeneous_poisson(base_config(100.0, 50.0), 7, 0.02);
  EXPECT_EQ(net.station_count(), 7u);
}

// Non-finite clock knobs used to pass construction: t_end = +inf never ends
// the slot loop, and a NaN overhead or infinite message length turns the
// clock into NaN/inf after the first success, quietly truncating the run.
TEST(Network, RejectsNonFiniteOrNegativeClockKnobs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto construct = [](auto mutate) {
    NetworkConfig cfg = base_config(100.0, 50.0);
    mutate(cfg);
    Network net(cfg);
  };
  EXPECT_THROW(construct([&](NetworkConfig& c) { c.t_end = inf; }),
               tcw::ContractViolation);
  EXPECT_THROW(construct([&](NetworkConfig& c) { c.t_end = nan; }),
               tcw::ContractViolation);
  EXPECT_THROW(construct([&](NetworkConfig& c) { c.message_length = inf; }),
               tcw::ContractViolation);
  EXPECT_THROW(construct([&](NetworkConfig& c) { c.message_length = nan; }),
               tcw::ContractViolation);
  EXPECT_THROW(construct([&](NetworkConfig& c) { c.success_overhead = nan; }),
               tcw::ContractViolation);
  EXPECT_THROW(construct([&](NetworkConfig& c) { c.success_overhead = inf; }),
               tcw::ContractViolation);
  EXPECT_THROW(
      construct([&](NetworkConfig& c) { c.success_overhead = -1.0; }),
      tcw::ContractViolation);
  EXPECT_NO_THROW(
      construct([&](NetworkConfig& c) { c.success_overhead = 0.0; }));
}

TEST(Network, RunTwiceRejected) {
  auto net = Network::homogeneous_poisson(base_config(100.0, 50.0), 3, 0.02);
  net.run();
  EXPECT_THROW(net.run(), tcw::ContractViolation);
}

TEST(Network, BurstyStationStressWithRestamping) {
  // A two-station network where one station frequently holds several
  // messages inside one window, exercising the re-stamp path.
  NetworkConfig cfg = base_config(400.0, 80.0);
  cfg.t_end = 30000.0;
  Network net(cfg);
  // Bursty: long silences, tight packet trains.
  net.add_station(
      std::make_unique<tcw::chan::OnOffVoiceProcess>(200.0, 800.0, 10.0));
  net.add_station(std::make_unique<tcw::chan::PoissonProcess>(0.005));
  const SimMetrics& m = net.run();
  EXPECT_TRUE(net.stations_consistent());
  EXPECT_EQ(m.arrivals, m.delivered + m.lost_sender + m.lost_receiver +
                            m.censored_lost + m.pending_at_end);
  EXPECT_GT(m.delivered, 0u);
}

}  // namespace
