// The multi-channel sharded channel model (net/channel_plan.hpp):
// randomized {channels, selector, engine, N, rho} conformance between the
// fast kernels and the retained reference steppers, the C = 1
// selector-independence contract (the selector is never consulted, so
// every selector yields the bit-identical single-channel run), and the
// per-channel slot-outcome tallies summing to the run totals. Suite name
// MultiChannel is targeted by the tier-1 TSan filter in scripts/tier1.sh.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/splitting.hpp"
#include "chan/arrivals.hpp"
#include "net/aggregate_sim.hpp"
#include "net/channel_plan.hpp"
#include "net/network.hpp"
#include "obs/channel_counters.hpp"
#include "obs/registry.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace {

namespace net = tcw::net;
namespace obs = tcw::obs;
using tcw::core::ControlPolicy;
using net::ChannelSelectorKind;
using net::EngineKind;

constexpr EngineKind kKinds[] = {EngineKind::Window, EngineKind::SlottedAloha,
                                 EngineKind::DynamicAloha};
constexpr ChannelSelectorKind kSelectors[] = {
    ChannelSelectorKind::HashShard, ChannelSelectorKind::UniformRandom,
    ChannelSelectorKind::LeastLoaded, ChannelSelectorKind::DeadlineHop};

void append_stats(std::ostringstream& out, const char* name,
                  const tcw::sim::RunningStats& s) {
  out << ' ' << name << ':' << s.count();
  char buf[160];
  std::snprintf(buf, sizeof buf, "/%a/%a/%a/%a", s.mean(), s.sum(), s.min(),
                s.max());
  out << buf;
}

std::string fingerprint(const net::SimMetrics& m) {
  std::ostringstream out;
  out << "arr:" << m.arrivals << " del:" << m.delivered
      << " ls:" << m.lost_sender << " lr:" << m.lost_receiver
      << " cen:" << m.censored_lost << " pend:" << m.pending_at_end;
  append_stats(out, "wait", m.wait_all);
  append_stats(out, "sched", m.scheduling);
  append_stats(out, "proc", m.process_slots.summary());
  char buf[240];
  std::snprintf(buf, sizeof buf, " use:%a/%a/%a/%a", m.usage.idle_slots(),
                m.usage.collision_slots(), m.usage.payload_slots(),
                m.usage.success_overhead_slots());
  out << buf;
  return out.str();
}

net::PolicyConfig make_mac(EngineKind kind, std::uint32_t channels,
                           ChannelSelectorKind selector, double lambda,
                           double skew = 0.0) {
  net::PolicyConfig mac;
  mac.engine.kind = kind;
  if (kind == EngineKind::DynamicAloha) mac.engine.arrival_rate = lambda;
  mac.channel.channels = channels;
  mac.channel.selector = selector;
  mac.channel.skew = skew;
  return mac;
}

std::string run_aggregate(const net::PolicyConfig& mac, double lambda,
                          double k, bool reference, double t_end = 6000.0) {
  net::AggregateConfig cfg;
  cfg.policy = ControlPolicy::optimal(
      k, tcw::analysis::optimal_window_load() / lambda);
  cfg.mac = mac;
  cfg.message_length = 4.0;
  cfg.t_end = t_end;
  cfg.warmup = t_end / 10.0;
  cfg.seed = 20261983;
  cfg.reference_kernel = reference;
  net::AggregateSimulator sim(
      cfg, std::make_unique<tcw::chan::PoissonProcess>(lambda));
  return fingerprint(sim.run());
}

std::string run_network(const net::PolicyConfig& mac, std::size_t stations,
                        double lambda, double k, bool reference) {
  net::NetworkConfig cfg;
  cfg.policy = ControlPolicy::optimal(
      k, tcw::analysis::optimal_window_load() / (lambda * stations));
  cfg.mac = mac;
  cfg.message_length = 4.0;
  cfg.t_end = 4000.0;
  cfg.warmup = 400.0;
  cfg.seed = 7;
  cfg.consistency_check_every = 256;
  cfg.reference_kernel = reference;
  auto sim = net::Network::homogeneous_poisson(cfg, stations, lambda);
  const std::string fp = fingerprint(sim.run());
  EXPECT_TRUE(sim.stations_consistent());
  return fp;
}

TEST(MultiChannel, RandomizedConformanceFastVsReference) {
  // Deterministically-drawn {C, selector, engine, N, rho} tuples: the
  // fast kernels and the reference steppers must agree bit-for-bit on
  // every one, for both the aggregate and the finite-station model.
  tcw::sim::SplitMix64 draw(0xC4A27E15ULL);
  for (int trial = 0; trial < 12; ++trial) {
    const std::uint32_t channels = 1 + draw() % 3;
    const ChannelSelectorKind selector = kSelectors[draw() % 4];
    const EngineKind kind = kKinds[draw() % 3];
    const std::size_t stations = 5 + draw() % 40;
    const double rho = 0.3 + 0.1 * static_cast<double>(draw() % 7);
    const double lambda = rho / 4.0;
    const double k = 8.0 + 4.0 * static_cast<double>(draw() % 4);
    const net::PolicyConfig mac = make_mac(kind, channels, selector, lambda);
    SCOPED_TRACE(testing::Message()
                 << "C=" << channels << " sel=" << net::to_string(selector)
                 << " engine=" << net::to_string(kind) << " N=" << stations
                 << " rho=" << rho << " K=" << k);
    EXPECT_EQ(run_aggregate(mac, lambda, k, false),
              run_aggregate(mac, lambda, k, true));
    const double station_lambda = lambda / static_cast<double>(stations);
    net::PolicyConfig nmac = mac;
    if (kind == EngineKind::DynamicAloha) nmac.engine.arrival_rate = lambda;
    EXPECT_EQ(run_network(nmac, stations, station_lambda, k, false),
              run_network(nmac, stations, station_lambda, k, true));
  }
}

TEST(MultiChannel, SingleChannelIgnoresSelector) {
  // With C = 1 the selector is never consulted and no selector stream is
  // created: every selector (and any skew) must reproduce the default
  // single-channel run bit-for-bit, on both kernel paths.
  const double lambda = 0.15;
  const double k = 16.0;
  const net::PolicyConfig def;  // C = 1, hash-shard, skew 0
  const std::string baseline = run_aggregate(def, lambda, k, false);
  for (const ChannelSelectorKind selector : kSelectors) {
    const net::PolicyConfig mac =
        make_mac(EngineKind::Window, 1, selector, lambda, /*skew=*/0.25);
    EXPECT_EQ(run_aggregate(mac, lambda, k, false), baseline)
        << net::to_string(selector);
    EXPECT_EQ(run_aggregate(mac, lambda, k, true), baseline)
        << net::to_string(selector);
  }
}

TEST(MultiChannel, AggregatePerChannelTalliesSumToRunTotals) {
  obs::Registry::global().reset();
  const double lambda = 0.2;
  const net::PolicyConfig mac = make_mac(
      EngineKind::Window, 3, ChannelSelectorKind::LeastLoaded, lambda);
  run_aggregate(mac, lambda, 16.0, /*reference=*/false);
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  for (const char* outcome : {"probe_slots", "idle_slots", "collisions",
                              "successes", "sender_discards"}) {
    std::uint64_t per_channel = 0;
    for (std::uint32_t c = 0; c < 3; ++c) {
      per_channel +=
          snap.counter(obs::channel_counter_name("net.aggregate", c, outcome));
    }
    EXPECT_EQ(per_channel,
              snap.counter(std::string("net.aggregate.") + outcome))
        << outcome;
  }
  EXPECT_GT(snap.counter("net.aggregate.successes"), 0u);
}

TEST(MultiChannel, NetworkPerChannelTalliesSumToRunTotals) {
  obs::Registry::global().reset();
  const double station_lambda = 0.01;
  net::PolicyConfig mac = make_mac(EngineKind::Window, 2,
                                   ChannelSelectorKind::HashShard, 0.0);
  run_network(mac, 20, station_lambda, 16.0, /*reference=*/false);
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  for (const char* outcome : {"probe_slots", "idle_slots", "collisions",
                              "successes", "sender_discards"}) {
    std::uint64_t per_channel = 0;
    for (std::uint32_t c = 0; c < 2; ++c) {
      per_channel +=
          snap.counter(obs::channel_counter_name("net.network", c, outcome));
    }
    EXPECT_EQ(per_channel,
              snap.counter(std::string("net.network.") + outcome))
        << outcome;
  }
  EXPECT_GT(snap.counter("net.network.successes"), 0u);
}

TEST(MultiChannel, SkewedShardMapLoadsChannelZeroHeaviest) {
  // HashShard with positive skew weights channel c by (1 - skew)^c:
  // channel 0 must see at least as many successes as the tail channel.
  obs::Registry::global().reset();
  const double lambda = 0.2;
  const net::PolicyConfig mac =
      make_mac(EngineKind::Window, 3, ChannelSelectorKind::HashShard, lambda,
               /*skew=*/0.6);
  run_aggregate(mac, lambda, 16.0, /*reference=*/false, /*t_end=*/20000.0);
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  const auto successes = [&](std::uint32_t c) {
    return snap.counter(
        obs::channel_counter_name("net.aggregate", c, "successes"));
  };
  EXPECT_GT(successes(0), successes(2));
}

}  // namespace
