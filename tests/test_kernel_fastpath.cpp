// The fast per-slot kernels against their retained reference paths, and
// the invariants the fast paths rely on: shadow-replica sampling does not
// change results, an injected divergent replica still trips the
// consistency check, and warmup-edge arrivals land in exactly one fate
// bucket. Suite names (NetworkKernel / AggregateKernel / KernelWarmupEdge)
// are targeted by the tier-1 TSan filter in scripts/tier1.sh.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "analysis/splitting.hpp"
#include "chan/arrivals.hpp"
#include "net/aggregate_sim.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "util/contract.hpp"

using tcw::chan::ArrivalProcess;
using tcw::chan::OnOffVoiceProcess;
using tcw::chan::PoissonProcess;
using tcw::core::ControlPolicy;
using tcw::net::AggregateConfig;
using tcw::net::AggregateSimulator;
using tcw::net::Network;
using tcw::net::NetworkConfig;
using tcw::net::SimMetrics;

namespace {

void append_stats(std::ostringstream& out, const tcw::sim::RunningStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf, " %llu/%a/%a/%a/%a",
                static_cast<unsigned long long>(s.count()), s.mean(), s.sum(),
                s.min(), s.max());
  out << buf;
}

// Exact textual fingerprint of every metric (hex floats), so EXPECT_EQ
// failures show which field diverged.
std::string fingerprint(const SimMetrics& m) {
  std::ostringstream out;
  out << m.arrivals << ' ' << m.delivered << ' ' << m.lost_sender << ' '
      << m.lost_receiver << ' ' << m.censored_lost << ' ' << m.pending_at_end;
  append_stats(out, m.wait_all);
  append_stats(out, m.wait_delivered);
  append_stats(out, m.scheduling);
  append_stats(out, m.process_slots.summary());
  append_stats(out, m.pseudo_backlog.summary());
  char buf[240];
  std::snprintf(buf, sizeof buf, " q:%a/%a/%a u:%a/%a/%a/%a",
                m.wait_p50.value(), m.wait_p90.value(), m.wait_p99.value(),
                m.usage.idle_slots(), m.usage.collision_slots(),
                m.usage.payload_slots(), m.usage.success_overhead_slots());
  out << buf;
  return out.str();
}

NetworkConfig base_network_config() {
  NetworkConfig cfg;
  cfg.policy = ControlPolicy::optimal(75.0, 85.0);
  cfg.message_length = 25.0;
  cfg.t_end = 30000.0;
  cfg.warmup = 3000.0;
  cfg.seed = 42;
  cfg.consistency_check_every = 64;
  return cfg;
}

// One arrival per scripted time, then silence until past any t_end.
class ScriptedProcess final : public ArrivalProcess {
 public:
  explicit ScriptedProcess(std::vector<double> times)
      : times_(std::move(times)) {}
  double next(tcw::sim::Rng&) override {
    if (i_ < times_.size()) return times_[i_++];
    return std::numeric_limits<double>::max();
  }
  double mean_rate() const override { return 0.0; }

 private:
  std::vector<double> times_;
  std::size_t i_ = 0;
};

}  // namespace

TEST(NetworkKernel, ShadowCountDoesNotChangeMetrics) {
  std::vector<std::string> prints;
  for (const std::size_t shadows : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, SIZE_MAX}) {
    NetworkConfig cfg = base_network_config();
    cfg.shadow_replicas = shadows;
    auto net = Network::homogeneous_poisson(cfg, 20, 0.02);
    prints.push_back(fingerprint(net.run()));
    EXPECT_TRUE(net.stations_consistent());
    const std::size_t expected =
        shadows == SIZE_MAX ? 20 : 1 + std::min<std::size_t>(shadows, 19);
    EXPECT_EQ(net.controller_replicas(), expected);
  }
  for (std::size_t i = 1; i < prints.size(); ++i) {
    EXPECT_EQ(prints[0], prints[i]) << "shadow config " << i;
  }
}

// Regression: with one station, every shadow setting (including the
// SIZE_MAX "replica per station" default, which used to underflow the
// replica budget) must resolve to exactly the canonical replica and run
// to completion reporting consistency.
TEST(NetworkKernel, SingleStationResolvesOneReplicaForAnyShadowCount) {
  for (const std::size_t shadows : {std::size_t{0}, std::size_t{5},
                                    SIZE_MAX}) {
    for (const bool reference : {false, true}) {
      NetworkConfig cfg = base_network_config();
      cfg.shadow_replicas = shadows;
      cfg.consistency_check_every = 1;
      cfg.reference_kernel = reference;
      auto net = Network::homogeneous_poisson(cfg, 1, 0.01);
      EXPECT_EQ(net.controller_replicas(), 1u)
          << "shadows=" << shadows << " reference=" << reference;
      net.run();
      EXPECT_TRUE(net.stations_consistent());
      EXPECT_GT(net.consistency_checks_run(), 0u);
    }
  }
}

// Regression: with only the canonical replica resolved, a desync
// injection has no peer to be observed against -- it would silently
// corrupt the simulation while reporting "consistent". run() must refuse.
TEST(NetworkKernel, DesyncInjectionRejectedWithoutAShadowPeer) {
  NetworkConfig cfg = base_network_config();
  cfg.consistency_check_every = 1;
  auto net = Network::homogeneous_poisson(cfg, 1, 0.02);
  net.desync_replica_for_test(0);
  EXPECT_THROW(net.run(), tcw::ContractViolation);
}

TEST(NetworkKernel, DesyncSentinelValueRejected) {
  NetworkConfig cfg = base_network_config();
  auto net = Network::homogeneous_poisson(cfg, 4, 0.02);
  EXPECT_THROW(net.desync_replica_for_test(SIZE_MAX),
               tcw::ContractViolation);
}

TEST(NetworkKernel, DesyncedReplicaTripsConsistencyForAnyShadowCount) {
  for (const std::size_t shadows : {std::size_t{1}, std::size_t{3},
                                    SIZE_MAX}) {
    NetworkConfig cfg = base_network_config();
    cfg.shadow_replicas = shadows;
    cfg.consistency_check_every = 1;
    auto net = Network::homogeneous_poisson(cfg, 10, 0.02);
    net.desync_replica_for_test(1);
    net.run();
    EXPECT_FALSE(net.stations_consistent()) << "shadows=" << shadows;
  }
}

TEST(NetworkKernel, FastMatchesReferencePoisson) {
  for (const std::size_t stations : {std::size_t{3}, std::size_t{25}}) {
    NetworkConfig fast_cfg = base_network_config();
    auto fast = Network::homogeneous_poisson(fast_cfg, stations, 0.02);
    NetworkConfig ref_cfg = base_network_config();
    ref_cfg.reference_kernel = true;
    auto ref = Network::homogeneous_poisson(ref_cfg, stations, 0.02);
    EXPECT_EQ(fingerprint(fast.run()), fingerprint(ref.run()))
        << "N=" << stations;
    EXPECT_TRUE(fast.stations_consistent());
    EXPECT_TRUE(ref.stations_consistent());
    EXPECT_EQ(fast.probe_steps(), ref.probe_steps());
  }
}

// Bursty talkspurt arrivals pile several messages onto one station, which
// exercises the restamp-after-success rotate and the purge sweep far more
// than iid Poisson does.
TEST(NetworkKernel, FastMatchesReferenceBursty) {
  const auto build = [](bool reference) {
    NetworkConfig cfg = base_network_config();
    cfg.policy = ControlPolicy::optimal(50.0, 60.0);
    cfg.reference_kernel = reference;
    Network net(cfg);
    for (int s = 0; s < 8; ++s) {
      net.add_station(std::make_unique<OnOffVoiceProcess>(300.0, 500.0,
                                                          40.0));
    }
    return net;
  };
  auto fast = build(false);
  auto ref = build(true);
  EXPECT_EQ(fingerprint(fast.run()), fingerprint(ref.run()));
  EXPECT_TRUE(fast.stations_consistent());
}

TEST(AggregateKernel, FastMatchesReferenceAcrossPolicies) {
  struct Case {
    ControlPolicy policy;
    double rate;
  };
  const std::vector<Case> cases{
      {ControlPolicy::optimal(75.0, 85.0), 0.02},
      {ControlPolicy::fcfs_baseline(75.0, 85.0), 0.02},
      {ControlPolicy::lcfs_baseline(75.0, 85.0), 0.02},
      // Overload: the backlog grows without bound, stressing deep
      // lower_bound positions and long prefix purges.
      {ControlPolicy::optimal(50.0, 30.0), 0.048},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto run = [&](bool reference) {
      AggregateConfig cfg;
      cfg.policy = cases[i].policy;
      cfg.message_length = 25.0;
      cfg.t_end = 40000.0;
      cfg.warmup = 4000.0;
      cfg.seed = 99;
      cfg.reference_kernel = reference;
      AggregateSimulator sim(
          cfg, std::make_unique<PoissonProcess>(cases[i].rate));
      std::string print = fingerprint(sim.run());
      return std::pair<std::string, std::uint64_t>{print, sim.probe_steps()};
    };
    const auto fast = run(false);
    const auto ref = run(true);
    EXPECT_EQ(fast.first, ref.first) << "case " << i;
    EXPECT_EQ(fast.second, ref.second) << "case " << i;
  }
}

// A Figure-7 point (rho' = 0.5, M = 25, K = 2M, heuristic width): most
// slots are certified quiescent and fast-forwarded, yet the probe count
// and every metric match the per-slot reference run, and the run's skips
// reach net.aggregate.skipped_slots.
TEST(AggregateKernel, QuiescentSkipKeepsProbeCountOfReference) {
  const double lambda = 0.5 / 25.0;
  const auto run = [&](bool reference) {
    AggregateConfig cfg;
    cfg.policy = ControlPolicy::optimal(
        50.0, tcw::analysis::optimal_window_load() / lambda);
    cfg.message_length = 25.0;
    cfg.t_end = 30000.0;
    cfg.warmup = 2000.0;
    cfg.seed = 7;
    cfg.reference_kernel = reference;
    auto sim = std::make_unique<AggregateSimulator>(
        cfg, std::make_unique<PoissonProcess>(lambda));
    sim->run();
    return sim;
  };
  const tcw::obs::Counter counter =
      tcw::obs::Registry::global().counter("net.aggregate.skipped_slots");
  const std::uint64_t before = counter.value();
  const auto fast = run(false);
  EXPECT_EQ(counter.value() - before, fast->skipped_slots());
  const auto ref = run(true);
  EXPECT_GT(fast->skipped_slots(), fast->probe_steps() / 2);
  EXPECT_EQ(ref->skipped_slots(), 0u);
  EXPECT_EQ(fast->probe_steps(), ref->probe_steps());
  EXPECT_EQ(fingerprint(fast->metrics()), fingerprint(ref->metrics()));
}

// Warmup cutoffs inside a certified quiescent stretch, integer and
// fractional: the fast kernel records the stretch's post-warmup slots as
// one run, the reference steps them one by one, and the two agree bit for
// bit. With no arrivals at all every slot is a one-probe empty process,
// so exactly t_end - ceil(warmup) process starts follow the warmup.
TEST(KernelWarmupEdge, AggregateWarmupInsideQuiescentStretch) {
  const double lambda = 0.25 / 25.0;
  for (const double warmup : {1000.0, 1000.5, 1003.25}) {
    const auto run = [&](bool reference, bool silent) {
      AggregateConfig cfg;
      cfg.policy = ControlPolicy::optimal(
          50.0, tcw::analysis::optimal_window_load() / lambda);
      cfg.t_end = silent ? 5000.0 : 20000.0;
      cfg.warmup = warmup;
      cfg.seed = 5;
      cfg.reference_kernel = reference;
      std::unique_ptr<ArrivalProcess> arrivals;
      if (silent) {
        arrivals = std::make_unique<ScriptedProcess>(std::vector<double>{});
      } else {
        arrivals = std::make_unique<PoissonProcess>(lambda);
      }
      auto sim = std::make_unique<AggregateSimulator>(cfg, std::move(arrivals));
      sim->run();
      return sim;
    };
    for (const bool silent : {false, true}) {
      const auto fast = run(false, silent);
      const auto ref = run(true, silent);
      const std::string label = "warmup=" + std::to_string(warmup) +
                                " silent=" + std::to_string(silent);
      EXPECT_GT(fast->skipped_slots(), 0u) << label;
      EXPECT_EQ(fast->probe_steps(), ref->probe_steps()) << label;
      EXPECT_EQ(fingerprint(fast->metrics()), fingerprint(ref->metrics()))
          << label;
      if (silent) {
        const auto starts =
            static_cast<std::uint64_t>(5000.0 - std::ceil(warmup));
        EXPECT_EQ(fast->metrics().pseudo_backlog.count(), starts) << label;
        EXPECT_EQ(ref->metrics().pseudo_backlog.count(), starts) << label;
      }
    }
  }
}

// A message arriving exactly at `warmup` must be counted as an arrival and
// land in exactly one fate bucket; one arriving just before warmup must be
// invisible to the metrics. Locks in the >= warmup convention everywhere
// (arrival counting, sender discard, delivery, finalize).
TEST(KernelWarmupEdge, AggregateCountsEdgeArrivalOnce) {
  for (const bool reference : {false, true}) {
    AggregateConfig cfg;
    cfg.policy = ControlPolicy::optimal(40.0, 50.0);
    cfg.t_end = 2000.0;
    cfg.warmup = 500.0;
    cfg.reference_kernel = reference;
    AggregateSimulator sim(cfg, std::make_unique<ScriptedProcess>(
                                    std::vector<double>{499.999, 500.0}));
    const SimMetrics m = sim.run();
    EXPECT_EQ(m.arrivals, 1u) << "reference=" << reference;
    EXPECT_EQ(m.delivered + m.lost_sender + m.lost_receiver +
                  m.censored_lost + m.pending_at_end,
              m.arrivals);
    // Plenty of idle channel: the edge arrival must actually deliver.
    EXPECT_EQ(m.delivered, 1u);
  }
}

TEST(KernelWarmupEdge, NetworkCountsEdgeArrivalOnce) {
  for (const bool reference : {false, true}) {
    NetworkConfig cfg;
    cfg.policy = ControlPolicy::optimal(40.0, 50.0);
    cfg.t_end = 2000.0;
    cfg.warmup = 500.0;
    cfg.consistency_check_every = 16;
    cfg.reference_kernel = reference;
    Network net(cfg);
    net.add_station(std::make_unique<ScriptedProcess>(
        std::vector<double>{499.999, 500.0}));
    net.add_station(std::make_unique<ScriptedProcess>(
        std::vector<double>{700.0}));
    const SimMetrics m = net.run();
    EXPECT_EQ(m.arrivals, 2u) << "reference=" << reference;
    EXPECT_EQ(m.delivered + m.lost_sender + m.lost_receiver +
                  m.censored_lost + m.pending_at_end,
              m.arrivals);
    EXPECT_EQ(m.delivered, 2u);
    EXPECT_TRUE(net.stations_consistent());
  }
}

// Under sender discard an expired edge arrival must land in lost_sender
// (not vanish, not double-count): starve the channel with a tiny window so
// the message cannot transmit before its deadline passes.
TEST(KernelWarmupEdge, ExpiredEdgeArrivalLandsInExactlyOneBucket) {
  for (const bool reference : {false, true}) {
    AggregateConfig cfg;
    cfg.policy = ControlPolicy::optimal(10.0, 0.5);  // K=10, crawl window
    cfg.t_end = 1000.0;
    cfg.warmup = 500.0;
    cfg.reference_kernel = reference;
    AggregateSimulator sim(cfg, std::make_unique<ScriptedProcess>(
                                    std::vector<double>{500.0}));
    const SimMetrics m = sim.run();
    EXPECT_EQ(m.arrivals, 1u);
    EXPECT_EQ(m.delivered + m.lost_sender + m.lost_receiver +
                  m.censored_lost + m.pending_at_end,
              1u)
        << "reference=" << reference;
  }
}
