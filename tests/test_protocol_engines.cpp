// The pluggable MAC engine seam (net/protocol_engine.hpp): seed
// derivation never aliases across engines, every engine satisfies the
// kernel conformance contract (fate-bucket conservation, feedback-only
// shadow consistency, discard accounting, warmup edge), and a policy-grid
// sweep is bit-identical scheduled alone vs alongside other engines on
// one shared scheduler. Suite names (ProtocolEngineSeeds /
// ProtocolEngineConformance / PolicyGridDeterminism) are targeted by the
// tier-1 TSan filter in scripts/tier1.sh.
#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chan/arrivals.hpp"
#include "net/channel_plan.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "net/aggregate_sim.hpp"
#include "net/experiment.hpp"
#include "net/network.hpp"
#include "util/contract.hpp"

namespace {

namespace net = tcw::net;
namespace exec = tcw::exec;
using tcw::core::ControlPolicy;
using net::EngineConfig;
using net::EngineKind;

constexpr EngineKind kAllKinds[] = {EngineKind::Window,
                                    EngineKind::SlottedAloha,
                                    EngineKind::DynamicAloha};

EngineConfig engine_config(EngineKind kind, double arrival_rate) {
  EngineConfig engine;
  engine.kind = kind;
  engine.arrival_rate = arrival_rate;  // ignored by non-dynamic engines
  return engine;
}

// One arrival per scripted time, then silence until past any t_end.
class ScriptedProcess final : public tcw::chan::ArrivalProcess {
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

TEST(ProtocolEngineSeeds, WindowStreamSeedIsTheRawBase) {
  // Bit-identity contract: the window engine must run on exactly the
  // seed-era protocol stream.
  const std::uint64_t base = 0x7C57C01DULL;
  EXPECT_EQ(net::engine_stream_seed(EngineKind::Window, base), base);
}

TEST(ProtocolEngineSeeds, StreamAndCoinSeedsNeverAlias) {
  // Two engines sharing one suite (same base seeds) must never draw from
  // each other's protocol stream, and kernel-local coin streams must not
  // alias the raw simulation seed (the arrival stream) or any protocol
  // stream.
  const std::uint64_t base = 20261983;
  std::set<std::uint64_t> seen{base};
  for (const EngineKind kind : kAllKinds) {
    const std::uint64_t stream = net::engine_stream_seed(kind, base);
    const std::uint64_t coin = net::engine_coin_seed(kind, base);
    if (kind != EngineKind::Window) {
      EXPECT_TRUE(seen.insert(stream).second) << net::to_string(kind);
    }
    EXPECT_TRUE(seen.insert(coin).second) << net::to_string(kind);
  }
}

TEST(ProtocolEngineParsing, EngineNamesRoundTripCaseInsensitively) {
  for (const EngineKind kind : kAllKinds) {
    const std::string name = net::to_string(kind);
    EngineKind parsed = EngineKind::Window;
    EXPECT_TRUE(net::engine_kind_from_string(name, &parsed)) << name;
    EXPECT_EQ(parsed, kind) << name;
    // Upper-cased spelling parses to the same engine.
    std::string upper = name;
    for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
    parsed = EngineKind::Window;
    EXPECT_TRUE(net::engine_kind_from_string(upper, &parsed)) << upper;
    EXPECT_EQ(parsed, kind) << upper;
    // Every valid name appears in the error-message catalog.
    EXPECT_NE(net::engine_kind_names().find(name), std::string::npos);
  }
}

TEST(ProtocolEngineParsing, UnknownEngineNameLeavesOutputUntouched) {
  EngineKind parsed = EngineKind::DynamicAloha;
  EXPECT_FALSE(net::engine_kind_from_string("csma-cd", &parsed));
  EXPECT_FALSE(net::engine_kind_from_string("", &parsed));
  EXPECT_EQ(parsed, EngineKind::DynamicAloha);
}

TEST(ProtocolEngineParsing, SelectorNamesRoundTripCaseInsensitively) {
  constexpr net::ChannelSelectorKind kSelectors[] = {
      net::ChannelSelectorKind::HashShard,
      net::ChannelSelectorKind::UniformRandom,
      net::ChannelSelectorKind::LeastLoaded,
      net::ChannelSelectorKind::DeadlineHop};
  for (const net::ChannelSelectorKind kind : kSelectors) {
    const std::string name = net::to_string(kind);
    net::ChannelSelectorKind parsed = net::ChannelSelectorKind::HashShard;
    EXPECT_TRUE(net::channel_selector_from_string(name, &parsed)) << name;
    EXPECT_EQ(parsed, kind) << name;
    std::string upper = name;
    for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
    parsed = net::ChannelSelectorKind::HashShard;
    EXPECT_TRUE(net::channel_selector_from_string(upper, &parsed)) << upper;
    EXPECT_EQ(parsed, kind) << upper;
    EXPECT_NE(net::channel_selector_names().find(name), std::string::npos);
  }
}

TEST(ProtocolEngineParsing, UnknownSelectorNameLeavesOutputUntouched) {
  auto parsed = net::ChannelSelectorKind::DeadlineHop;
  EXPECT_FALSE(net::channel_selector_from_string("round-robin", &parsed));
  EXPECT_FALSE(net::channel_selector_from_string("", &parsed));
  EXPECT_EQ(parsed, net::ChannelSelectorKind::DeadlineHop);
}

TEST(ProtocolEngineConformance, FateBucketsConserveArrivalsOnBothKernels) {
  for (const EngineKind kind : kAllKinds) {
    // Finite-station kernel.
    net::NetworkConfig ncfg;
    ncfg.policy = ControlPolicy::optimal(75.0, 85.0);
    ncfg.mac.engine = engine_config(kind, 0.02);
    ncfg.t_end = 20000.0;
    ncfg.warmup = 2000.0;
    ncfg.seed = 42;
    ncfg.consistency_check_every = 32;
    auto network = net::Network::homogeneous_poisson(ncfg, 10, 0.02);
    const net::SimMetrics& nm = network.run();
    EXPECT_EQ(nm.arrivals, nm.delivered + nm.lost_sender + nm.lost_receiver +
                               nm.censored_lost + nm.pending_at_end)
        << net::to_string(kind);
    EXPECT_GT(nm.delivered, 0u) << net::to_string(kind);
    EXPECT_TRUE(network.stations_consistent()) << net::to_string(kind);

    // Infinite-population kernel.
    net::AggregateConfig acfg;
    acfg.policy = ControlPolicy::optimal(75.0, 85.0);
    acfg.mac.engine = engine_config(kind, 0.02);
    acfg.t_end = 20000.0;
    acfg.warmup = 2000.0;
    acfg.seed = 7;
    net::AggregateSimulator sim(
        acfg, std::make_unique<tcw::chan::PoissonProcess>(0.02));
    const net::SimMetrics& am = sim.run();
    EXPECT_EQ(am.arrivals, am.delivered + am.lost_sender + am.lost_receiver +
                               am.censored_lost + am.pending_at_end)
        << net::to_string(kind);
    EXPECT_GT(am.delivered, 0u) << net::to_string(kind);
  }
}

TEST(ProtocolEngineConformance, ShadowReplicasStayConsistentEverySlot) {
  // Engines are deterministic functions of the shared feedback, so a
  // per-slot full-state audit across all replicas must never trip.
  for (const EngineKind kind : kAllKinds) {
    net::NetworkConfig cfg;
    cfg.policy = ControlPolicy::optimal(60.0, 70.0);
    cfg.mac.engine = engine_config(kind, 0.03);
    cfg.t_end = 8000.0;
    cfg.warmup = 800.0;
    cfg.consistency_check_every = 1;
    auto network = net::Network::homogeneous_poisson(cfg, 8, 0.03);
    network.run();
    EXPECT_TRUE(network.stations_consistent()) << net::to_string(kind);
    EXPECT_GT(network.consistency_checks_run(), 0u);
  }
}

TEST(ProtocolEngineConformance, DesyncDetectionMatchesEngineStatefulness) {
  // A desynchronized replica must trip the audit for stateful engines
  // (window splitting state, the dynamic-ALOHA backlog estimate). The
  // fixed-p engine is memoryless: a desynchronized replica of a
  // stateless protocol is undetectable by construction, and the audit
  // must (documented) still report consistency.
  for (const EngineKind kind : kAllKinds) {
    net::NetworkConfig cfg;
    cfg.policy = ControlPolicy::optimal(60.0, 70.0);
    cfg.mac.engine = engine_config(kind, 0.03);
    cfg.t_end = 8000.0;
    cfg.warmup = 800.0;
    cfg.consistency_check_every = 1;
    auto network = net::Network::homogeneous_poisson(cfg, 8, 0.03);
    network.desync_replica_for_test(1);
    network.run();
    const bool detectable = kind != EngineKind::SlottedAloha;
    EXPECT_EQ(network.stations_consistent(), !detectable)
        << net::to_string(kind);
  }
}

TEST(ProtocolEngineConformance, AlohaDiscardsExpiredSendersUnderTinyDeadline) {
  // Element (4) for memoryless engines: a deadline shorter than the
  // expected access delay must produce sender discards, and conservation
  // must still hold.
  for (const EngineKind kind :
       {EngineKind::SlottedAloha, EngineKind::DynamicAloha}) {
    net::AggregateConfig cfg;
    cfg.policy = ControlPolicy::optimal(4.0, 10.0);  // K = 4 slots, M = 25
    cfg.mac.engine = engine_config(kind, 0.02);
    cfg.t_end = 20000.0;
    cfg.warmup = 2000.0;
    net::AggregateSimulator sim(
        cfg, std::make_unique<tcw::chan::PoissonProcess>(0.02));
    const net::SimMetrics& m = sim.run();
    EXPECT_GT(m.lost_sender, 0u) << net::to_string(kind);
    EXPECT_EQ(m.arrivals, m.delivered + m.lost_sender + m.lost_receiver +
                              m.censored_lost + m.pending_at_end)
        << net::to_string(kind);
  }
}

TEST(ProtocolEngineConformance, WarmupEdgeArrivalLandsInOneBucket) {
  for (const EngineKind kind : kAllKinds) {
    net::AggregateConfig cfg;
    cfg.policy = ControlPolicy::optimal(40.0, 50.0);
    cfg.mac.engine = engine_config(kind, 0.0);
    cfg.t_end = 2000.0;
    cfg.warmup = 500.0;
    net::AggregateSimulator sim(cfg, std::make_unique<ScriptedProcess>(
                                         std::vector<double>{499.999, 500.0}));
    const net::SimMetrics& m = sim.run();
    EXPECT_EQ(m.arrivals, 1u) << net::to_string(kind);
    EXPECT_EQ(m.delivered + m.lost_sender + m.lost_receiver +
                  m.censored_lost + m.pending_at_end,
              m.arrivals)
        << net::to_string(kind);
    // Plenty of idle channel: the edge arrival must actually deliver.
    EXPECT_EQ(m.delivered, 1u) << net::to_string(kind);
  }
}

TEST(ProtocolEngineConformance, ReferenceKernelCoversEveryEngine) {
  // The retained seed-era paths used to be window-only; the multi-channel
  // conformance grid needs them under every engine, so each kernel's
  // reference path must now run any EngineKind bit-identically to its
  // fast path.
  for (const EngineKind kind : kAllKinds) {
    net::AggregateConfig acfg;
    acfg.policy = ControlPolicy::optimal(75.0, 85.0);
    acfg.mac.engine = engine_config(kind, 0.02);
    acfg.t_end = 4000.0;
    acfg.warmup = 400.0;
    acfg.reference_kernel = true;
    net::AggregateSimulator ref(
        acfg, std::make_unique<tcw::chan::PoissonProcess>(0.02));
    const net::SimMetrics ref_m = ref.run();
    acfg.reference_kernel = false;
    net::AggregateSimulator fast(
        acfg, std::make_unique<tcw::chan::PoissonProcess>(0.02));
    const net::SimMetrics fast_m = fast.run();
    EXPECT_EQ(ref_m.p_loss(), fast_m.p_loss()) << net::to_string(kind);
    EXPECT_EQ(ref_m.delivered, fast_m.delivered) << net::to_string(kind);

    net::NetworkConfig ncfg;
    ncfg.policy = ControlPolicy::optimal(75.0, 85.0);
    ncfg.mac.engine = engine_config(kind, 0.02);
    ncfg.t_end = 4000.0;
    ncfg.warmup = 400.0;
    ncfg.reference_kernel = true;
    auto ref_net = net::Network::homogeneous_poisson(ncfg, 8, 0.02);
    const net::SimMetrics ref_n = ref_net.run();
    ncfg.reference_kernel = false;
    auto fast_net = net::Network::homogeneous_poisson(ncfg, 8, 0.02);
    const net::SimMetrics fast_n = fast_net.run();
    EXPECT_EQ(ref_n.p_loss(), fast_n.p_loss()) << net::to_string(kind);
    EXPECT_EQ(ref_n.delivered, fast_n.delivered) << net::to_string(kind);
  }
}

TEST(ProtocolEngineConformance, ControllerAccessorGatedToWindowEngine) {
  net::AggregateConfig cfg;
  cfg.policy = ControlPolicy::optimal(75.0, 85.0);
  cfg.mac.engine.kind = EngineKind::SlottedAloha;
  net::AggregateSimulator sim(
      cfg, std::make_unique<tcw::chan::PoissonProcess>(0.02));
  EXPECT_EQ(sim.engine().kind(), EngineKind::SlottedAloha);
}

// Satellite of the policy-grid study: an engine's sweep must reduce to
// bit-identical points whether it runs alone or interleaved with the
// other engines' sweeps on one shared scheduler -- i.e. engine-id-keyed
// seed folding keeps every engine's streams independent of suite
// composition.
TEST(PolicyGridDeterminism, SweepBitIdenticalAloneVersusInSuite) {
  net::SweepConfig base;
  base.offered_load = 0.5;
  base.message_length = 25.0;
  base.t_end = 4000.0;
  base.warmup = 400.0;
  base.replications = 2;
  const std::vector<double> grid{50.0, 100.0};
  const auto policy = [](double k) {
    return ControlPolicy::optimal(k, 40.0);
  };
  const auto config_for = [&](EngineKind kind) {
    net::SweepConfig cfg = base;
    cfg.mac.engine = engine_config(kind, cfg.lambda());
    return cfg;
  };

  // Alone: one scheduler per engine.
  std::vector<std::vector<net::SweepPoint>> alone;
  for (const EngineKind kind : kAllKinds) {
    exec::ThreadPool pool(2);
    exec::SweepScheduler scheduler(pool);
    auto handle = net::run_sweep(
        {.config = config_for(kind), .constraints = grid,
         .make_policy = policy},
        {.scheduler = &scheduler, .name = net::to_string(kind), .cache = {}});
    scheduler.run();
    alone.push_back(handle.points());
  }

  // Suite: all three engines interleaved on one scheduler.
  std::vector<net::ScheduledSweep> handles;
  {
    exec::ThreadPool pool(3);
    exec::SweepScheduler scheduler(pool);
    for (const EngineKind kind : kAllKinds) {
      handles.push_back(net::run_sweep(
          {.config = config_for(kind), .constraints = grid,
           .make_policy = policy},
          {.scheduler = &scheduler, .name = net::to_string(kind),
           .cache = {}}));
    }
    scheduler.run();
  }

  for (std::size_t e = 0; e < handles.size(); ++e) {
    const auto suite_pts = handles[e].points();
    ASSERT_EQ(suite_pts.size(), alone[e].size());
    for (std::size_t i = 0; i < suite_pts.size(); ++i) {
      EXPECT_EQ(suite_pts[i].p_loss, alone[e][i].p_loss) << e;
      EXPECT_EQ(suite_pts[i].ci95, alone[e][i].ci95) << e;
      EXPECT_EQ(suite_pts[i].mean_wait, alone[e][i].mean_wait) << e;
      EXPECT_EQ(suite_pts[i].utilization, alone[e][i].utilization) << e;
      EXPECT_EQ(suite_pts[i].messages, alone[e][i].messages) << e;
    }
  }

  // Sanity: the engines genuinely behave differently at this load (the
  // grid is not comparing an engine against itself under another name).
  EXPECT_NE(alone[0][0].p_loss, alone[1][0].p_loss);
  EXPECT_NE(alone[1][0].p_loss, alone[2][0].p_loss);
}

}  // namespace
