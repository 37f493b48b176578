// Seed-plane hygiene for the batched arrival stream, plus golden
// fingerprint regressions pinning the per-station small-N realizations.
//
// The batched stream (net::batched_arrival_seed) folds the simulation
// seed on (hi, lo) coordinates no other consumer of
// sim::derive_stream_seed occupies; if it ever aliased an engine stream,
// a transmission-coin stream, or a sweep-shard job seed, two supposedly
// independent random streams would walk in lockstep and silently
// correlate results. The golden fingerprints prove the complementary
// property: introducing the batched stream left the existing per-station
// draws untouched (homogeneous_poisson realizations are bit-identical to
// the seed-era kernel).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>

#include "analysis/splitting.hpp"
#include "net/channel_plan.hpp"
#include "net/network.hpp"
#include "net/protocol_engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "smdp/window_model.hpp"
#include "util/contract.hpp"

using tcw::net::EngineKind;
using tcw::net::Network;
using tcw::net::NetworkConfig;
using tcw::net::SimMetrics;

namespace {

const std::uint64_t kBaseSeeds[] = {0,  1,  2,  7,  42,
                                    1234567, 20261983, 0xFFFFFFFFFFFFFFFFull};

const EngineKind kKinds[] = {EngineKind::Window, EngineKind::SlottedAloha,
                             EngineKind::DynamicAloha};

TEST(SeedStreams, BatchedArrivalSeedAvoidsEngineStreams) {
  for (const std::uint64_t base : kBaseSeeds) {
    const std::uint64_t batched = tcw::net::batched_arrival_seed(base);
    // The raw seed feeds the per-station arrival rng and (via the window
    // engine's identity fold) the seed-era shared stream.
    EXPECT_NE(batched, base);
    for (const EngineKind kind : kKinds) {
      EXPECT_NE(batched, tcw::net::engine_stream_seed(kind, base))
          << "engine stream, base=" << base;
      EXPECT_NE(batched, tcw::net::engine_coin_seed(kind, base))
          << "coin stream, base=" << base;
    }
  }
}

TEST(SeedStreams, BatchedArrivalSeedAvoidsSweepShardPlane) {
  // Sweep jobs derive (K-index, replication) and study shards (job, 0) --
  // small coordinates. Sweep the low corner of the plane and require no
  // collision with the batched stream's distant (hi, lo) point.
  for (const std::uint64_t base : kBaseSeeds) {
    const std::uint64_t batched = tcw::net::batched_arrival_seed(base);
    for (std::uint64_t hi = 0; hi < 64; ++hi) {
      for (std::uint64_t lo = 0; lo < 64; ++lo) {
        EXPECT_NE(batched, tcw::sim::derive_stream_seed(base, hi, lo))
            << "base=" << base << " hi=" << hi << " lo=" << lo;
      }
    }
  }
}

TEST(SeedStreams, BatchedArrivalSeedSeparatesBaseSeeds) {
  // Distinct simulation seeds must map to distinct batched streams.
  std::set<std::uint64_t> seen;
  for (const std::uint64_t base : kBaseSeeds) {
    EXPECT_TRUE(seen.insert(tcw::net::batched_arrival_seed(base)).second)
        << "base=" << base;
  }
}

TEST(SeedStreams, ChannelStreamChannelZeroIsIdentity) {
  // Channel 0 must be the raw seed: C = 1 runs use the exact streams the
  // pre-multichannel kernels used, which is what keeps them bit-identical.
  for (const std::uint64_t base : kBaseSeeds) {
    EXPECT_EQ(tcw::net::channel_stream_seed(base, 0), base);
  }
}

TEST(SeedStreams, ChannelPlanesAvoidEveryOtherStream) {
  // Channel streams (c > 0) and the selector stream must alias neither
  // each other nor any existing plane: engine streams, coin streams, the
  // batched arrival stream, or the low-corner sweep-shard plane.
  for (const std::uint64_t base : kBaseSeeds) {
    std::set<std::uint64_t> others;
    others.insert(base);
    others.insert(tcw::net::batched_arrival_seed(base));
    for (const EngineKind kind : kKinds) {
      others.insert(tcw::net::engine_stream_seed(kind, base));
      others.insert(tcw::net::engine_coin_seed(kind, base));
    }
    std::set<std::uint64_t> fresh;
    EXPECT_TRUE(fresh.insert(tcw::net::channel_selector_seed(base)).second);
    for (std::uint32_t c = 1; c <= 8; ++c) {
      EXPECT_TRUE(fresh.insert(tcw::net::channel_stream_seed(base, c)).second)
          << "channel streams collide, base=" << base;
    }
    for (const std::uint64_t seed : fresh) {
      EXPECT_EQ(others.count(seed), 0u)
          << "channel plane aliases an existing stream, base=" << base;
    }
    // The sweep-shard plane uses small (hi, lo) coordinates (as do the
    // engine streams, which is why they are excluded here): the fresh
    // channel/selector planes must stay clear of that whole corner.
    for (std::uint64_t hi = 0; hi < 64; ++hi) {
      for (std::uint64_t lo = 0; lo < 64; ++lo) {
        EXPECT_EQ(fresh.count(tcw::sim::derive_stream_seed(base, hi, lo)),
                  0u)
            << "base=" << base << " hi=" << hi << " lo=" << lo;
      }
    }
  }
}

TEST(SeedStreams, SmdpPairPlaneAvoidsEveryOtherStream) {
  // The SMDP kernel's (state, width) pair streams must be distinct from
  // one another and alias no other plane: the raw seed, engine and coin
  // streams, the batched arrival stream, the channel and selector planes,
  // or the low-corner sweep-shard plane.
  for (const std::uint64_t base : kBaseSeeds) {
    std::set<std::uint64_t> others;
    others.insert(base);
    others.insert(tcw::net::batched_arrival_seed(base));
    for (const EngineKind kind : kKinds) {
      others.insert(tcw::net::engine_stream_seed(kind, base));
      others.insert(tcw::net::engine_coin_seed(kind, base));
    }
    others.insert(tcw::net::channel_selector_seed(base));
    for (std::uint32_t c = 1; c <= 8; ++c) {
      others.insert(tcw::net::channel_stream_seed(base, c));
    }
    for (std::uint64_t hi = 0; hi < 64; ++hi) {
      for (std::uint64_t lo = 0; lo < 64; ++lo) {
        others.insert(tcw::sim::derive_stream_seed(base, hi, lo));
      }
    }
    std::set<std::uint64_t> pairs;
    for (std::size_t i = 1; i <= 64; ++i) {
      for (std::size_t w = 1; w <= i; ++w) {
        const std::uint64_t seed = tcw::smdp::pair_stream_seed(base, i, w);
        EXPECT_TRUE(pairs.insert(seed).second)
            << "pair streams collide, base=" << base << " i=" << i
            << " w=" << w;
        EXPECT_EQ(others.count(seed), 0u)
            << "pair plane aliases another stream, base=" << base
            << " i=" << i << " w=" << w;
      }
    }
  }
  // State and width are 32-bit fields of the lo coordinate.
  EXPECT_THROW(tcw::smdp::pair_stream_seed(7, std::size_t{1} << 32, 1),
               tcw::ContractViolation);
  EXPECT_THROW(tcw::smdp::pair_stream_seed(7, 1, std::size_t{1} << 32),
               tcw::ContractViolation);
}

// ---------------------------------------------------------------------------
// Golden small-N fingerprints, captured from the pre-batched-stream build
// (the seed-era per-station kernel). These runs never touch the batched
// stream; any drift means a change leaked into the existing draw order.

void append_stats(std::ostringstream& out, const char* name,
                  const tcw::sim::RunningStats& s) {
  out << ' ' << name << ':' << s.count();
  char buf[160];
  std::snprintf(buf, sizeof buf, "/%a/%a/%a/%a", s.mean(), s.sum(), s.min(),
                s.max());
  out << buf;
}

std::string fingerprint(const SimMetrics& m) {
  std::ostringstream out;
  out << "arr:" << m.arrivals << " del:" << m.delivered
      << " ls:" << m.lost_sender << " lr:" << m.lost_receiver
      << " cen:" << m.censored_lost << " pend:" << m.pending_at_end;
  append_stats(out, "wait", m.wait_all);
  append_stats(out, "waitd", m.wait_delivered);
  append_stats(out, "sched", m.scheduling);
  append_stats(out, "proc", m.process_slots.summary());
  append_stats(out, "backlog", m.pseudo_backlog.summary());
  char buf[240];
  std::snprintf(buf, sizeof buf, " q:%a/%a/%a use:%a/%a/%a/%a",
                m.wait_p50.value(), m.wait_p90.value(), m.wait_p99.value(),
                m.usage.idle_slots(), m.usage.collision_slots(),
                m.usage.payload_slots(), m.usage.success_overhead_slots());
  out << buf;
  return out.str();
}

struct GoldenCase {
  const char* name;
  std::size_t n;
  double rho;
  double k;
  EngineKind kind;
  std::uint64_t seed;
  const char* expected;
};

TEST(SeedStreams, GoldenSmallNFingerprints) {
  const GoldenCase cases[] = {
      {"window_n3", 3, 0.50, 75.0, EngineKind::Window, 42,
       "arr:229 del:226 ls:2 lr:0 cen:0 pend:1"
       " wait:226/0x1.a2be1ba40ecc5p+3/0x1.71abd466d5106p+11/0x1.8d38e5eep-8"
       "/0x1.1ea79c7d3902p+6"
       " waitd:226/0x1.a2be1ba40ecc5p+3/0x1.71abd466d5106p+11/0x1.8d38e5eep-8"
       "/0x1.1ea79c7d3902p+6"
       " sched:226/0x1.00ea8cc37a6f6p-1/0x1.c59e2089242dp+6/0x0p+0/0x1p+2"
       " proc:5311/0x1.02f0b852e83c8p+0/0x1.4fcp+12/0x1p+0/0x1.4p+2"
       " backlog:5311/0x1.179a62fad7cc1p+1/0x1.6a8abeb7202f8p+13/0x1p+0"
       "/0x1.0b4p+6"
       " q:0x1.39b52fbb4bf49p+2/0x1.20ce821a1b84dp+5/0x1.bedfa8058075ap+5"
       " use:0x1.67ap+12/0x1.bp+5/0x1.757p+12/0x1.dep+7"},
      {"window_n25", 25, 0.90, 50.0, EngineKind::Window, 7,
       "arr:406 del:309 ls:91 lr:6 cen:0 pend:0"
       " wait:315/0x1.371b8cf33586ap+4/0x1.7ecee66f42dccp+12/0x1.e52d3426p-7"
       "/0x1.b55ccfa0a21p+5"
       " waitd:309/0x1.2d14c551ae314p+4/0x1.6b6a122b97417p+12/0x1.e52d3426p-7"
       "/0x1.8d2f1fcb4dfp+5"
       " sched:315/0x1.f554409d0e928p-1/0x1.346f55c0a0774p+8/0x0p+0/0x1.cp+2"
       " proc:2877/0x1.15fa7baf3468fp+0/0x1.868p+11/0x1p+0/0x1p+3"
       " backlog:2877/0x1.40ec28ee9992dp+2/0x1.c2d3c1002e7cdp+13/0x1p+0"
       "/0x1.9p+5"
       " q:0x1.21dedfda95146p+4/0x1.5f33c441a2913p+5/0x1.964c46e0f54eap+5"
       " use:0x1.714p+11/0x1.b6p+7/0x1.09ap+13/0x1.54p+8"},
      {"slotted_n10", 10, 0.30, 75.0, EngineKind::SlottedAloha, 42,
       "arr:136 del:136 ls:0 lr:0 cen:0 pend:0"
       " wait:136/0x1.0b97cf87541c6p+3/0x1.1c514c7fc95ep+10/0x1.43de2b6d3p-6"
       "/0x1.ec365fabe41p+5"
       " waitd:136/0x1.0b97cf87541c6p+3/0x1.1c514c7fc95ep+10/0x1.43de2b6d3p-6"
       "/0x1.ec365fabe41p+5"
       " sched:136/0x1.bbb9867625385p+0/0x1.d7751edd878cp+7/0x0p+0/0x1.4p+3"
       " proc:7617/0x1p+0/0x1.dc1p+12/0x1p+0/0x1p+0"
       " backlog:7624/0x0p+0/0x0p+0/0x0p+0/0x0p+0"
       " q:0x1.515561e94ce1cp+1/0x1.b6b8569a4da2bp+4/0x1.8fb30f6d77877p+5"
       " use:0x1.04f8p+13/0x1.cp+2/0x1.b8ap+11/0x1.1ap+7"},
      {"dynamic_n10", 10, 0.30, 75.0, EngineKind::DynamicAloha, 42,
       "arr:136 del:136 ls:0 lr:0 cen:0 pend:0"
       " wait:136/0x1.8bb0dbcb21426p+2/0x1.a46be987d3564p+9/0x1.37431a83p-6"
       "/0x1.2110606eb8cp+6"
       " waitd:136/0x1.8bb0dbcb21426p+2/0x1.a46be987d3564p+9/0x1.37431a83p-6"
       "/0x1.2110606eb8cp+6"
       " sched:136/0x1.e459b195dcda6p-2/0x1.014fa6579d54p+6/0x0p+0/0x1.8p+1"
       " proc:7614/0x1p+0/0x1.dbep+12/0x1p+0/0x1p+0"
       " backlog:7624/0x1.70d998e7c4006p-6/0x1.5746828db229ap+7"
       "/0x1.89374bc6a7efap-7/0x1.eb16cf16871c4p+1"
       " q:0x1.8963ef5dc103ap-1/0x1.78bc6e2370135p+4/0x1.694ea7c354aa6p+5"
       " use:0x1.04ep+13/0x1.4p+3/0x1.b8ap+11/0x1.1ap+7"},
  };
  for (const GoldenCase& c : cases) {
    NetworkConfig cfg;
    const double lambda = c.rho / 25.0;
    cfg.policy = tcw::core::ControlPolicy::optimal(
        c.k, tcw::analysis::optimal_window_load() / lambda);
    cfg.mac.engine.kind = c.kind;
    if (c.kind == EngineKind::DynamicAloha) {
      cfg.mac.engine.arrival_rate = lambda;
    }
    cfg.t_end = 12000.0;
    cfg.warmup = 1000.0;
    cfg.seed = c.seed;
    cfg.consistency_check_every = 256;
    auto net = Network::homogeneous_poisson(cfg, c.n, lambda);
    EXPECT_EQ(fingerprint(net.run()), c.expected) << c.name;
    EXPECT_TRUE(net.stations_consistent()) << c.name;
  }
}

}  // namespace
