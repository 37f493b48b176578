// Bit-exact golden fingerprints of the finite-station kernel
// (net::Network) over its configuration grid:
//   {window, slotted ALOHA, pseudo-Bayesian ALOHA}
//   x {per-station homogeneous_poisson, batched stream}
//   x {per-slot, event_skip} x {discard on, off}
//   x {C = 1, C = 2 hash-shard, C = 2 least-loaded}
//   x {reference_kernel off, on}.
// Combinations the kernel rejects (event_skip needs the batched stream,
// one channel and the fast kernel) are asserted to throw instead.
//
// Each cell records every SimMetrics field as hex floats together with
// channel_tallies(), skipped_slots(), consistency_checks_run() and
// stations_consistent(); a 64-bit FNV-1a hash covers the overlays: the
// net.network.* registry deltas, the TraceLog snapshot (C = 1 per-slot
// cells only), the flight-recorder JSON and the slot-series CSV rows.
// Unlike the fast-vs-reference and C = 1-vs-selector comparisons, which
// exercise two paths of the same build, these tables pin the output of
// the build they were recorded on, so a stepper rewrite must reproduce
// it exactly. On a mismatch the message carries the computed entry in
// table form, so a deliberate model change can re-record it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/slot_series.hpp"
#include "sim/trace.hpp"
#include "util/contract.hpp"

namespace {

namespace net = tcw::net;
namespace obs = tcw::obs;
using net::ChannelSelectorKind;
using net::EngineKind;

constexpr std::size_t kStations = 6;
constexpr double kTotalRate = 0.1;  // messages/slot; rho' = 0.5 at M = 5

struct Cell {
  EngineKind engine;
  bool batched;
  bool event_skip;
  bool discard;
  std::uint32_t channels;
  ChannelSelectorKind selector;
  bool reference;

  bool accepted() const {
    return !event_skip || (batched && channels == 1 && !reference);
  }

  std::string name() const {
    std::string s = net::to_string(engine);
    s += batched ? "/batched" : "/per-station";
    s += event_skip ? "/skip" : "/per-slot";
    s += discard ? "/discard" : "/keep";
    // Appended piece by piece: GCC 12 at -O3 reports a false-positive
    // -Wrestrict on "/C" + std::to_string(...).
    s += "/C";
    s += std::to_string(channels);
    if (channels > 1) {
      s += '-';
      s += net::to_string(selector);
    }
    s += reference ? "/ref" : "/fast";
    return s;
  }
};

struct Golden {
  const char* cell;
  const char* metrics;
  std::uint64_t overlays;
};

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  const std::pair<std::uint32_t, ChannelSelectorKind> plans[] = {
      {1, ChannelSelectorKind::HashShard},
      {2, ChannelSelectorKind::HashShard},
      {2, ChannelSelectorKind::LeastLoaded}};
  for (const EngineKind engine : {EngineKind::Window, EngineKind::SlottedAloha,
                                  EngineKind::DynamicAloha}) {
    for (const bool batched : {false, true}) {
      for (const bool event_skip : {false, true}) {
        for (const bool discard : {true, false}) {
          for (const auto& [channels, selector] : plans) {
            for (const bool reference : {false, true}) {
              cells.push_back({engine, batched, event_skip, discard, channels,
                               selector, reference});
            }
          }
        }
      }
    }
  }
  return cells;
}

net::NetworkConfig config_for(const Cell& c) {
  net::NetworkConfig cfg;
  cfg.policy = tcw::core::ControlPolicy::optimal(30.0, 20.0);
  cfg.policy.discard = c.discard;
  cfg.mac.engine.kind = c.engine;
  if (c.engine == EngineKind::DynamicAloha) {
    cfg.mac.engine.arrival_rate = kTotalRate;
  }
  cfg.mac.channel.channels = c.channels;
  cfg.mac.channel.selector = c.selector;
  cfg.message_length = 5.0;
  cfg.t_end = 6000.0;
  cfg.warmup = 500.0;
  cfg.seed = 0x5EED1;
  cfg.consistency_check_every = 16;
  cfg.reference_kernel = c.reference;
  cfg.event_skip = c.event_skip;
  return cfg;
}

net::Network build(const Cell& c, const net::NetworkConfig& cfg) {
  return c.batched
             ? net::Network::homogeneous_poisson_batched(cfg, kStations,
                                                         kTotalRate)
             : net::Network::homogeneous_poisson(cfg, kStations, kTotalRate);
}

void append_stats(std::ostringstream& out, const tcw::sim::RunningStats& s) {
  char buf[200];
  std::snprintf(buf, sizeof buf, " %llu/%a/%a/%a/%a/%a",
                static_cast<unsigned long long>(s.count()), s.mean(), s.sum(),
                s.variance(), s.min(), s.max());
  out << buf;
}

void append_quantile(std::ostringstream& out, const tcw::sim::P2Quantile& q) {
  char buf[80];
  std::snprintf(buf, sizeof buf, " %llu/%a",
                static_cast<unsigned long long>(q.count()), q.value());
  out << buf;
}

std::string fingerprint(const net::SimMetrics& m, const net::Network& network) {
  std::ostringstream out;
  out << m.arrivals << ' ' << m.delivered << ' ' << m.lost_sender << ' '
      << m.lost_receiver << ' ' << m.censored_lost << ' ' << m.pending_at_end;
  append_stats(out, m.wait_all);
  append_stats(out, m.wait_delivered);
  append_stats(out, m.scheduling);
  append_stats(out, m.process_slots.summary());
  append_stats(out, m.pseudo_backlog.summary());
  append_quantile(out, m.wait_p50);
  append_quantile(out, m.wait_p90);
  append_quantile(out, m.wait_p99);
  char buf[200];
  std::snprintf(buf, sizeof buf, " u:%a/%a/%a/%a/%llu", m.usage.idle_slots(),
                m.usage.collision_slots(), m.usage.payload_slots(),
                m.usage.success_overhead_slots(),
                static_cast<unsigned long long>(m.usage.messages_carried()));
  out << buf;
  out << " h:" << m.wait_hist_enabled << '/' << m.wait_hist.total();
  for (const obs::ChannelTally& t : network.channel_tallies()) {
    out << " ch:" << t.probe_slots << '/' << t.idle_slots << '/'
        << t.collisions << '/' << t.successes << '/' << t.sender_discards
        << '/' << t.admission_starved << '/' << t.collision_killed << '/'
        << t.queue_expired;
  }
  out << " skip:" << network.skipped_slots()
      << " checks:" << network.consistency_checks_run()
      << " ok:" << network.stations_consistent();
  return out.str();
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string trace_bytes(const tcw::sim::TraceLog& trace) {
  std::ostringstream out;
  out << trace.total_recorded() << '/' << trace.dropped();
  for (const tcw::sim::TraceRecord& r : trace.snapshot()) {
    char buf[120];
    std::snprintf(buf, sizeof buf, "\n%a %d %a %a", r.time,
                  static_cast<int>(r.kind), r.lo, r.hi);
    out << buf;
  }
  return out.str();
}

// Nonzero net.network.* counter deltas across one run. Zero deltas are
// left out so the bytes do not depend on which counters earlier runs in
// the same process happened to create. net.network.skipped_slots counts
// how the kernel stepped, not what it computed, and is left out too.
std::string registry_delta(const obs::RegistrySnapshot& before,
                           const obs::RegistrySnapshot& after) {
  std::ostringstream out;
  for (const obs::CounterSnapshot& c : after.counters) {
    if (c.name.rfind("net.network.", 0) != 0) continue;
    if (c.name == "net.network.skipped_slots") continue;
    const std::uint64_t delta = c.value - before.counter(c.name);
    if (delta != 0) out << c.name << '=' << delta << '\n';
  }
  return out.str();
}

struct Outcome {
  std::string metrics;
  std::uint64_t overlays = 0;
};

Outcome run_cell(const Cell& c) {
  net::NetworkConfig cfg = config_for(c);
  obs::FlightRecorder::Options flight_options;
  flight_options.base_seed = cfg.seed;
  flight_options.sample_rate = 0.25;
  flight_options.capacity = 2048;
  obs::FlightRecorder recorder(flight_options);
  obs::SlotSeries series(64);
  tcw::sim::TraceLog trace(2048);
  cfg.capture.flight = recorder.segment("cell");
  cfg.capture.series = &series;
  // Traces are a single-channel, per-slot surface.
  const bool traced = c.channels == 1 && !c.event_skip;
  if (traced) cfg.trace = &trace;

  net::Network network = build(c, cfg);
  const obs::RegistrySnapshot before = obs::Registry::global().snapshot();
  const net::SimMetrics& m = network.run();
  const obs::RegistrySnapshot after = obs::Registry::global().snapshot();

  Outcome out;
  out.metrics = fingerprint(m, network);
  std::string overlays = registry_delta(before, after);
  overlays += '\x1f';
  if (traced) overlays += trace_bytes(trace);
  overlays += '\x1f';
  overlays += recorder.to_json();
  overlays += '\x1f';
  overlays += series.to_csv_rows("cell");
  out.overlays = fnv1a(overlays);
  return out;
}

std::string table_entry(const std::string& cell, const Outcome& got) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "0x%016llxULL",
                static_cast<unsigned long long>(got.overlays));
  return "    {\"" + cell + "\",\n     \"" + got.metrics + "\",\n     " +
         hash + "},";
}

// clang-format off
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> table = {
    {"window/per-station/per-slot/discard/C1/fast",
     "566 539 21 3 0 3 542/0x1.fe8a64d467f94p+2/0x1.0e3a405e6d085p+12/0x1.2d44d7650b1a5p+6/0x1.0a4645ep-9/0x1.171daf25c858p+5 539/0x1.f5c6ba4f2886fp+2/0x1.081e5a912a94ep+12/0x1.214f8456c56bcp+6/0x1.0a4645ep-9/0x1.dff4a2a5919p+4 542/0x1.d228cfad23a4ap-1/0x1.ed7933d848baep+8/0x1.8ff3e5cb0a80dp+0/0x0p+0/0x1.cp+2 2371/0x1.2c29077334953p+0/0x1.5b8p+11/0x1.f7fbdfa314853p-2/0x1p+0/0x1p+3 2371/0x1.9541de876562cp+1/0x1.d52c22p+12/0x1.aa1f41260692ap+4/0x1p+0/0x1.ep+4 542/0x1.17c5b5f68ac6dp+2 542/0x1.58b38d3aadf56p+4 542/0x1.e30baa7f07e66p+4 u:0x1.f24p+10/0x1.94p+8/0x1.77ap+11/0x1.2c8p+9/601 h:0/0 ch:2998/1993/404/601/21/19/2/0 skip:0 checks:188 ok:1",
     0xce1ee6023e92bd16ULL},
    {"window/per-station/per-slot/discard/C1/ref",
     "566 539 21 3 0 3 542/0x1.fe8a64d467f94p+2/0x1.0e3a405e6d085p+12/0x1.2d44d7650b1a5p+6/0x1.0a4645ep-9/0x1.171daf25c858p+5 539/0x1.f5c6ba4f2886fp+2/0x1.081e5a912a94ep+12/0x1.214f8456c56bcp+6/0x1.0a4645ep-9/0x1.dff4a2a5919p+4 542/0x1.d228cfad23a4ap-1/0x1.ed7933d848baep+8/0x1.8ff3e5cb0a80dp+0/0x0p+0/0x1.cp+2 2371/0x1.2c29077334953p+0/0x1.5b8p+11/0x1.f7fbdfa314853p-2/0x1p+0/0x1p+3 2371/0x1.9541de876562cp+1/0x1.d52c22p+12/0x1.aa1f41260692ap+4/0x1p+0/0x1.ep+4 542/0x1.17c5b5f68ac6dp+2 542/0x1.58b38d3aadf56p+4 542/0x1.e30baa7f07e66p+4 u:0x1.f24p+10/0x1.94p+8/0x1.77ap+11/0x1.2c8p+9/601 h:0/0 ch:2998/1993/404/601/21/19/2/0 skip:0 checks:188 ok:1",
     0xa85159125eabf9cfULL},
    {"window/per-station/per-slot/discard/C2-hash-shard/fast",
     "565 564 1 0 0 0 564/0x1.663379cb4ed3fp+1/0x1.8a94b429f4d5ap+10/0x1.579b28337ae08p+4/0x1.510162db8p-8/0x1.bd4ad66fe5fp+4 564/0x1.663379cb4ed3fp+1/0x1.8a94b429f4d5ap+10/0x1.579b28337ae08p+4/0x1.510162db8p-8/0x1.bd4ad66fe5fp+4 564/0x1.1366487c958e4p-1/0x1.2f5eabd93cbfp+8/0x1.0ebbe79899625p-1/0x0p+0/0x1.5fd749ac52p+2 8050/0x1.03d91345847bep+0/0x1.febp+12/0x1.40c7e32329832p-5/0x1p+0/0x1.8p+2 8050/0x1.6ad61601a7568p+0/0x1.648cp+13/0x1.814a9896b6b2p+1/0x1p+0/0x1.ep+4 564/0x1.644c6fa01498cp-1 564/0x1.0c7cb31ef86abp+3 564/0x1.4e8ed9608f40ap+4 u:0x1.fd5p+12/0x1.dp+6/0x1.856p+11/0x1.378p+9/623 h:0/0 ch:4426/4056/55/315/0/0/0/0 ch:4462/4093/61/308/1/1/0/0 skip:0 checks:556 ok:1",
     0x4df01a5825445658ULL},
    {"window/per-station/per-slot/discard/C2-hash-shard/ref",
     "565 564 1 0 0 0 564/0x1.663379cb4ed3fp+1/0x1.8a94b429f4d5ap+10/0x1.579b28337ae08p+4/0x1.510162db8p-8/0x1.bd4ad66fe5fp+4 564/0x1.663379cb4ed3fp+1/0x1.8a94b429f4d5ap+10/0x1.579b28337ae08p+4/0x1.510162db8p-8/0x1.bd4ad66fe5fp+4 564/0x1.1366487c958e4p-1/0x1.2f5eabd93cbfp+8/0x1.0ebbe79899625p-1/0x0p+0/0x1.5fd749ac52p+2 8050/0x1.03d91345847bep+0/0x1.febp+12/0x1.40c7e32329832p-5/0x1p+0/0x1.8p+2 8050/0x1.6ad61601a7568p+0/0x1.648cp+13/0x1.814a9896b6b2p+1/0x1p+0/0x1.ep+4 564/0x1.644c6fa01498cp-1 564/0x1.0c7cb31ef86abp+3 564/0x1.4e8ed9608f40ap+4 u:0x1.fd5p+12/0x1.dp+6/0x1.856p+11/0x1.378p+9/623 h:0/0 ch:4426/4056/55/315/0/0/0/0 ch:4462/4093/61/308/1/1/0/0 skip:0 checks:556 ok:1",
     0xcfbb38c0b43182d5ULL},
    {"window/per-station/per-slot/discard/C2-least-loaded/fast",
     "567 565 0 0 0 2 565/0x1.0088a593ab9abp+1/0x1.1b16cab774de6p+10/0x1.4771788c36bap+2/0x1.e5fcd728p-11/0x1.bf893f72fa6p+3 565/0x1.0088a593ab9abp+1/0x1.1b16cab774de6p+10/0x1.4771788c36bap+2/0x1.e5fcd728p-11/0x1.bf893f72fa6p+3 565/0x1.2cc081cdb4eefp-2/0x1.4be26f3d802ap+7/0x1.28f22b9e5dee7p-3/0x0p+0/0x1.8p+1 8148/0x1.00a8e83f5717cp+0/0x1.fe9p+12/0x1.2933176f637c6p-8/0x1p+0/0x1p+2 8148/0x1.5ad4e4ba80706p+0/0x1.58f8p+13/0x1.ba50f0399fc46p+0/0x1p+0/0x1.fp+3 565/0x1.9a9237d37593p-1 565/0x1.4f347fd53a6c6p+2 565/0x1.2d4c26b888298p+3 u:0x1.01ap+13/0x1.2p+4/0x1.86p+11/0x1.38p+9/624 h:0/0 ch:3356/2813/14/529/0/0/0/0 ch:5530/5431/4/95/0/0/0/0 skip:0 checks:556 ok:1",
     0x8526ab2b0eb7f66fULL},
    {"window/per-station/per-slot/discard/C2-least-loaded/ref",
     "567 565 0 0 0 2 565/0x1.0088a593ab9abp+1/0x1.1b16cab774de6p+10/0x1.4771788c36bap+2/0x1.e5fcd728p-11/0x1.bf893f72fa6p+3 565/0x1.0088a593ab9abp+1/0x1.1b16cab774de6p+10/0x1.4771788c36bap+2/0x1.e5fcd728p-11/0x1.bf893f72fa6p+3 565/0x1.2cc081cdb4eefp-2/0x1.4be26f3d802ap+7/0x1.28f22b9e5dee7p-3/0x0p+0/0x1.8p+1 8148/0x1.00a8e83f5717cp+0/0x1.fe9p+12/0x1.2933176f637c6p-8/0x1p+0/0x1p+2 8148/0x1.5ad4e4ba80706p+0/0x1.58f8p+13/0x1.ba50f0399fc46p+0/0x1p+0/0x1.fp+3 565/0x1.9a9237d37593p-1 565/0x1.4f347fd53a6c6p+2 565/0x1.2d4c26b888298p+3 u:0x1.01ap+13/0x1.2p+4/0x1.86p+11/0x1.38p+9/624 h:0/0 ch:3356/2813/14/529/0/0/0/0 ch:5530/5431/4/95/0/0/0/0 skip:0 checks:556 ok:1",
     0x8526ab2b0eb7f66fULL},
    {"window/per-station/per-slot/keep/C1/fast",
     "566 426 0 136 0 4 562/0x1.1f5fa9a26f6b7p+4/0x1.3b7001334c4cap+13/0x1.e82c3b43b92d6p+8/0x1.208b4dfc4p-7/0x1.13d0e37dd89cp+7 426/0x1.d3b3d902a72dap+2/0x1.8524a38f35192p+11/0x1.07c92d5afd8acp+6/0x1.208b4dfc4p-7/0x1.dde37b06efbp+4 562/0x1.27f1073e036e1p+0/0x1.44d790f311c43p+9/0x1.1469615cc04bep+1/0x0p+0/0x1.4p+3 2091/0x1.474102922e47p+0/0x1.4e2p+11/0x1.acb5d278efc7ap-1/0x1p+0/0x1.6p+3 2092/0x1.2d18c8b11ddbcp+2/0x1.3390d100ecp+13/0x1.01d2d1648379dp+6/0x1p+0/0x1.ep+4 562/0x1.241a47f7da646p+3 562/0x1.6bcccd8cd3fd1p+5 562/0x1.6117dd770a0bp+6 u:0x1.ac8p+10/0x1.18p+9/0x1.842p+11/0x1.368p+9/621 h:0/0 ch:2895/1714/560/621/0/0/0/0 skip:0 checks:181 ok:1",
     0x4d0d6fe23b4b6443ULL},
    {"window/per-station/per-slot/keep/C1/ref",
     "566 426 0 136 0 4 562/0x1.1f5fa9a26f6b7p+4/0x1.3b7001334c4cap+13/0x1.e82c3b43b92d6p+8/0x1.208b4dfc4p-7/0x1.13d0e37dd89cp+7 426/0x1.d3b3d902a72dap+2/0x1.8524a38f35192p+11/0x1.07c92d5afd8acp+6/0x1.208b4dfc4p-7/0x1.dde37b06efbp+4 562/0x1.27f1073e036e1p+0/0x1.44d790f311c43p+9/0x1.1469615cc04bep+1/0x0p+0/0x1.4p+3 2091/0x1.474102922e47p+0/0x1.4e2p+11/0x1.acb5d278efc7ap-1/0x1p+0/0x1.6p+3 2092/0x1.2d18c8b11ddbcp+2/0x1.3390d100ecp+13/0x1.01d2d1648379dp+6/0x1p+0/0x1.ep+4 562/0x1.241a47f7da646p+3 562/0x1.6bcccd8cd3fd1p+5 562/0x1.6117dd770a0bp+6 u:0x1.ac8p+10/0x1.18p+9/0x1.842p+11/0x1.368p+9/621 h:0/0 ch:2895/1714/560/621/0/0/0/0 skip:0 checks:181 ok:1",
     0xe3dfa8653a244e6bULL},
    {"window/per-station/per-slot/keep/C2-hash-shard/fast",
     "565 564 0 1 0 0 565/0x1.6d22853c72149p+1/0x1.92ee980733e36p+10/0x1.7186172abb3d1p+4/0x1.510162db8p-8/0x1.0b3c7ba7e1b8p+5 564/0x1.663379cb4ed3fp+1/0x1.8a94b429f4d5ap+10/0x1.579b28337ae08p+4/0x1.510162db8p-8/0x1.bd4ad66fe5fp+4 565/0x1.12e98016deb1cp-1/0x1.2f5eabd93cbfp+8/0x1.0e8423409b2b4p-1/0x0p+0/0x1.5fd749ac52p+2 8045/0x1.03d9b0008256ep+0/0x1.fe6p+12/0x1.40faa301aa17dp-5/0x1p+0/0x1.8p+2 8045/0x1.6b2c330a7817ap+0/0x1.64a7ep+13/0x1.853fedb41d482p+1/0x1p+0/0x1.ep+4 565/0x1.6428bc5aa7ea6p-1 565/0x1.11455305feecap+3 565/0x1.5692f98f69fd5p+4 u:0x1.fcfp+12/0x1.dp+6/0x1.86p+11/0x1.38p+9/624 h:0/0 ch:4426/4056/55/315/0/0/0/0 ch:4457/4087/61/309/0/0/0/0 skip:0 checks:556 ok:1",
     0x459634ebf7555a1cULL},
    {"window/per-station/per-slot/keep/C2-hash-shard/ref",
     "565 564 0 1 0 0 565/0x1.6d22853c72149p+1/0x1.92ee980733e36p+10/0x1.7186172abb3d1p+4/0x1.510162db8p-8/0x1.0b3c7ba7e1b8p+5 564/0x1.663379cb4ed3fp+1/0x1.8a94b429f4d5ap+10/0x1.579b28337ae08p+4/0x1.510162db8p-8/0x1.bd4ad66fe5fp+4 565/0x1.12e98016deb1cp-1/0x1.2f5eabd93cbfp+8/0x1.0e8423409b2b4p-1/0x0p+0/0x1.5fd749ac52p+2 8045/0x1.03d9b0008256ep+0/0x1.fe6p+12/0x1.40faa301aa17dp-5/0x1p+0/0x1.8p+2 8045/0x1.6b2c330a7817ap+0/0x1.64a7ep+13/0x1.853fedb41d482p+1/0x1p+0/0x1.ep+4 565/0x1.6428bc5aa7ea6p-1 565/0x1.11455305feecap+3 565/0x1.5692f98f69fd5p+4 u:0x1.fcfp+12/0x1.dp+6/0x1.86p+11/0x1.38p+9/624 h:0/0 ch:4426/4056/55/315/0/0/0/0 ch:4457/4087/61/309/0/0/0/0 skip:0 checks:556 ok:1",
     0x967c5928a19d57e5ULL},
    {"window/per-station/per-slot/keep/C2-least-loaded/fast",
     "567 565 0 0 0 2 565/0x1.0088a593ab9abp+1/0x1.1b16cab774de6p+10/0x1.4771788c36bap+2/0x1.e5fcd728p-11/0x1.bf893f72fa6p+3 565/0x1.0088a593ab9abp+1/0x1.1b16cab774de6p+10/0x1.4771788c36bap+2/0x1.e5fcd728p-11/0x1.bf893f72fa6p+3 565/0x1.2cc081cdb4eefp-2/0x1.4be26f3d802ap+7/0x1.28f22b9e5dee7p-3/0x0p+0/0x1.8p+1 8148/0x1.00a8e83f5717cp+0/0x1.fe9p+12/0x1.2933176f637c6p-8/0x1p+0/0x1p+2 8148/0x1.5ad4e4ba80706p+0/0x1.58f8p+13/0x1.ba50f0399fc46p+0/0x1p+0/0x1.fp+3 565/0x1.9a9237d37593p-1 565/0x1.4f347fd53a6c6p+2 565/0x1.2d4c26b888298p+3 u:0x1.01ap+13/0x1.2p+4/0x1.86p+11/0x1.38p+9/624 h:0/0 ch:3356/2813/14/529/0/0/0/0 ch:5530/5431/4/95/0/0/0/0 skip:0 checks:556 ok:1",
     0x8526ab2b0eb7f66fULL},
    {"window/per-station/per-slot/keep/C2-least-loaded/ref",
     "567 565 0 0 0 2 565/0x1.0088a593ab9abp+1/0x1.1b16cab774de6p+10/0x1.4771788c36bap+2/0x1.e5fcd728p-11/0x1.bf893f72fa6p+3 565/0x1.0088a593ab9abp+1/0x1.1b16cab774de6p+10/0x1.4771788c36bap+2/0x1.e5fcd728p-11/0x1.bf893f72fa6p+3 565/0x1.2cc081cdb4eefp-2/0x1.4be26f3d802ap+7/0x1.28f22b9e5dee7p-3/0x0p+0/0x1.8p+1 8148/0x1.00a8e83f5717cp+0/0x1.fe9p+12/0x1.2933176f637c6p-8/0x1p+0/0x1p+2 8148/0x1.5ad4e4ba80706p+0/0x1.58f8p+13/0x1.ba50f0399fc46p+0/0x1p+0/0x1.fp+3 565/0x1.9a9237d37593p-1 565/0x1.4f347fd53a6c6p+2 565/0x1.2d4c26b888298p+3 u:0x1.01ap+13/0x1.2p+4/0x1.86p+11/0x1.38p+9/624 h:0/0 ch:3356/2813/14/529/0/0/0/0 ch:5530/5431/4/95/0/0/0/0 skip:0 checks:556 ok:1",
     0x8526ab2b0eb7f66fULL},
    {"window/batched/per-slot/discard/C1/fast",
     "525 521 3 1 0 0 522/0x1.5db2d6a5b2ffcp+2/0x1.648754d6ef7eep+11/0x1.6ab9f3cd63d74p+5/0x1.83ebc4bp-12/0x1.f5f9b7ea229ap+4 521/0x1.5a840f22fdc3ep+2/0x1.609b61671b39ap+11/0x1.61139165a5f3fp+5/0x1.83ebc4bp-12/0x1.cc79bf70cea8p+4 522/0x1.5a2480bb374a3p-1/0x1.60e7373edf5ebp+8/0x1.e1db1dd586e2cp-1/0x0p+0/0x1.dafa9d6779p+2 2655/0x1.16c16c16c16cp+0/0x1.696p+11/0x1.c6872fecb9bb8p-3/0x1p+0/0x1p+3 2655/0x1.3ba215a58e6a3p+1/0x1.992ebfdp+12/0x1.bdcc635be24d9p+3/0x1p+0/0x1.ep+4 522/0x1.0f91e81a53bep+1 522/0x1.5a70736111b75p+4 522/0x1.90ab28dc6141cp+4 u:0x1.202p+11/0x1.f8p+7/0x1.66cp+11/0x1.1fp+9/574 h:0/0 ch:3131/2305/252/574/6/3/3/0 skip:0 checks:196 ok:1",
     0xb0d808617c9c98e2ULL},
    {"window/batched/per-slot/discard/C1/ref",
     "525 521 3 1 0 0 522/0x1.5db2d6a5b2ffcp+2/0x1.648754d6ef7eep+11/0x1.6ab9f3cd63d74p+5/0x1.83ebc4bp-12/0x1.f5f9b7ea229ap+4 521/0x1.5a840f22fdc3ep+2/0x1.609b61671b39ap+11/0x1.61139165a5f3fp+5/0x1.83ebc4bp-12/0x1.cc79bf70cea8p+4 522/0x1.5a2480bb374a3p-1/0x1.60e7373edf5ebp+8/0x1.e1db1dd586e2cp-1/0x0p+0/0x1.dafa9d6779p+2 2655/0x1.16c16c16c16cp+0/0x1.696p+11/0x1.c6872fecb9bb8p-3/0x1p+0/0x1p+3 2655/0x1.3ba215a58e6a3p+1/0x1.992ebfdp+12/0x1.bdcc635be24d9p+3/0x1p+0/0x1.ep+4 522/0x1.0f91e81a53bep+1 522/0x1.5a70736111b75p+4 522/0x1.90ab28dc6141cp+4 u:0x1.202p+11/0x1.f8p+7/0x1.66cp+11/0x1.1fp+9/574 h:0/0 ch:3131/2305/252/574/6/3/3/0 skip:0 checks:196 ok:1",
     0x4ae7eef7df538871ULL},
    {"window/batched/per-slot/discard/C2-hash-shard/fast",
     "525 525 0 0 0 0 525/0x1.d89c89c8aee3dp+0/0x1.e49c834847546p+9/0x1.df18c5ef44136p+2/0x1.83ebc4bp-12/0x1.18da09e4933cp+4 525/0x1.d89c89c8aee3dp+0/0x1.e49c834847546p+9/0x1.df18c5ef44136p+2/0x1.83ebc4bp-12/0x1.18da09e4933cp+4 525/0x1.e18c83c5b72b5p-2/0x1.edc6951e3c526p+7/0x1.93def3ab9be21p-2/0x0p+0/0x1.dafa9d6779p+2 8320/0x1.01b91b91b91b8p+0/0x1.05cp+13/0x1.3a5f5984f74e6p-6/0x1p+0/0x1p+3 8320/0x1.5557999999999p+0/0x1.5aacf8p+13/0x1.c4d8db20acb86p+0/0x1p+0/0x1.1cp+4 525/0x1.6b1389ffd03c1p-1 525/0x1.5e785d55bf506p+2 525/0x1.8bd2c6deb31b5p+3 u:0x1.08a8p+13/0x1.ap+5/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:4561/4245/28/288/0/0/0/0 ch:4540/4224/24/292/0/0/0/0 skip:0 checks:570 ok:1",
     0x44c39c3903a8b946ULL},
    {"window/batched/per-slot/discard/C2-hash-shard/ref",
     "525 525 0 0 0 0 525/0x1.d89c89c8aee3dp+0/0x1.e49c834847546p+9/0x1.df18c5ef44136p+2/0x1.83ebc4bp-12/0x1.18da09e4933cp+4 525/0x1.d89c89c8aee3dp+0/0x1.e49c834847546p+9/0x1.df18c5ef44136p+2/0x1.83ebc4bp-12/0x1.18da09e4933cp+4 525/0x1.e18c83c5b72b5p-2/0x1.edc6951e3c526p+7/0x1.93def3ab9be21p-2/0x0p+0/0x1.dafa9d6779p+2 8320/0x1.01b91b91b91b8p+0/0x1.05cp+13/0x1.3a5f5984f74e6p-6/0x1p+0/0x1p+3 8320/0x1.5557999999999p+0/0x1.5aacf8p+13/0x1.c4d8db20acb86p+0/0x1p+0/0x1.1cp+4 525/0x1.6b1389ffd03c1p-1 525/0x1.5e785d55bf506p+2 525/0x1.8bd2c6deb31b5p+3 u:0x1.08a8p+13/0x1.ap+5/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:4561/4245/28/288/0/0/0/0 ch:4540/4224/24/292/0/0/0/0 skip:0 checks:570 ok:1",
     0x15e1b536cd204f1bULL},
    {"window/batched/per-slot/discard/C2-least-loaded/fast",
     "525 525 0 0 0 0 525/0x1.8efb22e573e31p+0/0x1.991c834847546p+9/0x1.8403fbeb36eacp+1/0x1.83ebc4bp-12/0x1.cc69bbf81b3p+2 525/0x1.8efb22e573e31p+0/0x1.991c834847546p+9/0x1.8403fbeb36eacp+1/0x1.83ebc4bp-12/0x1.cc69bbf81b3p+2 525/0x1.547e9764490f1p-2/0x1.5d23ce3c54e9ep+7/0x1.e7903cc57cd95p-4/0x0p+0/0x1p+0 8374/0x1.0007d37d282b9p+0/0x1.05b8p+13/0x1.f4df4a0ae21a1p-14/0x1p+0/0x1p+1 8374/0x1.505ee44d870f5p+0/0x1.57d8p+13/0x1.79c44db3fc937p+0/0x1p+0/0x1.4p+3 525/0x1.847fac54d3047p-1 525/0x1.2eb572db5fe9dp+2 525/0x1.72a4c531aa1e7p+2 u:0x1.0a3p+13/0x1p+1/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3475/2968/2/505/0/0/0/0 ch:5625/5550/0/75/0/0/0/0 skip:0 checks:570 ok:1",
     0x6ba2176d3995a795ULL},
    {"window/batched/per-slot/discard/C2-least-loaded/ref",
     "525 525 0 0 0 0 525/0x1.8efb22e573e31p+0/0x1.991c834847546p+9/0x1.8403fbeb36eacp+1/0x1.83ebc4bp-12/0x1.cc69bbf81b3p+2 525/0x1.8efb22e573e31p+0/0x1.991c834847546p+9/0x1.8403fbeb36eacp+1/0x1.83ebc4bp-12/0x1.cc69bbf81b3p+2 525/0x1.547e9764490f1p-2/0x1.5d23ce3c54e9ep+7/0x1.e7903cc57cd95p-4/0x0p+0/0x1p+0 8374/0x1.0007d37d282b9p+0/0x1.05b8p+13/0x1.f4df4a0ae21a1p-14/0x1p+0/0x1p+1 8374/0x1.505ee44d870f5p+0/0x1.57d8p+13/0x1.79c44db3fc937p+0/0x1p+0/0x1.4p+3 525/0x1.847fac54d3047p-1 525/0x1.2eb572db5fe9dp+2 525/0x1.72a4c531aa1e7p+2 u:0x1.0a3p+13/0x1p+1/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3475/2968/2/505/0/0/0/0 ch:5625/5550/0/75/0/0/0/0 skip:0 checks:570 ok:1",
     0xc08ec54d5ab1505eULL},
    {"window/batched/per-slot/keep/C1/fast",
     "525 518 0 7 0 0 525/0x1.6f72b72b774e1p+2/0x1.78c720d211d51p+11/0x1.a80a94bed2809p+5/0x1.83ebc4bp-12/0x1.3a02180c3246p+5 518/0x1.570e5b561475ap+2/0x1.5b13866816b29p+11/0x1.557ce006d7be4p+5/0x1.83ebc4bp-12/0x1.cc79bf70cea8p+4 525/0x1.5b28256ee5605p-1/0x1.63f8aa6236333p+8/0x1.ed1eec7dce664p-1/0x0p+0/0x1.dafa9d6779p+2 2635/0x1.1769fea3cd176p+0/0x1.678p+11/0x1.d7ecbad2f0966p-3/0x1p+0/0x1p+3 2635/0x1.40504a77e33e1p+1/0x1.9c1f4ddp+12/0x1.d6b7a585f91cbp+3/0x1p+0/0x1.ep+4 525/0x1.10866d04ea3a6p+1 525/0x1.d3b3e12ab836dp+3 525/0x1.0ab1fdc8d135ap+5 u:0x1.19ep+11/0x1.0ap+8/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3101/2255/266/580/0/0/0/0 skip:0 checks:194 ok:1",
     0x1d08f52e5f73d8ebULL},
    {"window/batched/per-slot/keep/C1/ref",
     "525 518 0 7 0 0 525/0x1.6f72b72b774e1p+2/0x1.78c720d211d51p+11/0x1.a80a94bed2809p+5/0x1.83ebc4bp-12/0x1.3a02180c3246p+5 518/0x1.570e5b561475ap+2/0x1.5b13866816b29p+11/0x1.557ce006d7be4p+5/0x1.83ebc4bp-12/0x1.cc79bf70cea8p+4 525/0x1.5b28256ee5605p-1/0x1.63f8aa6236333p+8/0x1.ed1eec7dce664p-1/0x0p+0/0x1.dafa9d6779p+2 2635/0x1.1769fea3cd176p+0/0x1.678p+11/0x1.d7ecbad2f0966p-3/0x1p+0/0x1p+3 2635/0x1.40504a77e33e1p+1/0x1.9c1f4ddp+12/0x1.d6b7a585f91cbp+3/0x1p+0/0x1.ep+4 525/0x1.10866d04ea3a6p+1 525/0x1.d3b3e12ab836dp+3 525/0x1.0ab1fdc8d135ap+5 u:0x1.19ep+11/0x1.0ap+8/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3101/2255/266/580/0/0/0/0 skip:0 checks:194 ok:1",
     0x2618b426ff9b4473ULL},
    {"window/batched/per-slot/keep/C2-hash-shard/fast",
     "525 525 0 0 0 0 525/0x1.d89c89c8aee3dp+0/0x1.e49c834847546p+9/0x1.df18c5ef44136p+2/0x1.83ebc4bp-12/0x1.18da09e4933cp+4 525/0x1.d89c89c8aee3dp+0/0x1.e49c834847546p+9/0x1.df18c5ef44136p+2/0x1.83ebc4bp-12/0x1.18da09e4933cp+4 525/0x1.e18c83c5b72b5p-2/0x1.edc6951e3c526p+7/0x1.93def3ab9be21p-2/0x0p+0/0x1.dafa9d6779p+2 8320/0x1.01b91b91b91b8p+0/0x1.05cp+13/0x1.3a5f5984f74e6p-6/0x1p+0/0x1p+3 8320/0x1.5557999999999p+0/0x1.5aacf8p+13/0x1.c4d8db20acb86p+0/0x1p+0/0x1.1cp+4 525/0x1.6b1389ffd03c1p-1 525/0x1.5e785d55bf506p+2 525/0x1.8bd2c6deb31b5p+3 u:0x1.08a8p+13/0x1.ap+5/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:4561/4245/28/288/0/0/0/0 ch:4540/4224/24/292/0/0/0/0 skip:0 checks:570 ok:1",
     0x44c39c3903a8b946ULL},
    {"window/batched/per-slot/keep/C2-hash-shard/ref",
     "525 525 0 0 0 0 525/0x1.d89c89c8aee3dp+0/0x1.e49c834847546p+9/0x1.df18c5ef44136p+2/0x1.83ebc4bp-12/0x1.18da09e4933cp+4 525/0x1.d89c89c8aee3dp+0/0x1.e49c834847546p+9/0x1.df18c5ef44136p+2/0x1.83ebc4bp-12/0x1.18da09e4933cp+4 525/0x1.e18c83c5b72b5p-2/0x1.edc6951e3c526p+7/0x1.93def3ab9be21p-2/0x0p+0/0x1.dafa9d6779p+2 8320/0x1.01b91b91b91b8p+0/0x1.05cp+13/0x1.3a5f5984f74e6p-6/0x1p+0/0x1p+3 8320/0x1.5557999999999p+0/0x1.5aacf8p+13/0x1.c4d8db20acb86p+0/0x1p+0/0x1.1cp+4 525/0x1.6b1389ffd03c1p-1 525/0x1.5e785d55bf506p+2 525/0x1.8bd2c6deb31b5p+3 u:0x1.08a8p+13/0x1.ap+5/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:4561/4245/28/288/0/0/0/0 ch:4540/4224/24/292/0/0/0/0 skip:0 checks:570 ok:1",
     0x15e1b536cd204f1bULL},
    {"window/batched/per-slot/keep/C2-least-loaded/fast",
     "525 525 0 0 0 0 525/0x1.8efb22e573e31p+0/0x1.991c834847546p+9/0x1.8403fbeb36eacp+1/0x1.83ebc4bp-12/0x1.cc69bbf81b3p+2 525/0x1.8efb22e573e31p+0/0x1.991c834847546p+9/0x1.8403fbeb36eacp+1/0x1.83ebc4bp-12/0x1.cc69bbf81b3p+2 525/0x1.547e9764490f1p-2/0x1.5d23ce3c54e9ep+7/0x1.e7903cc57cd95p-4/0x0p+0/0x1p+0 8374/0x1.0007d37d282b9p+0/0x1.05b8p+13/0x1.f4df4a0ae21a1p-14/0x1p+0/0x1p+1 8374/0x1.505ee44d870f5p+0/0x1.57d8p+13/0x1.79c44db3fc937p+0/0x1p+0/0x1.4p+3 525/0x1.847fac54d3047p-1 525/0x1.2eb572db5fe9dp+2 525/0x1.72a4c531aa1e7p+2 u:0x1.0a3p+13/0x1p+1/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3475/2968/2/505/0/0/0/0 ch:5625/5550/0/75/0/0/0/0 skip:0 checks:570 ok:1",
     0x6ba2176d3995a795ULL},
    {"window/batched/per-slot/keep/C2-least-loaded/ref",
     "525 525 0 0 0 0 525/0x1.8efb22e573e31p+0/0x1.991c834847546p+9/0x1.8403fbeb36eacp+1/0x1.83ebc4bp-12/0x1.cc69bbf81b3p+2 525/0x1.8efb22e573e31p+0/0x1.991c834847546p+9/0x1.8403fbeb36eacp+1/0x1.83ebc4bp-12/0x1.cc69bbf81b3p+2 525/0x1.547e9764490f1p-2/0x1.5d23ce3c54e9ep+7/0x1.e7903cc57cd95p-4/0x0p+0/0x1p+0 8374/0x1.0007d37d282b9p+0/0x1.05b8p+13/0x1.f4df4a0ae21a1p-14/0x1p+0/0x1p+1 8374/0x1.505ee44d870f5p+0/0x1.57d8p+13/0x1.79c44db3fc937p+0/0x1p+0/0x1.4p+3 525/0x1.847fac54d3047p-1 525/0x1.2eb572db5fe9dp+2 525/0x1.72a4c531aa1e7p+2 u:0x1.0a3p+13/0x1p+1/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3475/2968/2/505/0/0/0/0 ch:5625/5550/0/75/0/0/0/0 skip:0 checks:570 ok:1",
     0xc08ec54d5ab1505eULL},
    {"window/batched/skip/discard/C1/fast",
     "525 521 3 1 0 0 522/0x1.5db2d6a5b2ffcp+2/0x1.648754d6ef7eep+11/0x1.6ab9f3cd63d74p+5/0x1.83ebc4bp-12/0x1.f5f9b7ea229ap+4 521/0x1.5a840f22fdc3ep+2/0x1.609b61671b39ap+11/0x1.61139165a5f3fp+5/0x1.83ebc4bp-12/0x1.cc79bf70cea8p+4 522/0x1.5a2480bb374a3p-1/0x1.60e7373edf5ebp+8/0x1.e1db1dd586e2cp-1/0x0p+0/0x1.dafa9d6779p+2 2655/0x1.16c16c16c16cp+0/0x1.696p+11/0x1.c6872fecb9bb8p-3/0x1p+0/0x1p+3 2655/0x1.3ba215a58e6a3p+1/0x1.992ebfdp+12/0x1.bdcc635be24d9p+3/0x1p+0/0x1.ep+4 522/0x1.0f91e81a53bep+1 522/0x1.5a70736111b75p+4 522/0x1.90ab28dc6141cp+4 u:0x1.202p+11/0x1.f8p+7/0x1.66cp+11/0x1.1fp+9/574 h:0/0 ch:3131/2305/252/574/6/3/3/0 skip:2041 checks:196 ok:1",
     0x4e6392ef11bce5e8ULL},
    {"window/batched/skip/keep/C1/fast",
     "525 518 0 7 0 0 525/0x1.6f72b72b774e1p+2/0x1.78c720d211d51p+11/0x1.a80a94bed2809p+5/0x1.83ebc4bp-12/0x1.3a02180c3246p+5 518/0x1.570e5b561475ap+2/0x1.5b13866816b29p+11/0x1.557ce006d7be4p+5/0x1.83ebc4bp-12/0x1.cc79bf70cea8p+4 525/0x1.5b28256ee5605p-1/0x1.63f8aa6236333p+8/0x1.ed1eec7dce664p-1/0x0p+0/0x1.dafa9d6779p+2 2635/0x1.1769fea3cd176p+0/0x1.678p+11/0x1.d7ecbad2f0966p-3/0x1p+0/0x1p+3 2635/0x1.40504a77e33e1p+1/0x1.9c1f4ddp+12/0x1.d6b7a585f91cbp+3/0x1p+0/0x1.ep+4 525/0x1.10866d04ea3a6p+1 525/0x1.d3b3e12ab836dp+3 525/0x1.0ab1fdc8d135ap+5 u:0x1.19ep+11/0x1.0ap+8/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3101/2255/266/580/0/0/0/0 skip:1992 checks:194 ok:1",
     0xde192b1e663710b8ULL},
    {"slotted-aloha/per-station/per-slot/discard/C1/fast",
     "566 540 24 0 0 2 540/0x1.01dd592c2cebep+3/0x1.0ff7740c9760dp+12/0x1.d09b5c4b0ba7fp+5/0x1.4a5025a04p-6/0x1.de1d371b7dbp+4 540/0x1.01dd592c2cebep+3/0x1.0ff7740c9760dp+12/0x1.d09b5c4b0ba7fp+5/0x1.4a5025a04p-6/0x1.de1d371b7dbp+4 540/0x1.7a2c5a28c084bp+0/0x1.8edac716fb0b7p+9/0x1.b2ec2f7076291p+1/0x0p+0/0x1.cp+3 2671/0x1p+0/0x1.4dep+11/0x0p+0/0x1p+0/0x1p+0 2792/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 540/0x1.6d7482f284934p+2 540/0x1.4b6da704c64e1p+4 540/0x1.d84398ffb1232p+4 u:0x1.1e6p+11/0x1.0ep+7/0x1.748p+11/0x1.2ap+9/596 h:0/0 ch:3022/2291/135/596/26/0/19/7 skip:0 checks:189 ok:1",
     0xd9efb33060e09468ULL},
    {"slotted-aloha/per-station/per-slot/discard/C1/ref",
     "566 540 24 0 0 2 540/0x1.01dd592c2cebep+3/0x1.0ff7740c9760dp+12/0x1.d09b5c4b0ba7fp+5/0x1.4a5025a04p-6/0x1.de1d371b7dbp+4 540/0x1.01dd592c2cebep+3/0x1.0ff7740c9760dp+12/0x1.d09b5c4b0ba7fp+5/0x1.4a5025a04p-6/0x1.de1d371b7dbp+4 540/0x1.7a2c5a28c084bp+0/0x1.8edac716fb0b7p+9/0x1.b2ec2f7076291p+1/0x0p+0/0x1.cp+3 2671/0x1p+0/0x1.4dep+11/0x0p+0/0x1p+0/0x1p+0 2792/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 540/0x1.6d7482f284934p+2 540/0x1.4b6da704c64e1p+4 540/0x1.d84398ffb1232p+4 u:0x1.1e6p+11/0x1.0ep+7/0x1.748p+11/0x1.2ap+9/596 h:0/0 ch:3022/2291/135/596/26/0/19/7 skip:0 checks:189 ok:1",
     0xd9efb33060e09468ULL},
    {"slotted-aloha/per-station/per-slot/discard/C2-hash-shard/fast",
     "565 555 8 0 0 2 555/0x1.3634d8f56c471p+2/0x1.5042492e08de7p+11/0x1.dd7f3b8c76f8ap+4/0x1.285692p-15/0x1.d9c7f3f611fp+4 555/0x1.3634d8f56c471p+2/0x1.5042492e08de7p+11/0x1.dd7f3b8c76f8ap+4/0x1.285692p-15/0x1.d9c7f3f611fp+4 555/0x1.e09d7419395b8p+0/0x1.047d56acabd68p+10/0x1.015cd903ff922p+2/0x0p+0/0x1.ap+3 8156/0x1p+0/0x1.fdcp+12/0x0p+0/0x1p+0/0x1p+0 8214/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 555/0x1.6b2cf1776d12ep+1 555/0x1.86dd72e148b91p+3 555/0x1.9cedaff2b8848p+4 u:0x1.01f8p+13/0x1.fp+5/0x1.7fcp+11/0x1.33p+9/614 h:0/0 ch:4440/4105/23/312/2/0/2/0 ch:4491/4150/39/302/6/0/6/0 skip:0 checks:559 ok:1",
     0x1a12e86243d345d6ULL},
    {"slotted-aloha/per-station/per-slot/discard/C2-hash-shard/ref",
     "565 555 8 0 0 2 555/0x1.3634d8f56c471p+2/0x1.5042492e08de7p+11/0x1.dd7f3b8c76f8ap+4/0x1.285692p-15/0x1.d9c7f3f611fp+4 555/0x1.3634d8f56c471p+2/0x1.5042492e08de7p+11/0x1.dd7f3b8c76f8ap+4/0x1.285692p-15/0x1.d9c7f3f611fp+4 555/0x1.e09d7419395b8p+0/0x1.047d56acabd68p+10/0x1.015cd903ff922p+2/0x0p+0/0x1.ap+3 8156/0x1p+0/0x1.fdcp+12/0x0p+0/0x1p+0/0x1p+0 8214/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 555/0x1.6b2cf1776d12ep+1 555/0x1.86dd72e148b91p+3 555/0x1.9cedaff2b8848p+4 u:0x1.01f8p+13/0x1.fp+5/0x1.7fcp+11/0x1.33p+9/614 h:0/0 ch:4440/4105/23/312/2/0/2/0 ch:4491/4150/39/302/6/0/6/0 skip:0 checks:559 ok:1",
     0x1a12e86243d345d6ULL},
    {"slotted-aloha/per-station/per-slot/discard/C2-least-loaded/fast",
     "565 563 0 0 0 2 563/0x1.eafcb8b28a799p+1/0x1.0df2728c29a26p+11/0x1.9b58ffea5405ep+3/0x1.eaa3ceap-12/0x1.8cf57a17c648p+4 563/0x1.eafcb8b28a799p+1/0x1.0df2728c29a26p+11/0x1.9b58ffea5405ep+3/0x1.eaa3ceap-12/0x1.8cf57a17c648p+4 563/0x1.d538bb1018dedp+0/0x1.01faf0d919ac6p+10/0x1.fc8387a794e8cp+1/0x0p+0/0x1.cp+3 8158/0x1p+0/0x1.fdep+12/0x0p+0/0x1p+0/0x1p+0 8173/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 563/0x1.6b16cfa3a2cc1p+1 563/0x1.0785ed9728f1ep+3 563/0x1.182d25adace8ep+4 u:0x1.01f8p+13/0x1.ep+3/0x1.84cp+11/0x1.37p+9/622 h:0/0 ch:3641/3158/11/472/0/0/0/0 ch:5251/5097/4/150/0/0/0/0 skip:0 checks:557 ok:1",
     0xfafda0321cdccf31ULL},
    {"slotted-aloha/per-station/per-slot/discard/C2-least-loaded/ref",
     "565 563 0 0 0 2 563/0x1.eafcb8b28a799p+1/0x1.0df2728c29a26p+11/0x1.9b58ffea5405ep+3/0x1.eaa3ceap-12/0x1.8cf57a17c648p+4 563/0x1.eafcb8b28a799p+1/0x1.0df2728c29a26p+11/0x1.9b58ffea5405ep+3/0x1.eaa3ceap-12/0x1.8cf57a17c648p+4 563/0x1.d538bb1018dedp+0/0x1.01faf0d919ac6p+10/0x1.fc8387a794e8cp+1/0x0p+0/0x1.cp+3 8158/0x1p+0/0x1.fdep+12/0x0p+0/0x1p+0/0x1p+0 8173/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 563/0x1.6b16cfa3a2cc1p+1 563/0x1.0785ed9728f1ep+3 563/0x1.182d25adace8ep+4 u:0x1.01f8p+13/0x1.ep+3/0x1.84cp+11/0x1.37p+9/622 h:0/0 ch:3641/3158/11/472/0/0/0/0 ch:5251/5097/4/150/0/0/0/0 skip:0 checks:557 ok:1",
     0xfafda0321cdccf31ULL},
    {"slotted-aloha/per-station/per-slot/keep/C1/fast",
     "567 501 0 60 0 6 561/0x1.823ee5cd8ef19p+3/0x1.a735eacbbb1f5p+12/0x1.a16506120fc66p+7/0x1.e49eef99p-8/0x1.663eb80de927p+6 501/0x1.fdacd1fc8edc1p+2/0x1.f2b99b79a1ca9p+11/0x1.a3e13c121fc64p+5/0x1.e49eef99p-8/0x1.deca09f6aa78p+4 561/0x1.7199e4a2a29fap+0/0x1.94f91f0433302p+9/0x1.95cd99adc740cp+1/0x0p+0/0x1.1p+4 2515/0x1p+0/0x1.3a6p+11/0x0p+0/0x1p+0/0x1p+0 2683/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 561/0x1.b4e4400d3062ap+2 561/0x1.b7839905bf22ap+4 561/0x1.026552549da6ep+6 u:0x1.058p+11/0x1.78p+7/0x1.838p+11/0x1.36p+9/620 h:0/0 ch:2900/2092/188/620/0/0/0/0 skip:0 checks:182 ok:1",
     0x0dc9feebb6c1998fULL},
    {"slotted-aloha/per-station/per-slot/keep/C1/ref",
     "567 501 0 60 0 6 561/0x1.823ee5cd8ef19p+3/0x1.a735eacbbb1f5p+12/0x1.a16506120fc66p+7/0x1.e49eef99p-8/0x1.663eb80de927p+6 501/0x1.fdacd1fc8edc1p+2/0x1.f2b99b79a1ca9p+11/0x1.a3e13c121fc64p+5/0x1.e49eef99p-8/0x1.deca09f6aa78p+4 561/0x1.7199e4a2a29fap+0/0x1.94f91f0433302p+9/0x1.95cd99adc740cp+1/0x0p+0/0x1.1p+4 2515/0x1p+0/0x1.3a6p+11/0x0p+0/0x1p+0/0x1p+0 2683/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 561/0x1.b4e4400d3062ap+2 561/0x1.b7839905bf22ap+4 561/0x1.026552549da6ep+6 u:0x1.058p+11/0x1.78p+7/0x1.838p+11/0x1.36p+9/620 h:0/0 ch:2900/2092/188/620/0/0/0/0 skip:0 checks:182 ok:1",
     0x0dc9feebb6c1998fULL},
    {"slotted-aloha/per-station/per-slot/keep/C2-hash-shard/fast",
     "567 558 0 5 0 4 563/0x1.3cd60d9766bdp+2/0x1.5c655ff1fb78dp+11/0x1.1d988d9c869e5p+5/0x1.0e7ec4a05p-6/0x1.30188a86a628p+5 558/0x1.2ca73601ff08p+2/0x1.47aa3bdc2cf17p+11/0x1.cbc878d26ef7p+4/0x1.0e7ec4a05p-6/0x1.bbe229a4224p+4 563/0x1.bd96abacb0f1ep+0/0x1.e9f92dc66491ep+9/0x1.b7259cf994bdap+1/0x0p+0/0x1.5c8dacf20ap+3 8132/0x1p+0/0x1.fc4p+12/0x0p+0/0x1p+0/0x1p+0 8173/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 563/0x1.5a03c350934a6p+1 563/0x1.821b0b3ffe7f7p+3 563/0x1.b5c427956fd98p+4 u:0x1.00f8p+13/0x1.68p+5/0x1.84cp+11/0x1.37p+9/622 h:0/0 ch:4430/4092/24/314/0/0/0/0 ch:4460/4131/21/308/0/0/0/0 skip:0 checks:556 ok:1",
     0x47366f48538fec38ULL},
    {"slotted-aloha/per-station/per-slot/keep/C2-hash-shard/ref",
     "567 558 0 5 0 4 563/0x1.3cd60d9766bdp+2/0x1.5c655ff1fb78dp+11/0x1.1d988d9c869e5p+5/0x1.0e7ec4a05p-6/0x1.30188a86a628p+5 558/0x1.2ca73601ff08p+2/0x1.47aa3bdc2cf17p+11/0x1.cbc878d26ef7p+4/0x1.0e7ec4a05p-6/0x1.bbe229a4224p+4 563/0x1.bd96abacb0f1ep+0/0x1.e9f92dc66491ep+9/0x1.b7259cf994bdap+1/0x0p+0/0x1.5c8dacf20ap+3 8132/0x1p+0/0x1.fc4p+12/0x0p+0/0x1p+0/0x1p+0 8173/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 563/0x1.5a03c350934a6p+1 563/0x1.821b0b3ffe7f7p+3 563/0x1.b5c427956fd98p+4 u:0x1.00f8p+13/0x1.68p+5/0x1.84cp+11/0x1.37p+9/622 h:0/0 ch:4430/4092/24/314/0/0/0/0 ch:4460/4131/21/308/0/0/0/0 skip:0 checks:556 ok:1",
     0x47366f48538fec38ULL},
    {"slotted-aloha/per-station/per-slot/keep/C2-least-loaded/fast",
     "565 563 0 0 0 2 563/0x1.eafcb8b28a799p+1/0x1.0df2728c29a26p+11/0x1.9b58ffea5405ep+3/0x1.eaa3ceap-12/0x1.8cf57a17c648p+4 563/0x1.eafcb8b28a799p+1/0x1.0df2728c29a26p+11/0x1.9b58ffea5405ep+3/0x1.eaa3ceap-12/0x1.8cf57a17c648p+4 563/0x1.d538bb1018dedp+0/0x1.01faf0d919ac6p+10/0x1.fc8387a794e8cp+1/0x0p+0/0x1.cp+3 8158/0x1p+0/0x1.fdep+12/0x0p+0/0x1p+0/0x1p+0 8173/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 563/0x1.6b16cfa3a2cc1p+1 563/0x1.0785ed9728f1ep+3 563/0x1.182d25adace8ep+4 u:0x1.01f8p+13/0x1.ep+3/0x1.84cp+11/0x1.37p+9/622 h:0/0 ch:3641/3158/11/472/0/0/0/0 ch:5251/5097/4/150/0/0/0/0 skip:0 checks:557 ok:1",
     0xfafda0321cdccf31ULL},
    {"slotted-aloha/per-station/per-slot/keep/C2-least-loaded/ref",
     "565 563 0 0 0 2 563/0x1.eafcb8b28a799p+1/0x1.0df2728c29a26p+11/0x1.9b58ffea5405ep+3/0x1.eaa3ceap-12/0x1.8cf57a17c648p+4 563/0x1.eafcb8b28a799p+1/0x1.0df2728c29a26p+11/0x1.9b58ffea5405ep+3/0x1.eaa3ceap-12/0x1.8cf57a17c648p+4 563/0x1.d538bb1018dedp+0/0x1.01faf0d919ac6p+10/0x1.fc8387a794e8cp+1/0x0p+0/0x1.cp+3 8158/0x1p+0/0x1.fdep+12/0x0p+0/0x1p+0/0x1p+0 8173/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 563/0x1.6b16cfa3a2cc1p+1 563/0x1.0785ed9728f1ep+3 563/0x1.182d25adace8ep+4 u:0x1.01f8p+13/0x1.ep+3/0x1.84cp+11/0x1.37p+9/622 h:0/0 ch:3641/3158/11/472/0/0/0/0 ch:5251/5097/4/150/0/0/0/0 skip:0 checks:557 ok:1",
     0xfafda0321cdccf31ULL},
    {"slotted-aloha/batched/per-slot/discard/C1/fast",
     "525 516 9 0 0 0 516/0x1.aa8c913a7ffb4p+2/0x1.ade1aa5cf4fafp+11/0x1.4ea9dd056dea7p+5/0x1.e02eaff1p-8/0x1.db1f33bffee8p+4 516/0x1.aa8c913a7ffb4p+2/0x1.ade1aa5cf4fafp+11/0x1.4ea9dd056dea7p+5/0x1.e02eaff1p-8/0x1.db1f33bffee8p+4 516/0x1.71db6b48acd93p+0/0x1.74bf221f3e32cp+9/0x1.63e55191bb2c4p+1/0x0p+0/0x1.45c118c9874p+3 2857/0x1p+0/0x1.652p+11/0x0p+0/0x1p+0/0x1p+0 2923/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 516/0x1.2afb92130522fp+2 516/0x1.042fd972a5aeep+4 516/0x1.a62c0b3f94f57p+4 u:0x1.3cep+11/0x1.38p+6/0x1.612p+11/0x1.1a8p+9/565 h:0/0 ch:3178/2535/78/565/15/0/11/4 skip:0 checks:199 ok:1",
     0x7e0951e6432a5d3fULL},
    {"slotted-aloha/batched/per-slot/discard/C1/ref",
     "525 516 9 0 0 0 516/0x1.aa8c913a7ffb4p+2/0x1.ade1aa5cf4fafp+11/0x1.4ea9dd056dea7p+5/0x1.e02eaff1p-8/0x1.db1f33bffee8p+4 516/0x1.aa8c913a7ffb4p+2/0x1.ade1aa5cf4fafp+11/0x1.4ea9dd056dea7p+5/0x1.e02eaff1p-8/0x1.db1f33bffee8p+4 516/0x1.71db6b48acd93p+0/0x1.74bf221f3e32cp+9/0x1.63e55191bb2c4p+1/0x0p+0/0x1.45c118c9874p+3 2857/0x1p+0/0x1.652p+11/0x0p+0/0x1p+0/0x1p+0 2923/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 516/0x1.2afb92130522fp+2 516/0x1.042fd972a5aeep+4 516/0x1.a62c0b3f94f57p+4 u:0x1.3cep+11/0x1.38p+6/0x1.612p+11/0x1.1a8p+9/565 h:0/0 ch:3178/2535/78/565/15/0/11/4 skip:0 checks:199 ok:1",
     0x7e0951e6432a5d3fULL},
    {"slotted-aloha/batched/per-slot/discard/C2-hash-shard/fast",
     "525 525 0 0 0 0 525/0x1.f1ab67834e2e3p+1/0x1.fe4e41a423aa3p+10/0x1.441332d356fc7p+4/0x1.e02eaff1p-8/0x1.b7e35290059p+4 525/0x1.f1ab67834e2e3p+1/0x1.fe4e41a423aa3p+10/0x1.441332d356fc7p+4/0x1.e02eaff1p-8/0x1.b7e35290059p+4 525/0x1.ce527661f1cbp+0/0x1.da0f8e636e6eap+9/0x1.e14c68dd20177p+1/0x0p+0/0x1.ccad40284c78p+3 8353/0x1p+0/0x1.0508p+13/0x0p+0/0x1p+0/0x1p+0 8374/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 525/0x1.069daa2a3fc4fp+1 525/0x1.002f88c295451p+3 525/0x1.48b75561fa655p+4 u:0x1.098p+13/0x1.8p+4/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:4560/4259/13/288/0/0/0/0 ch:4540/4237/11/292/0/0/0/0 skip:0 checks:570 ok:1",
     0x822abe589f053e2dULL},
    {"slotted-aloha/batched/per-slot/discard/C2-hash-shard/ref",
     "525 525 0 0 0 0 525/0x1.f1ab67834e2e3p+1/0x1.fe4e41a423aa3p+10/0x1.441332d356fc7p+4/0x1.e02eaff1p-8/0x1.b7e35290059p+4 525/0x1.f1ab67834e2e3p+1/0x1.fe4e41a423aa3p+10/0x1.441332d356fc7p+4/0x1.e02eaff1p-8/0x1.b7e35290059p+4 525/0x1.ce527661f1cbp+0/0x1.da0f8e636e6eap+9/0x1.e14c68dd20177p+1/0x0p+0/0x1.ccad40284c78p+3 8353/0x1p+0/0x1.0508p+13/0x0p+0/0x1p+0/0x1p+0 8374/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 525/0x1.069daa2a3fc4fp+1 525/0x1.002f88c295451p+3 525/0x1.48b75561fa655p+4 u:0x1.098p+13/0x1.8p+4/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:4560/4259/13/288/0/0/0/0 ch:4540/4237/11/292/0/0/0/0 skip:0 checks:570 ok:1",
     0x822abe589f053e2dULL},
    {"slotted-aloha/batched/per-slot/discard/C2-least-loaded/fast",
     "525 525 0 0 0 0 525/0x1.a710576be6518p+1/0x1.b1ce41a423aa3p+10/0x1.2bc1d2b741546p+3/0x1.04989a42p-5/0x1.3fe1d0ee8eap+4 525/0x1.a710576be6518p+1/0x1.b1ce41a423aa3p+10/0x1.2bc1d2b741546p+3/0x1.04989a42p-5/0x1.3fe1d0ee8eap+4 525/0x1.fd8fc35f6ac66p+0/0x1.053ff4eaab7ep+10/0x1.05ee19b40f35cp+2/0x0p+0/0x1.cp+3 8371/0x1p+0/0x1.0598p+13/0x0p+0/0x1p+0/0x1p+0 8375/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 525/0x1.3419694794bbep+1 525/0x1.d284efe178e3ap+2 525/0x1.bcbd926b8a14ap+3 u:0x1.0a2p+13/0x1p+2/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3735/3278/4/453/0/0/0/0 ch:5365/5238/0/127/0/0/0/0 skip:0 checks:570 ok:1",
     0xde1d27c359fab239ULL},
    {"slotted-aloha/batched/per-slot/discard/C2-least-loaded/ref",
     "525 525 0 0 0 0 525/0x1.a710576be6518p+1/0x1.b1ce41a423aa3p+10/0x1.2bc1d2b741546p+3/0x1.04989a42p-5/0x1.3fe1d0ee8eap+4 525/0x1.a710576be6518p+1/0x1.b1ce41a423aa3p+10/0x1.2bc1d2b741546p+3/0x1.04989a42p-5/0x1.3fe1d0ee8eap+4 525/0x1.fd8fc35f6ac66p+0/0x1.053ff4eaab7ep+10/0x1.05ee19b40f35cp+2/0x0p+0/0x1.cp+3 8371/0x1p+0/0x1.0598p+13/0x0p+0/0x1p+0/0x1p+0 8375/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 525/0x1.3419694794bbep+1 525/0x1.d284efe178e3ap+2 525/0x1.bcbd926b8a14ap+3 u:0x1.0a2p+13/0x1p+2/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3735/3278/4/453/0/0/0/0 ch:5365/5238/0/127/0/0/0/0 skip:0 checks:570 ok:1",
     0xde1d27c359fab239ULL},
    {"slotted-aloha/batched/per-slot/keep/C1/fast",
     "525 503 0 22 0 0 525/0x1.ef72b72b774dcp+2/0x1.fc0720d211d51p+11/0x1.47c20af1249fbp+6/0x1.4ba3694aap-6/0x1.adca52245f68p+5 503/0x1.9ac6cf8f9b5f6p+2/0x1.938e50e995244p+11/0x1.4b7b8940f3f5dp+5/0x1.4ba3694aap-6/0x1.dffe3462a1ccp+4 525/0x1.836d7bf7b36d5p+0/0x1.8d43c39d7d7bap+9/0x1.87c1be9441714p+1/0x0p+0/0x1.4fc5bdd8c68p+3 2797/0x1p+0/0x1.5dap+11/0x0p+0/0x1p+0/0x1p+0 2875/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 525/0x1.1b4679defc26fp+2 525/0x1.3abf16c7bd0ep+4 525/0x1.41d4c49d25dd2p+5 u:0x1.2d4p+11/0x1.b8p+6/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3100/2410/110/580/0/0/0/0 skip:0 checks:194 ok:1",
     0x768191fa9249e2dfULL},
    {"slotted-aloha/batched/per-slot/keep/C1/ref",
     "525 503 0 22 0 0 525/0x1.ef72b72b774dcp+2/0x1.fc0720d211d51p+11/0x1.47c20af1249fbp+6/0x1.4ba3694aap-6/0x1.adca52245f68p+5 503/0x1.9ac6cf8f9b5f6p+2/0x1.938e50e995244p+11/0x1.4b7b8940f3f5dp+5/0x1.4ba3694aap-6/0x1.dffe3462a1ccp+4 525/0x1.836d7bf7b36d5p+0/0x1.8d43c39d7d7bap+9/0x1.87c1be9441714p+1/0x0p+0/0x1.4fc5bdd8c68p+3 2797/0x1p+0/0x1.5dap+11/0x0p+0/0x1p+0/0x1p+0 2875/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 525/0x1.1b4679defc26fp+2 525/0x1.3abf16c7bd0ep+4 525/0x1.41d4c49d25dd2p+5 u:0x1.2d4p+11/0x1.b8p+6/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3100/2410/110/580/0/0/0/0 skip:0 checks:194 ok:1",
     0x768191fa9249e2dfULL},
    {"slotted-aloha/batched/per-slot/keep/C2-hash-shard/fast",
     "525 525 0 0 0 0 525/0x1.f1ab67834e2e3p+1/0x1.fe4e41a423aa3p+10/0x1.441332d356fc7p+4/0x1.e02eaff1p-8/0x1.b7e35290059p+4 525/0x1.f1ab67834e2e3p+1/0x1.fe4e41a423aa3p+10/0x1.441332d356fc7p+4/0x1.e02eaff1p-8/0x1.b7e35290059p+4 525/0x1.ce527661f1cbp+0/0x1.da0f8e636e6eap+9/0x1.e14c68dd20177p+1/0x0p+0/0x1.ccad40284c78p+3 8353/0x1p+0/0x1.0508p+13/0x0p+0/0x1p+0/0x1p+0 8374/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 525/0x1.069daa2a3fc4fp+1 525/0x1.002f88c295451p+3 525/0x1.48b75561fa655p+4 u:0x1.098p+13/0x1.8p+4/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:4560/4259/13/288/0/0/0/0 ch:4540/4237/11/292/0/0/0/0 skip:0 checks:570 ok:1",
     0x822abe589f053e2dULL},
    {"slotted-aloha/batched/per-slot/keep/C2-hash-shard/ref",
     "525 525 0 0 0 0 525/0x1.f1ab67834e2e3p+1/0x1.fe4e41a423aa3p+10/0x1.441332d356fc7p+4/0x1.e02eaff1p-8/0x1.b7e35290059p+4 525/0x1.f1ab67834e2e3p+1/0x1.fe4e41a423aa3p+10/0x1.441332d356fc7p+4/0x1.e02eaff1p-8/0x1.b7e35290059p+4 525/0x1.ce527661f1cbp+0/0x1.da0f8e636e6eap+9/0x1.e14c68dd20177p+1/0x0p+0/0x1.ccad40284c78p+3 8353/0x1p+0/0x1.0508p+13/0x0p+0/0x1p+0/0x1p+0 8374/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 525/0x1.069daa2a3fc4fp+1 525/0x1.002f88c295451p+3 525/0x1.48b75561fa655p+4 u:0x1.098p+13/0x1.8p+4/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:4560/4259/13/288/0/0/0/0 ch:4540/4237/11/292/0/0/0/0 skip:0 checks:570 ok:1",
     0x822abe589f053e2dULL},
    {"slotted-aloha/batched/per-slot/keep/C2-least-loaded/fast",
     "525 525 0 0 0 0 525/0x1.a710576be6518p+1/0x1.b1ce41a423aa3p+10/0x1.2bc1d2b741546p+3/0x1.04989a42p-5/0x1.3fe1d0ee8eap+4 525/0x1.a710576be6518p+1/0x1.b1ce41a423aa3p+10/0x1.2bc1d2b741546p+3/0x1.04989a42p-5/0x1.3fe1d0ee8eap+4 525/0x1.fd8fc35f6ac66p+0/0x1.053ff4eaab7ep+10/0x1.05ee19b40f35cp+2/0x0p+0/0x1.cp+3 8371/0x1p+0/0x1.0598p+13/0x0p+0/0x1p+0/0x1p+0 8375/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 525/0x1.3419694794bbep+1 525/0x1.d284efe178e3ap+2 525/0x1.bcbd926b8a14ap+3 u:0x1.0a2p+13/0x1p+2/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3735/3278/4/453/0/0/0/0 ch:5365/5238/0/127/0/0/0/0 skip:0 checks:570 ok:1",
     0xde1d27c359fab239ULL},
    {"slotted-aloha/batched/per-slot/keep/C2-least-loaded/ref",
     "525 525 0 0 0 0 525/0x1.a710576be6518p+1/0x1.b1ce41a423aa3p+10/0x1.2bc1d2b741546p+3/0x1.04989a42p-5/0x1.3fe1d0ee8eap+4 525/0x1.a710576be6518p+1/0x1.b1ce41a423aa3p+10/0x1.2bc1d2b741546p+3/0x1.04989a42p-5/0x1.3fe1d0ee8eap+4 525/0x1.fd8fc35f6ac66p+0/0x1.053ff4eaab7ep+10/0x1.05ee19b40f35cp+2/0x0p+0/0x1.cp+3 8371/0x1p+0/0x1.0598p+13/0x0p+0/0x1p+0/0x1p+0 8375/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 525/0x1.3419694794bbep+1 525/0x1.d284efe178e3ap+2 525/0x1.bcbd926b8a14ap+3 u:0x1.0a2p+13/0x1p+2/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3735/3278/4/453/0/0/0/0 ch:5365/5238/0/127/0/0/0/0 skip:0 checks:570 ok:1",
     0xde1d27c359fab239ULL},
    {"slotted-aloha/batched/skip/discard/C1/fast",
     "525 516 9 0 0 0 516/0x1.aa8c913a7ffb4p+2/0x1.ade1aa5cf4fafp+11/0x1.4ea9dd056dea7p+5/0x1.e02eaff1p-8/0x1.db1f33bffee8p+4 516/0x1.aa8c913a7ffb4p+2/0x1.ade1aa5cf4fafp+11/0x1.4ea9dd056dea7p+5/0x1.e02eaff1p-8/0x1.db1f33bffee8p+4 516/0x1.71db6b48acd93p+0/0x1.74bf221f3e32cp+9/0x1.63e55191bb2c4p+1/0x0p+0/0x1.45c118c9874p+3 2857/0x1p+0/0x1.652p+11/0x0p+0/0x1p+0/0x1p+0 2923/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 516/0x1.2afb92130522fp+2 516/0x1.042fd972a5aeep+4 516/0x1.a62c0b3f94f57p+4 u:0x1.3cep+11/0x1.38p+6/0x1.612p+11/0x1.1a8p+9/565 h:0/0 ch:3178/2535/78/565/15/0/11/4 skip:1845 checks:199 ok:1",
     0x2016268051d60b67ULL},
    {"slotted-aloha/batched/skip/keep/C1/fast",
     "525 503 0 22 0 0 525/0x1.ef72b72b774dcp+2/0x1.fc0720d211d51p+11/0x1.47c20af1249fbp+6/0x1.4ba3694aap-6/0x1.adca52245f68p+5 503/0x1.9ac6cf8f9b5f6p+2/0x1.938e50e995244p+11/0x1.4b7b8940f3f5dp+5/0x1.4ba3694aap-6/0x1.dffe3462a1ccp+4 525/0x1.836d7bf7b36d5p+0/0x1.8d43c39d7d7bap+9/0x1.87c1be9441714p+1/0x0p+0/0x1.4fc5bdd8c68p+3 2797/0x1p+0/0x1.5dap+11/0x0p+0/0x1p+0/0x1p+0 2875/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 525/0x1.1b4679defc26fp+2 525/0x1.3abf16c7bd0ep+4 525/0x1.41d4c49d25dd2p+5 u:0x1.2d4p+11/0x1.b8p+6/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3100/2410/110/580/0/0/0/0 skip:1711 checks:194 ok:1",
     0x0cfff98f8d1e7e90ULL},
    {"dynamic-aloha/per-station/per-slot/discard/C1/fast",
     "565 542 21 0 0 2 542/0x1.91be210176b8ap+2/0x1.a94844f08caddp+11/0x1.b5340699f998cp+5/0x1.2dc10818p-9/0x1.d8fa88907138p+4 542/0x1.91be210176b8ap+2/0x1.a94844f08caddp+11/0x1.b5340699f998cp+5/0x1.2dc10818p-9/0x1.d8fa88907138p+4 542/0x1.7bf0e3b779da6p-1/0x1.9234010f39fe6p+8/0x1.6fb51d96c9fdcp+0/0x0p+0/0x1.2p+3 2605/0x1p+0/0x1.45ap+11/0x0p+0/0x1p+0/0x1p+0 2780/0x1.39b41d15c901bp-1/0x1.a9d3fd7b1258cp+10/0x1.0502f62b1f993p+0/0x1.999999999999ap-4/0x1.9d81f0d70a311p+2 542/0x1.a3b84300c1accp+1 542/0x1.2e69944027a96p+4 542/0x1.c100f26db6629p+4 u:0x1.148p+11/0x1.7ep+7/0x1.77p+11/0x1.2cp+9/600 h:0/0 ch:3003/2212/191/600/22/0/20/2 skip:0 checks:188 ok:1",
     0xfb4077519accad14ULL},
    {"dynamic-aloha/per-station/per-slot/discard/C1/ref",
     "565 542 21 0 0 2 542/0x1.91be210176b8ap+2/0x1.a94844f08caddp+11/0x1.b5340699f998cp+5/0x1.2dc10818p-9/0x1.d8fa88907138p+4 542/0x1.91be210176b8ap+2/0x1.a94844f08caddp+11/0x1.b5340699f998cp+5/0x1.2dc10818p-9/0x1.d8fa88907138p+4 542/0x1.7bf0e3b779da6p-1/0x1.9234010f39fe6p+8/0x1.6fb51d96c9fdcp+0/0x0p+0/0x1.2p+3 2605/0x1p+0/0x1.45ap+11/0x0p+0/0x1p+0/0x1p+0 2780/0x1.39b41d15c901bp-1/0x1.a9d3fd7b1258cp+10/0x1.0502f62b1f993p+0/0x1.999999999999ap-4/0x1.9d81f0d70a311p+2 542/0x1.a3b84300c1accp+1 542/0x1.2e69944027a96p+4 542/0x1.c100f26db6629p+4 u:0x1.148p+11/0x1.7ep+7/0x1.77p+11/0x1.2cp+9/600 h:0/0 ch:3003/2212/191/600/22/0/20/2 skip:0 checks:188 ok:1",
     0xfb4077519accad14ULL},
    {"dynamic-aloha/per-station/per-slot/discard/C2-hash-shard/fast",
     "565 561 4 0 0 0 561/0x1.5b54faf4482f7p+1/0x1.7c929cf8a917cp+10/0x1.674dca3712f05p+4/0x1.510162db8p-8/0x1.b96271998ebp+4 561/0x1.5b54faf4482f7p+1/0x1.7c929cf8a917cp+10/0x1.674dca3712f05p+4/0x1.510162db8p-8/0x1.b96271998ebp+4 561/0x1.1e305c231480ap-1/0x1.3993fcf46ff6cp+8/0x1.c885739dac0bp-1/0x0p+0/0x1.4p+3 8112/0x1p+0/0x1.fbp+12/0x0p+0/0x1p+0/0x1p+0 8186/0x1.89d4f5fba6544p-3/0x1.898b1e0d87201p+10/0x1.a6f6567a33db5p-3/0x1.999999999999ap-4/0x1.24e79081061d7p+3 561/0x1.686de5a421434p-1 561/0x1.cab33f8d1289p+2 561/0x1.86acb21a98d8ep+4 u:0x1.005p+13/0x1.44p+6/0x1.838p+11/0x1.36p+9/620 h:0/0 ch:4441/4084/45/312/3/0/3/0 ch:4462/4118/36/308/1/0/1/0 skip:0 checks:557 ok:1",
     0x998a6e0e2d6a3c71ULL},
    {"dynamic-aloha/per-station/per-slot/discard/C2-hash-shard/ref",
     "565 561 4 0 0 0 561/0x1.5b54faf4482f7p+1/0x1.7c929cf8a917cp+10/0x1.674dca3712f05p+4/0x1.510162db8p-8/0x1.b96271998ebp+4 561/0x1.5b54faf4482f7p+1/0x1.7c929cf8a917cp+10/0x1.674dca3712f05p+4/0x1.510162db8p-8/0x1.b96271998ebp+4 561/0x1.1e305c231480ap-1/0x1.3993fcf46ff6cp+8/0x1.c885739dac0bp-1/0x0p+0/0x1.4p+3 8112/0x1p+0/0x1.fbp+12/0x0p+0/0x1p+0/0x1p+0 8186/0x1.89d4f5fba6544p-3/0x1.898b1e0d87201p+10/0x1.a6f6567a33db5p-3/0x1.999999999999ap-4/0x1.24e79081061d7p+3 561/0x1.686de5a421434p-1 561/0x1.cab33f8d1289p+2 561/0x1.86acb21a98d8ep+4 u:0x1.005p+13/0x1.44p+6/0x1.838p+11/0x1.36p+9/620 h:0/0 ch:4441/4084/45/312/3/0/3/0 ch:4462/4118/36/308/1/0/1/0 skip:0 checks:557 ok:1",
     0x998a6e0e2d6a3c71ULL},
    {"dynamic-aloha/per-station/per-slot/discard/C2-least-loaded/fast",
     "567 565 0 0 0 2 565/0x1.00e80f9536b6cp+1/0x1.1b80153228e0ep+10/0x1.5ea42df05f576p+2/0x1.e5fcd728p-11/0x1.eecbaefd216p+3 565/0x1.00e80f9536b6cp+1/0x1.1b80153228e0ep+10/0x1.5ea42df05f576p+2/0x1.e5fcd728p-11/0x1.eecbaefd216p+3 565/0x1.36caaab931de3p-2/0x1.56f6a5655d88p+7/0x1.6fd07ac4d00fp-3/0x0p+0/0x1p+2 8153/0x1p+0/0x1.fd9p+12/0x0p+0/0x1p+0/0x1p+0 8169/0x1.2397149b7fe3ep-3/0x1.22c58004b020ap+10/0x1.f27e5fc20ef6p-6/0x1.999999999999ap-4/0x1.579b27126e8dcp+1 565/0x1.9ebff89f4f116p-1 565/0x1.5479a00288f21p+2 565/0x1.66adbd4be7b74p+3 u:0x1.01bp+13/0x1p+4/0x1.86p+11/0x1.38p+9/624 h:0/0 ch:3361/2820/13/528/0/0/0/0 ch:5525/5426/3/96/0/0/0/0 skip:0 checks:557 ok:1",
     0x6d2bf6e3967c01a9ULL},
    {"dynamic-aloha/per-station/per-slot/discard/C2-least-loaded/ref",
     "567 565 0 0 0 2 565/0x1.00e80f9536b6cp+1/0x1.1b80153228e0ep+10/0x1.5ea42df05f576p+2/0x1.e5fcd728p-11/0x1.eecbaefd216p+3 565/0x1.00e80f9536b6cp+1/0x1.1b80153228e0ep+10/0x1.5ea42df05f576p+2/0x1.e5fcd728p-11/0x1.eecbaefd216p+3 565/0x1.36caaab931de3p-2/0x1.56f6a5655d88p+7/0x1.6fd07ac4d00fp-3/0x0p+0/0x1p+2 8153/0x1p+0/0x1.fd9p+12/0x0p+0/0x1p+0/0x1p+0 8169/0x1.2397149b7fe3ep-3/0x1.22c58004b020ap+10/0x1.f27e5fc20ef6p-6/0x1.999999999999ap-4/0x1.579b27126e8dcp+1 565/0x1.9ebff89f4f116p-1 565/0x1.5479a00288f21p+2 565/0x1.66adbd4be7b74p+3 u:0x1.01bp+13/0x1p+4/0x1.86p+11/0x1.38p+9/624 h:0/0 ch:3361/2820/13/528/0/0/0/0 ch:5525/5426/3/96/0/0/0/0 skip:0 checks:557 ok:1",
     0x6d2bf6e3967c01a9ULL},
    {"dynamic-aloha/per-station/per-slot/keep/C1/fast",
     "565 501 0 61 0 3 562/0x1.5d2fd8f8a45b7p+3/0x1.7f498528ec68ep+12/0x1.e7817cdf7606ap+7/0x1.36c22334p-9/0x1.dee03a3d19d1p+6 501/0x1.9caafaa009b91p+2/0x1.93cd4e3d99838p+11/0x1.9eb000822246ep+5/0x1.36c22334p-9/0x1.d7b9671da8ap+4 562/0x1.bbc3570e96052p-1/0x1.e7196a8f02ab2p+8/0x1.969918b0899d8p+0/0x0p+0/0x1.2p+3 2466/0x1p+0/0x1.344p+11/0x0p+0/0x1p+0/0x1p+0 2678/0x1.a488e68ac236ep-1/0x1.12f301baf8b92p+11/0x1.9ab6cd62bbed9p+0/0x1.999999999999ap-4/0x1.8fb5eac6a7de4p+2 562/0x1.2ed32092dfb59p+2 562/0x1.f352f9a039304p+4 562/0x1.2d64e9983cbb1p+6 u:0x1.f9cp+10/0x1.f8p+7/0x1.842p+11/0x1.368p+9/621 h:0/0 ch:2896/2023/252/621/0/0/0/0 skip:0 checks:182 ok:1",
     0x8c13f719e4aeed39ULL},
    {"dynamic-aloha/per-station/per-slot/keep/C1/ref",
     "565 501 0 61 0 3 562/0x1.5d2fd8f8a45b7p+3/0x1.7f498528ec68ep+12/0x1.e7817cdf7606ap+7/0x1.36c22334p-9/0x1.dee03a3d19d1p+6 501/0x1.9caafaa009b91p+2/0x1.93cd4e3d99838p+11/0x1.9eb000822246ep+5/0x1.36c22334p-9/0x1.d7b9671da8ap+4 562/0x1.bbc3570e96052p-1/0x1.e7196a8f02ab2p+8/0x1.969918b0899d8p+0/0x0p+0/0x1.2p+3 2466/0x1p+0/0x1.344p+11/0x0p+0/0x1p+0/0x1p+0 2678/0x1.a488e68ac236ep-1/0x1.12f301baf8b92p+11/0x1.9ab6cd62bbed9p+0/0x1.999999999999ap-4/0x1.8fb5eac6a7de4p+2 562/0x1.2ed32092dfb59p+2 562/0x1.f352f9a039304p+4 562/0x1.2d64e9983cbb1p+6 u:0x1.f9cp+10/0x1.f8p+7/0x1.842p+11/0x1.368p+9/621 h:0/0 ch:2896/2023/252/621/0/0/0/0 skip:0 checks:182 ok:1",
     0x8c13f719e4aeed39ULL},
    {"dynamic-aloha/per-station/per-slot/keep/C2-hash-shard/fast",
     "565 562 0 3 0 0 565/0x1.6860984425f5bp+1/0x1.8dae980733e36p+10/0x1.90921580cebep+4/0x1.510162db8p-8/0x1.1474b48a826ep+5 562/0x1.53814ae0ae833p+1/0x1.74a8eb309f8ep+10/0x1.423f461fc03dcp+4/0x1.510162db8p-8/0x1.de8ab6f9e5d8p+4 565/0x1.142478fb8791dp-1/0x1.30ba3f81911acp+8/0x1.7f630a1e3a9c5p-1/0x0p+0/0x1.4p+3 8098/0x1p+0/0x1.fa2p+12/0x0p+0/0x1p+0/0x1p+0 8166/0x1.7177f3f243269p-3/0x1.704bc27c0e4dcp+10/0x1.089efb64cacc2p-3/0x1.999999999999ap-4/0x1.571b8a70a3cacp+2 565/0x1.6782d5bdad513p-1 565/0x1.fb2ba4f06b8b7p+2 565/0x1.7c590e5cae788p+4 u:0x1.ff8p+12/0x1.2cp+6/0x1.86p+11/0x1.38p+9/624 h:0/0 ch:4426/4073/38/315/0/0/0/0 ch:4457/4111/37/309/0/0/0/0 skip:0 checks:556 ok:1",
     0x944f2cf44ae9e027ULL},
    {"dynamic-aloha/per-station/per-slot/keep/C2-hash-shard/ref",
     "565 562 0 3 0 0 565/0x1.6860984425f5bp+1/0x1.8dae980733e36p+10/0x1.90921580cebep+4/0x1.510162db8p-8/0x1.1474b48a826ep+5 562/0x1.53814ae0ae833p+1/0x1.74a8eb309f8ep+10/0x1.423f461fc03dcp+4/0x1.510162db8p-8/0x1.de8ab6f9e5d8p+4 565/0x1.142478fb8791dp-1/0x1.30ba3f81911acp+8/0x1.7f630a1e3a9c5p-1/0x0p+0/0x1.4p+3 8098/0x1p+0/0x1.fa2p+12/0x0p+0/0x1p+0/0x1p+0 8166/0x1.7177f3f243269p-3/0x1.704bc27c0e4dcp+10/0x1.089efb64cacc2p-3/0x1.999999999999ap-4/0x1.571b8a70a3cacp+2 565/0x1.6782d5bdad513p-1 565/0x1.fb2ba4f06b8b7p+2 565/0x1.7c590e5cae788p+4 u:0x1.ff8p+12/0x1.2cp+6/0x1.86p+11/0x1.38p+9/624 h:0/0 ch:4426/4073/38/315/0/0/0/0 ch:4457/4111/37/309/0/0/0/0 skip:0 checks:556 ok:1",
     0x944f2cf44ae9e027ULL},
    {"dynamic-aloha/per-station/per-slot/keep/C2-least-loaded/fast",
     "567 565 0 0 0 2 565/0x1.00e80f9536b6cp+1/0x1.1b80153228e0ep+10/0x1.5ea42df05f576p+2/0x1.e5fcd728p-11/0x1.eecbaefd216p+3 565/0x1.00e80f9536b6cp+1/0x1.1b80153228e0ep+10/0x1.5ea42df05f576p+2/0x1.e5fcd728p-11/0x1.eecbaefd216p+3 565/0x1.36caaab931de3p-2/0x1.56f6a5655d88p+7/0x1.6fd07ac4d00fp-3/0x0p+0/0x1p+2 8153/0x1p+0/0x1.fd9p+12/0x0p+0/0x1p+0/0x1p+0 8169/0x1.2397149b7fe3ep-3/0x1.22c58004b020ap+10/0x1.f27e5fc20ef6p-6/0x1.999999999999ap-4/0x1.579b27126e8dcp+1 565/0x1.9ebff89f4f116p-1 565/0x1.5479a00288f21p+2 565/0x1.66adbd4be7b74p+3 u:0x1.01bp+13/0x1p+4/0x1.86p+11/0x1.38p+9/624 h:0/0 ch:3361/2820/13/528/0/0/0/0 ch:5525/5426/3/96/0/0/0/0 skip:0 checks:557 ok:1",
     0x6d2bf6e3967c01a9ULL},
    {"dynamic-aloha/per-station/per-slot/keep/C2-least-loaded/ref",
     "567 565 0 0 0 2 565/0x1.00e80f9536b6cp+1/0x1.1b80153228e0ep+10/0x1.5ea42df05f576p+2/0x1.e5fcd728p-11/0x1.eecbaefd216p+3 565/0x1.00e80f9536b6cp+1/0x1.1b80153228e0ep+10/0x1.5ea42df05f576p+2/0x1.e5fcd728p-11/0x1.eecbaefd216p+3 565/0x1.36caaab931de3p-2/0x1.56f6a5655d88p+7/0x1.6fd07ac4d00fp-3/0x0p+0/0x1p+2 8153/0x1p+0/0x1.fd9p+12/0x0p+0/0x1p+0/0x1p+0 8169/0x1.2397149b7fe3ep-3/0x1.22c58004b020ap+10/0x1.f27e5fc20ef6p-6/0x1.999999999999ap-4/0x1.579b27126e8dcp+1 565/0x1.9ebff89f4f116p-1 565/0x1.5479a00288f21p+2 565/0x1.66adbd4be7b74p+3 u:0x1.01bp+13/0x1p+4/0x1.86p+11/0x1.38p+9/624 h:0/0 ch:3361/2820/13/528/0/0/0/0 ch:5525/5426/3/96/0/0/0/0 skip:0 checks:557 ok:1",
     0x6d2bf6e3967c01a9ULL},
    {"dynamic-aloha/batched/per-slot/discard/C1/fast",
     "525 518 7 0 0 0 518/0x1.1eeff6eba3bc2p+2/0x1.224cc6d066a77p+11/0x1.0d9bc162b74dbp+5/0x1.83ebc4bp-12/0x1.ce09e03428c8p+4 518/0x1.1eeff6eba3bc2p+2/0x1.224cc6d066a77p+11/0x1.0d9bc162b74dbp+5/0x1.83ebc4bp-12/0x1.ce09e03428c8p+4 518/0x1.3e09d402a2ad9p-1/0x1.41c3f17eaa959p+8/0x1.053c7a8c6ea16p+0/0x0p+0/0x1.0ea752418e4p+3 2793/0x1p+0/0x1.5d2p+11/0x0p+0/0x1p+0/0x1p+0 2910/0x1.a9392d6616b5cp-2/0x1.2e197f20e7621p+10/0x1.126806943e39p-1/0x1.999999999999ap-4/0x1.5d81f0d70a312p+2 518/0x1.bc0714b6178f1p+0 518/0x1.11fc17934672dp+4 518/0x1.92b3ef4b8cf8p+4 u:0x1.316p+11/0x1.12p+7/0x1.644p+11/0x1.1dp+9/570 h:0/0 ch:3150/2443/137/570/10/0/9/1 skip:0 checks:197 ok:1",
     0x967c70368a919618ULL},
    {"dynamic-aloha/batched/per-slot/discard/C1/ref",
     "525 518 7 0 0 0 518/0x1.1eeff6eba3bc2p+2/0x1.224cc6d066a77p+11/0x1.0d9bc162b74dbp+5/0x1.83ebc4bp-12/0x1.ce09e03428c8p+4 518/0x1.1eeff6eba3bc2p+2/0x1.224cc6d066a77p+11/0x1.0d9bc162b74dbp+5/0x1.83ebc4bp-12/0x1.ce09e03428c8p+4 518/0x1.3e09d402a2ad9p-1/0x1.41c3f17eaa959p+8/0x1.053c7a8c6ea16p+0/0x0p+0/0x1.0ea752418e4p+3 2793/0x1p+0/0x1.5d2p+11/0x0p+0/0x1p+0/0x1p+0 2910/0x1.a9392d6616b5cp-2/0x1.2e197f20e7621p+10/0x1.126806943e39p-1/0x1.999999999999ap-4/0x1.5d81f0d70a312p+2 518/0x1.bc0714b6178f1p+0 518/0x1.11fc17934672dp+4 518/0x1.92b3ef4b8cf8p+4 u:0x1.316p+11/0x1.12p+7/0x1.644p+11/0x1.1dp+9/570 h:0/0 ch:3150/2443/137/570/10/0/9/1 skip:0 checks:197 ok:1",
     0x967c70368a919618ULL},
    {"dynamic-aloha/batched/per-slot/discard/C2-hash-shard/fast",
     "525 524 1 0 0 0 524/0x1.d8c12bf179df4p+0/0x1.e3d5b2f922ba8p+9/0x1.2cc4f70c32648p+3/0x1.83ebc4bp-12/0x1.8ef81203e3e8p+4 524/0x1.d8c12bf179df4p+0/0x1.e3d5b2f922ba8p+9/0x1.2cc4f70c32648p+3/0x1.83ebc4bp-12/0x1.8ef81203e3e8p+4 524/0x1.e1aa1c235e094p-2/0x1.ecf418cc323d6p+7/0x1.8f9e11948c147p-2/0x0p+0/0x1.8p+2 8342/0x1p+0/0x1.04bp+13/0x0p+0/0x1p+0/0x1p+0 8380/0x1.34b9fe134a8eep-3/0x1.3bcfc2c7fbe47p+10/0x1.bd5a5bb758df6p-5/0x1.999999999999ap-4/0x1.d69bedced907dp+1 524/0x1.69b0ccb90214ep-1 524/0x1.55a4fdc30dd18p+2 524/0x1.16af00b285655p+4 u:0x1.0908p+13/0x1.68p+5/0x1.69ep+11/0x1.218p+9/579 h:0/0 ch:4565/4256/22/287/1/0/1/0 ch:4540/4225/23/292/0/0/0/0 skip:0 checks:570 ok:1",
     0x1a98eb3a1d8db55fULL},
    {"dynamic-aloha/batched/per-slot/discard/C2-hash-shard/ref",
     "525 524 1 0 0 0 524/0x1.d8c12bf179df4p+0/0x1.e3d5b2f922ba8p+9/0x1.2cc4f70c32648p+3/0x1.83ebc4bp-12/0x1.8ef81203e3e8p+4 524/0x1.d8c12bf179df4p+0/0x1.e3d5b2f922ba8p+9/0x1.2cc4f70c32648p+3/0x1.83ebc4bp-12/0x1.8ef81203e3e8p+4 524/0x1.e1aa1c235e094p-2/0x1.ecf418cc323d6p+7/0x1.8f9e11948c147p-2/0x0p+0/0x1.8p+2 8342/0x1p+0/0x1.04bp+13/0x0p+0/0x1p+0/0x1p+0 8380/0x1.34b9fe134a8eep-3/0x1.3bcfc2c7fbe47p+10/0x1.bd5a5bb758df6p-5/0x1.999999999999ap-4/0x1.d69bedced907dp+1 524/0x1.69b0ccb90214ep-1 524/0x1.55a4fdc30dd18p+2 524/0x1.16af00b285655p+4 u:0x1.0908p+13/0x1.68p+5/0x1.69ep+11/0x1.218p+9/579 h:0/0 ch:4565/4256/22/287/1/0/1/0 ch:4540/4225/23/292/0/0/0/0 skip:0 checks:570 ok:1",
     0x1a98eb3a1d8db55fULL},
    {"dynamic-aloha/batched/per-slot/discard/C2-least-loaded/fast",
     "525 525 0 0 0 0 525/0x1.91e81e81fa782p+0/0x1.9c1c834847546p+9/0x1.958f0a4e50832p+1/0x1.83ebc4bp-12/0x1.4634ddfc0d98p+3 525/0x1.91e81e81fa782p+0/0x1.9c1c834847546p+9/0x1.958f0a4e50832p+1/0x1.83ebc4bp-12/0x1.4634ddfc0d98p+3 525/0x1.5a588e9d56398p-2/0x1.6323ce3c54e9ep+7/0x1.268b077a2cf7dp-3/0x0p+0/0x1p+2 8373/0x1p+0/0x1.05a8p+13/0x0p+0/0x1p+0/0x1p+0 8375/0x1.0f1334741c782p-3/0x1.15216a48147cp+10/0x1.102235f123081p-6/0x1.999999999999ap-4/0x1.579b27126e8dcp+1 525/0x1.86e33c5f50d2ep-1 525/0x1.32ccbc04ab82bp+2 525/0x1.63838b4898c94p+2 u:0x1.0a2p+13/0x1p+2/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3475/2966/4/505/0/0/0/0 ch:5625/5550/0/75/0/0/0/0 skip:0 checks:570 ok:1",
     0x0fb4210da6646fc3ULL},
    {"dynamic-aloha/batched/per-slot/discard/C2-least-loaded/ref",
     "525 525 0 0 0 0 525/0x1.91e81e81fa782p+0/0x1.9c1c834847546p+9/0x1.958f0a4e50832p+1/0x1.83ebc4bp-12/0x1.4634ddfc0d98p+3 525/0x1.91e81e81fa782p+0/0x1.9c1c834847546p+9/0x1.958f0a4e50832p+1/0x1.83ebc4bp-12/0x1.4634ddfc0d98p+3 525/0x1.5a588e9d56398p-2/0x1.6323ce3c54e9ep+7/0x1.268b077a2cf7dp-3/0x0p+0/0x1p+2 8373/0x1p+0/0x1.05a8p+13/0x0p+0/0x1p+0/0x1p+0 8375/0x1.0f1334741c782p-3/0x1.15216a48147cp+10/0x1.102235f123081p-6/0x1.999999999999ap-4/0x1.579b27126e8dcp+1 525/0x1.86e33c5f50d2ep-1 525/0x1.32ccbc04ab82bp+2 525/0x1.63838b4898c94p+2 u:0x1.0a2p+13/0x1p+2/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3475/2966/4/505/0/0/0/0 ch:5625/5550/0/75/0/0/0/0 skip:0 checks:570 ok:1",
     0x0fb4210da6646fc3ULL},
    {"dynamic-aloha/batched/per-slot/keep/C1/fast",
     "525 502 0 23 0 0 525/0x1.a9b7f518efbe8p+2/0x1.b48720d211d51p+11/0x1.9136959a88e7bp+6/0x1.83ebc4bp-12/0x1.07bc9ecdae66p+6 502/0x1.42ccb10046dcap+2/0x1.3c7eb18b457a8p+11/0x1.4a52b83012147p+5/0x1.83ebc4bp-12/0x1.cbca1395e5ccp+4 525/0x1.891c263f02f36p-1/0x1.93175d379c86bp+8/0x1.8cdea99e1ea7ap+0/0x0p+0/0x1.6p+3 2722/0x1p+0/0x1.544p+11/0x0p+0/0x1p+0/0x1p+0 2875/0x1.131441cccc2e4p-1/0x1.82288fdedf1fcp+10/0x1.b54cacc259bddp-1/0x1.999999999999ap-4/0x1.5d81f0d70a312p+2 525/0x1.150b1495e6f7dp+1 525/0x1.181768680c392p+4 525/0x1.77293cf119d56p+5 u:0x1.25ep+11/0x1.52p+7/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3100/2351/169/580/0/0/0/0 skip:0 checks:194 ok:1",
     0xae5e1734c8548f6aULL},
    {"dynamic-aloha/batched/per-slot/keep/C1/ref",
     "525 502 0 23 0 0 525/0x1.a9b7f518efbe8p+2/0x1.b48720d211d51p+11/0x1.9136959a88e7bp+6/0x1.83ebc4bp-12/0x1.07bc9ecdae66p+6 502/0x1.42ccb10046dcap+2/0x1.3c7eb18b457a8p+11/0x1.4a52b83012147p+5/0x1.83ebc4bp-12/0x1.cbca1395e5ccp+4 525/0x1.891c263f02f36p-1/0x1.93175d379c86bp+8/0x1.8cdea99e1ea7ap+0/0x0p+0/0x1.6p+3 2722/0x1p+0/0x1.544p+11/0x0p+0/0x1p+0/0x1p+0 2875/0x1.131441cccc2e4p-1/0x1.82288fdedf1fcp+10/0x1.b54cacc259bddp-1/0x1.999999999999ap-4/0x1.5d81f0d70a312p+2 525/0x1.150b1495e6f7dp+1 525/0x1.181768680c392p+4 525/0x1.77293cf119d56p+5 u:0x1.25ep+11/0x1.52p+7/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3100/2351/169/580/0/0/0/0 skip:0 checks:194 ok:1",
     0xae5e1734c8548f6aULL},
    {"dynamic-aloha/batched/per-slot/keep/C2-hash-shard/fast",
     "525 524 0 1 0 0 525/0x1.e3d3a3a0b2ca5p+0/0x1.f01c834847546p+9/0x1.5786cf1601109p+3/0x1.83ebc4bp-12/0x1.e8da09e4933cp+4 524/0x1.d5d2c26aa2e96p+0/0x1.e0d5b2f922ba8p+9/0x1.25d189e19d44p+3/0x1.83ebc4bp-12/0x1.baf9e94ab6e8p+4 525/0x1.dfe78dbbf2b1fp-2/0x1.ec16eed5385b6p+7/0x1.81bf2481f34cbp-2/0x0p+0/0x1.8p+2 8338/0x1p+0/0x1.049p+13/0x0p+0/0x1p+0/0x1p+0 8375/0x1.364c224bf0272p-3/0x1.3d3aa5b0126b9p+10/0x1.ecad33b8e34d6p-5/0x1.999999999999ap-4/0x1.3134c0ac08275p+2 525/0x1.6cb7b36a4ab7dp-1 525/0x1.554a72ffd7701p+2 525/0x1.d0755b709b3aep+3 u:0x1.08ep+13/0x1.6p+5/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:4560/4251/21/288/0/0/0/0 ch:4540/4225/23/292/0/0/0/0 skip:0 checks:570 ok:1",
     0xe4319f25b6289d47ULL},
    {"dynamic-aloha/batched/per-slot/keep/C2-hash-shard/ref",
     "525 524 0 1 0 0 525/0x1.e3d3a3a0b2ca5p+0/0x1.f01c834847546p+9/0x1.5786cf1601109p+3/0x1.83ebc4bp-12/0x1.e8da09e4933cp+4 524/0x1.d5d2c26aa2e96p+0/0x1.e0d5b2f922ba8p+9/0x1.25d189e19d44p+3/0x1.83ebc4bp-12/0x1.baf9e94ab6e8p+4 525/0x1.dfe78dbbf2b1fp-2/0x1.ec16eed5385b6p+7/0x1.81bf2481f34cbp-2/0x0p+0/0x1.8p+2 8338/0x1p+0/0x1.049p+13/0x0p+0/0x1p+0/0x1p+0 8375/0x1.364c224bf0272p-3/0x1.3d3aa5b0126b9p+10/0x1.ecad33b8e34d6p-5/0x1.999999999999ap-4/0x1.3134c0ac08275p+2 525/0x1.6cb7b36a4ab7dp-1 525/0x1.554a72ffd7701p+2 525/0x1.d0755b709b3aep+3 u:0x1.08ep+13/0x1.6p+5/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:4560/4251/21/288/0/0/0/0 ch:4540/4225/23/292/0/0/0/0 skip:0 checks:570 ok:1",
     0xe4319f25b6289d47ULL},
    {"dynamic-aloha/batched/per-slot/keep/C2-least-loaded/fast",
     "525 525 0 0 0 0 525/0x1.91e81e81fa782p+0/0x1.9c1c834847546p+9/0x1.958f0a4e50832p+1/0x1.83ebc4bp-12/0x1.4634ddfc0d98p+3 525/0x1.91e81e81fa782p+0/0x1.9c1c834847546p+9/0x1.958f0a4e50832p+1/0x1.83ebc4bp-12/0x1.4634ddfc0d98p+3 525/0x1.5a588e9d56398p-2/0x1.6323ce3c54e9ep+7/0x1.268b077a2cf7dp-3/0x0p+0/0x1p+2 8373/0x1p+0/0x1.05a8p+13/0x0p+0/0x1p+0/0x1p+0 8375/0x1.0f1334741c782p-3/0x1.15216a48147cp+10/0x1.102235f123081p-6/0x1.999999999999ap-4/0x1.579b27126e8dcp+1 525/0x1.86e33c5f50d2ep-1 525/0x1.32ccbc04ab82bp+2 525/0x1.63838b4898c94p+2 u:0x1.0a2p+13/0x1p+2/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3475/2966/4/505/0/0/0/0 ch:5625/5550/0/75/0/0/0/0 skip:0 checks:570 ok:1",
     0x0fb4210da6646fc3ULL},
    {"dynamic-aloha/batched/per-slot/keep/C2-least-loaded/ref",
     "525 525 0 0 0 0 525/0x1.91e81e81fa782p+0/0x1.9c1c834847546p+9/0x1.958f0a4e50832p+1/0x1.83ebc4bp-12/0x1.4634ddfc0d98p+3 525/0x1.91e81e81fa782p+0/0x1.9c1c834847546p+9/0x1.958f0a4e50832p+1/0x1.83ebc4bp-12/0x1.4634ddfc0d98p+3 525/0x1.5a588e9d56398p-2/0x1.6323ce3c54e9ep+7/0x1.268b077a2cf7dp-3/0x0p+0/0x1p+2 8373/0x1p+0/0x1.05a8p+13/0x0p+0/0x1p+0/0x1p+0 8375/0x1.0f1334741c782p-3/0x1.15216a48147cp+10/0x1.102235f123081p-6/0x1.999999999999ap-4/0x1.579b27126e8dcp+1 525/0x1.86e33c5f50d2ep-1 525/0x1.32ccbc04ab82bp+2 525/0x1.63838b4898c94p+2 u:0x1.0a2p+13/0x1p+2/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3475/2966/4/505/0/0/0/0 ch:5625/5550/0/75/0/0/0/0 skip:0 checks:570 ok:1",
     0x0fb4210da6646fc3ULL},
    {"dynamic-aloha/batched/skip/discard/C1/fast",
     "525 518 7 0 0 0 518/0x1.1eeff6eba3bc2p+2/0x1.224cc6d066a77p+11/0x1.0d9bc162b74dbp+5/0x1.83ebc4bp-12/0x1.ce09e03428c8p+4 518/0x1.1eeff6eba3bc2p+2/0x1.224cc6d066a77p+11/0x1.0d9bc162b74dbp+5/0x1.83ebc4bp-12/0x1.ce09e03428c8p+4 518/0x1.3e09d402a2ad9p-1/0x1.41c3f17eaa959p+8/0x1.053c7a8c6ea16p+0/0x0p+0/0x1.0ea752418e4p+3 2793/0x1p+0/0x1.5d2p+11/0x0p+0/0x1p+0/0x1p+0 2910/0x1.a9392d6616b5cp-2/0x1.2e197f20e7621p+10/0x1.126806943e39p-1/0x1.999999999999ap-4/0x1.5d81f0d70a312p+2 518/0x1.bc0714b6178f1p+0 518/0x1.11fc17934672dp+4 518/0x1.92b3ef4b8cf8p+4 u:0x1.316p+11/0x1.12p+7/0x1.644p+11/0x1.1dp+9/570 h:0/0 ch:3150/2443/137/570/10/0/9/1 skip:2062 checks:197 ok:1",
     0xc5d94818c39e6559ULL},
    {"dynamic-aloha/batched/skip/keep/C1/fast",
     "525 502 0 23 0 0 525/0x1.a9b7f518efbe8p+2/0x1.b48720d211d51p+11/0x1.9136959a88e7bp+6/0x1.83ebc4bp-12/0x1.07bc9ecdae66p+6 502/0x1.42ccb10046dcap+2/0x1.3c7eb18b457a8p+11/0x1.4a52b83012147p+5/0x1.83ebc4bp-12/0x1.cbca1395e5ccp+4 525/0x1.891c263f02f36p-1/0x1.93175d379c86bp+8/0x1.8cdea99e1ea7ap+0/0x0p+0/0x1.6p+3 2722/0x1p+0/0x1.544p+11/0x0p+0/0x1p+0/0x1p+0 2875/0x1.131441cccc2e4p-1/0x1.82288fdedf1fcp+10/0x1.b54cacc259bddp-1/0x1.999999999999ap-4/0x1.5d81f0d70a312p+2 525/0x1.150b1495e6f7dp+1 525/0x1.181768680c392p+4 525/0x1.77293cf119d56p+5 u:0x1.25ep+11/0x1.52p+7/0x1.6a8p+11/0x1.22p+9/580 h:0/0 ch:3100/2351/169/580/0/0/0/0 skip:1945 checks:194 ok:1",
     0x0fcdb7e0b62451b8ULL},
  };
  return table;
}
// clang-format on

const Golden* find_golden(const std::string& cell) {
  for (const Golden& g : goldens()) {
    if (cell == g.cell) return &g;
  }
  return nullptr;
}

void check_cells(EngineKind engine) {
  for (const Cell& c : grid()) {
    if (c.engine != engine) continue;
    const std::string name = c.name();
    if (!c.accepted()) {
      const net::NetworkConfig cfg = config_for(c);
      EXPECT_THROW(build(c, cfg).run(), tcw::ContractViolation) << name;
      continue;
    }
    const Outcome got = run_cell(c);
    const Golden* want = find_golden(name);
    if (want == nullptr) {
      ADD_FAILURE() << "no golden for " << name << "; computed:\n"
                    << table_entry(name, got);
      continue;
    }
    EXPECT_EQ(got.metrics, want->metrics)
        << name << "; computed:\n" << table_entry(name, got);
    EXPECT_EQ(got.overlays, want->overlays)
        << name << " overlays; computed:\n" << table_entry(name, got);
  }
}

TEST(NetworkGolden, WindowEngineMatchesRecordedFingerprints) {
  check_cells(EngineKind::Window);
}

TEST(NetworkGolden, SlottedAlohaMatchesRecordedFingerprints) {
  check_cells(EngineKind::SlottedAloha);
}

TEST(NetworkGolden, DynamicAlohaMatchesRecordedFingerprints) {
  check_cells(EngineKind::DynamicAloha);
}

TEST(NetworkGolden, TableCoversExactlyTheAcceptedGrid) {
  std::size_t accepted = 0;
  for (const Cell& c : grid()) {
    if (!c.accepted()) continue;
    ++accepted;
    EXPECT_NE(find_golden(c.name()), nullptr) << c.name();
  }
  EXPECT_EQ(goldens().size(), accepted);
}

}  // namespace
