// Bit-exact golden fingerprints of the infinite-population ("genie")
// kernel (net::AggregateSimulator) over its configuration grid:
//   {window: optimal, lcfs, random-gap; slotted ALOHA; dynamic ALOHA}
//   x {discard on, off}
//   x {C = 1, C = 2 hash-shard, C = 2 least-loaded}
//   x {capture off, flight recorder + slot series + wait histogram on},
// plus edge cells: warmup and t_end inside a quiescent stretch, a
// fractional slot clock (message_length 12.5), slot jitter, an adaptive
// width table with an in-range "wait" entry, and a bound TraceLog.
// fcfs_baseline(K, w) is optimal(K, w) with discard off, so the
// optimal/keep cells pin it.
//
// Each cell records every SimMetrics field as hex floats together with
// channel_tallies(), probe_steps() and the final clock; a 64-bit FNV-1a
// hash covers the overlays: the net.aggregate.* registry deltas, the
// TraceLog snapshot (trace cell only), the flight-recorder JSON and the
// slot-series CSV rows. The tables pin the output of the build they were
// recorded on, so a stepper rewrite (a fast-forward over quiescent
// slots, a new pending structure) must reproduce it exactly. On a
// mismatch the message carries the computed entry in table form, so a
// deliberate model change can re-record it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chan/arrivals.hpp"
#include "net/aggregate_sim.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/slot_series.hpp"
#include "sim/trace.hpp"

namespace {

namespace net = tcw::net;
namespace obs = tcw::obs;
using net::ChannelSelectorKind;
using tcw::core::ControlPolicy;

constexpr double kRate = 0.02;  // messages/slot; rho' = 0.52 at M = 25

enum class Mac { Optimal, Lcfs, RandomGap, SlottedAloha, DynamicAloha };

const char* mac_name(Mac mac) {
  switch (mac) {
    case Mac::Optimal: return "window-optimal";
    case Mac::Lcfs: return "window-lcfs";
    case Mac::RandomGap: return "window-random-gap";
    case Mac::SlottedAloha: return "slotted-aloha";
    case Mac::DynamicAloha: return "dynamic-aloha";
  }
  return "?";
}

struct Cell {
  Mac mac;
  bool discard;
  std::uint32_t channels;
  ChannelSelectorKind selector;
  bool capture;

  std::string name() const {
    std::string s = mac_name(mac);
    s += discard ? "/discard" : "/keep";
    // Appended piece by piece: GCC 12 at -O3 reports a false-positive
    // -Wrestrict on "/C" + std::to_string(...).
    s += "/C";
    s += std::to_string(channels);
    if (channels > 1) {
      s += '-';
      s += net::to_string(selector);
    }
    s += capture ? "/capture" : "/plain";
    return s;
  }
};

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  const std::pair<std::uint32_t, ChannelSelectorKind> plans[] = {
      {1, ChannelSelectorKind::HashShard},
      {2, ChannelSelectorKind::HashShard},
      {2, ChannelSelectorKind::LeastLoaded}};
  for (const Mac mac : {Mac::Optimal, Mac::Lcfs, Mac::RandomGap,
                        Mac::SlottedAloha, Mac::DynamicAloha}) {
    for (const bool discard : {true, false}) {
      for (const auto& [channels, selector] : plans) {
        for (const bool capture : {false, true}) {
          cells.push_back({mac, discard, channels, selector, capture});
        }
      }
    }
  }
  return cells;
}

net::AggregateConfig config_for(const Cell& c) {
  net::AggregateConfig cfg;
  switch (c.mac) {
    case Mac::Lcfs: cfg.policy = ControlPolicy::lcfs_baseline(60.0, 40.0); break;
    case Mac::RandomGap:
      cfg.policy = ControlPolicy::random_baseline(60.0, 40.0);
      break;
    default: cfg.policy = ControlPolicy::optimal(60.0, 40.0); break;
  }
  cfg.policy.discard = c.discard;
  if (c.mac == Mac::SlottedAloha) {
    cfg.mac.engine.kind = net::EngineKind::SlottedAloha;
  } else if (c.mac == Mac::DynamicAloha) {
    cfg.mac.engine.kind = net::EngineKind::DynamicAloha;
    cfg.mac.engine.arrival_rate = kRate;
  }
  cfg.mac.channel.channels = c.channels;
  cfg.mac.channel.selector = c.selector;
  cfg.message_length = 25.0;
  cfg.t_end = 8000.0;
  cfg.warmup = 1000.0;
  cfg.seed = 0xA66E1;
  return cfg;
}

struct EdgeCell {
  const char* name;
  net::AggregateConfig config;
  double rate;
  bool traced = false;
};

std::vector<EdgeCell> edge_cells() {
  const net::AggregateConfig base =
      config_for({Mac::Optimal, true, 1, ChannelSelectorKind::HashShard, true});
  std::vector<EdgeCell> cells;
  // A light load leaves long quiescent stretches; warmup and t_end land
  // mid-stretch (fractional, so neither is a slot boundary).
  net::AggregateConfig light = base;
  light.warmup = 1500.5;
  light.t_end = 5000.5;
  cells.push_back({"edge/light-load/warmup-t_end-mid-stretch/C1", light,
                   0.002});
  light.mac.channel.channels = 2;
  cells.push_back({"edge/light-load/warmup-t_end-mid-stretch/C2-hash-shard",
                   light, 0.002});
  // Half-slot message length: every success leaves a fractional clock.
  net::AggregateConfig fractional = base;
  fractional.message_length = 12.5;
  cells.push_back({"edge/fractional-clock", fractional, kRate});
  net::AggregateConfig jitter = base;
  jitter.slot_jitter = 0.25;
  cells.push_back({"edge/slot-jitter", jitter, kRate});
  // Entry 3 (a backlog of 3 slots) waits; the quiescent orbit's backlog
  // is 1, so the table both skips and waits.
  net::AggregateConfig table = base;
  table.policy.width_table = {40.0, 40.0, 35.0, 0.0, 30.0, 25.0};
  cells.push_back({"edge/width-table-wait-entry", table, kRate});
  cells.push_back({"edge/trace", base, kRate, true});
  return cells;
}

struct Golden {
  const char* cell;
  const char* metrics;
  std::uint64_t overlays;
};

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

std::string fingerprint(const net::SimMetrics& m,
                        const net::AggregateSimulator& sim) {
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
  for (const obs::ChannelTally& t : sim.channel_tallies()) {
    out << " ch:" << t.probe_slots << '/' << t.idle_slots << '/'
        << t.collisions << '/' << t.successes << '/' << t.sender_discards
        << '/' << t.admission_starved << '/' << t.collision_killed << '/'
        << t.queue_expired;
  }
  std::snprintf(buf, sizeof buf, " probes:%llu now:%a",
                static_cast<unsigned long long>(sim.probe_steps()), sim.now());
  out << buf;
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

// Nonzero net.aggregate.* counter deltas across one run. Zero deltas are
// left out so the bytes do not depend on which counters earlier runs in
// the same process happened to create. net.aggregate.skipped_slots counts
// how the kernel stepped, not what it computed, and is left out too.
std::string registry_delta(const obs::RegistrySnapshot& before,
                           const obs::RegistrySnapshot& after) {
  std::ostringstream out;
  for (const obs::CounterSnapshot& c : after.counters) {
    if (c.name.rfind("net.aggregate.", 0) != 0) continue;
    if (c.name == "net.aggregate.skipped_slots") continue;
    const std::uint64_t delta = c.value - before.counter(c.name);
    if (delta != 0) out << c.name << '=' << delta << '\n';
  }
  return out.str();
}

struct Outcome {
  std::string metrics;
  std::uint64_t overlays = 0;
};

Outcome run_config(net::AggregateConfig cfg, double rate, bool capture,
                   bool traced) {
  obs::FlightRecorder::Options flight_options;
  flight_options.base_seed = cfg.seed;
  flight_options.sample_rate = 0.25;
  flight_options.capacity = 2048;
  obs::FlightRecorder recorder(flight_options);
  obs::SlotSeries series(64);
  tcw::sim::TraceLog trace(2048);
  if (capture) {
    cfg.capture.flight = recorder.segment("cell");
    cfg.capture.series = &series;
    cfg.record_wait_histogram = true;
  }
  if (traced) cfg.trace = &trace;

  net::AggregateSimulator sim(
      cfg, std::make_unique<tcw::chan::PoissonProcess>(rate));
  const obs::RegistrySnapshot before = obs::Registry::global().snapshot();
  const net::SimMetrics& m = sim.run();
  const obs::RegistrySnapshot after = obs::Registry::global().snapshot();

  Outcome out;
  out.metrics = fingerprint(m, sim);
  std::string overlays = registry_delta(before, after);
  overlays += '\x1f';
  if (traced) overlays += trace_bytes(trace);
  overlays += '\x1f';
  if (capture) {
    overlays += recorder.to_json();
    overlays += '\x1f';
    overlays += series.to_csv_rows("cell");
  }
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
    {"window-optimal/discard/C1/plain",
     "151 146 5 0 0 0 146/0x1.ef3176614150dp+3/0x1.1a6a358377402p+11/0x1.28890168dca54p+8/0x1.0412d6f5p-7/0x1.cdb237d7c808p+5 146/0x1.ef3176614150dp+3/0x1.1a6a358377402p+11/0x1.28890168dca54p+8/0x1.0412d6f5p-7/0x1.cdb237d7c808p+5 146/0x1.57584dd9215ccp-1/0x1.87a0b8cbaa0ep+6/0x1.0872fe12afe7ep+0/0x0p+0/0x1.4p+2 3283/0x1.05397829cbc13p+0/0x1.a2cp+11/0x1.d456a2ae90447p-5/0x1p+0/0x1.8p+2 3283/0x1.33241a8328786p+1/0x1.ec5bp+12/0x1.6dce2a0f2bf6p+5/0x1p+0/0x1.ep+5 146/0x1.20a9b60c3daccp+3 146/0x1.5b4c75ecc02ecp+5 146/0x1.b6f1d7fd16501p+5 u:0x1.c52p+11/0x1.d8p+5/0x1.036p+12/0x1.4cp+7/166 h:0/0 ch:3849/3625/59/166/5/0/5/0 probes:3849 now:0x1.f4p+12",
     0xfb30a4e29c3b7c6bULL},
    {"window-optimal/discard/C1/capture",
     "151 146 5 0 0 0 146/0x1.ef3176614150dp+3/0x1.1a6a358377402p+11/0x1.28890168dca54p+8/0x1.0412d6f5p-7/0x1.cdb237d7c808p+5 146/0x1.ef3176614150dp+3/0x1.1a6a358377402p+11/0x1.28890168dca54p+8/0x1.0412d6f5p-7/0x1.cdb237d7c808p+5 146/0x1.57584dd9215ccp-1/0x1.87a0b8cbaa0ep+6/0x1.0872fe12afe7ep+0/0x0p+0/0x1.4p+2 3283/0x1.05397829cbc13p+0/0x1.a2cp+11/0x1.d456a2ae90447p-5/0x1p+0/0x1.8p+2 3283/0x1.33241a8328786p+1/0x1.ec5bp+12/0x1.6dce2a0f2bf6p+5/0x1p+0/0x1.ep+5 146/0x1.20a9b60c3daccp+3 146/0x1.5b4c75ecc02ecp+5 146/0x1.b6f1d7fd16501p+5 u:0x1.c52p+11/0x1.d8p+5/0x1.036p+12/0x1.4cp+7/166 h:1/146 ch:3849/3625/59/166/5/0/5/0 probes:3849 now:0x1.f4p+12",
     0xf3f2ec88d948c4b6ULL},
    {"window-optimal/discard/C2-hash-shard/plain",
     "151 150 1 0 0 0 150/0x1.84bda76109f16p+2/0x1.c78e4025b7a74p+9/0x1.82f2884fec41cp+6/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 150/0x1.84bda76109f16p+2/0x1.c78e4025b7a74p+9/0x1.82f2884fec41cp+6/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 150/0x1.a0d4d36bb4114p-2/0x1.e87967c23704p+5/0x1.632304082200fp-2/0x0p+0/0x1.4p+2 10238/0x1.004cd0a40833ap+0/0x1.405p+13/0x1.1997acc88c94bp-8/0x1p+0/0x1.8p+2 10238/0x1.60806cd23db64p+0/0x1.b88a8p+13/0x1.370048c508ff1p+3/0x1p+0/0x1.ep+5 150/0x1.4603d42a8cb95p-1 150/0x1.49ea47c5e55cp+4 150/0x1.188deb4abdd11p+5 u:0x1.699p+13/0x1.4p+3/0x1.09ap+12/0x1.54p+7/170 h:0/0 ch:6199/6119/9/72/1/0/1/0 ch:5549/5451/1/98/0/0/0/0 probes:11748 now:0x1.f4p+12",
     0x9a0bb1d0d571057bULL},
    {"window-optimal/discard/C2-hash-shard/capture",
     "151 150 1 0 0 0 150/0x1.84bda76109f16p+2/0x1.c78e4025b7a74p+9/0x1.82f2884fec41cp+6/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 150/0x1.84bda76109f16p+2/0x1.c78e4025b7a74p+9/0x1.82f2884fec41cp+6/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 150/0x1.a0d4d36bb4114p-2/0x1.e87967c23704p+5/0x1.632304082200fp-2/0x0p+0/0x1.4p+2 10238/0x1.004cd0a40833ap+0/0x1.405p+13/0x1.1997acc88c94bp-8/0x1p+0/0x1.8p+2 10238/0x1.60806cd23db64p+0/0x1.b88a8p+13/0x1.370048c508ff1p+3/0x1p+0/0x1.ep+5 150/0x1.4603d42a8cb95p-1 150/0x1.49ea47c5e55cp+4 150/0x1.188deb4abdd11p+5 u:0x1.699p+13/0x1.4p+3/0x1.09ap+12/0x1.54p+7/170 h:1/150 ch:6199/6119/9/72/1/0/1/0 ch:5549/5451/1/98/0/0/0/0 probes:11748 now:0x1.f4p+12",
     0xd0b17d37c76b5b23ULL},
    {"window-optimal/discard/C2-least-loaded/plain",
     "151 151 0 0 0 0 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.2b133feb026ffp-2/0x1.60d0b5673cep+5/0x1.ab191cb5ef81ep-4/0x0p+0/0x1.fe9222848cp-1 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.5e83714a7bee9p+0/0x1.b58p+13/0x1.230571f781ec9p+3/0x1p+0/0x1.ap+4 151/0x1.e0fb094a7abbbp-1 151/0x1.5f06df0632f07p+4 151/0x1.90ab0d8ca5196p+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:4274/4126/0/149/0/0/0/0 ch:7449/7428/0/22/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0x14dfda12b3ad237aULL},
    {"window-optimal/discard/C2-least-loaded/capture",
     "151 151 0 0 0 0 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.2b133feb026ffp-2/0x1.60d0b5673cep+5/0x1.ab191cb5ef81ep-4/0x0p+0/0x1.fe9222848cp-1 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.5e83714a7bee9p+0/0x1.b58p+13/0x1.230571f781ec9p+3/0x1p+0/0x1.ap+4 151/0x1.e0fb094a7abbbp-1 151/0x1.5f06df0632f07p+4 151/0x1.90ab0d8ca5196p+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:4274/4126/0/149/0/0/0/0 ch:7449/7428/0/22/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0x0ed8bdbd14696fbaULL},
    {"window-optimal/keep/C1/plain",
     "151 139 0 12 0 0 151/0x1.4b521ccb961aep+4/0x1.86daddf82b13fp+11/0x1.357b30669996bp+9/0x1.0412d6f5p-7/0x1.e0d16d42825cp+6 139/0x1.ebfa2d655fce3p+3/0x1.0b20d6a60b051p+11/0x1.1c2a559e8e9e8p+8/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 151/0x1.6816259d9d5d3p-1/0x1.a8ca205fefa4p+6/0x1.2459045c433d3p+0/0x0p+0/0x1.4p+2 3148/0x1.06430246e98e1p+0/0x1.932p+11/0x1.1d3156b83ae58p-4/0x1p+0/0x1.8p+2 3148/0x1.52c1384643022p+1/0x1.045ap+13/0x1.e1275e6e489a1p+5/0x1p+0/0x1.ep+5 151/0x1.cb4847bb2d937p+3 151/0x1.0645b5eecaf14p+6 151/0x1.8656710164304p+6 u:0x1.b3cp+11/0x1.1p+6/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:3724/3486/68/171/0/0/0/0 probes:3724 now:0x1.f4p+12",
     0x907328d1a96221ebULL},
    {"window-optimal/keep/C1/capture",
     "151 139 0 12 0 0 151/0x1.4b521ccb961aep+4/0x1.86daddf82b13fp+11/0x1.357b30669996bp+9/0x1.0412d6f5p-7/0x1.e0d16d42825cp+6 139/0x1.ebfa2d655fce3p+3/0x1.0b20d6a60b051p+11/0x1.1c2a559e8e9e8p+8/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 151/0x1.6816259d9d5d3p-1/0x1.a8ca205fefa4p+6/0x1.2459045c433d3p+0/0x0p+0/0x1.4p+2 3148/0x1.06430246e98e1p+0/0x1.932p+11/0x1.1d3156b83ae58p-4/0x1p+0/0x1.8p+2 3148/0x1.52c1384643022p+1/0x1.045ap+13/0x1.e1275e6e489a1p+5/0x1p+0/0x1.ep+5 151/0x1.cb4847bb2d937p+3 151/0x1.0645b5eecaf14p+6 151/0x1.8656710164304p+6 u:0x1.b3cp+11/0x1.1p+6/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:3724/3486/68/171/0/0/0/0 probes:3724 now:0x1.f4p+12",
     0x6ead97d7b72bb60cULL},
    {"window-optimal/keep/C2-hash-shard/plain",
     "151 150 0 1 0 0 151/0x1.ac6f717c5508p+2/0x1.f96b77e0ac4fcp+9/0x1.048222eee8b5dp+7/0x1.0412d6f5p-7/0x1.2ae9bdd7a544p+6 150/0x1.8f68520bb49c2p+2/0x1.d40e4025b7a74p+9/0x1.8f6d4338f084p+6/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 151/0x1.974a1787cfb24p-2/0x1.e07967c23704p+5/0x1.608abd76e94fep-2/0x0p+0/0x1.4p+2 10213/0x1.004d00c6ecac9p+0/0x1.3f88p+13/0x1.1a4818a25ddacp-8/0x1p+0/0x1.8p+2 10213/0x1.62988d5f6d367p+0/0x1.ba138p+13/0x1.475130f6856e9p+3/0x1p+0/0x1.ep+5 151/0x1.2c2ad33c05e51p-1 151/0x1.65a82a90f5018p+4 151/0x1.64dadc84f84fep+5 u:0x1.68cp+13/0x1.4p+3/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:6174/6093/9/73/0/0/0/0 ch:5549/5451/1/98/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0xfbaf0b48971a796fULL},
    {"window-optimal/keep/C2-hash-shard/capture",
     "151 150 0 1 0 0 151/0x1.ac6f717c5508p+2/0x1.f96b77e0ac4fcp+9/0x1.048222eee8b5dp+7/0x1.0412d6f5p-7/0x1.2ae9bdd7a544p+6 150/0x1.8f68520bb49c2p+2/0x1.d40e4025b7a74p+9/0x1.8f6d4338f084p+6/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 151/0x1.974a1787cfb24p-2/0x1.e07967c23704p+5/0x1.608abd76e94fep-2/0x0p+0/0x1.4p+2 10213/0x1.004d00c6ecac9p+0/0x1.3f88p+13/0x1.1a4818a25ddacp-8/0x1p+0/0x1.8p+2 10213/0x1.62988d5f6d367p+0/0x1.ba138p+13/0x1.475130f6856e9p+3/0x1p+0/0x1.ep+5 151/0x1.2c2ad33c05e51p-1 151/0x1.65a82a90f5018p+4 151/0x1.64dadc84f84fep+5 u:0x1.68cp+13/0x1.4p+3/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:6174/6093/9/73/0/0/0/0 ch:5549/5451/1/98/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0xcca4743384e2f958ULL},
    {"window-optimal/keep/C2-least-loaded/plain",
     "151 151 0 0 0 0 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.2b133feb026ffp-2/0x1.60d0b5673cep+5/0x1.ab191cb5ef81ep-4/0x0p+0/0x1.fe9222848cp-1 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.5e83714a7bee9p+0/0x1.b58p+13/0x1.230571f781ec9p+3/0x1p+0/0x1.ap+4 151/0x1.e0fb094a7abbbp-1 151/0x1.5f06df0632f07p+4 151/0x1.90ab0d8ca5196p+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:4274/4126/0/149/0/0/0/0 ch:7449/7428/0/22/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0x14dfda12b3ad237aULL},
    {"window-optimal/keep/C2-least-loaded/capture",
     "151 151 0 0 0 0 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.2b133feb026ffp-2/0x1.60d0b5673cep+5/0x1.ab191cb5ef81ep-4/0x0p+0/0x1.fe9222848cp-1 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.5e83714a7bee9p+0/0x1.b58p+13/0x1.230571f781ec9p+3/0x1p+0/0x1.ap+4 151/0x1.e0fb094a7abbbp-1 151/0x1.5f06df0632f07p+4 151/0x1.90ab0d8ca5196p+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:4274/4126/0/149/0/0/0/0 ch:7449/7428/0/22/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0x0ed8bdbd14696fbaULL},
    {"window-lcfs/discard/C1/plain",
     "151 141 10 0 0 0 141/0x1.63d89cb892b72p+3/0x1.87fc9ca3519dcp+10/0x1.a35cda4f8ca35p+7/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 141/0x1.63d89cb892b72p+3/0x1.87fc9ca3519dcp+10/0x1.a35cda4f8ca35p+7/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 141/0x1.543fdcb4ab4c6p-1/0x1.76ce591f04b2p+6/0x1.10191d6fa9ee9p+0/0x0p+0/0x1.8p+2 3411/0x1.04cda3fcb29f5p+0/0x1.b26p+11/0x1.ca5d9b68d56f5p-5/0x1p+0/0x1.cp+2 3411/0x1.0f08a182aa10dp+1/0x1.c36ap+12/0x1.df65b750048c9p+4/0x1p+0/0x1.7cp+5 141/0x1.4f48402b48324p+1 141/0x1.198548456ea93p+5 141/0x1.a4acf138c575bp+5 u:0x1.d7cp+11/0x1.4p+5/0x1.f72p+11/0x1.42p+7/161 h:0/0 ch:3974/3774/40/161/10/0/10/0 probes:3974 now:0x1.f4p+12",
     0x50f2ef8ab14a2fb2ULL},
    {"window-lcfs/discard/C1/capture",
     "151 141 10 0 0 0 141/0x1.63d89cb892b72p+3/0x1.87fc9ca3519dcp+10/0x1.a35cda4f8ca35p+7/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 141/0x1.63d89cb892b72p+3/0x1.87fc9ca3519dcp+10/0x1.a35cda4f8ca35p+7/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 141/0x1.543fdcb4ab4c6p-1/0x1.76ce591f04b2p+6/0x1.10191d6fa9ee9p+0/0x0p+0/0x1.8p+2 3411/0x1.04cda3fcb29f5p+0/0x1.b26p+11/0x1.ca5d9b68d56f5p-5/0x1p+0/0x1.cp+2 3411/0x1.0f08a182aa10dp+1/0x1.c36ap+12/0x1.df65b750048c9p+4/0x1p+0/0x1.7cp+5 141/0x1.4f48402b48324p+1 141/0x1.198548456ea93p+5 141/0x1.a4acf138c575bp+5 u:0x1.d7cp+11/0x1.4p+5/0x1.f72p+11/0x1.42p+7/161 h:1/141 ch:3974/3774/40/161/10/0/10/0 probes:3974 now:0x1.f4p+12",
     0x05982f19f586089bULL},
    {"window-lcfs/discard/C2-hash-shard/plain",
     "151 150 1 0 0 0 150/0x1.7f1669b9d16b7p+2/0x1.c0ee43e5c16a4p+9/0x1.875b146e446b5p+6/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 150/0x1.7f1669b9d16b7p+2/0x1.c0ee43e5c16a4p+9/0x1.875b146e446b5p+6/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 150/0x1.9a0132fe7a0a8p-2/0x1.e07967c23704p+5/0x1.8b0c6601f9142p-2/0x0p+0/0x1.8p+2 10238/0x1.004cd0a40833ap+0/0x1.405p+13/0x1.4000f4adf0fc3p-8/0x1p+0/0x1.cp+2 10238/0x1.5ef6591e0e4d7p+0/0x1.b69ep+13/0x1.2a393509ef717p+3/0x1p+0/0x1.6ap+5 150/0x1.3a91a251888fcp-1 150/0x1.2d6b3ac233ab4p+4 150/0x1.2ee085951f404p+5 u:0x1.69bp+13/0x1.8p+2/0x1.09ap+12/0x1.54p+7/170 h:0/0 ch:6199/6123/5/72/1/0/1/0 ch:5549/5451/1/98/0/0/0/0 probes:11748 now:0x1.f4p+12",
     0xa5672fc96e9b6933ULL},
    {"window-lcfs/discard/C2-hash-shard/capture",
     "151 150 1 0 0 0 150/0x1.7f1669b9d16b7p+2/0x1.c0ee43e5c16a4p+9/0x1.875b146e446b5p+6/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 150/0x1.7f1669b9d16b7p+2/0x1.c0ee43e5c16a4p+9/0x1.875b146e446b5p+6/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 150/0x1.9a0132fe7a0a8p-2/0x1.e07967c23704p+5/0x1.8b0c6601f9142p-2/0x0p+0/0x1.8p+2 10238/0x1.004cd0a40833ap+0/0x1.405p+13/0x1.4000f4adf0fc3p-8/0x1p+0/0x1.cp+2 10238/0x1.5ef6591e0e4d7p+0/0x1.b69ep+13/0x1.2a393509ef717p+3/0x1p+0/0x1.6ap+5 150/0x1.3a91a251888fcp-1 150/0x1.2d6b3ac233ab4p+4 150/0x1.2ee085951f404p+5 u:0x1.69bp+13/0x1.8p+2/0x1.09ap+12/0x1.54p+7/170 h:1/150 ch:6199/6123/5/72/1/0/1/0 ch:5549/5451/1/98/0/0/0/0 probes:11748 now:0x1.f4p+12",
     0x6f12e1a30cd546baULL},
    {"window-lcfs/discard/C2-least-loaded/plain",
     "151 151 0 0 0 0 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.2b133feb026ffp-2/0x1.60d0b5673cep+5/0x1.ab191cb5ef81ep-4/0x0p+0/0x1.fe9222848cp-1 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.5e83714a7bee9p+0/0x1.b58p+13/0x1.230571f781ec9p+3/0x1p+0/0x1.ap+4 151/0x1.e0fb094a7abbbp-1 151/0x1.5f06df0632f07p+4 151/0x1.90ab0d8ca5196p+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:4274/4126/0/149/0/0/0/0 ch:7449/7428/0/22/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0x14dfda12b3ad237aULL},
    {"window-lcfs/discard/C2-least-loaded/capture",
     "151 151 0 0 0 0 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.2b133feb026ffp-2/0x1.60d0b5673cep+5/0x1.ab191cb5ef81ep-4/0x0p+0/0x1.fe9222848cp-1 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.5e83714a7bee9p+0/0x1.b58p+13/0x1.230571f781ec9p+3/0x1p+0/0x1.ap+4 151/0x1.e0fb094a7abbbp-1 151/0x1.5f06df0632f07p+4 151/0x1.90ab0d8ca5196p+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:4274/4126/0/149/0/0/0/0 ch:7449/7428/0/22/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0x0ed8bdbd14696fbaULL},
    {"window-lcfs/keep/C1/plain",
     "151 139 0 12 0 0 151/0x1.526b8afe7280bp+4/0x1.8f3addf82b13fp+11/0x1.daeaa93c16f9fp+10/0x1.0412d6f5p-7/0x1.662ae950c7248p+8 139/0x1.697e5795b823dp+3/0x1.888f331c95f72p+10/0x1.9347195308acep+7/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 151/0x1.83365bde09dep-1/0x1.c8ca205fefa4p+6/0x1.35f7674eb9a8cp+0/0x0p+0/0x1.8p+2 3140/0x1.06ee104e447cp+0/0x1.932p+11/0x1.41e945069f5f5p-4/0x1p+0/0x1.cp+2 3140/0x1.26a1f28ce1abbp+1/0x1.c3bb4c61p+12/0x1.16010d098738cp+5/0x1p+0/0x1.a60e308p+5 151/0x1.e38639f052feap+2 151/0x1.d1507dae15d33p+5 151/0x1.9dc3014625e6cp+7 u:0x1.b4cp+11/0x1.ep+5/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:3724/3494/60/171/0/0/0/0 probes:3724 now:0x1.f4p+12",
     0xb3117ec77691a54eULL},
    {"window-lcfs/keep/C1/capture",
     "151 139 0 12 0 0 151/0x1.526b8afe7280bp+4/0x1.8f3addf82b13fp+11/0x1.daeaa93c16f9fp+10/0x1.0412d6f5p-7/0x1.662ae950c7248p+8 139/0x1.697e5795b823dp+3/0x1.888f331c95f72p+10/0x1.9347195308acep+7/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 151/0x1.83365bde09dep-1/0x1.c8ca205fefa4p+6/0x1.35f7674eb9a8cp+0/0x0p+0/0x1.8p+2 3140/0x1.06ee104e447cp+0/0x1.932p+11/0x1.41e945069f5f5p-4/0x1p+0/0x1.cp+2 3140/0x1.26a1f28ce1abbp+1/0x1.c3bb4c61p+12/0x1.16010d098738cp+5/0x1p+0/0x1.a60e308p+5 151/0x1.e38639f052feap+2 151/0x1.d1507dae15d33p+5 151/0x1.9dc3014625e6cp+7 u:0x1.b4cp+11/0x1.ep+5/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:3724/3494/60/171/0/0/0/0 probes:3724 now:0x1.f4p+12",
     0xed1c0826cceece59ULL},
    {"window-lcfs/keep/C2-hash-shard/plain",
     "151 150 0 1 0 0 151/0x1.ac02f0a35356p+2/0x1.f8eb77e0ac4fcp+9/0x1.544414eeaafd4p+7/0x1.0412d6f5p-7/0x1.bbe99fd7572cp+6 150/0x1.7f83a3c0a50cp+2/0x1.c16e43e5c16a4p+9/0x1.872a7f8855774p+6/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 151/0x1.9e122517ead28p-2/0x1.e87967c23704p+5/0x1.8ada56a90be89p-2/0x0p+0/0x1.8p+2 10212/0x1.00536d9985106p+0/0x1.3f88p+13/0x1.4738855b97284p-8/0x1p+0/0x1.cp+2 10212/0x1.5fdb195e8efdcp+0/0x1.b69ep+13/0x1.2d077e5eac899p+3/0x1p+0/0x1.6ap+5 151/0x1.37277843e160bp-1 151/0x1.3b4a040da442cp+4 151/0x1.aa779d22efb5p+5 u:0x1.68d8p+13/0x1.cp+2/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:6174/6096/6/73/0/0/0/0 ch:5549/5451/1/98/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0x492aed7abb24c2f4ULL},
    {"window-lcfs/keep/C2-hash-shard/capture",
     "151 150 0 1 0 0 151/0x1.ac02f0a35356p+2/0x1.f8eb77e0ac4fcp+9/0x1.544414eeaafd4p+7/0x1.0412d6f5p-7/0x1.bbe99fd7572cp+6 150/0x1.7f83a3c0a50cp+2/0x1.c16e43e5c16a4p+9/0x1.872a7f8855774p+6/0x1.0412d6f5p-7/0x1.ca333aa4dabp+5 151/0x1.9e122517ead28p-2/0x1.e87967c23704p+5/0x1.8ada56a90be89p-2/0x0p+0/0x1.8p+2 10212/0x1.00536d9985106p+0/0x1.3f88p+13/0x1.4738855b97284p-8/0x1p+0/0x1.cp+2 10212/0x1.5fdb195e8efdcp+0/0x1.b69ep+13/0x1.2d077e5eac899p+3/0x1p+0/0x1.6ap+5 151/0x1.37277843e160bp-1 151/0x1.3b4a040da442cp+4 151/0x1.aa779d22efb5p+5 u:0x1.68d8p+13/0x1.cp+2/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:6174/6096/6/73/0/0/0/0 ch:5549/5451/1/98/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0xee9acbebfdc504bdULL},
    {"window-lcfs/keep/C2-least-loaded/plain",
     "151 151 0 0 0 0 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.2b133feb026ffp-2/0x1.60d0b5673cep+5/0x1.ab191cb5ef81ep-4/0x0p+0/0x1.fe9222848cp-1 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.5e83714a7bee9p+0/0x1.b58p+13/0x1.230571f781ec9p+3/0x1p+0/0x1.ap+4 151/0x1.e0fb094a7abbbp-1 151/0x1.5f06df0632f07p+4 151/0x1.90ab0d8ca5196p+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:4274/4126/0/149/0/0/0/0 ch:7449/7428/0/22/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0x14dfda12b3ad237aULL},
    {"window-lcfs/keep/C2-least-loaded/capture",
     "151 151 0 0 0 0 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.2b133feb026ffp-2/0x1.60d0b5673cep+5/0x1.ab191cb5ef81ep-4/0x0p+0/0x1.fe9222848cp-1 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.5e83714a7bee9p+0/0x1.b58p+13/0x1.230571f781ec9p+3/0x1p+0/0x1.ap+4 151/0x1.e0fb094a7abbbp-1 151/0x1.5f06df0632f07p+4 151/0x1.90ab0d8ca5196p+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:4274/4126/0/149/0/0/0/0 ch:7449/7428/0/22/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0x0ed8bdbd14696fbaULL},
    {"window-random-gap/discard/C1/plain",
     "151 139 12 0 0 0 139/0x1.a48cf5f845942p+3/0x1.c8b1131b9b8edp+10/0x1.eca390e7a515bp+7/0x1.0412d6f5p-7/0x1.de2002ee41d8p+5 139/0x1.a48cf5f845942p+3/0x1.c8b1131b9b8edp+10/0x1.eca390e7a515bp+7/0x1.0412d6f5p-7/0x1.de2002ee41d8p+5 139/0x1.8edca9d0533dep+0/0x1.b123a0683a65p+7/0x1.16d38f4578205p+3/0x0p+0/0x1.cp+4 3471/0x1.03fb93239f87ap+0/0x1.b8ap+11/0x1.d174d9b25ad49p-5/0x1p+0/0x1p+3 3471/0x1.05d383d651fb3p+2/0x1.bbbfdb10dc304p+13/0x1.7aa2834a22599p+5/0x1.00aea3601ep+0/0x1.c32436442258p+5 139/0x1.8ac451f8ad963p+2 139/0x1.34b102b374894p+5 139/0x1.b9b858a601afcp+5 u:0x1.de8p+11/0x1.3p+5/0x1.f0ep+11/0x1.3ep+7/159 h:0/0 ch:4024/3828/38/159/12/5/7/0 probes:4024 now:0x1.f4p+12",
     0x362772702cb89609ULL},
    {"window-random-gap/discard/C1/capture",
     "151 139 12 0 0 0 139/0x1.a48cf5f845942p+3/0x1.c8b1131b9b8edp+10/0x1.eca390e7a515bp+7/0x1.0412d6f5p-7/0x1.de2002ee41d8p+5 139/0x1.a48cf5f845942p+3/0x1.c8b1131b9b8edp+10/0x1.eca390e7a515bp+7/0x1.0412d6f5p-7/0x1.de2002ee41d8p+5 139/0x1.8edca9d0533dep+0/0x1.b123a0683a65p+7/0x1.16d38f4578205p+3/0x0p+0/0x1.cp+4 3471/0x1.03fb93239f87ap+0/0x1.b8ap+11/0x1.d174d9b25ad49p-5/0x1p+0/0x1p+3 3471/0x1.05d383d651fb3p+2/0x1.bbbfdb10dc304p+13/0x1.7aa2834a22599p+5/0x1.00aea3601ep+0/0x1.c32436442258p+5 139/0x1.8ac451f8ad963p+2 139/0x1.34b102b374894p+5 139/0x1.b9b858a601afcp+5 u:0x1.de8p+11/0x1.3p+5/0x1.f0ep+11/0x1.3ep+7/159 h:1/139 ch:4024/3828/38/159/12/5/7/0 probes:4024 now:0x1.f4p+12",
     0x49f10ef6b2b4db05ULL},
    {"window-random-gap/discard/C2-hash-shard/plain",
     "151 146 4 1 0 0 147/0x1.a17ce2a78fa3fp+2/0x1.df756c4c6ef66p+9/0x1.0855fe77ff715p+7/0x1.0412d6f5p-7/0x1.e7d33faeae58p+5 146/0x1.899e0047774a6p+2/0x1.c0f838518410ep+9/0x1.c1f48609ae667p+6/0x1.0412d6f5p-7/0x1.d16e313e7b5ap+5 147/0x1.432938b474318p+0/0x1.7321571f3d71p+7/0x1.d9274a9444a7p+1/0x0p+0/0x1.ap+3 10314/0x1.0045e5182ce03p+0/0x1.42a8p+13/0x1.bcae046aa4b1cp-9/0x1p+0/0x1.8p+2 10314/0x1.6ab47833eba4fp+1/0x1.c8a85796de9f4p+14/0x1.0c3ba8154fe34p+4/0x1.000238712fp+0/0x1.6c0c38a23608p+5 147/0x1.06c85cbb875fap+0 147/0x1.6d2ac6cd663ep+4 147/0x1.6a61330e2f926p+5 u:0x1.6c1p+13/0x1p+3/0x1.04fp+12/0x1.4ep+7/167 h:0/0 ch:6249/6175/5/70/3/2/1/0 ch:5574/5475/3/97/1/0/1/0 probes:11823 now:0x1.f4p+12",
     0xe1408f6bc624321dULL},
    {"window-random-gap/discard/C2-hash-shard/capture",
     "151 146 4 1 0 0 147/0x1.a17ce2a78fa3fp+2/0x1.df756c4c6ef66p+9/0x1.0855fe77ff715p+7/0x1.0412d6f5p-7/0x1.e7d33faeae58p+5 146/0x1.899e0047774a6p+2/0x1.c0f838518410ep+9/0x1.c1f48609ae667p+6/0x1.0412d6f5p-7/0x1.d16e313e7b5ap+5 147/0x1.432938b474318p+0/0x1.7321571f3d71p+7/0x1.d9274a9444a7p+1/0x0p+0/0x1.ap+3 10314/0x1.0045e5182ce03p+0/0x1.42a8p+13/0x1.bcae046aa4b1cp-9/0x1p+0/0x1.8p+2 10314/0x1.6ab47833eba4fp+1/0x1.c8a85796de9f4p+14/0x1.0c3ba8154fe34p+4/0x1.000238712fp+0/0x1.6c0c38a23608p+5 147/0x1.06c85cbb875fap+0 147/0x1.6d2ac6cd663ep+4 147/0x1.6a61330e2f926p+5 u:0x1.6c1p+13/0x1p+3/0x1.04fp+12/0x1.4ep+7/167 h:1/147 ch:6249/6175/5/70/3/2/1/0 ch:5574/5475/3/97/1/0/1/0 probes:11823 now:0x1.f4p+12",
     0xd698a6c2f4b051b6ULL},
    {"window-random-gap/discard/C2-least-loaded/plain",
     "151 151 0 0 0 0 151/0x1.e7c5e82942622p+2/0x1.1fb5bbf05627ep+10/0x1.5d5c2fea14bf7p+6/0x1.0412d6f5p-7/0x1.cfa67f5d5cbp+4 151/0x1.e7c5e82942622p+2/0x1.1fb5bbf05627ep+10/0x1.5d5c2fea14bf7p+6/0x1.0412d6f5p-7/0x1.cfa67f5d5cbp+4 151/0x1.4fde9f26cbbb4p+0/0x1.8c389fbfc457p+7/0x1.3d54f9b4262c6p+2/0x0p+0/0x1.4b75057f09ap+4 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.648468999384p+1/0x1.bcfe64aef06a8p+14/0x1.fa8fabd9334c4p+3/0x1.0002386cfb8p+0/0x1.885e644d099p+5 151/0x1.d19c72f92e9dbp+0 151/0x1.6d326544bd1e2p+4 151/0x1.bce7350272c5fp+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:4349/4204/0/146/0/0/0/0 ch:7374/7350/0/25/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0x67400bbcb5c48767ULL},
    {"window-random-gap/discard/C2-least-loaded/capture",
     "151 151 0 0 0 0 151/0x1.e7c5e82942622p+2/0x1.1fb5bbf05627ep+10/0x1.5d5c2fea14bf7p+6/0x1.0412d6f5p-7/0x1.cfa67f5d5cbp+4 151/0x1.e7c5e82942622p+2/0x1.1fb5bbf05627ep+10/0x1.5d5c2fea14bf7p+6/0x1.0412d6f5p-7/0x1.cfa67f5d5cbp+4 151/0x1.4fde9f26cbbb4p+0/0x1.8c389fbfc457p+7/0x1.3d54f9b4262c6p+2/0x0p+0/0x1.4b75057f09ap+4 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.648468999384p+1/0x1.bcfe64aef06a8p+14/0x1.fa8fabd9334c4p+3/0x1.0002386cfb8p+0/0x1.885e644d099p+5 151/0x1.d19c72f92e9dbp+0 151/0x1.6d326544bd1e2p+4 151/0x1.bce7350272c5fp+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:4349/4204/0/146/0/0/0/0 ch:7374/7350/0/25/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0x28c36a9b1c45199bULL},
    {"window-random-gap/keep/C1/plain",
     "151 129 0 22 0 0 151/0x1.8ba37d6e5760ap+4/0x1.d2baddf82b13fp+11/0x1.56a4a8142654ap+10/0x1.1850d206ep-4/0x1.9984697b4026p+7 129/0x1.8d682ae2cfa25p+3/0x1.9082fb389541cp+10/0x1.e30ecf3fa5d76p+7/0x1.1850d206ep-4/0x1.daae5abdae88p+5 151/0x1.14ef1dc8ef26bp+1/0x1.46b215230a1fcp+8/0x1.046f9df8a4f3fp+4/0x0p+0/0x1.4786e1093d4p+5 3160/0x1.05440cf6474a8p+0/0x1.932p+11/0x1.68057942d0c9p-4/0x1p+0/0x1p+3 3160/0x1.59dda4f0950aap+2/0x1.0ad47ebf9afc6p+14/0x1.09ce882925807p+6/0x1.00743c3745p+0/0x1.ep+5 151/0x1.5d40660c27767p+3 151/0x1.2cabebcb7f2e7p+6 151/0x1.3ae893e2c44e9p+7 u:0x1.b6ap+11/0x1.68p+5/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:3724/3509/45/171/0/0/0/0 probes:3724 now:0x1.f4p+12",
     0xb039b9c4e84285f2ULL},
    {"window-random-gap/keep/C1/capture",
     "151 129 0 22 0 0 151/0x1.8ba37d6e5760ap+4/0x1.d2baddf82b13fp+11/0x1.56a4a8142654ap+10/0x1.1850d206ep-4/0x1.9984697b4026p+7 129/0x1.8d682ae2cfa25p+3/0x1.9082fb389541cp+10/0x1.e30ecf3fa5d76p+7/0x1.1850d206ep-4/0x1.daae5abdae88p+5 151/0x1.14ef1dc8ef26bp+1/0x1.46b215230a1fcp+8/0x1.046f9df8a4f3fp+4/0x0p+0/0x1.4786e1093d4p+5 3160/0x1.05440cf6474a8p+0/0x1.932p+11/0x1.68057942d0c9p-4/0x1p+0/0x1p+3 3160/0x1.59dda4f0950aap+2/0x1.0ad47ebf9afc6p+14/0x1.09ce882925807p+6/0x1.00743c3745p+0/0x1.ep+5 151/0x1.5d40660c27767p+3 151/0x1.2cabebcb7f2e7p+6 151/0x1.3ae893e2c44e9p+7 u:0x1.b6ap+11/0x1.68p+5/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:3724/3509/45/171/0/0/0/0 probes:3724 now:0x1.f4p+12",
     0xdfdff53258cff0dbULL},
    {"window-random-gap/keep/C2-hash-shard/plain",
     "151 148 0 3 0 0 151/0x1.19657f19b73b5p+3/0x1.4bf5bbf05627ep+10/0x1.04f165329865fp+8/0x1.0412d6f5p-7/0x1.d9199d526d58p+6 148/0x1.c4ff3681ac0e8p+2/0x1.05e38b82f7788p+10/0x1.bada853d2f9adp+6/0x1.0412d6f5p-7/0x1.b7d33faeae58p+5 151/0x1.941b1c82beb34p+0/0x1.dcb7fba23cf78p+7/0x1.754affa0b6918p+2/0x0p+0/0x1.cp+3 10213/0x1.004d00c6ecac8p+0/0x1.3f88p+13/0x1.0d724fc8f8e0dp-8/0x1p+0/0x1.4p+2 10213/0x1.8aa61d3eea549p+1/0x1.ec02a865f7d3fp+14/0x1.12d9ee2bba302p+4/0x1.002168441ap+0/0x1.d255c3452c88p+5 151/0x1.a4412acbff126p+0 151/0x1.991315540250cp+4 151/0x1.03e9e36238771p+6 u:0x1.68d8p+13/0x1.cp+2/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:6174/6100/2/73/0/0/0/0 ch:5549/5447/5/98/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0x1ca30b5cd446155dULL},
    {"window-random-gap/keep/C2-hash-shard/capture",
     "151 148 0 3 0 0 151/0x1.19657f19b73b5p+3/0x1.4bf5bbf05627ep+10/0x1.04f165329865fp+8/0x1.0412d6f5p-7/0x1.d9199d526d58p+6 148/0x1.c4ff3681ac0e8p+2/0x1.05e38b82f7788p+10/0x1.bada853d2f9adp+6/0x1.0412d6f5p-7/0x1.b7d33faeae58p+5 151/0x1.941b1c82beb34p+0/0x1.dcb7fba23cf78p+7/0x1.754affa0b6918p+2/0x0p+0/0x1.cp+3 10213/0x1.004d00c6ecac8p+0/0x1.3f88p+13/0x1.0d724fc8f8e0dp-8/0x1p+0/0x1.4p+2 10213/0x1.8aa61d3eea549p+1/0x1.ec02a865f7d3fp+14/0x1.12d9ee2bba302p+4/0x1.002168441ap+0/0x1.d255c3452c88p+5 151/0x1.a4412acbff126p+0 151/0x1.991315540250cp+4 151/0x1.03e9e36238771p+6 u:0x1.68d8p+13/0x1.cp+2/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:6174/6100/2/73/0/0/0/0 ch:5549/5447/5/98/0/0/0/0 probes:11723 now:0x1.f4p+12",
     0xfebd66801586e74bULL},
    {"window-random-gap/keep/C2-least-loaded/plain",
     "151 149 0 2 0 0 151/0x1.1f1e4a8b4e1e1p+3/0x1.52b5bbf05627ep+10/0x1.5820e92bb4ebdp+7/0x1.41dfae67p-8/0x1.47e2cc768a2p+6 149/0x1.0066dcafc6676p+3/0x1.2a77bce49cf46p+10/0x1.a14c4da9f210ep+6/0x1.41dfae67p-8/0x1.9e8a19decb6p+5 151/0x1.6a86ebc281d89p+1/0x1.abab2a1f752d8p+8/0x1.605431b32908cp+6/0x0p+0/0x1.47e2cc768a2p+6 10232/0x1.000667ae56114p+0/0x1.3fc8p+13/0x1.99eb95844da92p-14/0x1p+0/0x1p+1 10232/0x1.836681774aa36p+1/0x1.e3df4834bf7d2p+14/0x1.e1d21fbc0191fp+3/0x1.00082a30b48p+0/0x1.6f2cc72103bp+5 151/0x1.92a5be33db82fp+1 151/0x1.9016759bd63e4p+4 151/0x1.f566abe3a4cf5p+5 u:0x1.6948p+13/0x1p+0/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:4507/4367/1/140/0/0/0/0 ch:7224/7194/0/31/0/0/0/0 probes:11731 now:0x1.f48p+12",
     0xf1870a1a80604310ULL},
    {"window-random-gap/keep/C2-least-loaded/capture",
     "151 149 0 2 0 0 151/0x1.1f1e4a8b4e1e1p+3/0x1.52b5bbf05627ep+10/0x1.5820e92bb4ebdp+7/0x1.41dfae67p-8/0x1.47e2cc768a2p+6 149/0x1.0066dcafc6676p+3/0x1.2a77bce49cf46p+10/0x1.a14c4da9f210ep+6/0x1.41dfae67p-8/0x1.9e8a19decb6p+5 151/0x1.6a86ebc281d89p+1/0x1.abab2a1f752d8p+8/0x1.605431b32908cp+6/0x0p+0/0x1.47e2cc768a2p+6 10232/0x1.000667ae56114p+0/0x1.3fc8p+13/0x1.99eb95844da92p-14/0x1p+0/0x1p+1 10232/0x1.836681774aa36p+1/0x1.e3df4834bf7d2p+14/0x1.e1d21fbc0191fp+3/0x1.00082a30b48p+0/0x1.6f2cc72103bp+5 151/0x1.92a5be33db82fp+1 151/0x1.9016759bd63e4p+4 151/0x1.f566abe3a4cf5p+5 u:0x1.6948p+13/0x1p+0/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:4507/4367/1/140/0/0/0/0 ch:7224/7194/0/31/0/0/0/0 probes:11731 now:0x1.f48p+12",
     0xc3f8a844c1ce1d48ULL},
    {"slotted-aloha/discard/C1/plain",
     "151 142 9 0 0 0 142/0x1.e04e105ca98a7p+3/0x1.0a6b4d13660adp+11/0x1.239f31eb6dd2ep+8/0x1.0412d6f5p-7/0x1.bc0b30615a78p+5 142/0x1.e04e105ca98a7p+3/0x1.0a6b4d13660adp+11/0x1.239f31eb6dd2ep+8/0x1.0412d6f5p-7/0x1.bc0b30615a78p+5 142/0x1.7a8a11aa2dad8p+0/0x1.a3f12b98caac8p+7/0x1.4771ec62c384p+1/0x0p+0/0x1.cp+2 3434/0x1p+0/0x1.ad4p+11/0x0p+0/0x1p+0/0x1p+0 3450/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 142/0x1.a032f3151fbf4p+2 142/0x1.6b8b889c41e55p+5 142/0x1.adfa4b8c0f532p+5 u:0x1.d78p+11/0x1p+4/0x1.fa4p+11/0x1.44p+7/162 h:0/0 ch:3950/3772/16/162/9/9/0/0 probes:3950 now:0x1.f4p+12",
     0x828b68a44b43bbfcULL},
    {"slotted-aloha/discard/C1/capture",
     "151 142 9 0 0 0 142/0x1.e04e105ca98a7p+3/0x1.0a6b4d13660adp+11/0x1.239f31eb6dd2ep+8/0x1.0412d6f5p-7/0x1.bc0b30615a78p+5 142/0x1.e04e105ca98a7p+3/0x1.0a6b4d13660adp+11/0x1.239f31eb6dd2ep+8/0x1.0412d6f5p-7/0x1.bc0b30615a78p+5 142/0x1.7a8a11aa2dad8p+0/0x1.a3f12b98caac8p+7/0x1.4771ec62c384p+1/0x0p+0/0x1.cp+2 3434/0x1p+0/0x1.ad4p+11/0x0p+0/0x1p+0/0x1p+0 3450/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 142/0x1.a032f3151fbf4p+2 142/0x1.6b8b889c41e55p+5 142/0x1.adfa4b8c0f532p+5 u:0x1.d78p+11/0x1p+4/0x1.fa4p+11/0x1.44p+7/162 h:1/142 ch:3950/3772/16/162/9/9/0/0 probes:3950 now:0x1.f4p+12",
     0x55d5080cd322b338ULL},
    {"slotted-aloha/discard/C2-hash-shard/plain",
     "151 149 2 0 0 0 149/0x1.0a7a9c8aaf82bp+3/0x1.3632ba39704e2p+10/0x1.c8be7585e28d1p+6/0x1.20ef3ff3ep-4/0x1.8a333aa4dabp+5 149/0x1.0a7a9c8aaf82bp+3/0x1.3632ba39704e2p+10/0x1.c8be7585e28d1p+6/0x1.20ef3ff3ep-4/0x1.8a333aa4dabp+5 149/0x1.0046061370293p+1/0x1.2a518312a09p+8/0x1.ead76626a3015p+1/0x0p+0/0x1.5fe70af723dp+3 10270/0x1p+0/0x1.40fp+13/0x0p+0/0x1p+0/0x1p+0 10275/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 149/0x1.739ab82c18444p+1 149/0x1.ba4bfd714343fp+4 149/0x1.34bc9dda1e908p+5 u:0x1.6a88p+13/0x1.4p+2/0x1.081p+12/0x1.52p+7/169 h:0/0 ch:6200/6128/0/72/1/1/0/0 ch:5575/5473/5/97/1/1/0/0 probes:11775 now:0x1.f4p+12",
     0xccc7ef2410e7307dULL},
    {"slotted-aloha/discard/C2-hash-shard/capture",
     "151 149 2 0 0 0 149/0x1.0a7a9c8aaf82bp+3/0x1.3632ba39704e2p+10/0x1.c8be7585e28d1p+6/0x1.20ef3ff3ep-4/0x1.8a333aa4dabp+5 149/0x1.0a7a9c8aaf82bp+3/0x1.3632ba39704e2p+10/0x1.c8be7585e28d1p+6/0x1.20ef3ff3ep-4/0x1.8a333aa4dabp+5 149/0x1.0046061370293p+1/0x1.2a518312a09p+8/0x1.ead76626a3015p+1/0x0p+0/0x1.5fe70af723dp+3 10270/0x1p+0/0x1.40fp+13/0x0p+0/0x1p+0/0x1p+0 10275/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 149/0x1.739ab82c18444p+1 149/0x1.ba4bfd714343fp+4 149/0x1.34bc9dda1e908p+5 u:0x1.6a88p+13/0x1.4p+2/0x1.081p+12/0x1.52p+7/169 h:1/149 ch:6200/6128/0/72/1/1/0/0 ch:5575/5473/5/97/1/1/0/0 probes:11775 now:0x1.f4p+12",
     0x16a494e9226ab153ULL},
    {"slotted-aloha/discard/C2-least-loaded/plain",
     "151 151 0 0 0 0 151/0x1.0afc62477d96ap+3/0x1.3af5bbf05627ep+10/0x1.489d934489107p+6/0x1.73af46513p-6/0x1.d6c42b58fe5p+4 151/0x1.0afc62477d96ap+3/0x1.3af5bbf05627ep+10/0x1.489d934489107p+6/0x1.73af46513p-6/0x1.d6c42b58fe5p+4 151/0x1.03a058bf0a899p+1/0x1.324728b15e6e4p+8/0x1.38be1048d6f71p+2/0x0p+0/0x1.e5fd9199b68p+3 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 151/0x1.a16bb751aee61p+1 151/0x1.8bdc551705833p+4 151/0x1.bc81cbfd2821fp+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:4400/4256/0/144/0/0/0/0 ch:7325/7298/0/27/0/0/0/0 probes:11725 now:0x1.f4p+12",
     0xcf05c20b2abb0f23ULL},
    {"slotted-aloha/discard/C2-least-loaded/capture",
     "151 151 0 0 0 0 151/0x1.0afc62477d96ap+3/0x1.3af5bbf05627ep+10/0x1.489d934489107p+6/0x1.73af46513p-6/0x1.d6c42b58fe5p+4 151/0x1.0afc62477d96ap+3/0x1.3af5bbf05627ep+10/0x1.489d934489107p+6/0x1.73af46513p-6/0x1.d6c42b58fe5p+4 151/0x1.03a058bf0a899p+1/0x1.324728b15e6e4p+8/0x1.38be1048d6f71p+2/0x0p+0/0x1.e5fd9199b68p+3 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 151/0x1.a16bb751aee61p+1 151/0x1.8bdc551705833p+4 151/0x1.bc81cbfd2821fp+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:4400/4256/0/144/0/0/0/0 ch:7325/7298/0/27/0/0/0/0 probes:11725 now:0x1.f4p+12",
     0x53e06aab07c68de6ULL},
    {"slotted-aloha/keep/C1/plain",
     "151 139 0 12 0 0 151/0x1.73448cb075e4fp+4/0x1.b5faddf82b13fp+11/0x1.074bd51259207p+10/0x1.1850d206ep-4/0x1.9184697b4026p+7 139/0x1.f02d0ca742c2ap+3/0x1.0d6875ded13fdp+11/0x1.0e3050b4a723p+8/0x1.1850d206ep-4/0x1.bb6215ac7f28p+5 151/0x1.92e2121b5d771p+0/0x1.db46b15c48428p+7/0x1.4cf67304dc091p+1/0x0p+0/0x1p+3 3195/0x1p+0/0x1.8f6p+11/0x0p+0/0x1p+0/0x1p+0 3225/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 151/0x1.7f19cb2d4f318p+3 151/0x1.c118bee2eee42p+5 151/0x1.22bd7177bacc9p+7 u:0x1.b88p+11/0x1.ep+4/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:3725/3524/30/171/0/0/0/0 probes:3725 now:0x1.f4p+12",
     0x63fdd0640be03dfaULL},
    {"slotted-aloha/keep/C1/capture",
     "151 139 0 12 0 0 151/0x1.73448cb075e4fp+4/0x1.b5faddf82b13fp+11/0x1.074bd51259207p+10/0x1.1850d206ep-4/0x1.9184697b4026p+7 139/0x1.f02d0ca742c2ap+3/0x1.0d6875ded13fdp+11/0x1.0e3050b4a723p+8/0x1.1850d206ep-4/0x1.bb6215ac7f28p+5 151/0x1.92e2121b5d771p+0/0x1.db46b15c48428p+7/0x1.4cf67304dc091p+1/0x0p+0/0x1p+3 3195/0x1p+0/0x1.8f6p+11/0x0p+0/0x1p+0/0x1p+0 3225/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 151/0x1.7f19cb2d4f318p+3 151/0x1.c118bee2eee42p+5 151/0x1.22bd7177bacc9p+7 u:0x1.b88p+11/0x1.ep+4/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:3725/3524/30/171/0/0/0/0 probes:3725 now:0x1.f4p+12",
     0x2f050158c8b2a5e5ULL},
    {"slotted-aloha/keep/C2-hash-shard/plain",
     "151 149 0 2 0 0 151/0x1.25e6581b693ebp+3/0x1.5ab5bbf05627ep+10/0x1.27af01b823093p+7/0x1.9c17b2eccp-5/0x1.12e9bdd7a544p+6 149/0x1.0dea4a126ac91p+3/0x1.3a32ba39704e2p+10/0x1.abd0440292c3dp+6/0x1.9c17b2eccp-5/0x1.8a333aa4dabp+5 151/0x1.f45a859a398c5p+0/0x1.272164cdf7f1cp+8/0x1.942ebad27f4e5p+1/0x0p+0/0x1.0683ebd4202p+3 10223/0x1p+0/0x1.3f78p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 151/0x1.859e9c9ef0bc7p+1 151/0x1.9f1654cd60097p+4 151/0x1.a18cda19dc3ffp+5 u:0x1.69p+13/0x1p+1/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:6175/6102/0/73/0/0/0/0 ch:5550/5450/2/98/0/0/0/0 probes:11725 now:0x1.f4p+12",
     0x6fbd4436f1409c39ULL},
    {"slotted-aloha/keep/C2-hash-shard/capture",
     "151 149 0 2 0 0 151/0x1.25e6581b693ebp+3/0x1.5ab5bbf05627ep+10/0x1.27af01b823093p+7/0x1.9c17b2eccp-5/0x1.12e9bdd7a544p+6 149/0x1.0dea4a126ac91p+3/0x1.3a32ba39704e2p+10/0x1.abd0440292c3dp+6/0x1.9c17b2eccp-5/0x1.8a333aa4dabp+5 151/0x1.f45a859a398c5p+0/0x1.272164cdf7f1cp+8/0x1.942ebad27f4e5p+1/0x0p+0/0x1.0683ebd4202p+3 10223/0x1p+0/0x1.3f78p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 151/0x1.859e9c9ef0bc7p+1 151/0x1.9f1654cd60097p+4 151/0x1.a18cda19dc3ffp+5 u:0x1.69p+13/0x1p+1/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:6175/6102/0/73/0/0/0/0 ch:5550/5450/2/98/0/0/0/0 probes:11725 now:0x1.f4p+12",
     0xc09db82d183eb6a0ULL},
    {"slotted-aloha/keep/C2-least-loaded/plain",
     "151 151 0 0 0 0 151/0x1.0afc62477d96ap+3/0x1.3af5bbf05627ep+10/0x1.489d934489107p+6/0x1.73af46513p-6/0x1.d6c42b58fe5p+4 151/0x1.0afc62477d96ap+3/0x1.3af5bbf05627ep+10/0x1.489d934489107p+6/0x1.73af46513p-6/0x1.d6c42b58fe5p+4 151/0x1.03a058bf0a899p+1/0x1.324728b15e6e4p+8/0x1.38be1048d6f71p+2/0x0p+0/0x1.e5fd9199b68p+3 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 151/0x1.a16bb751aee61p+1 151/0x1.8bdc551705833p+4 151/0x1.bc81cbfd2821fp+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:4400/4256/0/144/0/0/0/0 ch:7325/7298/0/27/0/0/0/0 probes:11725 now:0x1.f4p+12",
     0xcf05c20b2abb0f23ULL},
    {"slotted-aloha/keep/C2-least-loaded/capture",
     "151 151 0 0 0 0 151/0x1.0afc62477d96ap+3/0x1.3af5bbf05627ep+10/0x1.489d934489107p+6/0x1.73af46513p-6/0x1.d6c42b58fe5p+4 151/0x1.0afc62477d96ap+3/0x1.3af5bbf05627ep+10/0x1.489d934489107p+6/0x1.73af46513p-6/0x1.d6c42b58fe5p+4 151/0x1.03a058bf0a899p+1/0x1.324728b15e6e4p+8/0x1.38be1048d6f71p+2/0x0p+0/0x1.e5fd9199b68p+3 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x0p+0/0x0p+0/0x0p+0/0x0p+0/0x0p+0 151/0x1.a16bb751aee61p+1 151/0x1.8bdc551705833p+4 151/0x1.bc81cbfd2821fp+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:4400/4256/0/144/0/0/0/0 ch:7325/7298/0/27/0/0/0/0 probes:11725 now:0x1.f4p+12",
     0x53e06aab07c68de6ULL},
    {"dynamic-aloha/discard/C1/plain",
     "151 143 8 0 0 0 143/0x1.a14d0100df2b1p+3/0x1.d234071ef952p+10/0x1.eddc5f9de4924p+7/0x1.0412d6f5p-7/0x1.b49eace930f8p+5 143/0x1.a14d0100df2b1p+3/0x1.d234071ef952p+10/0x1.eddc5f9de4924p+7/0x1.0412d6f5p-7/0x1.b49eace930f8p+5 143/0x1.567d29bcb192dp-1/0x1.7e9fd4a0ce62p+6/0x1.13d39ab71052cp+0/0x0p+0/0x1.8p+2 3387/0x1p+0/0x1.a76p+11/0x0p+0/0x1p+0/0x1p+0 3425/0x1.86533b02582b1p-4/0x1.4661f887a5d99p+8/0x1.1d2623c119607p-3/0x1.47ae147ae147bp-6/0x1.11b45d4dd2ea4p+2 143/0x1.59b8d6acedaa6p+2 143/0x1.3db69df4bf856p+5 143/0x1.a62dac4c7baf7p+5 u:0x1.d18p+11/0x1.3p+5/0x1.fd6p+11/0x1.46p+7/163 h:0/0 ch:3925/3724/38/163/8/8/0/0 probes:3925 now:0x1.f4p+12",
     0x71d708bb46ddd905ULL},
    {"dynamic-aloha/discard/C1/capture",
     "151 143 8 0 0 0 143/0x1.a14d0100df2b1p+3/0x1.d234071ef952p+10/0x1.eddc5f9de4924p+7/0x1.0412d6f5p-7/0x1.b49eace930f8p+5 143/0x1.a14d0100df2b1p+3/0x1.d234071ef952p+10/0x1.eddc5f9de4924p+7/0x1.0412d6f5p-7/0x1.b49eace930f8p+5 143/0x1.567d29bcb192dp-1/0x1.7e9fd4a0ce62p+6/0x1.13d39ab71052cp+0/0x0p+0/0x1.8p+2 3387/0x1p+0/0x1.a76p+11/0x0p+0/0x1p+0/0x1p+0 3425/0x1.86533b02582b1p-4/0x1.4661f887a5d99p+8/0x1.1d2623c119607p-3/0x1.47ae147ae147bp-6/0x1.11b45d4dd2ea4p+2 143/0x1.59b8d6acedaa6p+2 143/0x1.3db69df4bf856p+5 143/0x1.a62dac4c7baf7p+5 u:0x1.d18p+11/0x1.3p+5/0x1.fd6p+11/0x1.46p+7/163 h:1/143 ch:3925/3724/38/163/8/8/0/0 probes:3925 now:0x1.f4p+12",
     0x90656f04866fe568ULL},
    {"dynamic-aloha/discard/C2-hash-shard/plain",
     "151 150 1 0 0 0 150/0x1.8308bf45bb6fep+2/0x1.c58e4025b7a74p+9/0x1.8da1a882daafbp+6/0x1.0412d6f5p-7/0x1.b2333aa4dabp+5 150/0x1.8308bf45bb6fep+2/0x1.c58e4025b7a74p+9/0x1.8da1a882daafbp+6/0x1.0412d6f5p-7/0x1.b2333aa4dabp+5 150/0x1.99b1cf2a7ceb9p-2/0x1.e01c5ec5ca64p+5/0x1.013d0bf3d1854p-2/0x0p+0/0x1p+2 10243/0x1p+0/0x1.4018p+13/0x0p+0/0x1p+0/0x1p+0 10250/0x1.ffb4af8a63068p-6/0x1.4020e1f1eb83ep+8/0x1.d562af57a837cp-7/0x1.47ae147ae147bp-6/0x1.e368ba9ba5d49p+1 150/0x1.4753399f278fep-1 150/0x1.3341978bbd6a2p+4 150/0x1.355aaaffd394ap+5 u:0x1.69a8p+13/0x1.cp+2/0x1.09ap+12/0x1.54p+7/170 h:0/0 ch:6200/6123/5/72/1/1/0/0 ch:5550/5450/2/98/0/0/0/0 probes:11750 now:0x1.f4p+12",
     0x0bd34d3f1fa0a934ULL},
    {"dynamic-aloha/discard/C2-hash-shard/capture",
     "151 150 1 0 0 0 150/0x1.8308bf45bb6fep+2/0x1.c58e4025b7a74p+9/0x1.8da1a882daafbp+6/0x1.0412d6f5p-7/0x1.b2333aa4dabp+5 150/0x1.8308bf45bb6fep+2/0x1.c58e4025b7a74p+9/0x1.8da1a882daafbp+6/0x1.0412d6f5p-7/0x1.b2333aa4dabp+5 150/0x1.99b1cf2a7ceb9p-2/0x1.e01c5ec5ca64p+5/0x1.013d0bf3d1854p-2/0x0p+0/0x1p+2 10243/0x1p+0/0x1.4018p+13/0x0p+0/0x1p+0/0x1p+0 10250/0x1.ffb4af8a63068p-6/0x1.4020e1f1eb83ep+8/0x1.d562af57a837cp-7/0x1.47ae147ae147bp-6/0x1.e368ba9ba5d49p+1 150/0x1.4753399f278fep-1 150/0x1.3341978bbd6a2p+4 150/0x1.355aaaffd394ap+5 u:0x1.69a8p+13/0x1.cp+2/0x1.09ap+12/0x1.54p+7/170 h:1/150 ch:6200/6123/5/72/1/1/0/0 ch:5550/5450/2/98/0/0/0/0 probes:11750 now:0x1.f4p+12",
     0xc15f58325e384be9ULL},
    {"dynamic-aloha/discard/C2-least-loaded/plain",
     "151 151 0 0 0 0 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.2b133feb026ffp-2/0x1.60d0b5673cep+5/0x1.ab191cb5ef81ep-4/0x0p+0/0x1.fe9222848cp-1 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.c0a83f17a8df7p-6/0x1.1800000000006p+8/0x1.dccf2af42248p-9/0x1.47ae147ae147bp-6/0x1.0a3d70a3d70a4p-1 151/0x1.e0fb094a7abbbp-1 151/0x1.5f06df0632f07p+4 151/0x1.90ab0d8ca5196p+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:4275/4126/0/149/0/0/0/0 ch:7450/7428/0/22/0/0/0/0 probes:11725 now:0x1.f4p+12",
     0xae6f3c998224ab05ULL},
    {"dynamic-aloha/discard/C2-least-loaded/capture",
     "151 151 0 0 0 0 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.2b133feb026ffp-2/0x1.60d0b5673cep+5/0x1.ab191cb5ef81ep-4/0x0p+0/0x1.fe9222848cp-1 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.c0a83f17a8df7p-6/0x1.1800000000006p+8/0x1.dccf2af42248p-9/0x1.47ae147ae147bp-6/0x1.0a3d70a3d70a4p-1 151/0x1.e0fb094a7abbbp-1 151/0x1.5f06df0632f07p+4 151/0x1.90ab0d8ca5196p+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:4275/4126/0/149/0/0/0/0 ch:7450/7428/0/22/0/0/0/0 probes:11725 now:0x1.f4p+12",
     0xe5379d82b149fa01ULL},
    {"dynamic-aloha/keep/C1/plain",
     "151 138 0 13 0 0 151/0x1.552cd080fd86p+4/0x1.927addf82b13fp+11/0x1.db126e7ef5414p+9/0x1.0412d6f5p-7/0x1.5a68b6a1412ep+7 138/0x1.afd026ec4aae9p+3/0x1.d18c69f6c0844p+10/0x1.0257e8ddcd4adp+8/0x1.0412d6f5p-7/0x1.d847d56a18d8p+5 151/0x1.89fe696e24fe6p-1/0x1.d0ca205fefa4p+6/0x1.af0d3d083e775p+0/0x0p+0/0x1p+3 3177/0x1p+0/0x1.8d2p+11/0x0p+0/0x1p+0/0x1p+0 3225/0x1.0d07a79054539p-3/0x1.a7a4adbd26c9fp+8/0x1.085233d516731p-2/0x1.47ae147ae147bp-6/0x1.9f34adbc6a551p+2 151/0x1.4f02ed9665faap+3 151/0x1.cbcf81eecdbdp+5 151/0x1.ea57d0ee55537p+6 u:0x1.b64p+11/0x1.8p+5/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:3725/3506/48/171/0/0/0/0 probes:3725 now:0x1.f4p+12",
     0xde94ba829d447fa3ULL},
    {"dynamic-aloha/keep/C1/capture",
     "151 138 0 13 0 0 151/0x1.552cd080fd86p+4/0x1.927addf82b13fp+11/0x1.db126e7ef5414p+9/0x1.0412d6f5p-7/0x1.5a68b6a1412ep+7 138/0x1.afd026ec4aae9p+3/0x1.d18c69f6c0844p+10/0x1.0257e8ddcd4adp+8/0x1.0412d6f5p-7/0x1.d847d56a18d8p+5 151/0x1.89fe696e24fe6p-1/0x1.d0ca205fefa4p+6/0x1.af0d3d083e775p+0/0x0p+0/0x1p+3 3177/0x1p+0/0x1.8d2p+11/0x0p+0/0x1p+0/0x1p+0 3225/0x1.0d07a79054539p-3/0x1.a7a4adbd26c9fp+8/0x1.085233d516731p-2/0x1.47ae147ae147bp-6/0x1.9f34adbc6a551p+2 151/0x1.4f02ed9665faap+3 151/0x1.cbcf81eecdbdp+5 151/0x1.ea57d0ee55537p+6 u:0x1.b64p+11/0x1.8p+5/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:3725/3506/48/171/0/0/0/0 probes:3725 now:0x1.f4p+12",
     0x24ebc163eba9b478ULL},
    {"dynamic-aloha/keep/C2-hash-shard/plain",
     "151 150 0 1 0 0 151/0x1.a9e46c664adcp+2/0x1.f66b77e0ac4fcp+9/0x1.04f87fa03f4f1p+7/0x1.0412d6f5p-7/0x1.22e9bdd7a544p+6 150/0x1.8db369f0661a8p+2/0x1.d20e4025b7a74p+9/0x1.97764da893ebap+6/0x1.0412d6f5p-7/0x1.b2333aa4dabp+5 151/0x1.974a1787cfb22p-2/0x1.e07967c23704p+5/0x1.00f7f77dbcf04p-2/0x0p+0/0x1p+2 10218/0x1p+0/0x1.3f5p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.007a7c49be77p-5/0x1.4020e1f1eb83dp+8/0x1.d749c730230bfp-7/0x1.47ae147ae147bp-6/0x1.e368ba9ba5d49p+1 151/0x1.2fa2016500d65p-1 151/0x1.5a3c8aa2c881fp+4 151/0x1.7c535498eae4fp+5 u:0x1.68d8p+13/0x1.cp+2/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:6175/6097/5/73/0/0/0/0 ch:5550/5450/2/98/0/0/0/0 probes:11725 now:0x1.f4p+12",
     0xdd279c2a04345621ULL},
    {"dynamic-aloha/keep/C2-hash-shard/capture",
     "151 150 0 1 0 0 151/0x1.a9e46c664adcp+2/0x1.f66b77e0ac4fcp+9/0x1.04f87fa03f4f1p+7/0x1.0412d6f5p-7/0x1.22e9bdd7a544p+6 150/0x1.8db369f0661a8p+2/0x1.d20e4025b7a74p+9/0x1.97764da893ebap+6/0x1.0412d6f5p-7/0x1.b2333aa4dabp+5 151/0x1.974a1787cfb22p-2/0x1.e07967c23704p+5/0x1.00f7f77dbcf04p-2/0x0p+0/0x1p+2 10218/0x1p+0/0x1.3f5p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.007a7c49be77p-5/0x1.4020e1f1eb83dp+8/0x1.d749c730230bfp-7/0x1.47ae147ae147bp-6/0x1.e368ba9ba5d49p+1 151/0x1.2fa2016500d65p-1 151/0x1.5a3c8aa2c881fp+4 151/0x1.7c535498eae4fp+5 u:0x1.68d8p+13/0x1.cp+2/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:6175/6097/5/73/0/0/0/0 ch:5550/5450/2/98/0/0/0/0 probes:11725 now:0x1.f4p+12",
     0x6282594859d60197ULL},
    {"dynamic-aloha/keep/C2-least-loaded/plain",
     "151 151 0 0 0 0 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.2b133feb026ffp-2/0x1.60d0b5673cep+5/0x1.ab191cb5ef81ep-4/0x0p+0/0x1.fe9222848cp-1 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.c0a83f17a8df7p-6/0x1.1800000000006p+8/0x1.dccf2af42248p-9/0x1.47ae147ae147bp-6/0x1.0a3d70a3d70a4p-1 151/0x1.e0fb094a7abbbp-1 151/0x1.5f06df0632f07p+4 151/0x1.90ab0d8ca5196p+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:0/0 ch:4275/4126/0/149/0/0/0/0 ch:7450/7428/0/22/0/0/0/0 probes:11725 now:0x1.f4p+12",
     0xae6f3c998224ab05ULL},
    {"dynamic-aloha/keep/C2-least-loaded/capture",
     "151 151 0 0 0 0 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.bfee987aa304ep+2/0x1.0835bbf05627ep+10/0x1.4d6eba179c6fap+6/0x1.0412d6f5p-7/0x1.9519765ae16p+4 151/0x1.2b133feb026ffp-2/0x1.60d0b5673cep+5/0x1.ab191cb5ef81ep-4/0x0p+0/0x1.fe9222848cp-1 10225/0x1p+0/0x1.3f88p+13/0x0p+0/0x1p+0/0x1p+0 10225/0x1.c0a83f17a8df7p-6/0x1.1800000000006p+8/0x1.dccf2af42248p-9/0x1.47ae147ae147bp-6/0x1.0a3d70a3d70a4p-1 151/0x1.e0fb094a7abbbp-1 151/0x1.5f06df0632f07p+4 151/0x1.90ab0d8ca5196p+4 u:0x1.691p+13/0x0p+0/0x1.0b3p+12/0x1.56p+7/171 h:1/151 ch:4275/4126/0/149/0/0/0/0 ch:7450/7428/0/22/0/0/0/0 probes:11725 now:0x1.f4p+12",
     0xe5379d82b149fa01ULL},
    {"edge/light-load/warmup-t_end-mid-stretch/C1",
     "8 8 0 0 0 0 8/0x1.00f4b4ecec5ffp-1/0x1.00f4b4ecec6p+2/0x1.fd405abfa94fdp-5/0x1.5063d4455p-3/0x1.c0b9d10ff2p-1 8/0x1.00f4b4ecec5ffp-1/0x1.00f4b4ecec6p+2/0x1.fd405abfa94fdp-5/0x1.5063d4455p-3/0x1.c0b9d10ff2p-1 8/0x1.00f4b4ecec5ffp-1/0x1.00f4b4ecec6p+2/0x1.fd405abfa94fdp-5/0x1.5063d4455p-3/0x1.c0b9d10ff2p-1 3300/0x1p+0/0x1.9c8p+11/0x0p+0/0x1p+0/0x1p+0 3300/0x1.0f83e0f83e0f9p+0/0x1.b58p+11/0x1.830e46a257a66p+0/0x1p+0/0x1.ap+4 8/0x1.eef550f71d556p-2 8/0x1.44601c1d3ap-1 8/0x1.44601c1d3ap-1 u:0x1.285p+12/0x0p+0/0x1.f4p+7/0x1.4p+3/10 h:1/8 ch:4750/4741/0/10/0/0/0/0 probes:4750 now:0x1.389p+12",
     0xc8ef97c35d7180dcULL},
    {"edge/light-load/warmup-t_end-mid-stretch/C2-hash-shard",
     "8 8 0 0 0 0 8/0x1.00f4b4ecec5ffp-1/0x1.00f4b4ecec6p+2/0x1.fd405abfa94fdp-5/0x1.5063d4455p-3/0x1.c0b9d10ff2p-1 8/0x1.00f4b4ecec5ffp-1/0x1.00f4b4ecec6p+2/0x1.fd405abfa94fdp-5/0x1.5063d4455p-3/0x1.c0b9d10ff2p-1 8/0x1.00f4b4ecec5ffp-1/0x1.00f4b4ecec6p+2/0x1.fd405abfa94fdp-5/0x1.5063d4455p-3/0x1.c0b9d10ff2p-1 6800/0x1p+0/0x1.a9p+12/0x0p+0/0x1p+0/0x1p+0 6800/0x1.0787878787878p+0/0x1.b58p+12/0x1.78153eb34f7e5p-1/0x1p+0/0x1.ap+4 8/0x1.eef550f71d556p-2 8/0x1.44601c1d3ap-1 8/0x1.44601c1d3ap-1 u:0x1.307p+13/0x0p+0/0x1.f4p+7/0x1.4p+3/10 h:1/8 ch:4900/4897/0/4/0/0/0/0 ch:4850/4845/0/6/0/0/0/0 probes:9750 now:0x1.389p+12",
     0xe84e8d97b659f0e0ULL},
    {"edge/fractional-clock",
     "151 151 0 0 0 0 151/0x1.0d48732e586c8p+2/0x1.3dab77e0ac4fcp+9/0x1.73b978b084edap+5/0x1.0412d6f5p-7/0x1.15d37baf4a88p+5 151/0x1.0d48732e586c8p+2/0x1.3dab77e0ac4fcp+9/0x1.73b978b084edap+5/0x1.0412d6f5p-7/0x1.15d37baf4a88p+5 151/0x1.e983ae531428cp-2/0x1.20bcabd300e4p+6/0x1.c4a02b92af42cp-2/0x0p+0/0x1.4p+2 5089/0x1.01351242b430fp+0/0x1.3f9p+12/0x1.b5354a4edee0ep-7/0x1p+0/0x1.8p+2 5089/0x1.65135e04ee0a6p+0/0x1.bba46p+12/0x1.5b75cb1e2f069p+2/0x1p+0/0x1.26dp+5 151/0x1.70c752d71a011p-1 151/0x1.a2749f72db84ap+3 151/0x1.b6bd65a42e6cdp+4 u:0x1.62ap+12/0x1.2p+4/0x1.0b3p+11/0x1.56p+7/171 h:1/151 ch:5862/5674/18/171/0/0/0/0 probes:5862 now:0x1.f408p+12",
     0x24063e03c25d60c4ULL},
    {"edge/slot-jitter",
     "131 129 2 0 0 0 129/0x1.4ee3a9786fac9p+3/0x1.518170cb608c2p+10/0x1.8835d1c714fddp+7/0x1.1ff3257ep-9/0x1.b012f9df2f58p+5 129/0x1.4ee3a9786fac9p+3/0x1.518170cb608c2p+10/0x1.8835d1c714fddp+7/0x1.1ff3257ep-9/0x1.b012f9df2f58p+5 129/0x1.3f6619709f8fep-1/0x1.41e4e5a380cfp+6/0x1.daf74fa590465p-1/0x0p+0/0x1.9f5c605fe75p+2 3316/0x1.029ff61e4351ep+0/0x1.a2cp+11/0x1.0a06f6804cc0dp-5/0x1p+0/0x1.cp+2 3316/0x1.1de9cc3d7f566p+1/0x1.ceef0d3192ad7p+12/0x1.02a3b18ef56a1p+5/0x1.00024980578p+0/0x1.ep+5 129/0x1.9fa084faa3969p+0 129/0x1.fc6ae379953fcp+4 129/0x1.985b2ef5d287ep+5 u:0x1.d16p+11/0x1.dp+4/0x1.c52p+11/0x1.22p+7/145 h:1/129 ch:3896/3723/29/145/2/0/2/0 probes:3896 now:0x1.f409c62bf861cp+12",
     0x3a36b83d2334f9efULL},
    {"edge/width-table-wait-entry",
     "151 146 5 0 0 0 146/0x1.ed3879e302315p+3/0x1.194a358377402p+11/0x1.1dba31c31c4cfp+8/0x1.0412d6f5p-7/0x1.cdb237d7c808p+5 146/0x1.ed3879e302315p+3/0x1.194a358377402p+11/0x1.1dba31c31c4cfp+8/0x1.0412d6f5p-7/0x1.cdb237d7c808p+5 146/0x1.6cda33dcb478bp-1/0x1.a028e327bddap+6/0x1.682758ba488f9p+0/0x0p+0/0x1.cp+2 3278/0x1.04d78bcae4fa7p+0/0x1.a18p+11/0x1.19045b1ca73b8p-4/0x1p+0/0x1p+3 3288/0x1.52e45c2f56949p+1/0x1.100a5p+13/0x1.b75d4c95a6556p+5/0x1p+0/0x1.ep+5 146/0x1.458b94541c27ap+3 146/0x1.6422b71cacca3p+5 146/0x1.b34149ea9f08p+5 u:0x1.c6cp+11/0x1.7p+5/0x1.036p+12/0x1.4cp+7/166 h:1/146 ch:3835/3638/46/166/5/0/5/0 probes:3835 now:0x1.f4p+12",
     0x3a7008d134ffe39aULL},
    {"edge/trace",
     "151 146 5 0 0 0 146/0x1.ef3176614150dp+3/0x1.1a6a358377402p+11/0x1.28890168dca54p+8/0x1.0412d6f5p-7/0x1.cdb237d7c808p+5 146/0x1.ef3176614150dp+3/0x1.1a6a358377402p+11/0x1.28890168dca54p+8/0x1.0412d6f5p-7/0x1.cdb237d7c808p+5 146/0x1.57584dd9215ccp-1/0x1.87a0b8cbaa0ep+6/0x1.0872fe12afe7ep+0/0x0p+0/0x1.4p+2 3283/0x1.05397829cbc13p+0/0x1.a2cp+11/0x1.d456a2ae90447p-5/0x1p+0/0x1.8p+2 3283/0x1.33241a8328786p+1/0x1.ec5bp+12/0x1.6dce2a0f2bf6p+5/0x1p+0/0x1.ep+5 146/0x1.20a9b60c3daccp+3 146/0x1.5b4c75ecc02ecp+5 146/0x1.b6f1d7fd16501p+5 u:0x1.c52p+11/0x1.d8p+5/0x1.036p+12/0x1.4cp+7/166 h:1/146 ch:3849/3625/59/166/5/0/5/0 probes:3849 now:0x1.f4p+12",
     0xede12bf0de17d764ULL},
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

void check(const std::string& name, const Outcome& got) {
  const Golden* want = find_golden(name);
  if (want == nullptr) {
    ADD_FAILURE() << "no golden for " << name << "; computed:\n"
                  << table_entry(name, got);
    return;
  }
  EXPECT_EQ(got.metrics, want->metrics)
      << name << "; computed:\n" << table_entry(name, got);
  EXPECT_EQ(got.overlays, want->overlays)
      << name << " overlays; computed:\n" << table_entry(name, got);
}

void check_cells(Mac mac) {
  for (const Cell& c : grid()) {
    if (c.mac != mac) continue;
    check(c.name(), run_config(config_for(c), kRate, c.capture, false));
  }
}

TEST(AggregateGolden, OptimalWindowMatchesRecordedFingerprints) {
  check_cells(Mac::Optimal);
}

TEST(AggregateGolden, LcfsWindowMatchesRecordedFingerprints) {
  check_cells(Mac::Lcfs);
}

TEST(AggregateGolden, RandomGapWindowMatchesRecordedFingerprints) {
  check_cells(Mac::RandomGap);
}

TEST(AggregateGolden, SlottedAlohaMatchesRecordedFingerprints) {
  check_cells(Mac::SlottedAloha);
}

TEST(AggregateGolden, DynamicAlohaMatchesRecordedFingerprints) {
  check_cells(Mac::DynamicAloha);
}

TEST(AggregateGolden, EdgeCellsMatchRecordedFingerprints) {
  for (const EdgeCell& e : edge_cells()) {
    check(e.name, run_config(e.config, e.rate, true, e.traced));
  }
}

TEST(AggregateGolden, TableCoversExactlyTheGrid) {
  std::size_t cells = 0;
  for (const Cell& c : grid()) {
    ++cells;
    EXPECT_NE(find_golden(c.name()), nullptr) << c.name();
  }
  for (const EdgeCell& e : edge_cells()) {
    ++cells;
    EXPECT_NE(find_golden(e.name), nullptr) << e.name;
  }
  EXPECT_EQ(goldens().size(), cells);
}

}  // namespace
