// Conformance/property layer for the event-skipping large-N stepper
// (NetworkConfig::event_skip): on the batched arrival stream the skipping
// kernel must reproduce the per-slot fast kernel bit for bit -- every
// metric, the probe count, and the number of consistency checks run --
// across randomized {N, rho, K, engine, shadow_replicas} configurations,
// including warmup boundaries that land inside a skipped stretch and
// sender-discard accounting. Suite name (EventSkip) is targeted by the
// tier-1 TSan filter in scripts/tier1.sh.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "analysis/splitting.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "sim/rng.hpp"
#include "sim/sampling.hpp"
#include "util/contract.hpp"

using tcw::core::ControlPolicy;
using tcw::net::EngineKind;
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

struct Cell {
  std::size_t stations = 10;
  double rho = 0.5;
  double k = 75.0;
  double message_length = 25.0;
  EngineKind kind = EngineKind::Window;
  std::size_t shadows = 2;
  double t_end = 20000.0;
  double warmup = 2000.0;
  std::size_t check_every = 512;
  std::uint64_t seed = 1;
};

NetworkConfig make_config(const Cell& cell, bool event_skip) {
  NetworkConfig cfg;
  const double lambda = cell.rho / cell.message_length;
  cfg.policy = ControlPolicy::optimal(
      cell.k, tcw::analysis::optimal_window_load() / lambda);
  cfg.mac.engine.kind = cell.kind;
  if (cell.kind == EngineKind::DynamicAloha) {
    cfg.mac.engine.arrival_rate = lambda;
  }
  cfg.message_length = cell.message_length;
  cfg.t_end = cell.t_end;
  cfg.warmup = cell.warmup;
  cfg.seed = cell.seed;
  cfg.consistency_check_every = cell.check_every;
  cfg.shadow_replicas = cell.shadows;
  cfg.event_skip = event_skip;
  return cfg;
}

// Runs the cell through both steppers and asserts bit-identity of the
// full metric set plus the bookkeeping the skip path records in closed
// form (probe steps, consistency checks and their verdict). Returns the
// skipped-slot count so callers can assert the fast path actually engaged.
std::uint64_t expect_conformant(const Cell& cell) {
  const double lambda = cell.rho / cell.message_length;
  auto fast = Network::homogeneous_poisson_batched(
      make_config(cell, false), cell.stations, lambda);
  auto skip = Network::homogeneous_poisson_batched(
      make_config(cell, true), cell.stations, lambda);
  const SimMetrics& fm = fast.run();
  const SimMetrics& sm = skip.run();
  const std::string label =
      "N=" + std::to_string(cell.stations) +
      " rho=" + std::to_string(cell.rho) + " k=" + std::to_string(cell.k) +
      " engine=" + to_string(cell.kind) +
      " shadows=" + std::to_string(cell.shadows) +
      " seed=" + std::to_string(cell.seed);
  EXPECT_EQ(fingerprint(fm), fingerprint(sm)) << label;
  EXPECT_EQ(fast.probe_steps(), skip.probe_steps()) << label;
  EXPECT_EQ(fast.consistency_checks_run(), skip.consistency_checks_run())
      << label;
  EXPECT_TRUE(fast.stations_consistent()) << label;
  EXPECT_TRUE(skip.stations_consistent()) << label;
  EXPECT_EQ(fast.skipped_slots(), 0u) << label;
  // Fate buckets partition the arrivals under both steppers (discard
  // accounting survives the skip).
  EXPECT_EQ(sm.arrivals, sm.delivered + sm.lost_sender + sm.lost_receiver +
                             sm.censored_lost + sm.pending_at_end)
      << label;
  return skip.skipped_slots();
}

TEST(EventSkip, ConformanceRandomizedCells) {
  // Property test: configurations drawn from a seeded generator span the
  // {N, rho, K, engine, shadows} space, fractional deadlines included.
  tcw::sim::Rng gen(0xE5C19u);
  const EngineKind kinds[] = {EngineKind::Window, EngineKind::SlottedAloha,
                              EngineKind::DynamicAloha};
  std::uint64_t total_skipped = 0;
  for (int i = 0; i < 12; ++i) {
    Cell cell;
    cell.stations = 2 + tcw::sim::uniform_index(gen, 400);
    cell.rho = 0.15 + 0.8 * tcw::sim::uniform01(gen);
    cell.k = (tcw::sim::uniform_index(gen, 2) == 0 ? 75.0 : 60.5);
    cell.kind = kinds[tcw::sim::uniform_index(gen, 3)];
    cell.shadows = tcw::sim::uniform_index(gen, 4);
    cell.t_end = 12000.0 + 1000.0 * tcw::sim::uniform_index(gen, 6);
    cell.warmup = 500.0 + 500.0 * tcw::sim::uniform_index(gen, 4);
    cell.check_every = 128u << tcw::sim::uniform_index(gen, 3);
    cell.seed = 1000 + i;
    total_skipped += expect_conformant(cell);
  }
  // The sampler must have exercised the skip path somewhere, or the
  // conformance claim is vacuous.
  EXPECT_GT(total_skipped, 0u);
}

TEST(EventSkip, EngagesOnSparseLoad) {
  // At light load the channel is mostly quiescent: besides bit-identity,
  // require that the skipping stepper actually covered the majority of
  // the horizon via certificates (guards against a silent fallback to
  // per-slot stepping).
  Cell cell;
  cell.stations = 1000;
  cell.rho = 0.2;
  cell.seed = 7;
  const std::uint64_t skipped = expect_conformant(cell);
  EXPECT_GT(static_cast<double>(skipped), 0.5 * cell.t_end);
}

TEST(EventSkip, WarmupBoundaryInsideSkippedStretch) {
  // Warmup cutoffs placed at many offsets -- including mid-stretch and
  // fractional -- must not shift a single sample between the warmup and
  // observed windows relative to the per-slot stepper.
  for (const double warmup : {0.0, 1.0, 97.0, 1003.5, 2500.0}) {
    Cell cell;
    cell.stations = 200;
    cell.rho = 0.25;
    cell.warmup = warmup;
    cell.t_end = 15000.0;
    cell.seed = 11;
    const std::uint64_t skipped = expect_conformant(cell);
    EXPECT_GT(skipped, 0u) << "warmup=" << warmup;
  }
}

TEST(EventSkip, WarmupInsideStretchCountsEveryProcessStart) {
  // With (practically) no arrivals every slot is a one-probe empty
  // process inside one certified stretch, so t_end - ceil(warmup) process
  // starts follow the warmup, under both steppers. Consistency checks fall
  // due many times per stretch at these cadences.
  for (const double warmup : {1000.0, 1000.5}) {
    for (const std::size_t every : {std::size_t{1}, std::size_t{7}}) {
      Cell cell;
      cell.stations = 30;
      cell.rho = 1e-9;
      cell.t_end = 5000.0;
      cell.warmup = warmup;
      cell.check_every = every;
      const double lambda = cell.rho / cell.message_length;
      for (const bool event_skip : {false, true}) {
        auto net = Network::homogeneous_poisson_batched(
            make_config(cell, event_skip), cell.stations, lambda);
        const SimMetrics& m = net.run();
        const auto starts =
            static_cast<std::uint64_t>(cell.t_end - std::ceil(warmup));
        EXPECT_EQ(m.pseudo_backlog.count(), starts)
            << "warmup=" << warmup << " skip=" << event_skip;
        EXPECT_EQ(m.process_slots.count(), starts);
        EXPECT_EQ(net.consistency_checks_run(),
                  static_cast<std::uint64_t>(cell.t_end) / every + 1);
      }
      EXPECT_GT(expect_conformant(cell), 0u);
      // The same warmups under load, where the cutoff lands inside one of
      // many stretches.
      cell.rho = 0.25;
      cell.t_end = 15000.0;
      cell.seed = 3;
      EXPECT_GT(expect_conformant(cell), 0u);
    }
  }
}

TEST(EventSkip, SkippedSlotsReachTheRegistry) {
  const tcw::obs::Counter counter =
      tcw::obs::Registry::global().counter("net.network.skipped_slots");
  const std::uint64_t before = counter.value();
  Cell cell;
  cell.stations = 200;
  cell.rho = 0.25;
  NetworkConfig cfg = make_config(cell, true);
  auto net = Network::homogeneous_poisson_batched(
      cfg, cell.stations, cell.rho / cell.message_length);
  net.run();
  EXPECT_GT(net.skipped_slots(), 0u);
  EXPECT_EQ(counter.value() - before, net.skipped_slots());
}

TEST(EventSkip, SenderDiscardAccountingTightDeadline) {
  // A tight fractional deadline forces sender discards (element 4); the
  // skipped stretches must leave every fate bucket identical. K < 1
  // additionally keeps the window engine off the certificate orbit, so
  // this also covers the skip==0 fallback for the window engine while
  // the aloha engines still certify.
  for (const EngineKind kind :
       {EngineKind::Window, EngineKind::SlottedAloha,
        EngineKind::DynamicAloha}) {
    Cell cell;
    cell.stations = 50;
    cell.rho = 0.7;
    cell.k = kind == EngineKind::Window ? 0.75 : 30.0;
    cell.kind = kind;
    cell.seed = 23;
    expect_conformant(cell);
  }
}

TEST(EventSkip, FractionalSlotTimesStayConformant) {
  // Non-integral message length (M = 25.5) makes transmission ends land
  // on half-slots. Certificates require an integral `now`, so stretches
  // are only certified at instants where the closed-form jump is exact
  // (e.g. after an even number of transmissions) -- the kernel may still
  // skip there, and wherever it does the result must stay bit-identical.
  Cell cell;
  cell.stations = 40;
  cell.rho = 0.4;
  cell.message_length = 25.5;
  cell.seed = 31;
  expect_conformant(cell);
}

TEST(EventSkip, RequiresBatchedArrivalStream) {
  // The per-station lazy arrival draws interleave on the shared RNG in
  // schedule-dependent order, so event_skip without the batched stream is
  // a contract violation, not a silent wrong answer.
  Cell cell;
  NetworkConfig cfg = make_config(cell, true);
  auto net = Network::homogeneous_poisson(cfg, cell.stations,
                                          cell.rho / cell.message_length);
  EXPECT_THROW(net.run(), tcw::ContractViolation);
}

TEST(EventSkip, RejectsDesyncInjection) {
  // skip_quiescent canonicalizes replica state, which could mask an
  // injected divergence; the run must refuse the combination outright.
  Cell cell;
  cell.shadows = 2;
  NetworkConfig cfg = make_config(cell, true);
  auto net = Network::homogeneous_poisson_batched(
      cfg, cell.stations, cell.rho / cell.message_length);
  net.desync_replica_for_test(1);
  EXPECT_THROW(net.run(), tcw::ContractViolation);
}

}  // namespace
