// Kernel throughput microbenchmark: single-run slots/sec and probes/sec of
// the per-slot simulation kernels (infinite-population
// net::AggregateSimulator, finite-station net::Network) across
// {stations} x {load} x {K} grids, plus the large-N event-skipping
// network stepper (N up to 10^6) and the N -> infinity fluid-limit
// kernel (net::FluidSimulator), reported as BENCH_JSON rows.
//
// Modes:
//   (default)    bench the fast kernel, the event-skip stepper at
//                N in {1e4, 1e5, 1e6}, and the fluid kernel
//   --baseline   bench fast AND the retained reference kernel per cell and
//                report the speedup (the pre-PR numbers in EXPERIMENTS.md)
//   --verify     bit-compare fast vs reference per cell, and fast vs
//                event-skip on the batched arrival stream for all three
//                MAC engines; nonzero exit on any mismatch (tier-1 smoke)
//   --reference  bench the reference kernel only
//
// Build with an optimized CMAKE_BUILD_TYPE (Release / RelWithDebInfo, the
// default) before quoting numbers; see EXPERIMENTS.md "Kernel throughput".
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/splitting.hpp"
#include "chan/arrivals.hpp"
#include "net/aggregate_sim.hpp"
#include "net/fluid_sim.hpp"
#include "net/network.hpp"
#include "obs_support.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

namespace {

using tcw::net::SimMetrics;

struct Options {
  double t_end = 150000.0;
  double warmup = 5000.0;
  double message_length = 25.0;
  long long shadows = 2;
  unsigned long long seed = 20261983;
  bool quick = false;
  bool verify = false;
  bool baseline = false;
  bool reference = false;
  std::string csv = "kernel_bench.csv";
  tcw::bench::ObsOptions obs;
};

struct CellResult {
  SimMetrics metrics;
  std::uint64_t probe_steps = 0;
  std::uint64_t skipped_slots = 0;
  double wall_seconds = 0.0;
  std::vector<tcw::obs::ChannelTally> tallies;  // deadline-loss attribution
};

void append_stats(std::ostringstream& out, const char* name,
                  const tcw::sim::RunningStats& s) {
  out << ' ' << name << ':' << s.count();
  char buf[160];
  std::snprintf(buf, sizeof buf, "/%a/%a/%a/%a", s.mean(), s.sum(), s.min(),
                s.max());
  out << buf;
}

// Every counter and accumulator of the run, doubles rendered as exact hex
// floats: equal strings <=> bit-identical metrics.
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

struct AggCell {
  double rho;
  double k_over_m;
};

struct NetCell {
  std::size_t stations;
  double rho;
  double k_over_m;
};

CellResult run_aggregate(const Options& opt, const AggCell& cell,
                         bool reference,
                         const tcw::net::PolicyConfig& mac = {},
                         const tcw::obs::KernelCapture& capture = {}) {
  tcw::net::AggregateConfig cfg;
  const double lambda = cell.rho / opt.message_length;
  const double k = cell.k_over_m * opt.message_length;
  cfg.policy = tcw::core::ControlPolicy::optimal(
      k, tcw::analysis::optimal_window_load() / lambda);
  cfg.mac = mac;
  if (cfg.mac.engine.kind == tcw::net::EngineKind::DynamicAloha &&
      cfg.mac.engine.arrival_rate <= 0.0) {
    cfg.mac.engine.arrival_rate = lambda;
  }
  cfg.message_length = opt.message_length;
  cfg.t_end = opt.t_end;
  cfg.warmup = opt.warmup;
  cfg.seed = opt.seed;
  cfg.reference_kernel = reference;
  cfg.capture = capture;
  tcw::net::AggregateSimulator sim(
      cfg, std::make_unique<tcw::chan::PoissonProcess>(lambda));
  const auto t0 = std::chrono::steady_clock::now();
  CellResult r;
  r.metrics = sim.run();
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.probe_steps = sim.probe_steps();
  r.tallies = sim.channel_tallies();
  return r;
}

CellResult run_network(const Options& opt, const NetCell& cell,
                       bool reference,
                       const tcw::net::PolicyConfig& mac = {},
                       const tcw::obs::KernelCapture& capture = {}) {
  tcw::net::NetworkConfig cfg;
  const double lambda = cell.rho / opt.message_length;
  const double k = cell.k_over_m * opt.message_length;
  cfg.policy = tcw::core::ControlPolicy::optimal(
      k, tcw::analysis::optimal_window_load() / lambda);
  cfg.mac = mac;
  if (cfg.mac.engine.kind == tcw::net::EngineKind::DynamicAloha &&
      cfg.mac.engine.arrival_rate <= 0.0) {
    cfg.mac.engine.arrival_rate = lambda;
  }
  cfg.message_length = opt.message_length;
  cfg.t_end = opt.t_end;
  cfg.warmup = opt.warmup;
  cfg.seed = opt.seed;
  cfg.consistency_check_every = 1024;
  cfg.reference_kernel = reference;
  cfg.capture = capture;
  if (!reference) {
    cfg.shadow_replicas = static_cast<std::size_t>(opt.shadows);
  }
  auto net = tcw::net::Network::homogeneous_poisson(cfg, cell.stations,
                                                    lambda);
  const auto t0 = std::chrono::steady_clock::now();
  CellResult r;
  r.metrics = net.run();
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.probe_steps = net.probe_steps();
  r.tallies = net.channel_tallies();
  if (!net.stations_consistent()) {
    std::fprintf(stderr, "kernel_bench: consistency violation (N=%zu)\n",
                 cell.stations);
    std::exit(2);
  }
  return r;
}

// Batched-arrival network run (homogeneous_poisson_batched): same cell
// grid, any MAC engine, optionally stepping through the event-skip path.
// fast(batched) and event-skip(batched) consume the identical arrival
// realization, which is what makes them bit-comparable; both differ from
// run_network's per-station streams at the same seed.
CellResult run_network_batched(const Options& opt, const NetCell& cell,
                               tcw::net::EngineKind kind, bool event_skip,
                               const tcw::obs::KernelCapture& capture = {}) {
  tcw::net::NetworkConfig cfg;
  const double lambda = cell.rho / opt.message_length;
  const double k = cell.k_over_m * opt.message_length;
  cfg.policy = tcw::core::ControlPolicy::optimal(
      k, tcw::analysis::optimal_window_load() / lambda);
  cfg.mac.engine.kind = kind;
  if (kind == tcw::net::EngineKind::DynamicAloha) {
    cfg.mac.engine.arrival_rate = lambda;
  }
  cfg.message_length = opt.message_length;
  cfg.t_end = opt.t_end;
  cfg.warmup = opt.warmup;
  cfg.seed = opt.seed;
  cfg.consistency_check_every = 1024;
  cfg.shadow_replicas = static_cast<std::size_t>(opt.shadows);
  cfg.event_skip = event_skip;
  cfg.capture = capture;
  auto net = tcw::net::Network::homogeneous_poisson_batched(
      cfg, cell.stations, lambda);
  const auto t0 = std::chrono::steady_clock::now();
  CellResult r;
  r.metrics = net.run();
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.probe_steps = net.probe_steps();
  r.skipped_slots = net.skipped_slots();
  r.tallies = net.channel_tallies();
  if (!net.stations_consistent()) {
    std::fprintf(stderr,
                 "kernel_bench: consistency violation (N=%zu, %s)\n",
                 cell.stations, to_string(kind).c_str());
    std::exit(2);
  }
  return r;
}

// Fluid-limit cell: events stand in for probe steps (both are the
// kernel's unit of work per wall second); p_loss rides along in the JSON
// row so sweeps can sanity-check against the Section 4 closed form.
CellResult run_fluid(const Options& opt, const AggCell& cell,
                     double* p_loss) {
  tcw::analysis::ProtocolModelConfig mc;
  mc.offered_load = cell.rho;
  mc.message_length = opt.message_length;
  tcw::net::FluidConfig cfg = tcw::net::protocol_fluid_config(
      mc, cell.k_over_m * opt.message_length);
  cfg.t_end = opt.t_end;
  cfg.warmup = opt.warmup;
  cfg.seed = opt.seed;
  tcw::net::FluidSimulator sim(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  CellResult r;
  const tcw::net::FluidMetrics& m = sim.run();
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.probe_steps = sim.events();
  *p_loss = m.p_loss();
  return r;
}

double rate(double count, double wall) {
  return wall > 0.0 ? count / wall : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  tcw::Flags flags("kernel_bench",
                   "Per-slot kernel throughput: slots/sec and probes/sec "
                   "for both simulators");
  flags.add("t-end", &opt.t_end, "simulated slots per cell");
  flags.add("warmup", &opt.warmup, "warmup slots excluded from statistics");
  flags.add("m", &opt.message_length, "message length M");
  flags.add("shadows", &opt.shadows,
            "shadow controller replicas in the fast network kernel");
  flags.add("seed", &opt.seed, "RNG seed");
  flags.add("quick", &opt.quick, "shrink runs for smoke testing");
  flags.add("verify", &opt.verify,
            "bit-compare fast vs reference kernel metrics per cell");
  flags.add("baseline", &opt.baseline,
            "also time the reference kernel and report speedups");
  flags.add("reference", &opt.reference,
            "bench the retained reference kernel only");
  flags.add("csv", &opt.csv, "CSV output path");
  tcw::bench::register_obs_flags(flags, opt.obs);
  if (!flags.parse(argc, argv)) return 1;
  // No scheduler here: --manifest-out captures the kernel counters,
  // --trace-out/--progress warn and are ignored.
  tcw::bench::ObsSession obs("kernel_bench", opt.obs);
  if (opt.quick) {
    opt.t_end = 20000.0;
    opt.warmup = 2000.0;
  }
#ifndef NDEBUG
  std::printf("WARNING: assertions enabled (non-optimized build?); "
              "throughput numbers will be pessimistic\n");
#endif

  const std::vector<AggCell> agg_cells{
      {0.25, 2.0}, {0.25, 8.0}, {0.50, 2.0}, {0.50, 8.0},
      {0.75, 2.0}, {0.75, 8.0},
  };
  const std::vector<NetCell> net_cells{
      {10, 0.50, 3.0},  {10, 0.90, 3.0},  {50, 0.50, 3.0},
      {50, 0.90, 3.0},  {200, 0.50, 3.0}, {200, 0.90, 3.0},
  };

  if (opt.verify) {
    std::size_t cells = 0;
    // A throwaway recorder+series riding on every fast run: the
    // fingerprint comparisons against the capture-free reference runs
    // double as the strict-overlay proof (instrumentation perturbs no
    // RNG draw, so metrics stay bit-identical).
    tcw::obs::FlightRecorder verify_rec({opt.seed, 1.0, 4096});
    std::size_t seg_id = 0;
    const auto verify_capture = [&](tcw::obs::SlotSeries* series) {
      tcw::obs::KernelCapture c;
      c.flight = verify_rec.segment("verify/" + std::to_string(seg_id++));
      c.series = series;
      return c;
    };
    for (const AggCell& cell : agg_cells) {
      tcw::obs::SlotSeries series;
      const std::string fast = fingerprint(
          run_aggregate(opt, cell, false, {}, verify_capture(&series))
              .metrics);
      const std::string ref = fingerprint(run_aggregate(opt, cell, true).metrics);
      if (fast != ref) {
        std::fprintf(stderr,
                     "VERIFY FAILED aggregate rho=%.2f K/M=%.1f\n fast: %s\n"
                     "  ref: %s\n",
                     cell.rho, cell.k_over_m, fast.c_str(), ref.c_str());
        return 1;
      }
      ++cells;
    }
    for (const NetCell& cell : net_cells) {
      tcw::obs::SlotSeries series;
      const std::string fast = fingerprint(
          run_network(opt, cell, false, {}, verify_capture(&series)).metrics);
      const std::string ref = fingerprint(run_network(opt, cell, true).metrics);
      if (fast != ref) {
        std::fprintf(stderr,
                     "VERIFY FAILED network N=%zu rho=%.2f K/M=%.1f\n"
                     " fast: %s\n  ref: %s\n",
                     cell.stations, cell.rho, cell.k_over_m, fast.c_str(),
                     ref.c_str());
        return 1;
      }
      ++cells;
    }
    // Event-skip conformance: every MAC engine, fast(batched) vs
    // event-skip(batched) on the same arrival realization. The reference
    // kernel comparison above closes the chain for the window engine
    // (reference == fast == event-skip); the aloha engines have no
    // reference path.
    const tcw::net::EngineKind kinds[] = {tcw::net::EngineKind::Window,
                                          tcw::net::EngineKind::SlottedAloha,
                                          tcw::net::EngineKind::DynamicAloha};
    for (const auto kind : kinds) {
      for (const NetCell& cell : net_cells) {
        // The per-slot and event-skip steppers carry their own series;
        // event-skip synthesizes closed-form idle samples for jumped
        // stretches, so the rendered rows must match byte for byte.
        tcw::obs::SlotSeries fast_series;
        tcw::obs::SlotSeries skip_series;
        const CellResult fast = run_network_batched(
            opt, cell, kind, false, verify_capture(&fast_series));
        const CellResult skip = run_network_batched(
            opt, cell, kind, true, verify_capture(&skip_series));
        const std::string f = fingerprint(fast.metrics);
        const std::string s = fingerprint(skip.metrics);
        if (fast_series.to_csv_rows("x") != skip_series.to_csv_rows("x")) {
          std::fprintf(stderr,
                       "VERIFY FAILED event-skip series %s N=%zu rho=%.2f "
                       "K/M=%.1f: per-slot and event-skip SlotSeries rows "
                       "differ\n",
                       to_string(kind).c_str(), cell.stations, cell.rho,
                       cell.k_over_m);
          return 1;
        }
        if (f != s || fast.probe_steps != skip.probe_steps) {
          std::fprintf(stderr,
                       "VERIFY FAILED event-skip %s N=%zu rho=%.2f "
                       "K/M=%.1f (probes %llu vs %llu)\n fast: %s\n skip: %s\n",
                       to_string(kind).c_str(), cell.stations, cell.rho,
                       cell.k_over_m,
                       static_cast<unsigned long long>(fast.probe_steps),
                       static_cast<unsigned long long>(skip.probe_steps),
                       f.c_str(), s.c_str());
          return 1;
        }
        ++cells;
      }
    }
    // Multi-channel conformance: C = 2 under every {selector, engine}
    // pair, fast vs reference on both kernels. Selectors route at
    // arrival time only, so the reference steppers exercise the exact
    // same routing sequence as the fast kernels.
    const tcw::net::ChannelSelectorKind selectors[] = {
        tcw::net::ChannelSelectorKind::HashShard,
        tcw::net::ChannelSelectorKind::UniformRandom,
        tcw::net::ChannelSelectorKind::LeastLoaded,
        tcw::net::ChannelSelectorKind::DeadlineHop};
    const AggCell mc_agg{0.50, 3.0};
    const NetCell mc_net{50, 0.50, 3.0};
    for (const auto kind : kinds) {
      for (const auto selector : selectors) {
        tcw::net::PolicyConfig mac;
        mac.engine.kind = kind;
        mac.channel.channels = 2;
        mac.channel.selector = selector;
        const std::string fast =
            fingerprint(run_aggregate(opt, mc_agg, false, mac).metrics);
        const std::string ref =
            fingerprint(run_aggregate(opt, mc_agg, true, mac).metrics);
        if (fast != ref) {
          std::fprintf(stderr,
                       "VERIFY FAILED multichannel aggregate %s/%s C=2\n"
                       " fast: %s\n  ref: %s\n",
                       to_string(kind).c_str(), to_string(selector).c_str(),
                       fast.c_str(), ref.c_str());
          return 1;
        }
        ++cells;
        const std::string nfast =
            fingerprint(run_network(opt, mc_net, false, mac).metrics);
        const std::string nref =
            fingerprint(run_network(opt, mc_net, true, mac).metrics);
        if (nfast != nref) {
          std::fprintf(stderr,
                       "VERIFY FAILED multichannel network %s/%s C=2\n"
                       " fast: %s\n  ref: %s\n",
                       to_string(kind).c_str(), to_string(selector).c_str(),
                       nfast.c_str(), nref.c_str());
          return 1;
        }
        ++cells;
      }
    }
    std::printf("verify: fast/reference, fast/event-skip (metrics and "
                "slot series), and C=2 multichannel kernels bit-identical "
                "over %zu cells, capture overlay zero-perturbing "
                "(t_end=%.0f)\n",
                cells, opt.t_end);
    return obs.finish(nullptr);
  }

  tcw::Table table({"sim", "stations", "rho", "K_over_M", "kernel",
                    "wall_seconds", "slots_per_sec", "probes_per_sec"});
  const auto emit = [&](const char* sim_name, std::size_t stations,
                        double rho, double k_over_m, const char* kernel,
                        const CellResult& r, const std::string& extra = "") {
    const double slots_per_sec = rate(opt.t_end, r.wall_seconds);
    const double probes_per_sec =
        rate(static_cast<double>(r.probe_steps), r.wall_seconds);
    table.add_row({sim_name, std::to_string(stations),
                   tcw::format_fixed(rho, 2), tcw::format_fixed(k_over_m, 1),
                   kernel, tcw::format_fixed(r.wall_seconds, 4),
                   tcw::format_fixed(slots_per_sec, 0),
                   tcw::format_fixed(probes_per_sec, 0)});
    std::printf("BENCH_JSON {\"bench\":\"kernel_bench\",\"sim\":\"%s\","
                "\"stations\":%zu,\"rho\":%.2f,\"k_over_m\":%.1f,"
                "\"kernel\":\"%s\",\"wall_seconds\":%.4f,"
                "\"slots_per_sec\":%.0f,\"probes_per_sec\":%.0f%s}\n",
                sim_name, stations, rho, k_over_m, kernel, r.wall_seconds,
                slots_per_sec, probes_per_sec, extra.c_str());
  };

  // Under --flight-out / --series-out each fast cell gets a kernel
  // capture tagged with the cell coordinates, and its deadline-loss
  // attribution tallies are echoed as BENCH_JSON rows (kernel_bench has
  // no sweeps, so the rows are emitted here rather than through the
  // flight report's sweep table).
  const auto cell_capture = [&](const char* sim_name, std::size_t stations,
                                double rho, double k_over_m) {
    tcw::obs::KernelCapture c;
    if (!obs.wants_capture()) return c;
    char tag[96];
    std::snprintf(tag, sizeof tag, "%s/n%zu_rho%.2f_km%.1f", sim_name,
                  stations, rho, k_over_m);
    return obs.make_capture(tag, opt.seed);
  };
  const auto emit_attribution = [&](const char* sim_name,
                                    std::size_t stations, double rho,
                                    double k_over_m, const CellResult& r) {
    if (!obs.wants_capture()) return;
    for (std::size_t ch = 0; ch < r.tallies.size(); ++ch) {
      const tcw::obs::ChannelTally& t = r.tallies[ch];
      std::printf(
          "BENCH_JSON {\"bench\":\"kernel_bench\","
          "\"sweep\":\"%s/n%zu_rho%.2f_km%.1f\",\"k\":%.17g,"
          "\"channel\":%zu,\"admission_starved\":%llu,"
          "\"collision_killed\":%llu,\"queue_expired\":%llu,"
          "\"discards\":%llu}\n",
          sim_name, stations, rho, k_over_m, k_over_m * opt.message_length,
          ch, static_cast<unsigned long long>(t.admission_starved),
          static_cast<unsigned long long>(t.collision_killed),
          static_cast<unsigned long long>(t.queue_expired),
          static_cast<unsigned long long>(t.sender_discards));
    }
  };

  std::printf("== kernel_bench: t_end=%.0f warmup=%.0f M=%.0f shadows=%lld "
              "==\n\n",
              opt.t_end, opt.warmup, opt.message_length, opt.shadows);

  for (const AggCell& cell : agg_cells) {
    CellResult fast{};
    CellResult ref{};
    if (!opt.reference) {
      fast = run_aggregate(opt, cell, false, {},
                           cell_capture("aggregate", 0, cell.rho,
                                        cell.k_over_m));
      emit("aggregate", 0, cell.rho, cell.k_over_m, "fast", fast);
      emit_attribution("aggregate", 0, cell.rho, cell.k_over_m, fast);
    }
    if (opt.reference || opt.baseline) {
      ref = run_aggregate(opt, cell, true);
      emit("aggregate", 0, cell.rho, cell.k_over_m, "reference", ref);
    }
    if (opt.baseline && ref.wall_seconds > 0.0 && fast.wall_seconds > 0.0) {
      std::printf("  -> aggregate rho=%.2f K/M=%.1f speedup %.2fx\n",
                  cell.rho, cell.k_over_m,
                  ref.wall_seconds / fast.wall_seconds);
    }
  }
  for (const NetCell& cell : net_cells) {
    CellResult fast{};
    CellResult ref{};
    if (!opt.reference) {
      fast = run_network(opt, cell, false, {},
                         cell_capture("network", cell.stations, cell.rho,
                                      cell.k_over_m));
      emit("network", cell.stations, cell.rho, cell.k_over_m, "fast", fast);
      emit_attribution("network", cell.stations, cell.rho, cell.k_over_m,
                       fast);
    }
    if (opt.reference || opt.baseline) {
      ref = run_network(opt, cell, true);
      emit("network", cell.stations, cell.rho, cell.k_over_m, "reference",
           ref);
    }
    if (opt.baseline && ref.wall_seconds > 0.0 && fast.wall_seconds > 0.0) {
      std::printf("  -> network N=%zu rho=%.2f K/M=%.1f speedup %.2fx\n",
                  cell.stations, cell.rho, cell.k_over_m,
                  ref.wall_seconds / fast.wall_seconds);
    }
  }

  if (!opt.reference) {
    // Large-N headline: the event-skipping stepper on the batched stream.
    // Per-slot cost is O(active stations), and quiescent stretches are
    // jumped in O(replicas), so slots/sec stays in the tens of millions
    // out to a million stations.
    const std::vector<NetCell> large_cells{
        {10000, 0.50, 3.0}, {100000, 0.50, 3.0}, {1000000, 0.50, 3.0}};
    for (const NetCell& cell : large_cells) {
      const CellResult r = run_network_batched(
          opt, cell, tcw::net::EngineKind::Window, true,
          cell_capture("event-skip", cell.stations, cell.rho,
                       cell.k_over_m));
      char extra[96];
      std::snprintf(extra, sizeof extra,
                    ",\"skipped_slots\":%llu,\"skip_fraction\":%.4f",
                    static_cast<unsigned long long>(r.skipped_slots),
                    static_cast<double>(r.skipped_slots) / opt.t_end);
      emit("network", cell.stations, cell.rho, cell.k_over_m, "event-skip",
           r, extra);
      emit_attribution("event-skip", cell.stations, cell.rho, cell.k_over_m,
                       r);
    }

    // N -> infinity fluid limit: wall time scales with arrivals, not
    // stations or slots.
    const std::vector<AggCell> fluid_cells{
        {0.30, 2.0}, {0.30, 4.0}, {0.60, 2.0},
        {0.60, 4.0}, {0.90, 2.0}, {0.90, 4.0},
    };
    for (const AggCell& cell : fluid_cells) {
      double p_loss = 0.0;
      const CellResult r = run_fluid(opt, cell, &p_loss);
      char extra[96];
      std::snprintf(extra, sizeof extra,
                    ",\"events_per_sec\":%.0f,\"p_loss\":%.6f",
                    rate(static_cast<double>(r.probe_steps), r.wall_seconds),
                    p_loss);
      emit("fluid", 0, cell.rho, cell.k_over_m, "fluid", r, extra);
    }
  }

  std::printf("\n");
  table.write_pretty(std::cout);
  if (!table.save_csv(opt.csv)) return 1;
  std::printf("csv: %s\n", opt.csv.c_str());
  return obs.finish(nullptr);
}
