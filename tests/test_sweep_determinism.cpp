// Tier-1 determinism contract of the parallel sweep engine: the same
// SweepConfig must produce bit-identical SweepPoint vectors for every
// worker count (same derived seeds, same fixed-order reduction).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "chan/arrivals.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "net/aggregate_sim.hpp"
#include "net/experiment.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace {

namespace net = tcw::net;
namespace sim = tcw::sim;

net::SweepConfig base_config(int threads) {
  net::SweepConfig cfg;
  cfg.offered_load = 0.5;
  cfg.message_length = 25.0;
  cfg.t_end = 20000.0;
  cfg.warmup = 2000.0;
  cfg.replications = 3;
  cfg.threads = threads;
  return cfg;
}

// Bit-identical, not approximately equal: EXPECT_EQ on doubles.
void expect_bitwise_equal(const std::vector<net::SweepPoint>& a,
                          const std::vector<net::SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].constraint, b[i].constraint);
    EXPECT_EQ(a[i].p_loss, b[i].p_loss);
    EXPECT_EQ(a[i].ci95, b[i].ci95);
    EXPECT_EQ(a[i].mean_wait, b[i].mean_wait);
    EXPECT_EQ(a[i].mean_scheduling, b[i].mean_scheduling);
    EXPECT_EQ(a[i].utilization, b[i].utilization);
    EXPECT_EQ(a[i].messages, b[i].messages);
  }
}

std::vector<net::SweepPoint> sweep(const net::SweepConfig& cfg,
                                   net::ProtocolVariant v,
                                   const std::vector<double>& grid,
                                   net::SweepTiming* timing = nullptr) {
  return net::run_sweep({.config = cfg, .constraints = grid, .variant = v,
                         .make_policy = {},
                         .timing = timing})
      .points();
}

TEST(SweepDeterminism, IdenticalAcrossThreadCounts) {
  const std::vector<double> grid{25.0, 50.0, 100.0};
  const auto serial =
      sweep(base_config(1), net::ProtocolVariant::Controlled, grid);

  const auto two_workers =
      sweep(base_config(2), net::ProtocolVariant::Controlled, grid);
  expect_bitwise_equal(serial, two_workers);

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const auto hw_workers =
      sweep(base_config(hw), net::ProtocolVariant::Controlled, grid);
  expect_bitwise_equal(serial, hw_workers);

  const auto auto_workers =
      sweep(base_config(0), net::ProtocolVariant::Controlled, grid);
  expect_bitwise_equal(serial, auto_workers);
}

TEST(SweepDeterminism, CustomSweepIdenticalAcrossThreadCounts) {
  const std::vector<double> grid{30.0, 60.0};
  const auto factory = [](double k) {
    return tcw::core::ControlPolicy::optimal(k, 40.0);
  };
  const auto serial =
      net::run_sweep({.config = base_config(1), .constraints = grid,
                      .make_policy = factory})
          .points();
  const auto parallel =
      net::run_sweep({.config = base_config(4), .constraints = grid,
                      .make_policy = factory})
          .points();
  expect_bitwise_equal(serial, parallel);
}

TEST(SweepDeterminism, TimingIsReportedForAnyThreadCount) {
  const std::vector<double> grid{50.0};
  for (const int threads : {1, 2}) {
    net::SweepTiming timing;
    const auto pts = sweep(base_config(threads),
                           net::ProtocolVariant::Controlled, grid, &timing);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(timing.threads, static_cast<unsigned>(threads));
    EXPECT_EQ(timing.jobs, grid.size() * 3);  // 3 replications
    EXPECT_GT(timing.wall_seconds, 0.0);
    EXPECT_GT(timing.jobs_per_second, 0.0);
  }
}

TEST(SweepTrace, TracedJobMatchesSoloRerunAndChangesNothing) {
  // One (K, replication) shard of a parallel sweep captures its event
  // trace; the records must equal a solo simulator run with the same
  // derived seed, and attaching the trace must not perturb the sweep.
  const std::vector<double> grid{25.0, 50.0, 100.0};
  const std::size_t trace_point = 1;
  const int trace_replication = 2;

  net::SweepConfig cfg = base_config(4);
  sim::TraceLog sweep_trace;
  cfg.trace_request = {&sweep_trace, trace_point, trace_replication};
  const auto traced_points =
      sweep(cfg, net::ProtocolVariant::Controlled, grid);
  EXPECT_GT(sweep_trace.total_recorded(), 0u);

  // Solo rerun of exactly that shard: same config knobs, same policy,
  // same derived stream seed.
  net::AggregateConfig solo_cfg;
  solo_cfg.policy = net::policy_for(net::ProtocolVariant::Controlled,
                                    grid[trace_point],
                                    cfg.heuristic_window_width());
  solo_cfg.message_length = cfg.message_length;
  solo_cfg.success_overhead = cfg.success_overhead;
  solo_cfg.t_end = cfg.t_end;
  solo_cfg.warmup = cfg.warmup;
  solo_cfg.seed = tcw::sim::derive_stream_seed(
      cfg.base_seed, trace_point,
      static_cast<std::size_t>(trace_replication));
  sim::TraceLog solo_trace;
  solo_cfg.trace = &solo_trace;
  net::AggregateSimulator solo(
      solo_cfg, std::make_unique<tcw::chan::PoissonProcess>(cfg.lambda()));
  solo.run();

  EXPECT_EQ(sweep_trace.total_recorded(), solo_trace.total_recorded());
  EXPECT_EQ(sweep_trace.snapshot(), solo_trace.snapshot());

  // Tracing is observation only: the traced sweep's numbers are
  // bit-identical to an untraced serial sweep.
  const auto untraced =
      sweep(base_config(1), net::ProtocolVariant::Controlled, grid);
  expect_bitwise_equal(traced_points, untraced);
}

TEST(SweepTrace, TracedShardWorksUnderExternalScheduler) {
  // The same plumbing through a scheduler-bound run_sweep: only the
  // designated shard writes the log, and results stay bit-identical.
  const std::vector<double> grid{30.0, 60.0};
  net::SweepConfig cfg = base_config(0);
  sim::TraceLog trace;
  cfg.trace_request = {&trace, 0, 1};

  tcw::exec::ThreadPool pool(2);
  tcw::exec::SweepScheduler scheduler(pool);
  auto handle = net::run_sweep(
      {.config = cfg, .constraints = grid,
       .variant = net::ProtocolVariant::Controlled, .make_policy = {}},
      {.scheduler = &scheduler, .name = "traced", .cache = {}});
  scheduler.run();
  EXPECT_GT(trace.total_recorded(), 0u);

  const auto untraced =
      sweep(base_config(1), net::ProtocolVariant::Controlled, grid);
  expect_bitwise_equal(handle.points(), untraced);
}

TEST(SweepTiming, AccumulateSumsJobsAndWallClock) {
  net::SweepTiming total;
  net::SweepTiming a;
  a.threads = 2;
  a.jobs = 10;
  a.wall_seconds = 1.0;
  net::SweepTiming b;
  b.threads = 4;
  b.jobs = 30;
  b.wall_seconds = 3.0;
  total.accumulate(a);
  total.accumulate(b);
  EXPECT_EQ(total.threads, 4u);
  EXPECT_EQ(total.jobs, 40u);
  EXPECT_DOUBLE_EQ(total.wall_seconds, 4.0);
  EXPECT_DOUBLE_EQ(total.jobs_per_second, 10.0);
}

}  // namespace
