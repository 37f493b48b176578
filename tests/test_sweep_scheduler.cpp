// Tier-1 contract of the sharded multi-sweep scheduler: every shard of
// every registered sweep runs exactly once over the shared pool; idle
// workers steal shards from sweeps that still have work; per-sweep
// results are bit-identical to standalone runs for any thread count and
// any sweep submission order; shard exceptions propagate out of run();
// a gated sweep starts only after its prerequisite has finished, and a
// loss-curve sweep's policy factory runs lazily, once, on its first
// executed job.
#include "exec/sweep_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/shard_cache.hpp"
#include "exec/thread_pool.hpp"
#include "net/experiment.hpp"
#include "util/contract.hpp"

namespace {

using tcw::exec::SchedulerReport;
using tcw::exec::SweepScheduler;
using tcw::exec::ThreadPool;
namespace net = tcw::net;

std::vector<std::function<void()>> counting_shards(
    std::vector<std::atomic<int>>& counters) {
  std::vector<std::function<void()>> shards;
  shards.reserve(counters.size());
  for (auto& c : counters) {
    shards.push_back([&c] { c.fetch_add(1); });
  }
  return shards;
}

TEST(SweepScheduler, RunsEveryShardOfEverySweepOnce) {
  ThreadPool pool(3);
  SweepScheduler scheduler(pool);
  std::vector<std::atomic<int>> a(5);
  std::vector<std::atomic<int>> b(7);
  EXPECT_EQ(scheduler.add_sweep("a", counting_shards(a)), 0u);
  EXPECT_EQ(scheduler.add_sweep("b", counting_shards(b)), 1u);
  scheduler.add_sweep("empty", {});
  EXPECT_EQ(scheduler.sweep_count(), 3u);
  EXPECT_EQ(scheduler.shard_count(), 12u);

  const SchedulerReport report = scheduler.run();

  for (const auto& c : a) EXPECT_EQ(c.load(), 1);
  for (const auto& c : b) EXPECT_EQ(c.load(), 1);
  EXPECT_EQ(report.threads, 3u);
  EXPECT_EQ(report.shards, 12u);
  ASSERT_EQ(report.sweeps.size(), 3u);
  EXPECT_EQ(report.sweeps[0].name, "a");
  EXPECT_EQ(report.sweeps[0].shards, 5u);
  EXPECT_EQ(report.sweeps[1].name, "b");
  EXPECT_EQ(report.sweeps[1].shards, 7u);
  EXPECT_EQ(report.sweeps[2].shards, 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
  // run() consumed the graph; the scheduler is reusable.
  EXPECT_EQ(scheduler.sweep_count(), 0u);
  EXPECT_EQ(scheduler.shard_count(), 0u);
}

TEST(SweepScheduler, IdleWorkersStealShardsFromOtherSweeps) {
  // Sweep "blocker" holds one shard that cannot finish until every shard
  // of sweep "stolen" has run. With 2 workers this completes only if the
  // second worker, finding its home sweep drained, pulls the other
  // sweep's shards while the first shard is still executing -- a
  // scheduler that runs sweeps strictly one at a time would time out.
  ThreadPool pool(2);
  SweepScheduler scheduler(pool);
  std::atomic<int> stolen_done{0};
  std::atomic<bool> timed_out{false};

  std::vector<std::function<void()>> blocker;
  blocker.push_back([&stolen_done, &timed_out] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (stolen_done.load() < 4) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  scheduler.add_sweep("blocker", std::move(blocker));

  std::vector<std::function<void()>> stolen;
  for (int i = 0; i < 4; ++i) {
    stolen.push_back([&stolen_done] { stolen_done.fetch_add(1); });
  }
  scheduler.add_sweep("stolen", std::move(stolen));

  scheduler.run();
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(stolen_done.load(), 4);
}

TEST(SweepScheduler, SingleWorkerRunsInRegistrationOrder) {
  ThreadPool pool(1);
  SweepScheduler scheduler(pool);
  std::vector<int> order;
  std::vector<std::function<void()>> first;
  for (int i = 0; i < 3; ++i) {
    first.push_back([&order, i] { order.push_back(i); });
  }
  std::vector<std::function<void()>> second;
  for (int i = 3; i < 5; ++i) {
    second.push_back([&order, i] { order.push_back(i); });
  }
  scheduler.add_sweep("first", std::move(first));
  scheduler.add_sweep("second", std::move(second));
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SweepScheduler, ShardExceptionPropagatesAndSchedulerStaysUsable) {
  ThreadPool pool(3);
  SweepScheduler scheduler(pool);
  std::vector<std::function<void()>> shards;
  for (int i = 0; i < 8; ++i) {
    shards.push_back([i] {
      if (i == 5) throw std::runtime_error("shard boom");
    });
  }
  scheduler.add_sweep("exploding", std::move(shards));
  EXPECT_THROW(scheduler.run(), std::runtime_error);

  // The failed graph was consumed; a fresh sweep runs normally.
  std::vector<std::atomic<int>> counters(4);
  scheduler.add_sweep("after", counting_shards(counters));
  const SchedulerReport report = scheduler.run();
  EXPECT_EQ(report.shards, 4u);
  for (const auto& c : counters) EXPECT_EQ(c.load(), 1);
}

TEST(SweepScheduler, SerialPathPropagatesExceptionToo) {
  ThreadPool pool(1);
  SweepScheduler scheduler(pool);
  scheduler.add_sweep(
      "serial", {[] { throw std::logic_error("serial shard"); }});
  EXPECT_THROW(scheduler.run(), std::logic_error);
}

TEST(SweepScheduler, ManyConcurrentShardExceptionsYieldExactlyOne) {
  ThreadPool pool(4);
  SweepScheduler scheduler(pool);
  std::vector<std::function<void()>> shards;
  for (int i = 0; i < 12; ++i) {
    shards.push_back([i] {
      throw std::runtime_error("boom " + std::to_string(i));
    });
  }
  scheduler.add_sweep("all-throw", std::move(shards));
  try {
    scheduler.run();
    FAIL() << "run() should have rethrown a shard exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u) << e.what();
  }
  // No second exception is pending: an empty run is clean.
  EXPECT_NO_THROW(scheduler.run());
}

TEST(SweepScheduler, ReportAccountsBusyTimeAndUtilization) {
  ThreadPool pool(2);
  SweepScheduler scheduler(pool);
  std::vector<std::function<void()>> shards;
  for (int i = 0; i < 8; ++i) {
    shards.push_back(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); });
  }
  scheduler.add_sweep("sleepy", std::move(shards));
  const SchedulerReport report = scheduler.run();
  EXPECT_GT(report.busy_seconds, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.worker_utilization, 0.0);
  EXPECT_LE(report.worker_utilization, 1.0 + 1e-9);
  ASSERT_EQ(report.sweeps.size(), 1u);
  EXPECT_GT(report.sweeps[0].shards_per_second, 0.0);
  EXPECT_GE(report.busy_seconds, report.sweeps[0].busy_seconds - 1e-12);

  const std::string json = report.bench_json("unit");
  EXPECT_NE(json.find("\"suite\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":8"), std::string::npos);
  EXPECT_NE(json.find("\"worker_utilization\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sleepy\""), std::string::npos);
}

TEST(SweepScheduler, ReportInvariantsHoldAcrossSweepsAndThreadCounts) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    SweepScheduler scheduler(pool);
    std::vector<std::atomic<int>> a(5);
    std::vector<std::atomic<int>> b(3);
    std::vector<std::atomic<int>> c(9);
    scheduler.add_sweep("a", counting_shards(a));
    scheduler.add_sweep("b", counting_shards(b));
    scheduler.add_sweep("c", counting_shards(c));
    const SchedulerReport report = scheduler.run();

    EXPECT_EQ(report.threads, threads);
    EXPECT_GE(report.worker_utilization, 0.0);
    EXPECT_LE(report.worker_utilization, 1.0 + 1e-9);
    // Per-sweep shard counts sum to the consolidated total.
    std::size_t sweep_shards = 0;
    double sweep_busy = 0.0;
    for (const auto& s : report.sweeps) {
      sweep_shards += s.shards;
      sweep_busy += s.busy_seconds;
      EXPECT_GE(s.busy_seconds, 0.0);
      EXPECT_GE(s.wall_seconds, 0.0);
      // A sweep's summed shard time fits inside threads * its wall span.
      EXPECT_LE(s.busy_seconds,
                static_cast<double>(threads) * s.wall_seconds + 1e-6);
    }
    EXPECT_EQ(sweep_shards, report.shards);
    EXPECT_EQ(report.shards, 17u);
    EXPECT_NEAR(report.busy_seconds, sweep_busy, 1e-9);
    // Total busy time cannot exceed the threads * wall-clock envelope.
    EXPECT_LE(report.busy_seconds,
              static_cast<double>(threads) * report.wall_seconds + 1e-6);
  }
}

// ---- gated sweeps ----

// run() on a helper thread, bounded: a runner left waiting on a gate that
// never opens must fail the test rather than hang the suite.
SchedulerReport run_bounded(SweepScheduler& scheduler) {
  auto result = std::async(std::launch::async, [&] { return scheduler.run(); });
  if (result.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "SweepScheduler::run() hung on a gated sweep\n");
    std::abort();
  }
  return result.get();
}

TEST(SweepScheduler, GatedSweepStartsAfterItsPrerequisiteForEveryThreadCount) {
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    SweepScheduler scheduler(pool);
    // Plain (non-atomic) slots: the prerequisite writes them, the gated
    // shards read them, so under TSan this also checks that the gate
    // publishes the prerequisite's writes.
    std::vector<int> computed(6, 0);
    std::atomic<int> prerequisite_done{0};
    std::atomic<int> early_starts{0};
    std::vector<int> seen(10, 0);

    std::vector<std::atomic<int>> unrelated(12);
    scheduler.add_sweep("unrelated", counting_shards(unrelated));
    std::vector<std::function<void()>> solve;
    for (int i = 0; i < 6; ++i) {
      solve.push_back([&, i] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1 + i % 3));
        computed[static_cast<std::size_t>(i)] = i + 1;
        prerequisite_done.fetch_add(1);
      });
    }
    const std::size_t gate = scheduler.add_sweep("solve", std::move(solve));
    std::vector<std::function<void()>> dependents;
    for (int j = 0; j < 10; ++j) {
      dependents.push_back([&, j] {
        if (prerequisite_done.load() != 6) early_starts.fetch_add(1);
        int sum = 0;
        for (const int v : computed) sum += v;
        seen[static_cast<std::size_t>(j)] = sum;
      });
    }
    EXPECT_EQ(scheduler.add_sweep("dependent", std::move(dependents), gate),
              2u);

    const SchedulerReport report = run_bounded(scheduler);
    EXPECT_EQ(report.shards, 28u) << threads;
    EXPECT_EQ(early_starts.load(), 0) << threads << " thread(s)";
    for (const int sum : seen) EXPECT_EQ(sum, 21) << threads;
    for (const auto& c : unrelated) EXPECT_EQ(c.load(), 1) << threads;
  }
}

TEST(SweepScheduler, ThrowingPrerequisiteIsRethrownAndReleasesBlockedRunners) {
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    SweepScheduler scheduler(pool);
    std::atomic<int> dependent_runs{0};
    const std::size_t gate = scheduler.add_sweep("solve", {[] {
      // Give the other runners time to block on the gate first.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("solve failed");
    }});
    std::vector<std::function<void()>> dependents;
    for (int j = 0; j < 8; ++j) {
      dependents.push_back([&dependent_runs] { dependent_runs.fetch_add(1); });
    }
    scheduler.add_sweep("dependent", std::move(dependents), gate);
    EXPECT_THROW(run_bounded(scheduler), std::runtime_error) << threads;
    EXPECT_EQ(dependent_runs.load(), 0) << threads;

    // The failed graph was consumed; the scheduler runs a new one.
    std::vector<std::atomic<int>> counters(5);
    scheduler.add_sweep("after", counting_shards(counters));
    EXPECT_EQ(run_bounded(scheduler).shards, 5u);
    for (const auto& c : counters) EXPECT_EQ(c.load(), 1) << threads;
  }
}

TEST(SweepScheduler, GatingSweepRegisteredLastIsClaimedFirst) {
  // Registration order decides claiming only on the serial path; with a
  // pool, a sweep that others wait on is claimed before every other
  // sweep, even though each runner's home is a plain sweep.
  for (const unsigned threads : {2u, 4u}) {
    ThreadPool pool(threads);
    SweepScheduler scheduler(pool);
    std::atomic<int> starts{0};
    std::atomic<int> gate_start{-1};
    const auto sleepy = [&starts](int n) {
      std::vector<std::function<void()>> shards;
      for (int i = 0; i < n; ++i) {
        shards.push_back([&starts] {
          starts.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
      }
      return shards;
    };
    for (unsigned s = 0; s < threads; ++s) {
      scheduler.add_sweep("plain" + std::to_string(s), sleepy(20));
    }
    const std::size_t gate = scheduler.add_sweep(
        "solve", {[&] { gate_start.store(starts.fetch_add(1)); }});
    scheduler.add_sweep("dependent", sleepy(4), gate);
    run_bounded(scheduler);
    EXPECT_GE(gate_start.load(), 0);
    EXPECT_LT(gate_start.load(), static_cast<int>(threads)) << threads;
  }
}

TEST(SweepScheduler, SweepGateMustNameAnEarlierSweep) {
  ThreadPool pool(2);
  SweepScheduler scheduler(pool);
  EXPECT_THROW(scheduler.add_sweep("self", {[] {}}, 0),
               tcw::ContractViolation);
  scheduler.add_sweep("first", {[] {}});
  EXPECT_THROW(scheduler.add_sweep("forward", {[] {}}, 2),
               tcw::ContractViolation);
  EXPECT_EQ(scheduler.add_sweep("second", {[] {}}, 0), 1u);
  EXPECT_EQ(run_bounded(scheduler).shards, 2u);
}

// ---- loss-curve integration: the determinism contract end to end ----

net::SweepConfig small_config() {
  net::SweepConfig cfg;
  cfg.offered_load = 0.5;
  cfg.message_length = 25.0;
  cfg.t_end = 15000.0;
  cfg.warmup = 1500.0;
  cfg.replications = 2;
  return cfg;
}

void expect_points_equal(const std::vector<net::SweepPoint>& a,
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

TEST(SweepScheduler, ScheduledSweepsMatchStandaloneForEveryThreadCount) {
  const std::vector<double> grid{25.0, 50.0, 100.0};
  net::SweepConfig cfg = small_config();
  cfg.threads = 1;
  const auto standalone_controlled =
      net::run_sweep({.config = cfg, .constraints = grid,
                      .variant = net::ProtocolVariant::Controlled,
                      .make_policy = {}})
          .points();
  const auto standalone_fcfs =
      net::run_sweep({.config = cfg, .constraints = grid,
                      .variant = net::ProtocolVariant::FcfsNoDiscard,
                      .make_policy = {}})
          .points();

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  for (const int threads : {1, 2, hw}) {
    ThreadPool pool(static_cast<unsigned>(threads));
    SweepScheduler scheduler(pool);
    auto controlled = net::run_sweep(
        {.config = cfg, .constraints = grid,
         .variant = net::ProtocolVariant::Controlled, .make_policy = {}},
        {.scheduler = &scheduler, .name = "controlled", .cache = {}});
    auto fcfs = net::run_sweep(
        {.config = cfg, .constraints = grid,
         .variant = net::ProtocolVariant::FcfsNoDiscard, .make_policy = {}},
        {.scheduler = &scheduler, .name = "fcfs", .cache = {}});
    EXPECT_EQ(controlled.jobs(), grid.size() * 2);
    const SchedulerReport report = scheduler.run();
    EXPECT_EQ(report.shards, grid.size() * 2 * 2);
    expect_points_equal(controlled.points(), standalone_controlled);
    expect_points_equal(fcfs.points(), standalone_fcfs);
  }
}

TEST(SweepScheduler, SweepSubmissionOrderDoesNotChangeResults) {
  const std::vector<double> grid{30.0, 75.0};
  const net::SweepConfig cfg = small_config();

  ThreadPool pool(3);
  SweepScheduler forward(pool);
  auto fwd_a = net::run_sweep({.config = cfg, .constraints = grid,
                               .variant = net::ProtocolVariant::Controlled,
                               .make_policy = {}},
                              {.scheduler = &forward, .name = "a",
                               .cache = {}});
  auto fwd_b = net::run_sweep({.config = cfg, .constraints = grid,
                               .variant = net::ProtocolVariant::LcfsNoDiscard,
                               .make_policy = {}},
                              {.scheduler = &forward, .name = "b",
                               .cache = {}});
  forward.run();

  SweepScheduler reversed(pool);
  auto rev_b = net::run_sweep({.config = cfg, .constraints = grid,
                               .variant = net::ProtocolVariant::LcfsNoDiscard,
                               .make_policy = {}},
                              {.scheduler = &reversed, .name = "b",
                               .cache = {}});
  auto rev_a = net::run_sweep({.config = cfg, .constraints = grid,
                               .variant = net::ProtocolVariant::Controlled,
                               .make_policy = {}},
                              {.scheduler = &reversed, .name = "a",
                               .cache = {}});
  reversed.run();

  expect_points_equal(fwd_a.points(), rev_a.points());
  expect_points_equal(fwd_b.points(), rev_b.points());
}

TEST(SweepScheduler, CustomPolicySweepMatchesStandalone) {
  const std::vector<double> grid{40.0, 80.0};
  const net::SweepConfig cfg = small_config();
  const auto factory = [](double k) {
    return tcw::core::ControlPolicy::optimal(k, 40.0);
  };
  const auto standalone =
      net::run_sweep(
          {.config = cfg, .constraints = grid, .make_policy = factory})
          .points();

  ThreadPool pool(2);
  SweepScheduler scheduler(pool);
  auto scheduled = net::run_sweep(
      {.config = cfg, .constraints = grid, .make_policy = factory},
      {.scheduler = &scheduler, .name = "custom", .cache = {}});
  scheduler.run();
  expect_points_equal(scheduled.points(), standalone);
}

TEST(SweepScheduler, PolicyFactoryRunsLazilyOncePerJobInKMajorOrder) {
  const std::vector<double> grid{30.0, 60.0, 90.0};
  const net::SweepConfig cfg = small_config();  // 2 replications
  std::vector<double> calls;  // written only under the sweep's call_once
  const auto factory = [&calls](double k) {
    calls.push_back(k);
    return tcw::core::ControlPolicy::optimal(k, 40.0);
  };
  const std::vector<double> k_major{30.0, 30.0, 60.0, 60.0, 90.0, 90.0};
  const std::string store =
      ::testing::TempDir() + "/scheduler_lazy_factory.shards";
  std::filesystem::remove(store);

  for (const unsigned threads : {1u, 3u}) {
    calls.clear();
    ThreadPool pool(threads);
    SweepScheduler scheduler(pool);
    tcw::exec::ShardCache cache(store, tcw::exec::ShardCache::Mode::Fresh);
    auto sweep = net::run_sweep(
        {.config = cfg, .constraints = grid, .make_policy = factory},
        {.scheduler = &scheduler, .name = "lazy",
         .cache = net::SweepCacheBinding{&cache, "lazy"}});
    EXPECT_TRUE(calls.empty()) << "factory ran at enqueue time";
    run_bounded(scheduler);
    EXPECT_EQ(calls, k_major) << threads << " thread(s)";
  }

  // Every shard is in the store now: the factory is never called.
  calls.clear();
  ThreadPool pool(2);
  SweepScheduler scheduler(pool);
  tcw::exec::ShardCache cache(store, tcw::exec::ShardCache::Mode::Resume);
  auto cached = net::run_sweep(
      {.config = cfg, .constraints = grid, .make_policy = factory},
      {.scheduler = &scheduler, .name = "lazy",
       .cache = net::SweepCacheBinding{&cache, "lazy"}});
  EXPECT_EQ(cached.cached_jobs(), cached.jobs());
  run_bounded(scheduler);
  EXPECT_TRUE(calls.empty());
}

TEST(SweepScheduler, GatedFactoryReadsWhatItsPrerequisiteComputed) {
  // The study pattern: a one-shard job computes a policy parameter, and a
  // sweep gated on it builds its policies from that value. The result
  // equals a standalone sweep built from the value directly.
  const std::vector<double> grid{40.0, 80.0};
  const net::SweepConfig cfg = small_config();
  const auto standalone =
      net::run_sweep({.config = cfg, .constraints = grid,
                      .make_policy =
                          [](double k) {
                            return tcw::core::ControlPolicy::optimal(k, 35.0);
                          }})
          .points();
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    SweepScheduler scheduler(pool);
    double width = 0.0;  // plain: published by the gate
    const std::size_t solve = scheduler.add_sweep("solve", {[&width] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      width = 35.0;
    }});
    auto gated = net::run_sweep(
        {.config = cfg, .constraints = grid,
         .make_policy =
             [&width](double k) {
               return tcw::core::ControlPolicy::optimal(k, width);
             }},
        {.scheduler = &scheduler, .name = "gated", .cache = {},
         .after = solve});
    run_bounded(scheduler);
    expect_points_equal(gated.points(), standalone);
  }
}

}  // namespace
