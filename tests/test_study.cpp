// The declarative study registry and its shard-cache resume contract:
// registered studies, cached sweeps resuming bit-identically for any
// thread count, fingerprint invalidation, and the study runners writing
// byte-identical CSVs across fresh/resume and standalone/suite paths.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/shard_cache.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "net/experiment.hpp"
#include "sim/trace.hpp"
#include "study.hpp"

namespace {

namespace net = tcw::net;
namespace exec = tcw::exec;
namespace bench = tcw::bench;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void truncate_to_half(const std::string& path) {
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 16u);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size() / 2));
}

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
    EXPECT_EQ(a[i].sender_loss_frac, b[i].sender_loss_frac);
    EXPECT_EQ(a[i].receiver_loss_frac, b[i].receiver_loss_frac);
    EXPECT_EQ(a[i].messages, b[i].messages);
  }
}

net::SweepConfig small_config() {
  net::SweepConfig cfg;
  cfg.offered_load = 0.5;
  cfg.message_length = 25.0;
  cfg.t_end = 3000.0;
  cfg.warmup = 300.0;
  cfg.replications = 2;
  return cfg;
}

tcw::core::ControlPolicy heuristic_policy(double k) {
  return tcw::core::ControlPolicy::optimal(k, 40.0);
}

// All cached-sweep legs in this file go through the one entry point.
net::ScheduledSweep schedule_cached(exec::SweepScheduler& scheduler,
                                    std::string name,
                                    const net::SweepConfig& cfg,
                                    const std::vector<double>& grid,
                                    const net::SweepCacheBinding& binding) {
  return net::run_sweep(
      {.config = cfg, .constraints = grid, .make_policy = heuristic_policy},
      {.scheduler = &scheduler, .name = std::move(name), .cache = binding});
}

TEST(StudyRegistry, ListsEveryRegisteredStudy) {
  const std::vector<std::string> expected{
      "ablation_theorem1",      "ablation_window_size",
      "ablation_split_fraction", "ablation_adaptive_width",
      "ablation_asynchrony",    "priority_classes",
      "policy_grid",            "large_n",
      "multichannel"};
  const auto& entries = bench::registry();
  ASSERT_EQ(entries.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(entries[i].spec.name, expected[i]);
    EXPECT_FALSE(entries[i].spec.summary.empty());
    EXPECT_FALSE(entries[i].spec.figure.empty());
    EXPECT_EQ(entries[i].spec.default_csv, expected[i] + ".csv");
    EXPECT_NE(entries[i].make(), nullptr);
  }
  EXPECT_NE(bench::find_study("priority_classes"), nullptr);
  EXPECT_EQ(bench::find_study("no_such_study"), nullptr);
}

TEST(StudyRegistry, MarkdownTableCoversEveryStudy) {
  const std::string table = bench::registry_markdown_table();
  for (const bench::StudyEntry& e : bench::registry()) {
    EXPECT_NE(table.find("`" + e.spec.name + "`"), std::string::npos);
  }
}

// The flag-error contract shared by every study that takes an engine or
// channel-selector spelling: unknown names fail and list the valid ones
// on stderr, matching is case-insensitive, and an absent flag (empty
// value) keeps the caller's default.
TEST(StudyFlags, EngineFlagRejectsUnknownNamesAndListsValidOnes) {
  net::EngineKind kind = net::EngineKind::DynamicAloha;
  testing::internal::CaptureStderr();
  EXPECT_FALSE(bench::parse_engine_flag("bogus", &kind));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
  EXPECT_NE(err.find("window"), std::string::npos) << err;
  EXPECT_EQ(kind, net::EngineKind::DynamicAloha);

  EXPECT_TRUE(bench::parse_engine_flag("", &kind));
  EXPECT_EQ(kind, net::EngineKind::DynamicAloha);

  EXPECT_TRUE(bench::parse_engine_flag("Slotted-ALOHA", &kind));
  EXPECT_EQ(kind, net::EngineKind::SlottedAloha);
}

TEST(StudyFlags, SelectorFlagRejectsUnknownNamesAndListsValidOnes) {
  net::ChannelSelectorKind kind = net::ChannelSelectorKind::DeadlineHop;
  testing::internal::CaptureStderr();
  EXPECT_FALSE(bench::parse_selector_flag("bogus", &kind));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
  EXPECT_NE(err.find("hash-shard"), std::string::npos) << err;
  EXPECT_EQ(kind, net::ChannelSelectorKind::DeadlineHop);

  EXPECT_TRUE(bench::parse_selector_flag("", &kind));
  EXPECT_EQ(kind, net::ChannelSelectorKind::DeadlineHop);

  EXPECT_TRUE(bench::parse_selector_flag("Least-Loaded", &kind));
  EXPECT_EQ(kind, net::ChannelSelectorKind::LeastLoaded);
}

TEST(StudyCache, TruncatedResumeBitIdenticalForAnyThreadCount) {
  const net::SweepConfig cfg = small_config();
  const std::vector<double> grid{25.0, 50.0};
  const std::string store =
      ::testing::TempDir() + "/study_cache_resume.shards";
  const net::SweepCacheBinding no_cache{};

  // Reference: the uncached scheduler path.
  std::vector<net::SweepPoint> reference;
  {
    exec::ThreadPool pool(2);
    exec::SweepScheduler scheduler(pool);
    auto handle = schedule_cached(scheduler, "ref", cfg, grid, no_cache);
    scheduler.run();
    EXPECT_EQ(handle.cached_jobs(), 0u);
    reference = handle.points();
  }

  // Leg 1: fresh store, everything executes and is persisted.
  {
    exec::ShardCache cache(store, exec::ShardCache::Mode::Fresh);
    exec::ThreadPool pool(3);
    exec::SweepScheduler scheduler(pool);
    auto handle = schedule_cached(scheduler, "leg1", cfg, grid,
                                  net::SweepCacheBinding{&cache, "tag"});
    EXPECT_EQ(handle.cached_jobs(), 0u);
    scheduler.run();
    expect_bitwise_equal(handle.points(), reference);
    EXPECT_EQ(cache.entries(), handle.jobs());
  }

  // Interrupt: chop the store in half, losing a shard mid-record.
  truncate_to_half(store);

  // Leg 2: resume on a different thread count; the surviving shards are
  // skipped, the rest recompute, and the reduction is bit-identical.
  {
    exec::ShardCache cache(store, exec::ShardCache::Mode::Resume);
    EXPECT_TRUE(cache.recovered_corruption());
    exec::ThreadPool pool(1);
    exec::SweepScheduler scheduler(pool);
    auto handle = schedule_cached(scheduler, "leg2", cfg, grid,
                                  net::SweepCacheBinding{&cache, "tag"});
    EXPECT_GT(handle.cached_jobs(), 0u);
    EXPECT_LT(handle.cached_jobs(), handle.jobs());
    scheduler.run();
    expect_bitwise_equal(handle.points(), reference);
  }

  // Leg 3: fully warm resume; nothing left to schedule.
  {
    exec::ShardCache cache(store, exec::ShardCache::Mode::Resume);
    EXPECT_FALSE(cache.recovered_corruption());
    exec::ThreadPool pool(2);
    exec::SweepScheduler scheduler(pool);
    auto handle = schedule_cached(scheduler, "leg3", cfg, grid,
                                  net::SweepCacheBinding{&cache, "tag"});
    EXPECT_EQ(handle.cached_jobs(), handle.jobs());
    scheduler.run();
    expect_bitwise_equal(handle.points(), reference);
  }
}

TEST(StudyCache, FingerprintChangeInvalidatesStaleShards) {
  const std::string store =
      ::testing::TempDir() + "/study_cache_fingerprint.shards";
  const std::vector<double> grid{25.0};
  {
    exec::ShardCache cache(store, exec::ShardCache::Mode::Fresh);
    exec::ThreadPool pool(2);
    exec::SweepScheduler scheduler(pool);
    schedule_cached(scheduler, "warm", small_config(), grid,
                    net::SweepCacheBinding{&cache, "tag"});
    scheduler.run();
  }
  // Same seeds, changed run length: the fingerprint differs, so the
  // stale shards never hit.
  {
    exec::ShardCache cache(store, exec::ShardCache::Mode::Resume);
    net::SweepConfig longer = small_config();
    longer.t_end = 4000.0;
    exec::ThreadPool pool(2);
    exec::SweepScheduler scheduler(pool);
    auto handle = schedule_cached(scheduler, "changed", longer, grid,
                                  net::SweepCacheBinding{&cache, "tag"});
    EXPECT_EQ(handle.cached_jobs(), 0u);
    scheduler.run();
  }
  // Same config, different cache tag (another ablation arm sharing the
  // seeds by design): also a miss.
  {
    exec::ShardCache cache(store, exec::ShardCache::Mode::Resume);
    exec::ThreadPool pool(2);
    exec::SweepScheduler scheduler(pool);
    auto handle = schedule_cached(scheduler, "other_arm", small_config(),
                                  grid,
                                  net::SweepCacheBinding{&cache, "other-tag"});
    EXPECT_EQ(handle.cached_jobs(), 0u);
    scheduler.run();
  }
}

TEST(StudyRunner, LossCurveStudyResumeWritesIdenticalCsv) {
  const std::string dir = ::testing::TempDir() + "/tcw_study_ws";
  std::filesystem::remove_all(dir);
  const std::vector<std::string> shrink{"--t-end=3000", "--reps=1"};

  bench::StudyCommonOptions fresh;
  fresh.cache_dir = dir;
  fresh.csv = dir + "/fresh.csv";
  ASSERT_EQ(bench::run_study("ablation_window_size", fresh, shrink), 0);

  truncate_to_half(dir + "/ablation_window_size.shards");

  bench::StudyCommonOptions resume = fresh;
  resume.resume = true;
  resume.csv = dir + "/resume.csv";
  ASSERT_EQ(bench::run_study("ablation_window_size", resume, shrink), 0);

  EXPECT_EQ(slurp(fresh.csv), slurp(resume.csv));
}

TEST(StudyRunner, GenericStudyResumeWritesIdenticalCsv) {
  const std::string dir = ::testing::TempDir() + "/tcw_study_prio";
  std::filesystem::remove_all(dir);
  const std::vector<std::string> shrink{"--t-end=3000"};

  bench::StudyCommonOptions fresh;
  fresh.cache_dir = dir;
  fresh.csv = dir + "/fresh.csv";
  ASSERT_EQ(bench::run_study("priority_classes", fresh, shrink), 0);

  bench::StudyCommonOptions resume = fresh;
  resume.resume = true;
  resume.csv = dir + "/resume.csv";
  ASSERT_EQ(bench::run_study("priority_classes", resume, shrink), 0);

  EXPECT_EQ(slurp(fresh.csv), slurp(resume.csv));
}

TEST(StudyRunner, SuiteCsvMatchesStandaloneCsv) {
  // The acceptance contract of study_tool --suite: a study's CSV out of
  // the shared suite scheduler equals its standalone run byte for byte.
  const std::string dir = ::testing::TempDir() + "/tcw_study_suite";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  bench::StudyCommonOptions standalone;
  standalone.quick = true;
  standalone.threads = 1;
  standalone.csv = dir + "/standalone.csv";
  ASSERT_EQ(bench::run_study("ablation_window_size", standalone), 0);

  // The suite writes each study's default CSV into the working
  // directory; run it from the temp dir.
  const std::filesystem::path old_cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  bench::StudyCommonOptions suite;
  suite.quick = true;
  suite.threads = 2;
  const int rc = bench::run_study_suite(suite, {"ablation_window_size"});
  std::filesystem::current_path(old_cwd);
  ASSERT_EQ(rc, 0);

  EXPECT_EQ(slurp(standalone.csv),
            slurp(dir + "/ablation_window_size.csv"));
}

TEST(StudyTrace, TraceRequestAttachesToTheNamedSweep) {
  // A StudyCommonOptions trace request rides into the named sweep as one
  // SweepConfig::TraceRequest value; a cache must not swallow the traced
  // shard (traced jobs always execute).
  const std::string dir = ::testing::TempDir() + "/tcw_study_trace";
  std::filesystem::remove_all(dir);
  const std::vector<std::string> shrink{"--t-end=3000", "--reps=1"};

  bench::StudyCommonOptions warm;
  warm.cache_dir = dir;
  warm.csv = dir + "/warm.csv";
  ASSERT_EQ(bench::run_study("ablation_window_size", warm, shrink), 0);

  tcw::sim::TraceLog log;
  bench::StudyCommonOptions traced = warm;
  traced.resume = true;
  traced.csv = dir + "/traced.csv";
  traced.trace = {&log, 0, 0};
  traced.trace_sweep = "width1.000";
  ASSERT_EQ(bench::run_study("ablation_window_size", traced, shrink), 0);

  EXPECT_GT(log.total_recorded(), 0u);
  EXPECT_EQ(slurp(warm.csv), slurp(traced.csv));
}

}  // namespace
