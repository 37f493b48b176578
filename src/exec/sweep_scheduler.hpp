// Sharded multi-sweep scheduler: many named sweeps -- each a vector of
// independent shard closures, e.g. one (K-point, replication) simulation
// per shard -- run as ONE job graph over a single shared ThreadPool,
// instead of one transient pool per sweep.
//
// Scheduling is work-stealing across sweeps: each runner task starts on a
// "home" sweep (spread round-robin so every sweep progresses at once)
// and, once that sweep has no unclaimed shards left, pulls from whichever
// registered sweep still has work. Execution order is therefore
// nondeterministic; shard closures must write their results into
// per-shard slots, and callers reduce those slots in a fixed order after
// run() returns. That convention -- the same one exec::parallel_for uses
// -- keeps every sweep's output bit-identical to its standalone run for
// any worker count, including 1.
//
// A sweep may name one earlier sweep as its prerequisite (add_sweep's
// `after`): its shards become claimable only once every shard of the
// prerequisite has finished, so a job that computes an input -- e.g. a
// model solve whose result the dependent shards' policies read -- runs
// on the pool next to unrelated sweeps instead of before run(). Runners
// claim gating sweeps (those some other sweep waits on) before any other
// sweep, so the critical path starts first. A runner that finds only
// blocked work left sleeps on a condition variable until a prerequisite
// completes or a shard throws; it never spins and never drains while
// blocked shards remain. Completion publishes with release ordering on
// the prerequisite's `done` count and readiness is tested with acquire,
// so whatever the prerequisite wrote is visible to its dependents.
//
// run() also produces a consolidated timing report: per-sweep and total
// wall clock, shard throughput, and worker utilization, with a
// machine-readable BENCH_JSON rendering for bench harnesses.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/progress.hpp"

namespace tcw::obs {
class Timeline;
}  // namespace tcw::obs

namespace tcw::exec {

/// Wall-clock accounting for one sweep inside a scheduler run.
struct SweepTimingEntry {
  std::string name;
  std::size_t shards = 0;
  double wall_seconds = 0.0;      // first shard start -> last shard end
  double busy_seconds = 0.0;      // summed shard execution time
  double shards_per_second = 0.0; // shards / wall_seconds
};

/// Consolidated accounting for one SweepScheduler::run().
struct SchedulerReport {
  unsigned threads = 1;
  std::size_t shards = 0;
  double wall_seconds = 0.0;        // run() entry to last shard done
  double busy_seconds = 0.0;        // summed over every shard
  double shards_per_second = 0.0;   // shards / wall_seconds
  double worker_utilization = 0.0;  // busy / (threads * wall), in [0, 1]
  std::vector<SweepTimingEntry> sweeps;  // in registration order

  /// The report as a one-line JSON object (print after a "BENCH_JSON "
  /// prefix). `suite` labels the record.
  std::string bench_json(const std::string& suite) const;
};

class SweepScheduler {
 public:
  /// The scheduler borrows `pool`; it must outlive the scheduler. The
  /// pool may be shared, but run() drains it with ThreadPool::wait(), so
  /// unrelated jobs submitted concurrently are also waited on.
  explicit SweepScheduler(ThreadPool& pool) : pool_(pool) {}

  SweepScheduler(const SweepScheduler&) = delete;
  SweepScheduler& operator=(const SweepScheduler&) = delete;

  /// Register one named sweep of independent shard closures. Returns the
  /// sweep's index (its position in SchedulerReport::sweeps). With
  /// `after`, the sweep is gated on that earlier sweep (`after` must be
  /// less than the returned index): none of its shards starts before
  /// every shard of sweep `after` has finished.
  std::size_t add_sweep(std::string name,
                        std::vector<std::function<void()>> shards,
                        std::optional<std::size_t> after = std::nullopt);

  std::size_t sweep_count() const { return sweeps_.size(); }
  std::size_t shard_count() const;
  unsigned threads() const { return static_cast<unsigned>(pool_.size()); }

  /// Run every registered shard to completion across the shared pool and
  /// return the consolidated report. With a single worker the shards run
  /// inline, in registration order (which already honours every gate).
  /// If a shard throws, remaining shards -- including any still gated
  /// behind it -- are abandoned and the first exception is rethrown here.
  /// Registered sweeps are consumed either way, so the scheduler is
  /// reusable.
  SchedulerReport run();

  /// Observability overlays -- both strictly read/record around shard
  /// execution and never influence claiming order or results.
  /// When non-null, every executed shard records one span (sweep, shard
  /// index, worker, stolen flag). Borrowed; must outlive run().
  void set_timeline(obs::Timeline* timeline) { timeline_ = timeline; }
  /// When enabled, run() starts a sampling thread that renders a live
  /// shards-done/total + ETA line on stderr.
  void set_progress(bool enabled) { progress_ = enabled; }
  /// Distributed runs: an extra progress row tracking the GLOBAL shard
  /// universe (fed by shared-cache scans, so it counts shards finished by
  /// other workers too). Takes over the headline done/total and the ETA;
  /// this scheduler's own sweeps stay in the bracket. The `done` atomic
  /// must outlive run(). Only consulted when progress is enabled.
  void set_progress_cluster(obs::ProgressSource cluster) {
    progress_cluster_ = std::move(cluster);
  }
  /// Cumulative registry statistics appended to the progress line
  /// (" ok=N coll=N drop=N"); read by the sampling thread only.
  void set_progress_stats(std::vector<obs::ProgressStat> stats) {
    progress_stats_ = std::move(stats);
  }

 private:
  struct Sweep {
    std::string name;
    std::vector<std::function<void()>> shards;
    Sweep* after = nullptr;  // prerequisite, or null
    bool gating = false;     // some later sweep is gated on this one
    std::atomic<std::size_t> cursor{0};  // next unclaimed shard
    std::atomic<std::size_t> done{0};    // completed shards (progress, gates)
    // Timing, written once per completed shard:
    std::mutex mu;
    bool started = false;
    std::chrono::steady_clock::time_point first_start{};
    std::chrono::steady_clock::time_point last_end{};
    double busy_seconds = 0.0;
    std::size_t completed = 0;
  };

  static bool finished(const Sweep& sweep) {
    return sweep.done.load(std::memory_order_acquire) == sweep.shards.size();
  }
  static bool ready(const Sweep& sweep) {
    return sweep.after == nullptr || finished(*sweep.after);
  }
  static bool unclaimed(const Sweep& sweep) {
    return sweep.cursor.load(std::memory_order_relaxed) <
           sweep.shards.size();
  }

  void run_shard(Sweep& sweep, std::size_t index, std::uint32_t worker,
                 bool stolen);
  void runner(std::size_t home, std::atomic<bool>& abort);
  bool wait_for_work(const std::atomic<bool>& abort);
  void wake_blocked();

  ThreadPool& pool_;
  std::vector<std::unique_ptr<Sweep>> sweeps_;
  // Blocked runners sleep here until a gating sweep finishes or the run
  // aborts; both events notify under gate_mu_.
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  obs::Timeline* timeline_ = nullptr;
  bool progress_ = false;
  std::optional<obs::ProgressSource> progress_cluster_;
  std::vector<obs::ProgressStat> progress_stats_;
};

}  // namespace tcw::exec
