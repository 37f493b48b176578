#include "exec/sweep_scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "obs/json.hpp"
#include "obs/progress.hpp"
#include "obs/registry.hpp"
#include "obs/timeline.hpp"
#include "util/contract.hpp"

namespace tcw::exec {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SchedulerCounters {
  obs::Counter runs;
  obs::Counter shards_home;
  obs::Counter shards_stolen;
  obs::Counter queue_drains;
  obs::Histogram shard_seconds;
};

SchedulerCounters& scheduler_counters() {
  static SchedulerCounters counters{
      obs::Registry::global().counter("exec.scheduler.runs"),
      obs::Registry::global().counter("exec.scheduler.shards_home"),
      obs::Registry::global().counter("exec.scheduler.shards_stolen"),
      obs::Registry::global().counter("exec.scheduler.queue_drains"),
      obs::Registry::global().histogram("exec.scheduler.shard_seconds",
                                        {0.001, 0.01, 0.1, 1.0, 10.0}),
  };
  return counters;
}

void append_number(std::string& out, const char* key, const char* fmt,
                   double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, value);
  out += ",\"";
  out += key;
  out += "\":";
  out += buf;
}

}  // namespace

std::string SchedulerReport::bench_json(const std::string& suite) const {
  std::string out = "{\"suite\":" + obs::json_quote(suite);
  out += ",\"threads\":" + std::to_string(threads);
  out += ",\"jobs\":" + std::to_string(shards);
  append_number(out, "wall_seconds", "%.4f", wall_seconds);
  append_number(out, "busy_seconds", "%.4f", busy_seconds);
  append_number(out, "jobs_per_sec", "%.2f", shards_per_second);
  append_number(out, "worker_utilization", "%.4f", worker_utilization);
  out += ",\"sweeps\":[";
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const SweepTimingEntry& s = sweeps[i];
    if (i > 0) out += ',';
    out += "{\"name\":" + obs::json_quote(s.name);
    out += ",\"jobs\":" + std::to_string(s.shards);
    append_number(out, "wall_seconds", "%.4f", s.wall_seconds);
    append_number(out, "busy_seconds", "%.4f", s.busy_seconds);
    append_number(out, "jobs_per_sec", "%.2f", s.shards_per_second);
    out += '}';
  }
  out += "]}";
  return out;
}

std::size_t SweepScheduler::add_sweep(
    std::string name, std::vector<std::function<void()>> shards,
    std::optional<std::size_t> after) {
  auto sweep = std::make_unique<Sweep>();
  sweep->name = std::move(name);
  sweep->shards = std::move(shards);
  if (after.has_value()) {
    TCW_EXPECTS(*after < sweeps_.size());
    sweep->after = sweeps_[*after].get();
    sweep->after->gating = true;
  }
  sweeps_.push_back(std::move(sweep));
  return sweeps_.size() - 1;
}

std::size_t SweepScheduler::shard_count() const {
  std::size_t total = 0;
  for (const auto& s : sweeps_) total += s->shards.size();
  return total;
}

void SweepScheduler::run_shard(Sweep& sweep, std::size_t index,
                               std::uint32_t worker, bool stolen) {
  const auto start = Clock::now();
  sweep.shards[index]();  // may throw; handled by the caller
  const auto end = Clock::now();
  if (timeline_ != nullptr) {
    timeline_->record_span(sweep.name, index, worker, stolen, start, end);
  }
  SchedulerCounters& counters = scheduler_counters();
  (stolen ? counters.shards_stolen : counters.shards_home).add(1);
  counters.shard_seconds.record(seconds_between(start, end));
  // Release: a gated sweep's runners acquire this count before claiming,
  // so everything the shard wrote is visible to its dependents.
  const std::size_t done =
      sweep.done.fetch_add(1, std::memory_order_release) + 1;
  if (sweep.gating && done == sweep.shards.size()) wake_blocked();
  std::lock_guard<std::mutex> lock(sweep.mu);
  if (!sweep.started) {
    sweep.started = true;
    sweep.first_start = start;
    sweep.last_end = end;
  } else {
    sweep.first_start = std::min(sweep.first_start, start);
    sweep.last_end = std::max(sweep.last_end, end);
  }
  sweep.busy_seconds += seconds_between(start, end);
  ++sweep.completed;
}

void SweepScheduler::wake_blocked() {
  // Taking the lock orders this wake-up after a waiter's readiness check
  // or before it, so a waiter either sees the new state or is notified.
  { std::lock_guard<std::mutex> lock(gate_mu_); }
  gate_cv_.notify_all();
}

bool SweepScheduler::wait_for_work(const std::atomic<bool>& abort) {
  std::unique_lock<std::mutex> lock(gate_mu_);
  for (;;) {
    if (abort.load(std::memory_order_relaxed)) return false;
    bool blocked = false;
    for (const auto& sweep : sweeps_) {
      if (!unclaimed(*sweep)) continue;
      if (ready(*sweep)) return true;
      blocked = true;
    }
    if (!blocked) return false;  // every shard claimed
    gate_cv_.wait(lock);
  }
}

void SweepScheduler::runner(std::size_t home, std::atomic<bool>& abort) {
  const std::size_t n = sweeps_.size();
  while (!abort.load(std::memory_order_relaxed)) {
    Sweep* claimed = nullptr;
    std::size_t index = 0;
    bool stolen = false;
    // Two scans, each starting from this runner's home so workers spread
    // over distinct sweeps: the first only considers gating sweeps (other
    // sweeps wait on them), the second falls through to stealing from any
    // ready sweep that still has unclaimed shards.
    for (const bool gating_only : {true, false}) {
      for (std::size_t k = 0; k < n && claimed == nullptr; ++k) {
        Sweep& sweep = *sweeps_[(home + k) % n];
        if ((gating_only && !sweep.gating) || !unclaimed(sweep) ||
            !ready(sweep)) {
          continue;
        }
        const std::size_t i =
            sweep.cursor.fetch_add(1, std::memory_order_relaxed);
        if (i < sweep.shards.size()) {
          claimed = &sweep;
          index = i;
          stolen = k > 0;
        }
      }
    }
    if (claimed == nullptr) {
      // Nothing claimable: sleep while only gated shards remain, drain
      // out once every shard is claimed.
      if (wait_for_work(abort)) continue;
      if (!abort.load(std::memory_order_relaxed)) {
        scheduler_counters().queue_drains.add(1);
      }
      return;
    }
    try {
      run_shard(*claimed, index, static_cast<std::uint32_t>(home), stolen);
    } catch (...) {
      abort.store(true, std::memory_order_relaxed);
      wake_blocked();  // blocked runners must not wait on a dead gate
      throw;  // captured by the pool; rethrown from ThreadPool::wait()
    }
  }
}

SchedulerReport SweepScheduler::run() {
  const auto t0 = Clock::now();
  const std::size_t total = shard_count();
  scheduler_counters().runs.add(1);
  // The sampler only reads each sweep's `done` atomic, so it can start
  // before and stop after the shards without affecting them. Declared
  // before the try so the catch path can stop it while sweeps_ is still
  // alive (the sources point into sweeps_).
  std::optional<obs::ProgressSampler> progress;
  if (progress_ && (total > 0 || progress_cluster_.has_value())) {
    std::vector<obs::ProgressSource> sources;
    sources.reserve(sweeps_.size());
    for (const auto& sweep : sweeps_) {
      sources.push_back(obs::ProgressSource{sweep->name,
                                            sweep->shards.size(),
                                            &sweep->done});
    }
    if (progress_cluster_.has_value()) {
      progress.emplace(std::move(sources), *progress_cluster_,
                       progress_stats_);
    } else {
      progress.emplace(std::move(sources), progress_stats_);
    }
  }
  try {
    if (pool_.size() <= 1 || total <= 1) {
      // Serial path: registration order, shards ascending, so every
      // prerequisite (registered earlier) finishes before its gated
      // sweep starts. (Result determinism never depends on this -- shards
      // write slots -- but it makes single-threaded exception behaviour
      // predictable.)
      for (const auto& sweep : sweeps_) {
        for (std::size_t i = 0; i < sweep->shards.size(); ++i) {
          run_shard(*sweep, i, 0, /*stolen=*/false);
        }
      }
    } else {
      std::atomic<bool> abort{false};
      const std::size_t runners = std::min(pool_.size(), total);
      for (std::size_t t = 0; t < runners; ++t) {
        pool_.submit([this, t, &abort] { runner(t, abort); });
      }
      pool_.wait();  // rethrows the first shard exception, if any
    }
  } catch (...) {
    if (progress.has_value()) progress->stop();
    sweeps_.clear();
    throw;
  }
  if (progress.has_value()) progress->stop();

  SchedulerReport report;
  report.threads = threads();
  report.shards = total;
  report.wall_seconds = seconds_between(t0, Clock::now());
  report.sweeps.reserve(sweeps_.size());
  for (const auto& sweep : sweeps_) {
    TCW_ASSERT(sweep->completed == sweep->shards.size());
    SweepTimingEntry entry;
    entry.name = sweep->name;
    entry.shards = sweep->shards.size();
    entry.wall_seconds =
        sweep->started ? seconds_between(sweep->first_start, sweep->last_end)
                       : 0.0;
    entry.busy_seconds = sweep->busy_seconds;
    entry.shards_per_second =
        entry.wall_seconds > 0.0
            ? static_cast<double>(entry.shards) / entry.wall_seconds
            : 0.0;
    report.busy_seconds += entry.busy_seconds;
    report.sweeps.push_back(std::move(entry));
  }
  report.shards_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(total) / report.wall_seconds
          : 0.0;
  report.worker_utilization =
      report.threads > 0 && report.wall_seconds > 0.0
          ? report.busy_seconds /
                (static_cast<double>(report.threads) * report.wall_seconds)
          : 0.0;
  sweeps_.clear();
  return report;
}

}  // namespace tcw::exec
