#include "net/experiment.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

#include "analysis/splitting.hpp"
#include "exec/parallel_for.hpp"
#include "exec/shard_cache.hpp"
#include "exec/shard_gate.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "obs/manifest.hpp"
#include "sim/batch_means.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "util/contract.hpp"

namespace tcw::net {

std::string to_string(ProtocolVariant variant) {
  switch (variant) {
    case ProtocolVariant::Controlled: return "controlled";
    case ProtocolVariant::FcfsNoDiscard: return "fcfs-nodiscard";
    case ProtocolVariant::LcfsNoDiscard: return "lcfs-nodiscard";
    case ProtocolVariant::RandomNoDiscard: return "random-nodiscard";
  }
  return "?";
}

core::ControlPolicy policy_for(ProtocolVariant variant, double deadline,
                               double window_width) {
  switch (variant) {
    case ProtocolVariant::Controlled:
      return core::ControlPolicy::optimal(deadline, window_width);
    case ProtocolVariant::FcfsNoDiscard:
      return core::ControlPolicy::fcfs_baseline(deadline, window_width);
    case ProtocolVariant::LcfsNoDiscard:
      return core::ControlPolicy::lcfs_baseline(deadline, window_width);
    case ProtocolVariant::RandomNoDiscard:
      return core::ControlPolicy::random_baseline(deadline, window_width);
  }
  TCW_ASSERT(false);
  return {};
}

double SweepConfig::heuristic_window_width() const {
  return analysis::optimal_window_load() / lambda();
}

void SweepTiming::accumulate(const SweepTiming& other) {
  threads = std::max(threads, other.threads);
  jobs += other.jobs;
  wall_seconds += other.wall_seconds;
  jobs_per_second = wall_seconds > 0.0
                        ? static_cast<double>(jobs) / wall_seconds
                        : 0.0;
}

namespace {

// One (K, replication) simulation's contribution, kept as single-sample
// accumulators so the reduction can use RunningStats::merge in a fixed
// (ki-major, then rep) order regardless of which worker ran the job.
struct SweepJobResult {
  sim::RunningStats loss;
  sim::RunningStats wait;
  sim::RunningStats sched;
  sim::RunningStats util;
  sim::RunningStats sender_loss;
  sim::RunningStats receiver_loss;
  std::uint64_t messages = 0;
  double within_run_ci = 0.0;  // binomial CI; only filled when reps == 1
  // Per-channel deadline-loss attribution counts {admission_starved,
  // collision_killed, queue_expired}, one triple per channel. Rides in
  // the cache payload so cached/merged runs report identical attribution.
  std::vector<std::array<std::uint64_t, 3>> attribution;
};

// Canonical text fingerprinted into every shard key of a cached sweep.
// Covers the cache tag, every SweepConfig field that changes a single
// job's result, the K grid (derived seeds encode only grid *indices*),
// and a payload-format version so a layout change invalidates old
// stores. base_seed and replication count are deliberately absent: the
// former is mixed into the seed half of the key, and a shard computed
// under reps=R is still valid under reps=R' for rep < min(R, R').
std::string loss_curve_fingerprint_text(const std::string& tag,
                                        const SweepConfig& config,
                                        const std::vector<double>& grid) {
  // v2: payload gained 3 attribution counts per channel.
  std::string text = "tcw-losscurve-payload-v2|tag=" + tag;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "|rho=%.17g|m=%.17g|overhead=%.17g|t_end=%.17g|warmup=%.17g",
                config.offered_load, config.message_length,
                config.success_overhead, config.t_end, config.warmup);
  text += buf;
  // The MAC policy -- engine selection, engine knobs, and the channel
  // plan -- changes every job's result; fold every field in
  // unconditionally so two engines (or channel layouts) sharing one suite
  // and one store can never collide on a shard key. Adding the channel
  // fields deliberately re-keyed all pre-multichannel stores.
  std::snprintf(buf, sizeof buf, "|engine=%s|txp=%.17g|rate=%.17g|n0=%.17g",
                to_string(config.mac.engine.kind).c_str(),
                config.mac.engine.tx_prob, config.mac.engine.arrival_rate,
                config.mac.engine.initial_backlog);
  text += buf;
  std::snprintf(buf, sizeof buf, "|channels=%u|selector=%s|skew=%.17g",
                config.mac.channel.channels,
                to_string(config.mac.channel.selector).c_str(),
                config.mac.channel.skew);
  text += buf;
  text += "|grid=";
  for (const double k : grid) {
    std::snprintf(buf, sizeof buf, "%.17g,", k);
    text += buf;
  }
  return text;
}

}  // namespace

namespace detail {

// Shared shard state of one loss-curve sweep: job ki*reps+rep simulates
// (constraint ki, replication rep) and writes its slot; reduce() merges
// the slots in fixed order. The same state backs both the standalone
// engine (transient pool + parallel_for) and sweeps enqueued on an
// external SweepScheduler, which is what keeps the two paths
// bit-identical.
class LossCurveSweep {
 public:
  LossCurveSweep(const SweepConfig& config,
                 const std::function<core::ControlPolicy(double)>& make_policy,
                 const std::vector<double>& constraints)
      : config_(config),
        constraints_(constraints),
        reps_(static_cast<std::size_t>(config.replications)),
        results_(constraints.size() *
                 static_cast<std::size_t>(config.replications)) {
    TCW_EXPECTS(config.replications >= 1);
    // The factory is caller code with no thread-safety contract, so build
    // every policy serially up front, preserving the historical call order
    // (K-major, one call per replication).
    policies_.reserve(results_.size());
    for (const double k : constraints_) {
      for (std::size_t rep = 0; rep < reps_; ++rep) {
        policies_.push_back(make_policy(k));
      }
    }
  }

  std::size_t jobs() const { return results_.size(); }

  /// The derived stream seed job `job` simulates under -- also the seed
  /// half of its ShardKey when the sweep is cached.
  std::uint64_t job_seed(std::size_t job) const {
    return sim::derive_stream_seed(config_.base_seed, job / reps_,
                                   job % reps_);
  }

  /// Whether the config's trace request targets this job. Traced jobs are
  /// never served from (or written to) a shard cache: a cached result
  /// cannot replay protocol events into the log.
  bool job_is_traced(std::size_t job) const {
    const SweepConfig::TraceRequest& tr = config_.trace_request;
    return tr.log != nullptr && job / reps_ == tr.point &&
           tr.replication >= 0 &&
           job % reps_ == static_cast<std::size_t>(tr.replication);
  }

  /// Whether the config's capture request targets this job. Like traced
  /// jobs, captured jobs bypass the shard cache (and its gate): a cached
  /// result cannot replay per-slot events into the flight recorder or
  /// series, so the job is always executed locally.
  bool job_is_captured(std::size_t job) const {
    const SweepConfig::CaptureRequest& cr = config_.capture_request;
    return cr.capture.any() && job / reps_ == cr.point &&
           cr.replication >= 0 &&
           job % reps_ == static_cast<std::size_t>(cr.replication);
  }

  std::size_t channels() const { return config_.mac.channel.channels; }

  /// Serialize job `job`'s result slot as a flat cache payload. Layout
  /// (version tag lives in the sweep fingerprint text): every metric is a
  /// single-sample accumulator, so the raw values round-trip bit-exactly
  /// through decode_job's RunningStats::add; the trailing 3*channels
  /// doubles are bit_cast attribution counts.
  std::vector<double> encode_job(std::size_t job) const {
    const SweepJobResult& r = results_[job];
    std::vector<double> out = {r.loss.mean(),          r.wait.mean(),
                               r.sched.mean(),         r.util.mean(),
                               r.sender_loss.mean(),   r.receiver_loss.mean(),
                               std::bit_cast<double>(r.messages),
                               r.within_run_ci};
    out.reserve(8 + 3 * r.attribution.size());
    for (const std::array<std::uint64_t, 3>& a : r.attribution) {
      out.push_back(std::bit_cast<double>(a[0]));
      out.push_back(std::bit_cast<double>(a[1]));
      out.push_back(std::bit_cast<double>(a[2]));
    }
    return out;
  }

  /// Reconstruct job `job`'s result slot from a cache payload. Returns
  /// false (slot untouched) when the payload does not match the expected
  /// layout, so the caller falls back to recomputing.
  bool decode_job(std::size_t job, const std::vector<double>& payload) {
    const std::size_t want = 8 + 3 * channels();
    if (payload.size() != want) return false;
    SweepJobResult r;
    r.loss.add(payload[0]);
    r.wait.add(payload[1]);
    r.sched.add(payload[2]);
    r.util.add(payload[3]);
    r.sender_loss.add(payload[4]);
    r.receiver_loss.add(payload[5]);
    r.messages = std::bit_cast<std::uint64_t>(payload[6]);
    r.within_run_ci = payload[7];
    r.attribution.resize(channels());
    for (std::size_t c = 0; c < channels(); ++c) {
      for (std::size_t f = 0; f < 3; ++f) {
        r.attribution[c][f] =
            std::bit_cast<std::uint64_t>(payload[8 + 3 * c + f]);
      }
    }
    results_[job] = r;
    return true;
  }

  void mark_cached() { ++cached_jobs_; }
  std::size_t cached_jobs() const { return cached_jobs_; }

  void mark_skipped() { ++skipped_jobs_; }
  std::size_t skipped_jobs() const { return skipped_jobs_; }

  void run_job(std::size_t job) {
    AggregateConfig sim_cfg;
    sim_cfg.policy = policies_[job];
    sim_cfg.mac = config_.mac;
    sim_cfg.message_length = config_.message_length;
    sim_cfg.success_overhead = config_.success_overhead;
    sim_cfg.t_end = config_.t_end;
    sim_cfg.warmup = config_.warmup;
    sim_cfg.seed = job_seed(job);
    if (job_is_traced(job)) {
      // only this shard touches the log
      sim_cfg.trace = config_.trace_request.log;
    }
    if (job_is_captured(job)) {
      // only this shard feeds the flight recorder / slot series
      sim_cfg.capture = config_.capture_request.capture;
    }
    AggregateSimulator sim(
        sim_cfg, std::make_unique<chan::PoissonProcess>(config_.lambda()));
    const SimMetrics& m = sim.run();
    SweepJobResult& r = results_[job];
    r.loss.add(m.p_loss());
    r.wait.add(m.wait_delivered.mean());
    r.sched.add(m.scheduling.mean());
    r.util.add(m.usage.utilization());
    const double decided =
        static_cast<double>(std::max<std::uint64_t>(m.decided(), 1));
    r.sender_loss.add(static_cast<double>(m.lost_sender) / decided);
    r.receiver_loss.add(
        static_cast<double>(m.lost_receiver + m.censored_lost) / decided);
    r.messages = m.decided();
    if (reps_ == 1) r.within_run_ci = m.p_loss_ci95();
    const std::vector<obs::ChannelTally> tallies = sim.channel_tallies();
    r.attribution.resize(tallies.size());
    for (std::size_t c = 0; c < tallies.size(); ++c) {
      r.attribution[c] = {tallies[c].admission_starved,
                          tallies[c].collision_killed,
                          tallies[c].queue_expired};
    }
  }

  // Fixed-order reduction: merging job results ki-major/rep-ascending makes
  // the output bit-identical for every worker count and schedule.
  std::vector<SweepPoint> reduce() const {
    std::vector<SweepPoint> out;
    out.reserve(constraints_.size());
    for (std::size_t ki = 0; ki < constraints_.size(); ++ki) {
      sim::RunningStats loss_reps;
      sim::RunningStats wait_reps;
      sim::RunningStats sched_reps;
      sim::RunningStats util_reps;
      sim::RunningStats sender_reps;
      sim::RunningStats receiver_reps;
      std::uint64_t messages = 0;
      for (std::size_t rep = 0; rep < reps_; ++rep) {
        const SweepJobResult& r = results_[ki * reps_ + rep];
        loss_reps.merge(r.loss);
        wait_reps.merge(r.wait);
        sched_reps.merge(r.sched);
        util_reps.merge(r.util);
        sender_reps.merge(r.sender_loss);
        receiver_reps.merge(r.receiver_loss);
        messages += r.messages;
      }
      TCW_ASSERT(loss_reps.count() == reps_);

      SweepPoint point;
      point.constraint = constraints_[ki];
      point.p_loss = loss_reps.mean();
      if (reps_ >= 2) {
        // Across-replication interval: Student t on the replication means.
        point.ci95 = sim::student_t_975(reps_ - 1) * loss_reps.stddev() /
                     std::sqrt(static_cast<double>(reps_));
      } else {
        // Single replication: fall back to the within-run binomial CI.
        point.ci95 = results_[ki * reps_].within_run_ci;
      }
      point.mean_wait = wait_reps.mean();
      point.mean_scheduling = sched_reps.mean();
      point.utilization = util_reps.mean();
      point.sender_loss_frac = sender_reps.mean();
      point.receiver_loss_frac = receiver_reps.mean();
      point.messages = messages;
      out.push_back(point);
    }
    return out;
  }

  // Attribution reduction: (K-major, channel-ascending), summed over
  // replications in fixed rep order. Jobs with empty slots (skipped by a
  // gate) contribute nothing; like reduce(), only call when none were.
  std::vector<SweepAttribution> attribution_rows() const {
    std::vector<SweepAttribution> out;
    out.reserve(constraints_.size() * channels());
    for (std::size_t ki = 0; ki < constraints_.size(); ++ki) {
      for (std::size_t ch = 0; ch < channels(); ++ch) {
        SweepAttribution row;
        row.constraint = constraints_[ki];
        row.channel = static_cast<std::uint32_t>(ch);
        for (std::size_t rep = 0; rep < reps_; ++rep) {
          const SweepJobResult& r = results_[ki * reps_ + rep];
          if (ch >= r.attribution.size()) continue;
          row.admission_starved += r.attribution[ch][0];
          row.collision_killed += r.attribution[ch][1];
          row.queue_expired += r.attribution[ch][2];
        }
        out.push_back(row);
      }
    }
    return out;
  }

  std::string engine_name() const {
    return to_string(config_.mac.engine.kind);
  }

 private:
  SweepConfig config_;
  std::vector<double> constraints_;
  std::size_t reps_;
  std::vector<core::ControlPolicy> policies_;
  std::vector<SweepJobResult> results_;
  std::size_t cached_jobs_ = 0;   // slots filled from a shard cache
  std::size_t skipped_jobs_ = 0;  // declined by a gate; slots left empty
};

}  // namespace detail

ScheduledSweep::ScheduledSweep(std::shared_ptr<detail::LossCurveSweep> state)
    : state_(std::move(state)) {}

std::vector<SweepPoint> ScheduledSweep::points() const {
  return state_->reduce();
}

std::size_t ScheduledSweep::jobs() const { return state_->jobs(); }

std::size_t ScheduledSweep::cached_jobs() const {
  return state_->cached_jobs();
}

std::size_t ScheduledSweep::skipped_jobs() const {
  return state_->skipped_jobs();
}

std::vector<SweepAttribution> ScheduledSweep::attribution() const {
  return state_->attribution_rows();
}

std::string ScheduledSweep::engine_name() const {
  return state_->engine_name();
}

std::uint32_t ScheduledSweep::channels() const {
  return static_cast<std::uint32_t>(state_->channels());
}

ScheduledSweep run_sweep(const SweepRequest& request,
                         const SweepBindings& bindings) {
  const SweepConfig& config = request.config;
  std::function<core::ControlPolicy(double)> make_policy = request.make_policy;
  if (!make_policy) {
    const double width = config.heuristic_window_width();
    const ProtocolVariant variant = request.variant;
    make_policy = [variant, width](double k) {
      return policy_for(variant, k, width);
    };
  }
  auto state = std::make_shared<detail::LossCurveSweep>(config, make_policy,
                                                        request.constraints);

  exec::ShardCache* cache = bindings.cache.cache;
  obs::ManifestCollector& manifest = obs::ManifestCollector::global();
  // Manifests record scheduled suites (studies); standalone sweeps stay
  // out of them, as before the API consolidation.
  const bool want_manifest =
      bindings.scheduler != nullptr && manifest.enabled();
  // The fingerprint keys cached shards, but it is also the sweep's
  // configuration identity in the run manifest, so compute it whenever a
  // manifest was requested even without a cache binding.
  const std::uint64_t fp =
      cache != nullptr || want_manifest
          ? exec::ShardCache::fingerprint(loss_curve_fingerprint_text(
                bindings.cache.tag, config, request.constraints))
          : 0;

  std::vector<std::function<void()>> shards;
  shards.reserve(state->jobs());
  std::vector<double> payload;
  exec::ShardGate* gate = cache != nullptr ? bindings.cache.gate : nullptr;
  for (std::size_t job = 0; job < state->jobs(); ++job) {
    if (cache != nullptr && !state->job_is_traced(job) &&
        !state->job_is_captured(job)) {
      const exec::ShardKey key{state->job_seed(job), fp};
      if (cache->lookup(key, &payload) && state->decode_job(job, payload)) {
        state->mark_cached();
        if (gate != nullptr) gate->observe(key, /*cached=*/true);
        continue;  // slot filled from the store; nothing to schedule
      }
      if (gate != nullptr) {
        gate->observe(key, /*cached=*/false);
        if (!gate->admit(key)) {
          // Another worker owns (or will own) this shard: leave the slot
          // empty. The sweep must not be reduced in this process.
          state->mark_skipped();
          continue;
        }
      }
      shards.push_back([state, job, cache, key, gate] {
        state->run_job(job);
        cache->insert(key, state->encode_job(job));
        // Release the claim only now that the result is persisted, so a
        // shard is never simultaneously unleased and uncached.
        if (gate != nullptr) gate->completed(key);
      });
      continue;
    }
    shards.push_back([state, job] { state->run_job(job); });
  }
  if (want_manifest) {
    obs::ManifestSweep entry;
    entry.name = bindings.name;
    entry.jobs = shards.size();
    entry.cached_jobs = state->cached_jobs();
    entry.base_seed = config.base_seed;
    entry.config_fingerprint = fp;
    entry.seeds.reserve(state->jobs());
    for (std::size_t job = 0; job < state->jobs(); ++job) {
      entry.seeds.push_back(state->job_seed(job));
    }
    manifest.add_sweep(std::move(entry));
  }

  if (bindings.scheduler != nullptr) {
    bindings.scheduler->add_sweep(bindings.name, std::move(shards));
    return ScheduledSweep(std::move(state));
  }

  // Standalone: run the shard closures to completion on a transient pool.
  // Same closures, same reduction -- bit-identical to the scheduled path.
  const auto t0 = std::chrono::steady_clock::now();
  exec::ThreadPool pool(exec::resolve_threads(config.threads));
  exec::parallel_for(pool, shards.size(),
                     [&shards](std::size_t i) { shards[i](); });
  if (request.timing != nullptr) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    request.timing->threads = static_cast<unsigned>(pool.size());
    request.timing->jobs = state->jobs();
    request.timing->wall_seconds = elapsed.count();
    request.timing->jobs_per_second =
        elapsed.count() > 0.0
            ? static_cast<double>(state->jobs()) / elapsed.count()
            : 0.0;
  }
  return ScheduledSweep(std::move(state));
}

std::vector<double> linear_grid(double lo, double hi, std::size_t n) {
  TCW_EXPECTS(n >= 2);
  TCW_EXPECTS(hi >= lo);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lo + (hi - lo) * static_cast<double>(i) /
                      static_cast<double>(n - 1);
  }
  return out;
}

}  // namespace tcw::net
