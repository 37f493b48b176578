// Experiment driver: sweeps the time constraint K over a grid for a given
// workload and protocol variant, with independent replications, producing
// the loss-vs-K series of the paper's Figure 7 and the ablation benches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "net/aggregate_sim.hpp"

namespace tcw::exec {
class ShardCache;
class ShardGate;
class SweepScheduler;
}  // namespace tcw::exec

namespace tcw::net {

/// The protocol variants evaluated in the paper.
enum class ProtocolVariant {
  Controlled,       // Theorem-1 elements + discard (the paper's protocol)
  FcfsNoDiscard,    // [Kurose 83] FCFS baseline, loss at receiver only
  LcfsNoDiscard,    // [Kurose 83] LCFS baseline
  RandomNoDiscard,  // [Kurose 83] RANDOM baseline
};

std::string to_string(ProtocolVariant variant);

/// Build the ControlPolicy for a variant at constraint K. `window_width`
/// is element (2); pass analysis-derived nu*/lambda for the heuristic.
core::ControlPolicy policy_for(ProtocolVariant variant, double deadline,
                               double window_width);

struct SweepConfig {
  double offered_load = 0.5;      // rho' = lambda * M
  /// MAC policy every job runs: engine selection plus the channel plan
  /// (default: the paper's window engine on one channel). Every field is
  /// part of the cached-shard fingerprint, so mixed-engine or
  /// mixed-channel suites never alias.
  PolicyConfig mac;
  double message_length = 25.0;   // M, slots
  double success_overhead = 1.0;
  double t_end = 200000.0;        // slots per replication
  double warmup = 10000.0;
  int replications = 3;
  std::uint64_t base_seed = 20261983;
  /// Worker threads for the sweep engine: each (K, replication) pair is an
  /// independent job. 0 = one worker per hardware thread. Results are
  /// bit-identical for every value, including 1 (serial). Ignored when the
  /// sweep is enqueued on an external scheduler (the shared pool decides).
  int threads = 0;
  /// Optional per-job event trace, carried as one value so higher layers
  /// (e.g. the bench study registry) can pass it around whole. When `log`
  /// is non-null, exactly the job at K-grid index `point`, replication
  /// `replication` attaches it to its simulator; every other job runs
  /// untraced, so one shard can be inspected for debugging without
  /// serializing the sweep. Attaching a trace never changes the simulated
  /// results. The log is not owned and must outlive the sweep.
  struct TraceRequest {
    sim::TraceLog* log = nullptr;
    std::size_t point = 0;
    int replication = 0;
  };
  TraceRequest trace_request;
  /// Optional kernel capture (flight-recorder segment + slot series; see
  /// obs/capture.hpp), attached -- like a trace -- to exactly the job at
  /// K-grid index `point`, replication `replication`. The captured job
  /// bypasses the shard cache AND its gate (a cached result cannot
  /// replay per-slot events), so it is always executed locally but still
  /// computes bit-identical results: captures are strict overlays.
  /// Distributed workers never set capture requests; the gateless-style
  /// re-execution is what lets the merge pass re-capture locally.
  struct CaptureRequest {
    obs::KernelCapture capture;
    std::size_t point = 0;
    int replication = 0;
  };
  CaptureRequest capture_request;

  double lambda() const { return offered_load / message_length; }
  /// Element (2) heuristic width: nu*/lambda (paper Section 4.1).
  double heuristic_window_width() const;
};

/// Deadline-loss attribution for one (K, channel) cell of a sweep, summed
/// over replications: every element-(4) sender discard classified into
/// exactly one category (the categories sum to the cell's discard count;
/// tests assert this). See obs::ChannelTally for the taxonomy.
struct SweepAttribution {
  double constraint = 0.0;  // K
  std::uint32_t channel = 0;
  std::uint64_t admission_starved = 0;
  std::uint64_t collision_killed = 0;
  std::uint64_t queue_expired = 0;

  std::uint64_t discards() const {
    return admission_starved + collision_killed + queue_expired;
  }
};

struct SweepPoint {
  double constraint = 0.0;  // K
  double p_loss = 0.0;      // mean over replications
  double ci95 = 0.0;        // across-replication CI (normal, t-quantile)
  double mean_wait = 0.0;   // mean true wait of delivered messages
  double mean_scheduling = 0.0;
  double utilization = 0.0; // payload fraction of channel time
  // Loss decomposition (means over replications, fractions of decided
  // messages): element (4) discards at the sender vs late deliveries +
  // end-censored losses at the receiver. Their sum is p_loss up to
  // replication averaging.
  double sender_loss_frac = 0.0;
  double receiver_loss_frac = 0.0;
  std::uint64_t messages = 0;
};

/// Wall-clock accounting for one sweep, for bench reporting.
struct SweepTiming {
  unsigned threads = 1;        // workers the engine actually used
  std::size_t jobs = 0;        // (K, replication) simulations run
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;

  void accumulate(const SweepTiming& other);
};

/// Evenly spaced K grid helper: n points from lo to hi inclusive.
std::vector<double> linear_grid(double lo, double hi, std::size_t n);

namespace detail {
class LossCurveSweep;
}  // namespace detail

class ScheduledSweep;

/// Binds a sweep to a shard store for resumable studies. `tag` must
/// uniquely describe the sweep's policy/configuration within the store
/// (sweeps that deliberately share derived seeds -- common random numbers
/// across ablation arms -- are separated by their tags): it is folded,
/// together with every result-affecting SweepConfig field (including the
/// MAC engine and channel plan) and the K grid, into the fingerprint half
/// of each shard's ShardKey.
struct SweepCacheBinding {
  exec::ShardCache* cache = nullptr;  // null disables caching
  std::string tag;
  /// Optional work-claim gate (distributed execution). Every cacheable
  /// shard key is reported via observe(); cache misses are only scheduled
  /// when admit() grants them (declined jobs are SKIPPED -- their slots
  /// stay empty and points() must not be called); executed jobs call
  /// completed() after their result is in the store. Requires `cache`.
  exec::ShardGate* gate = nullptr;
};

/// Everything one loss-curve sweep needs: the workload/engine/channel
/// configuration, the ascending K grid, and the policy source. This is
/// the options struct of the single entry point net::run_sweep.
struct SweepRequest {
  SweepConfig config;
  /// Ascending K grid; one SweepPoint per entry.
  std::vector<double> constraints;
  /// Protocol variant used when `make_policy` is empty: policies come
  /// from policy_for(variant, K, config.heuristic_window_width()).
  ProtocolVariant variant = ProtocolVariant::Controlled;
  /// Optional policy factory for ablations over arbitrary element
  /// combinations. Receives K; invoked serially (once per (K,
  /// replication), K-major) under std::call_once by whichever thread runs
  /// the sweep's first executed job, so it needs no internal
  /// synchronization and may read what a prerequisite sweep (see
  /// SweepBindings::after) computed. A sweep served entirely from its
  /// cache never invokes it. When set, `variant` is ignored.
  std::function<core::ControlPolicy(double)> make_policy;
  /// Optional wall-clock accounting, filled in standalone mode only (a
  /// scheduler-bound sweep is timed by its scheduler).
  SweepTiming* timing = nullptr;
};

/// Optional execution bindings for run_sweep. Default-constructed
/// bindings run the sweep standalone to completion on a transient pool of
/// config.threads workers. With `scheduler` set, the sweep is enqueued as
/// a named shard set on that externally owned exec::SweepScheduler (one
/// shard per (K, replication) job, cross-sweep work stealing;
/// config.threads is ignored) and points() becomes valid once the
/// scheduler's run() has returned. `cache` binds a shard store in either
/// mode: cached jobs are decoded straight into their result slots and not
/// executed; executed jobs append their results to the store as they
/// complete. Reduction order never changes, so cached/resumed/scheduled
/// runs are all bit-identical to a cold standalone run -- for any thread
/// count. A job targeted by the config's trace request is always executed
/// (a cache hit cannot replay protocol events).
struct SweepBindings {
  exec::SweepScheduler* scheduler = nullptr;
  /// Sweep name on the scheduler (required with `scheduler`); also the
  /// name under which a run manifest records the sweep.
  std::string name;
  SweepCacheBinding cache;
  /// Index of an earlier sweep on `scheduler` that this one is gated on
  /// (exec::SweepScheduler::add_sweep's `after`): no job starts before
  /// that sweep has finished. Requires `scheduler`.
  std::optional<std::size_t> after = std::nullopt;
};

/// THE sweep entry point: run (or enqueue) one loss-curve sweep described
/// by `request` under `bindings`. Runs every (K, replication) pair as an
/// independent job; deterministic given config.base_seed (bit-identical
/// for any thread count, with or without a scheduler or cache).
ScheduledSweep run_sweep(const SweepRequest& request,
                         const SweepBindings& bindings = {});

/// Handle to a sweep built by run_sweep. Copyable; all copies view the
/// same shard slots.
class ScheduledSweep {
 public:
  /// Fixed-order reduction of the shard results. In standalone mode,
  /// valid as soon as run_sweep returns; in scheduler mode, call only
  /// after the owning scheduler's run() has returned (shard slots are
  /// written concurrently until then).
  std::vector<SweepPoint> points() const;

  /// Number of (K, replication) shards this sweep contributed.
  std::size_t jobs() const;

  /// Of those, how many were served from the shard cache (0 without a
  /// cache binding).
  std::size_t cached_jobs() const;

  /// Jobs declined by the binding's gate and therefore NOT scheduled
  /// (distributed worker mode). A sweep with skipped jobs has empty
  /// result slots: do not call points() on it.
  std::size_t skipped_jobs() const;

  /// Deadline-loss attribution rows, (K-major, channel-ascending), summed
  /// over replications. Same validity window as points(). Rides in the
  /// cached shard payloads, so cached/merged runs report identical rows.
  std::vector<SweepAttribution> attribution() const;

  /// The MAC engine name and channel count the sweep ran under (labels
  /// for attribution reports).
  std::string engine_name() const;
  std::uint32_t channels() const;

 private:
  explicit ScheduledSweep(std::shared_ptr<detail::LossCurveSweep> state);
  friend ScheduledSweep run_sweep(const SweepRequest&, const SweepBindings&);

  std::shared_ptr<detail::LossCurveSweep> state_;
};

}  // namespace tcw::net
