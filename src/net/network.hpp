// Finite-station simulation of the slotted channel, with one MAC policy
// engine replica per station (the paper's window controller by default;
// see net/protocol_engine.hpp) driven ONLY by the shared channel feedback
// -- the distributed system the paper describes, rather than its
// infinite-population abstraction. Used to validate that
//   * every station derives the identical protocol state from feedback
//     alone (the consistency checks), and
//   * finite-population results approach the aggregate model as the
//     station count grows.
//
// Finite-population wrinkle (see DESIGN.md): a success resolves the probed
// window at every station, but the transmitting station may still hold
// further messages whose arrivals lie in that window. Those are re-stamped
// to the current instant for window eligibility (their true arrival time,
// used for deadlines and delay metrics, is unchanged).
//
// Multi-channel runs (mac.channel.channels > 1) shard the messages across
// C parallel lanes, each with its own engine replicas and per-station
// queues, with the ChannelPlan's selector routing each message at arrival
// time. Lanes step in argmin-clock order (ties to the lowest index), which
// guarantees every arrival at or below a lane's clock is routed before
// that lane probes -- so a lane's resolved window floor never passes an
// unrouted arrival and the single-channel invariants hold per lane. With
// C = 1 the run is lane 0: no selector is consulted, lane-0 seeds are the
// raw seeds, and no routing event or per-channel counter is emitted
// (tests/test_network_golden.cpp pins the output bit for bit).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "chan/arrivals.hpp"
#include "chan/message.hpp"
#include "net/channel_plan.hpp"
#include "net/metrics.hpp"
#include "net/protocol_engine.hpp"
#include "obs/capture.hpp"
#include "obs/channel_counters.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "util/interval_set.hpp"

namespace tcw::net {

struct NetworkConfig {
  core::ControlPolicy policy;
  /// Which MAC discipline runs the slot-by-slot access decisions and how
  /// many channels it is sharded across. The default is the paper's
  /// window engine on one channel; see net/protocol_engine.hpp and
  /// net/channel_plan.hpp for the catalogs. Multi-channel runs
  /// (mac.channel.channels > 1) route each message to one channel at
  /// arrival time and step lanes in argmin-clock order; they exclude
  /// event_skip, traces, and the desync test hook.
  PolicyConfig mac;
  double message_length = 25.0;
  double success_overhead = 1.0;
  double t_end = 50000.0;
  double warmup = 2000.0;
  std::uint64_t seed = 1;
  /// Cross-check full controller state across stations every N probe steps
  /// (0 disables; checks are O(replicas * state)).
  std::size_t consistency_check_every = 0;
  /// Engine replicas stepped besides the canonical one. Engines are
  /// deterministic functions of the shared feedback sequence, so the
  /// simulation only needs ONE; the shadows exist so check_consistency can
  /// keep verifying the distributed property on real replicas. The default
  /// keeps the seed-era behavior (one replica per station); benches opt
  /// into a small count (kernel_bench uses 2). Clamped to stations - 1,
  /// and the total replica count never resolves below 1 (a single-station
  /// network runs exactly one replica -- the canonical -- regardless of
  /// this setting, including the SIZE_MAX sentinel). The simulated
  /// results are identical for every value, including 0.
  std::size_t shadow_replicas = SIZE_MAX;
  /// Drive the per-slot bookkeeping through the retained seed-era path
  /// (every station steps its own controller, eligibility scans every
  /// queue, restamp re-sorts, purge erases one-by-one). Bit-identical to
  /// the fast path (kernel_bench --verify proves it); kept only as that
  /// cross-check and as the pre-PR throughput baseline.
  bool reference_kernel = false;
  /// Large-N stepper: when the active-station index is empty and every
  /// engine replica certifies a quiescent stretch (see
  /// ProtocolEngine::quiescent_until), jump straight to the next
  /// arrival-or-end event instead of iterating the empty slots. Requires
  /// the batched arrival stream (homogeneous_poisson_batched) -- the
  /// per-station lazy draws interleave on the shared rng_ in
  /// schedule-dependent order -- and no trace / reference kernel / desync
  /// injection. Metrics are bit-identical to the per-slot fast path on the
  /// same batched stream (kernel_bench --verify and tests/test_event_skip
  /// prove it).
  bool event_skip = false;
  /// Optional event trace; must outlive the network. Not owned.
  sim::TraceLog* trace = nullptr;
  /// Optional flight-recorder segment / slot-series hooks (strict
  /// overlays: never touch RNG state or results; the event-skip stepper
  /// synthesizes bit-identical series samples for skipped stretches).
  /// Not owned; must outlive the network.
  obs::KernelCapture capture;
};

/// Seed of the batched aggregate arrival stream, derived from the
/// simulation seed on coordinates no other consumer uses (engine streams,
/// transmission coins, and sweep-shard jobs all live elsewhere in the
/// (hi, lo) plane; tests/test_seed_streams.cpp pins this down). Existing
/// per-station streams read the raw seed and are untouched.
std::uint64_t batched_arrival_seed(std::uint64_t sim_seed);

class Network {
 public:
  explicit Network(const NetworkConfig& config);

  /// Add a station fed by `arrivals`. Call before run().
  void add_station(std::unique_ptr<chan::ArrivalProcess> arrivals);

  /// Convenience: n stations with iid Poisson streams splitting
  /// `total_rate` messages/slot evenly.
  static Network homogeneous_poisson(const NetworkConfig& config,
                                     std::size_t n_stations,
                                     double total_rate);

  /// Same station population, but arrivals come from ONE batched
  /// Poisson(total_rate) stream with uniform station marks (the exact
  /// superposition of n iid Poisson(total_rate/n) processes), drawn in
  /// arrival-time order and refilled in blocks. The realization is
  /// independent of the stepping schedule, which is what makes the
  /// event-skipping stepper bit-comparable to the per-slot path; it is a
  /// *different* realization from homogeneous_poisson at the same seed
  /// (the batched stream runs on batched_arrival_seed). Required by
  /// NetworkConfig::event_skip; also the only O(1)-per-slot arrival path
  /// at N >= 10^5.
  static Network homogeneous_poisson_batched(const NetworkConfig& config,
                                             std::size_t n_stations,
                                             double total_rate);

  const SimMetrics& run();

  std::size_t station_count() const { return stations_.size(); }
  std::uint64_t consistency_checks_run() const { return checks_run_; }
  /// False once any lane's replicas have diverged.
  bool stations_consistent() const;
  const SimMetrics& metrics() const { return metrics_; }
  /// Probe slots issued so far, summed over channels (throughput benches
  /// divide by wall time).
  std::uint64_t probe_steps() const;
  /// Per-channel slot-outcome tallies, valid after run(). Single-channel
  /// runs report their one channel at index 0.
  std::vector<obs::ChannelTally> channel_tallies() const;
  /// Slots covered by event-skip certificates rather than stepped one by
  /// one (0 unless NetworkConfig::event_skip; benches report the ratio).
  std::uint64_t skipped_slots() const { return skipped_slots_; }
  /// Engine replicas actually stepped (canonical + shadows); only
  /// meaningful once run() has started. Before run() it reports what the
  /// configuration will resolve to for the current station count. Always
  /// at least 1: the canonical replica exists in every configuration.
  std::size_t controller_replicas() const;

  /// Test hook: apply one out-of-band probe/feedback round to replica
  /// `replica` (0 = canonical), desynchronizing it from the others. The
  /// consistency checks must then report the divergence. Call after
  /// add_station and before run(). run() rejects the injection (contract
  /// violation) when fewer than two replicas resolve: with only the
  /// canonical replica a divergence has no peer to be observed against,
  /// and desyncing the canonical would silently corrupt the simulation
  /// instead of flagging inconsistency.
  void desync_replica_for_test(std::size_t replica);

 private:
  struct Station {
    chan::StationId id = 0;
    std::unique_ptr<chan::ArrivalProcess> arrivals;
    double next_arrival = 0.0;
  };

  struct BatchedArrival {
    double time = 0.0;
    std::uint32_t station = 0;
  };

  /// One station's state on one lane. The queue is a vector: it is short
  /// and, unlike std::deque, allocates nothing while empty, so an idle
  /// station costs 32 bytes (at N = 10^6 an empty deque's map and first
  /// node took ~0.7 GB per lane).
  struct LaneStation {
    std::vector<chan::Message> queue;  // sorted by window_stamp
    std::ptrdiff_t active_pos = -1;    // slot in Lane::active, -1 when empty
  };

  /// One channel: its engine replicas, slot clock, coin stream,
  /// per-station message queues, active-station index, and outcome tally.
  struct Lane {
    // engines[0] is the canonical replica driving the lane; the rest are
    // the shadows check_consistency audits (all stations under
    // reference_kernel or the default shadow_replicas).
    std::vector<std::unique_ptr<ProtocolEngine>> engines;
    // Transmission coins for Probability plans, engine-id-keyed and
    // separate from the arrival stream. Local (kernel-side) randomness:
    // replicas never see it, so engines stay pure functions of the
    // feedback. Never drawn under the window engine -- its plans carry no
    // probability. Lane 0 runs on the raw engine_coin_seed stream.
    sim::Rng coin_rng{0};
    double now = 0.0;
    double last_tx_end = 0.0;
    bool consistent = true;
    std::uint64_t pending = 0;  // messages queued across all stations
    // Indexed by station id; grown as stations are added, so the queues
    // exist before run() starts the clock.
    std::vector<LaneStation> stations;
    std::vector<std::uint32_t> active;  // ids of stations with pending work
    obs::ChannelTally tally;
    // Deadline-loss attribution (always on -- the classification is pure
    // observation and feeds the cached sweep payloads). Window engines:
    // window-stamp spans of every collided probe; a purged message whose
    // stamp lies in a collided span reached the channel and lost
    // (collision_killed), otherwise the window never admitted it in time
    // (admission_starved). Probability engines: message ids that ever
    // transmitted into a collision (collision_killed at purge); the rest
    // aged out in queue (queue_expired -- ALOHA has no admission control).
    // Pruned against the discard cutoff / erased on success, so both stay
    // bounded by the live backlog.
    tcw::IntervalSet collided_spans;
    std::unordered_set<std::uint64_t> collided_ids;
    // Scratch: (message id, arrival) of the current Probability slot's
    // transmitters, reused across slots.
    std::vector<std::pair<std::uint64_t, double>> tx_scratch;
  };

  /// Build every lane's engine replicas, coin stream and, when C > 1, the
  /// selector.
  void build_lanes();
  void generate_arrivals_until(double t);
  /// Queue `msg` on its lane: lane 0 when C = 1, else the selector's pick.
  void route_message(chan::Message msg);
  void refill_batched_block();
  /// Time of the next undelivered batched arrival (refills as needed).
  double next_batched_arrival();
  /// Event-skip fast path (C = 1 only): with no active station, certify a
  /// quiescent stretch across every replica, record its metrics and due
  /// consistency checks in O(1), and fast-forward the engines. Returns
  /// false when no stretch is certified (the caller steps the slot
  /// normally).
  bool try_skip_quiescent(Lane& lane);
  /// Generate the arrivals up to the lane's clock, then step one slot.
  void step_lane(Lane& lane, std::uint32_t ch);
  void purge_expired(Lane& lane, std::uint32_t ch);
  /// Index of the message with the oldest stamp inside [lo, hi); -1 if none.
  static std::ptrdiff_t eligible_index(const std::vector<chan::Message>& q,
                                        double lo, double hi);
  void check_consistency(Lane& lane);
  void finalize();
  void activate(Lane& lane, std::uint32_t station);
  void deactivate(Lane& lane, LaneStation& st);
  /// Move the transmitter's messages stranded in the resolved window
  /// [lo, hi) behind everything else, re-stamped to fresh instants
  /// after `now`.
  void restamp_stranded(std::vector<chan::Message>& queue, double now,
                         double lo, double hi);

  NetworkConfig config_;
  std::vector<Station> stations_;
  sim::Rng rng_;
  // Batched aggregate arrival stream (homogeneous_poisson_batched); rate 0
  // means per-station mode. Runs on its own derived stream so the existing
  // per-station draws on rng_ stay bit-identical.
  double batched_rate_ = 0.0;
  sim::Rng batched_rng_{0};
  double batched_clock_ = 0.0;  // time of the last generated arrival
  std::vector<BatchedArrival> batched_block_;
  std::size_t batched_pos_ = 0;
  chan::MessageId next_msg_id_ = 1;
  std::uint64_t skipped_slots_ = 0;
  std::uint64_t checks_run_ = 0;
  std::uint64_t restamps_ = 0;  // flushed to the obs registry in finalize()
  std::size_t desync_replica_ = SIZE_MAX;  // pending test-hook injection
  bool finished_ = false;
  SimMetrics metrics_;
  std::vector<Lane> lanes_;  // one per channel; lane 0 is the C = 1 channel
  // Routing state; engaged only when mac.channel.channels > 1 (C = 1
  // never consults a selector, preserving stream bit-identity).
  std::optional<ChannelSelector> selector_;
  // Scratch per-lane views for ChannelSelector::route.
  std::vector<double> lane_now_scratch_;
  std::vector<double> lane_busy_scratch_;
  std::vector<std::uint64_t> lane_load_scratch_;
};

}  // namespace tcw::net
