// Infinite-population simulation of the controlled window protocol: the
// model the paper analyses. Messages are points of an aggregate arrival
// process, each effectively at its own station, so a probe window holding
// n arrivals produces Idle (n = 0), Success (n = 1) or Collision (n >= 2).
//
// Loss is accounted the way the paper's *simulation* does (Section 4.2):
// a transmitted message is lost at the receiver when its TRUE waiting time
// (arrival to start of its successful transmission) exceeds K, and, with
// element (4) active, messages are also discarded at the sender once the
// controller has aged them out. The analytic model's approximate waiting
// definition is thereby tested against the truth, as in the paper.
//
// Multi-channel runs (mac.channel.channels > 1) shard the aggregate
// stream across C parallel lanes, one engine instance per lane, with the
// ChannelPlan's selector routing each arrival at generation time. Lanes
// step in argmin-clock order (ties to the lowest index), which guarantees
// every arrival at or below a lane's clock is routed before that lane
// probes -- so a lane's resolved window floor never passes an unrouted
// arrival and the single-channel invariants hold per lane. With C = 1 the
// lane machinery degenerates to exactly the pre-multichannel loop: no
// selector is consulted, lane-0 seeds are the raw seeds, and runs are
// bit-identical to the single-channel kernel.
//
// A lane with nothing pending and no process open asks its engine for a
// quiescent-stretch certificate (ProtocolEngine::quiescent_until) and
// fast-forwards every certified slot before the next arrival, t_end and
// the next other-lane turn in one call, in O(1) work per stretch: its
// metrics go in as runs (SimMetrics::add_quiescent_stretch), which the
// run-length accumulators fold to the bits of the per-slot path. Traced,
// jittered and reference runs step every slot.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "chan/arrivals.hpp"
#include "net/channel_plan.hpp"
#include "net/metrics.hpp"
#include "net/protocol_engine.hpp"
#include "obs/capture.hpp"
#include "obs/channel_counters.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "util/flat_deque.hpp"
#include "util/interval_set.hpp"

namespace tcw::net {

struct AggregateConfig {
  core::ControlPolicy policy;
  /// Which MAC discipline runs the slot-by-slot access decisions and how
  /// many channels it is sharded across. The default is the paper's
  /// window engine on one channel; see net/protocol_engine.hpp and
  /// net/channel_plan.hpp for the catalogs.
  PolicyConfig mac;
  double message_length = 25.0;   // M, slots
  double success_overhead = 1.0;  // extra slots per success
  double t_end = 200000.0;        // run length, slots
  double warmup = 10000.0;        // arrivals before this are not counted;
                                  // finite, >= 0
  std::uint64_t seed = 1;
  bool record_wait_histogram = false;
  /// Optional event trace; must outlive the simulator. Not owned.
  /// Requires a single channel (trace records carry no channel field).
  sim::TraceLog* trace = nullptr;
  /// Asynchrony-sensitivity knob (paper Section 5, second extension, as a
  /// robustness study -- see DESIGN.md): each probe step consumes an extra
  /// Uniform(0, slot_jitter) slots of channel time, modelling imperfect
  /// slot synchronization / detection latency. 0 = the paper's ideal
  /// synchronous channel.
  double slot_jitter = 0.0;
  double wait_hist_max = 0.0;     // 0 -> 2*deadline; finite, >= 0
  std::size_t wait_hist_bins = 64;
  /// Drive the pending-arrival bookkeeping through the retained seed-era
  /// std::set path instead of the flat chunked deque, stepping every slot
  /// (no quiescent fast-forward). Results are bit-identical either way
  /// (kernel_bench --verify proves it); the reference path exists only as
  /// that cross-check and as the pre-PR throughput baseline.
  bool reference_kernel = false;
  /// Optional flight-recorder segment / slot-series hooks (strict
  /// overlays: never touch RNG state or results). Not owned; must
  /// outlive the simulator.
  obs::KernelCapture capture;
};

class AggregateSimulator {
 public:
  /// `arrivals` supplies the aggregate stream; pass a PoissonProcess for
  /// the paper's workload.
  AggregateSimulator(const AggregateConfig& config,
                     std::unique_ptr<chan::ArrivalProcess> arrivals);

  /// Run to completion and return the metrics.
  const SimMetrics& run();

  const SimMetrics& metrics() const { return metrics_; }
  const ProtocolEngine& engine() const { return *lanes_[0].engine; }
  /// The furthest lane clock (== the clock with one channel).
  double now() const;
  /// Probe slots actually issued (windows probed), summed over channels.
  std::uint64_t probe_steps() const;
  /// Per-channel slot-outcome tallies, valid after run().
  std::vector<obs::ChannelTally> channel_tallies() const;
  /// Probe slots fast-forwarded as certified quiescent stretches (counted
  /// in probe_steps() too).
  std::uint64_t skipped_slots() const { return skipped_slots_; }

 private:
  /// One channel: its engine instance, its pending-arrival structures,
  /// its slot clock, and its outcome tally.
  struct Lane {
    std::unique_ptr<ProtocolEngine> engine;
    // Transmission coins for Probability plans, engine-id-keyed and
    // separate from the arrival stream. Never drawn under the window
    // engine. Lane 0 runs on the raw engine_coin_seed stream.
    sim::Rng coin_rng{0};
    // Pending untransmitted arrival instants. Poisson (and all supplied)
    // processes produce strictly increasing, hence distinct, times;
    // exactly the contract of the flat chunked deque. `pending_set` is
    // the retained reference structure, populated only under
    // reference_kernel.
    FlatChunkDeque pending;
    std::set<double> pending_set;
    // Handle to the element found by the last count_in_window call.
    FlatChunkDeque::Pos found_pos;
    std::set<double>::iterator found_it;
    double now = 0.0;
    double last_tx_end = 0.0;
    obs::ChannelTally tally;
    // Deadline-loss attribution state (always on -- the classification is
    // pure observation and feeds the cached sweep payloads): arrival-time
    // spans of every window probe that collided. A discard whose arrival
    // lies in a collided span lost the race after reaching the channel
    // (collision_killed); otherwise the window never admitted it in time
    // (admission_starved). Pruned with the discard floor.
    tcw::IntervalSet collided_spans;
    // Scratch: transmitter arrivals of the current Probability slot,
    // collected only when a flight segment is attached.
    std::vector<double> tx_scratch;
  };

  void generate_arrivals_until(double t);
  std::uint32_t route_arrival(double arrival);
  void step_lane(Lane& lane, std::uint32_t ch);
  /// When lane `li`'s engine certifies a quiescent stretch (see
  /// ProtocolEngine::quiescent_until) over slots no arrival, t_end or
  /// other lane's turn interrupts, record it in O(1), fast-forward the
  /// engine and return true; false leaves the lane untouched (the caller
  /// steps the slot).
  bool try_skip_quiescent(Lane& lane, std::size_t li);
  void purge_discarded(Lane& lane, std::uint32_t ch);
  void finalize();
  /// Base slot(s) plus the configured synchronization jitter, if any.
  double step_duration(double base);
  /// How many pending arrivals (capped at 2) fall in [lo, hi); `first`
  /// receives the oldest one when the count is nonzero.
  std::size_t count_in_window(Lane& lane, double lo, double hi,
                              double* first);
  /// Probability plans: every pending arrival (its own station in the
  /// infinite-population model) flips a coin with probability `p`. Every
  /// coin is drawn -- the stream must stay aligned regardless of outcome.
  /// Returns the number of transmitters; `first` receives the oldest one
  /// when the count is nonzero.
  std::size_t count_transmitters(Lane& lane, double p, double* first);
  /// Remove the arrival returned via `first` (the successful transmitter).
  void erase_transmitted(Lane& lane);

  AggregateConfig config_;
  std::unique_ptr<chan::ArrivalProcess> arrivals_;
  sim::Rng rng_;
  std::vector<Lane> lanes_;
  // Routing state; engaged only when mac.channel.channels > 1 (C = 1
  // never consults a selector, preserving stream bit-identity).
  std::optional<ChannelSelector> selector_;
  // Scratch per-lane views for ChannelSelector::route.
  std::vector<double> lane_now_scratch_;
  std::vector<double> lane_busy_scratch_;
  std::vector<std::uint64_t> lane_load_scratch_;
  double next_arrival_ = 0.0;
  std::uint64_t skipped_slots_ = 0;
  SimMetrics metrics_;
  bool finished_ = false;
};

}  // namespace tcw::net
