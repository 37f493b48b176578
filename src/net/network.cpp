#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/registry.hpp"
#include "sim/sampling.hpp"
#include "util/contract.hpp"

namespace tcw::net {

namespace {

// (hi, lo) coordinates of the batched arrival stream in the
// derive_stream_seed plane. Far outside every other consumer's range:
// engine streams use (engine_id, 0), transmission coins (engine_id,
// 0xC0114), sweep shards (K-index, replication) -- all small values.
constexpr std::uint64_t kBatchedArrivalHi = 0xBA7C4EDULL;
constexpr std::uint64_t kBatchedArrivalLo = 0xA221ULL;

// Arrivals generated per refill of the batched block: large enough to
// amortize the refill, small enough to stay cache-resident.
constexpr std::size_t kBatchedBlock = 4096;

struct NetworkCounters {
  obs::Counter runs;
  obs::Counter probe_slots;
  obs::Counter idle_slots;
  obs::Counter collisions;
  obs::Counter successes;
  obs::Counter sender_discards;
  obs::Counter restamps;
  obs::Counter consistency_checks;
  obs::Counter skipped_slots;
};

NetworkCounters& network_counters() {
  static NetworkCounters counters{
      obs::Registry::global().counter("net.network.runs"),
      obs::Registry::global().counter("net.network.probe_slots"),
      obs::Registry::global().counter("net.network.idle_slots"),
      obs::Registry::global().counter("net.network.collisions"),
      obs::Registry::global().counter("net.network.successes"),
      obs::Registry::global().counter("net.network.sender_discards"),
      obs::Registry::global().counter("net.network.restamps"),
      obs::Registry::global().counter("net.network.consistency_checks"),
      obs::Registry::global().counter("net.network.skipped_slots"),
  };
  return counters;
}

}  // namespace

std::uint64_t batched_arrival_seed(std::uint64_t sim_seed) {
  return sim::derive_stream_seed(sim_seed, kBatchedArrivalHi,
                                 kBatchedArrivalLo);
}

Network::Network(const NetworkConfig& config)
    : config_(config),
      rng_(config.seed) {
  // A non-finite t_end never ends the slot loop; a non-finite message
  // length or overhead turns the clock into NaN/inf after the first
  // success and silently truncates the run.
  TCW_EXPECTS(std::isfinite(config_.t_end));
  // The event-skip stepper counts post-warmup slots from ceil(warmup).
  TCW_EXPECTS(std::isfinite(config_.warmup));
  TCW_EXPECTS(config_.warmup >= 0.0);
  TCW_EXPECTS(config_.t_end > config_.warmup);
  TCW_EXPECTS(std::isfinite(config_.message_length));
  TCW_EXPECTS(config_.message_length >= 1.0);
  TCW_EXPECTS(std::isfinite(config_.success_overhead));
  TCW_EXPECTS(config_.success_overhead >= 0.0);
  const ChannelPlan& plan = config_.mac.channel;
  TCW_EXPECTS(plan.channels >= 1);
  TCW_EXPECTS(plan.skew >= 0.0 && plan.skew < 1.0);
  // Trace records carry no channel field; tracing is a single-channel
  // debugging surface.
  TCW_EXPECTS(config_.trace == nullptr || plan.channels == 1);
  lanes_.resize(plan.channels);
}

void Network::add_station(std::unique_ptr<chan::ArrivalProcess> arrivals) {
  TCW_EXPECTS(arrivals != nullptr);
  TCW_EXPECTS(!finished_);
  Station st;
  st.id = static_cast<chan::StationId>(stations_.size());
  st.arrivals = std::move(arrivals);
  st.next_arrival = st.arrivals->next(rng_);
  stations_.push_back(std::move(st));
  for (Lane& lane : lanes_) lane.stations.emplace_back();
}

Network Network::homogeneous_poisson(const NetworkConfig& config,
                                     std::size_t n_stations,
                                     double total_rate) {
  TCW_EXPECTS(n_stations > 0);
  TCW_EXPECTS(total_rate > 0.0);
  Network net(config);
  for (std::size_t i = 0; i < n_stations; ++i) {
    net.add_station(std::make_unique<chan::PoissonProcess>(
        total_rate / static_cast<double>(n_stations)));
  }
  return net;
}

Network Network::homogeneous_poisson_batched(const NetworkConfig& config,
                                             std::size_t n_stations,
                                             double total_rate) {
  TCW_EXPECTS(n_stations > 0);
  TCW_EXPECTS(n_stations <= std::numeric_limits<std::uint32_t>::max());
  TCW_EXPECTS(total_rate > 0.0);
  Network net(config);
  net.batched_rate_ = total_rate;
  net.batched_rng_ = sim::Rng(batched_arrival_seed(config.seed));
  // Stations carry no per-station process: the batched stream owns both
  // the inter-arrival clock and the station marks. next_arrival stays at
  // +inf so the per-station generator can never fire.
  net.stations_.resize(n_stations);
  for (std::size_t i = 0; i < n_stations; ++i) {
    net.stations_[i].id = static_cast<chan::StationId>(i);
    net.stations_[i].next_arrival = std::numeric_limits<double>::infinity();
  }
  for (Lane& lane : net.lanes_) lane.stations.resize(n_stations);
  return net;
}

std::size_t Network::controller_replicas() const {
  if (!lanes_[0].engines.empty()) return lanes_[0].engines.size();
  // The canonical replica always exists: every clamp below bottoms out at
  // one replica, so 0- and 1-station configurations (where "stations - 1"
  // leaves no room for shadows) still resolve sanely.
  if (config_.reference_kernel) {
    return std::max<std::size_t>(1, stations_.size());
  }
  const std::size_t shadows =
      std::min(config_.shadow_replicas,
               stations_.empty() ? std::size_t{0} : stations_.size() - 1);
  return 1 + shadows;
}

void Network::build_lanes() {
  const ChannelPlan& plan = config_.mac.channel;
  const std::size_t replicas = controller_replicas();
  const std::uint64_t coin_base =
      engine_coin_seed(config_.mac.engine.kind, config_.seed);
  for (std::uint32_t c = 0; c < plan.channels; ++c) {
    // Lane 0 runs on the raw seeds (channel_stream_seed is the identity
    // for channel 0); lanes c > 0 get derived, non-aliasing streams.
    Lane& lane = lanes_[c];
    core::ControlPolicy lane_policy = config_.policy;
    lane_policy.shared_seed =
        channel_stream_seed(config_.policy.shared_seed, c);
    lane.engines.reserve(replicas);
    for (std::size_t i = 0; i < replicas; ++i) {
      lane.engines.push_back(make_engine(config_.mac.engine, lane_policy));
    }
    lane.coin_rng = sim::Rng(channel_stream_seed(coin_base, c));
  }
  if (plan.channels > 1) {
    selector_.emplace(plan, config_.seed);
    lane_now_scratch_.resize(plan.channels);
    lane_busy_scratch_.resize(plan.channels);
    lane_load_scratch_.resize(plan.channels);
  }
}

std::uint64_t Network::probe_steps() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.tally.probe_slots;
  return total;
}

bool Network::stations_consistent() const {
  for (const Lane& lane : lanes_) {
    if (!lane.consistent) return false;
  }
  return true;
}

std::vector<obs::ChannelTally> Network::channel_tallies() const {
  std::vector<obs::ChannelTally> tallies;
  tallies.reserve(lanes_.size());
  for (const Lane& lane : lanes_) tallies.push_back(lane.tally);
  return tallies;
}

void Network::desync_replica_for_test(std::size_t replica) {
  TCW_EXPECTS(!finished_);
  TCW_EXPECTS(replica != SIZE_MAX);  // SIZE_MAX is the "none" sentinel
  desync_replica_ = replica;
}

void Network::activate(Lane& lane, std::uint32_t station) {
  LaneStation& st = lane.stations[station];
  if (st.active_pos >= 0) return;
  st.active_pos = static_cast<std::ptrdiff_t>(lane.active.size());
  lane.active.push_back(station);
}

void Network::deactivate(Lane& lane, LaneStation& st) {
  if (st.active_pos < 0) return;
  const auto pos = static_cast<std::size_t>(st.active_pos);
  lane.active[pos] = lane.active.back();
  lane.stations[lane.active[pos]].active_pos =
      static_cast<std::ptrdiff_t>(pos);
  lane.active.pop_back();
  st.active_pos = -1;
}

void Network::refill_batched_block() {
  batched_block_.clear();
  batched_pos_ = 0;
  const auto n = static_cast<std::uint64_t>(stations_.size());
  for (std::size_t i = 0; i < kBatchedBlock; ++i) {
    // One exponential gap + one station mark per arrival, always in
    // arrival-time order: the stream's draw sequence never depends on how
    // the kernel steps time.
    batched_clock_ += sim::exponential(batched_rng_, batched_rate_);
    batched_block_.push_back(
        {batched_clock_,
         static_cast<std::uint32_t>(sim::uniform_index(batched_rng_, n))});
  }
}

double Network::next_batched_arrival() {
  if (batched_pos_ == batched_block_.size()) refill_batched_block();
  return batched_block_[batched_pos_].time;
}

void Network::route_message(chan::Message msg) {
  std::uint32_t c = 0;
  if (selector_) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      lane_now_scratch_[i] = lanes_[i].now;
      lane_busy_scratch_[i] = lanes_[i].last_tx_end;
      lane_load_scratch_[i] = lanes_[i].pending;
    }
    c = selector_->route(msg.arrival, lane_now_scratch_.data(),
                         lane_busy_scratch_.data(), lane_load_scratch_.data(),
                         config_.message_length + config_.success_overhead);
  }
  Lane& lane = lanes_[c];
  const auto station = static_cast<std::uint32_t>(msg.station);
  lane.stations[station].queue.push_back(msg);
  ++lane.pending;
  activate(lane, station);
  if (config_.capture.series != nullptr) {
    config_.capture.series->add_arrival(msg.arrival, config_.policy.deadline);
  }
  if (config_.capture.flight != nullptr &&
      config_.capture.flight->sampled(msg.arrival, c)) {
    config_.capture.flight->record(msg.arrival,
                                   obs::FlightEventKind::kArrival,
                                   msg.arrival, config_.policy.deadline, c);
    if (selector_) {
      config_.capture.flight->record(msg.arrival,
                                     obs::FlightEventKind::kRoute,
                                     msg.arrival, config_.policy.deadline, c);
    }
  }
  if (msg.arrival >= config_.warmup) ++metrics_.arrivals;
}

void Network::generate_arrivals_until(double t) {
  if (batched_rate_ > 0.0) {
    while (next_batched_arrival() <= t) {
      const BatchedArrival a = batched_block_[batched_pos_++];
      route_message(chan::Message::make(next_msg_id_++,
                                        stations_[a.station].id, a.time,
                                        config_.message_length));
    }
    return;
  }
  for (Station& st : stations_) {
    while (st.next_arrival <= t) {
      route_message(chan::Message::make(
          next_msg_id_++, st.id, st.next_arrival, config_.message_length));
      st.next_arrival = st.arrivals->next(rng_);
    }
  }
}

void Network::purge_expired(Lane& lane, std::uint32_t ch) {
  if (!config_.policy.discard) return;
  const double cutoff = lane.now - config_.policy.deadline;
  const bool windowed_engine = config_.mac.engine.kind == EngineKind::Window;
  const auto expired = [&](const chan::Message& msg) {
    if (msg.arrival >= cutoff) return false;
    ++lane.tally.sender_discards;
    --lane.pending;
    // Attribution (see Lane): the eligibility key is the CURRENT window
    // stamp -- restamped messages are judged by the spans their restamp
    // was probed into, exactly what admission saw.
    if (windowed_engine) {
      if (lane.collided_spans.contains(msg.window_stamp)) {
        ++lane.tally.collision_killed;
      } else {
        ++lane.tally.admission_starved;
      }
    } else if (lane.collided_ids.erase(msg.id) > 0) {
      ++lane.tally.collision_killed;
    } else {
      ++lane.tally.queue_expired;
    }
    if (msg.arrival >= config_.warmup) ++metrics_.lost_sender;
    if (config_.capture.series != nullptr) {
      config_.capture.series->add_discard(lane.now);
    }
    if (config_.capture.flight != nullptr &&
        config_.capture.flight->sampled(msg.arrival, ch)) {
      config_.capture.flight->record(
          lane.now, obs::FlightEventKind::kExpiry, msg.arrival,
          config_.policy.deadline - (lane.now - msg.arrival), ch);
    }
    if (config_.trace != nullptr) {
      config_.trace->record(lane.now, sim::TraceKind::SenderDiscard,
                            msg.arrival);
    }
    return true;
  };
  // Live stamps never drop below the cutoff (stamps only grow from the
  // arrival), so collided spans below it are dead weight -- prune them.
  lane.collided_spans.erase_below(cutoff);
  if (config_.reference_kernel) {
    // Seed-era path: per-element erase, every station scanned.
    for (LaneStation& st : lane.stations) {
      for (auto it = st.queue.begin(); it != st.queue.end();) {
        if (expired(*it)) {
          it = st.queue.erase(it);
        } else {
          ++it;
        }
      }
      if (st.queue.empty()) deactivate(lane, st);
    }
    return;
  }
  if (config_.event_skip) {
    // O(active) sweep: only stations in the active index can hold
    // messages. Visit order differs from station order, but the purge
    // only bumps integer tallies (lost_sender, sender_discards), which
    // commute; traces are excluded from event-skip mode for this reason.
    for (std::size_t i = 0; i < lane.active.size();) {
      LaneStation& st = lane.stations[lane.active[i]];
      st.queue.erase(std::remove_if(st.queue.begin(), st.queue.end(), expired),
                     st.queue.end());
      if (st.queue.empty()) {
        deactivate(lane, st);  // swaps another id into slot i; revisit it
      } else {
        ++i;
      }
    }
    return;
  }
  // One stable sweep per station; station (= trace) order.
  for (LaneStation& st : lane.stations) {
    if (st.queue.empty()) continue;
    st.queue.erase(std::remove_if(st.queue.begin(), st.queue.end(), expired),
                   st.queue.end());
    if (st.queue.empty()) deactivate(lane, st);
  }
}

std::ptrdiff_t Network::eligible_index(const std::vector<chan::Message>& q,
                                        double lo, double hi) {
  for (std::size_t i = 0; i < q.size(); ++i) {
    const double stamp = q[i].window_stamp;
    if (stamp >= hi) break;  // queue is sorted by stamp
    if (stamp >= lo) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

void Network::restamp_stranded(std::vector<chan::Message>& queue, double now,
                                double lo, double hi) {
  // Re-stamp any other messages of this station stranded inside the
  // window that is about to be resolved (see header). Restamps exceed
  // `now` and every other stamp is <= now, so in the (stamp-sorted) queue
  // the stranded run is contiguous and its final home is the back: an
  // O(moved) rotate replaces the seed-era full std::sort.
  double restamp = now;
  std::size_t first = queue.size();
  std::size_t last = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    chan::Message& pending = queue[i];
    if (pending.window_stamp >= lo && pending.window_stamp < hi) {
      restamp += 1e-7;
      pending.window_stamp = restamp;
      first = std::min(first, i);
      last = i;
      ++count;
    }
  }
  if (count == 0) return;
  restamps_ += count;
  if (count == last - first + 1) {
    std::rotate(queue.begin() + static_cast<std::ptrdiff_t>(first),
                queue.begin() + static_cast<std::ptrdiff_t>(last + 1),
                queue.end());
  } else {
    // Unreachable while the sorted-by-stamp invariant holds; keep the
    // seed-era sort as the safety net.
    std::sort(queue.begin(), queue.end(),
              [](const chan::Message& a, const chan::Message& b) {
                return a.window_stamp < b.window_stamp;
              });
  }
}

void Network::check_consistency(Lane& lane) {
  ++checks_run_;
  for (std::size_t i = 1; i < lane.engines.size(); ++i) {
    if (!lane.engines[0]->state_equals(*lane.engines[i])) {
      lane.consistent = false;
      return;
    }
  }
}

bool Network::try_skip_quiescent(Lane& lane) {
  // Certificates need exact +1 slot arithmetic; a fractional clock (odd
  // message lengths) falls back to per-slot stepping.
  if (lane.now != std::floor(lane.now)) return false;
  // Slot t is arrival-free iff t < next_arrival, and simulated iff
  // t < t_end; the skippable span is every slot before the earlier one.
  const double horizon = std::min(next_batched_arrival(), config_.t_end);
  if (horizon <= lane.now) return false;
  const auto max_slots = static_cast<std::uint64_t>(
      std::ceil(std::min(horizon - lane.now, 1e15)));
  if (max_slots == 0) return false;
  const QuiescentStretch stretch =
      lane.engines[0]->quiescent_until(lane.now, max_slots);
  if (stretch.slots == 0) return false;
  // Every replica must issue the identical certificate; otherwise step
  // per-slot, where the audit machinery judges divergence for real.
  for (std::size_t i = 1; i < lane.engines.size(); ++i) {
    if (!(lane.engines[i]->quiescent_until(lane.now, max_slots) == stretch)) {
      return false;
    }
  }
  // A captured series sees the stretch as its closed-form synthesis:
  // add_idle_run is bit-identical to the per-slot path's stretch.slots
  // consecutive add_idle calls at the certified constant backlog (the
  // per-slot path samples backlog_metric, which the certificate pins to
  // stretch.backlog on every skipped slot).
  if (config_.capture.series != nullptr) {
    config_.capture.series->add_idle_run(lane.now, stretch.slots,
                                         stretch.backlog);
  }
  metrics_.add_quiescent_stretch(lane.now, stretch.slots, stretch.backlog,
                                 config_.warmup);
  const std::uint64_t probes_before = lane.tally.probe_slots;
  lane.tally.probe_slots += stretch.slots;
  lane.tally.idle_slots += stretch.slots;
  const std::size_t every = config_.consistency_check_every;
  if (every != 0) {
    // The per-slot path checks at every probe count divisible by `every`.
    // The replicas are untouched during the stretch, so each due check
    // compares the same states: run one and count the rest.
    const std::uint64_t due =
        lane.tally.probe_slots / every - probes_before / every;
    if (due > 0) {
      check_consistency(lane);
      checks_run_ += due - 1;
    }
  }
  const double end = lane.now + static_cast<double>(stretch.slots);
  for (auto& engine : lane.engines) {
    engine->skip_quiescent(end - 1.0, stretch.slots);
  }
  skipped_slots_ += stretch.slots;
  lane.now = end;
  return true;
}

void Network::step_lane(Lane& lane, std::uint32_t ch) {
  const double k = config_.policy.deadline;
  const bool reference = config_.reference_kernel;
  obs::SlotSeries* const series = config_.capture.series;
  obs::FlightRecorder::Segment* const flight = config_.capture.flight;
  sim::TraceLog* const trace = config_.trace;
  // The series' backlog track samples the engine's backlog estimate: the
  // same quantity the event-skip certificates pin, so per-slot and
  // event-skip runs produce byte-identical series.
  const auto backlog_now = [&] {
    return lane.engines[0]->backlog_metric(lane.now);
  };
  generate_arrivals_until(lane.now);
  if (config_.event_skip && lane.active.empty() && lane.consistent &&
      try_skip_quiescent(lane)) {
    return;
  }
  const bool was_in_process = lane.engines[0]->in_process();
  // Every replica runs the same algorithm on the same feedback; the
  // canonical one (index 0) is authoritative, the shadows are audited.
  // Once a shadow diverges (caught here when it disagrees about the slot
  // plan, or by check_consistency on full state) auditing stops: a
  // replica outside lockstep cannot keep consuming shared feedback.
  const bool audit = lane.consistent;
  const SlotPlan plan = lane.engines[0]->next_slot(lane.now);
  if (audit) {
    for (std::size_t i = 1; i < lane.engines.size(); ++i) {
      if (!(lane.engines[i]->next_slot(lane.now) == plan)) {
        lane.consistent = false;
      }
    }
  }
  const bool step_shadows = audit && lane.consistent;
  const auto apply_feedback = [&](core::Feedback fb) {
    lane.engines[0]->on_feedback(fb);
    if (step_shadows) {
      for (std::size_t i = 1; i < lane.engines.size(); ++i) {
        lane.engines[i]->on_feedback(fb);
      }
    }
  };
  ++lane.tally.probe_slots;
  if (!was_in_process) {
    purge_expired(lane, ch);
    if (lane.now >= config_.warmup) {
      metrics_.pseudo_backlog.add(lane.engines[0]->backlog_metric(lane.now));
    }
  }
  if (config_.consistency_check_every != 0 &&
      lane.tally.probe_slots % config_.consistency_check_every == 0) {
    check_consistency(lane);
  }
  if (plan.kind == SlotPlan::Kind::Idle) {
    metrics_.usage.add_idle_slot();
    ++lane.tally.idle_slots;
    if (series != nullptr) series->add_idle(lane.now, backlog_now());
    lane.now += 1.0;
    return;
  }
  const bool windowed = plan.kind == SlotPlan::Kind::Window;
  const auto probes_so_far =
      static_cast<double>(lane.engines[0]->process_probes());

  // Who transmits in this probe slot? Only stations holding messages can.
  // Window plans probe an arrival-time interval (the incrementally
  // maintained active index skips empty queues, and two eligible stations
  // already decide a collision); Probability plans flip an engine-id-keyed
  // coin per backlogged station, every coin drawn in station-id order so
  // the stream stays aligned regardless of outcome.
  LaneStation* transmitter = nullptr;
  std::ptrdiff_t tx_index = -1;
  std::size_t tx_count = 0;
  if (!windowed) {
    lane.tx_scratch.clear();
    for (LaneStation& st : lane.stations) {
      if (st.queue.empty()) continue;
      if (sim::bernoulli(lane.coin_rng, plan.tx_prob)) {
        ++tx_count;
        lane.tx_scratch.emplace_back(st.queue.front().id,
                                     st.queue.front().arrival);
        if (transmitter == nullptr) {
          transmitter = &st;
          tx_index = 0;  // ALOHA stations send their oldest message
        }
      }
    }
  } else if (reference) {
    for (LaneStation& st : lane.stations) {
      const std::ptrdiff_t idx =
          eligible_index(st.queue, plan.window.lo, plan.window.hi);
      if (idx >= 0) {
        ++tx_count;
        transmitter = &st;
        tx_index = idx;
      }
    }
  } else {
    for (const std::uint32_t id : lane.active) {
      LaneStation& st = lane.stations[id];
      const std::ptrdiff_t idx =
          eligible_index(st.queue, plan.window.lo, plan.window.hi);
      if (idx >= 0) {
        ++tx_count;
        transmitter = &st;
        tx_index = idx;
        if (tx_count == 2) break;  // collision decided
      }
    }
  }

  if (tx_count == 0) {
    metrics_.usage.add_idle_slot();
    ++lane.tally.idle_slots;
    if (series != nullptr) series->add_idle(lane.now, backlog_now());
    if (trace != nullptr && windowed) {
      trace->record(lane.now, sim::TraceKind::ProbeIdle, plan.window.lo,
                    plan.window.hi);
    }
    apply_feedback(core::Feedback::Idle);
    if (!lane.engines[0]->in_process() && lane.now >= config_.warmup) {
      metrics_.process_slots.add(probes_so_far);
    }
    lane.now += 1.0;
  } else if (tx_count == 1) {
    ++lane.tally.successes;
    auto& queue = transmitter->queue;
    const chan::Message msg = queue[static_cast<std::size_t>(tx_index)];
    queue.erase(queue.begin() + tx_index);
    --lane.pending;
    const double wait = lane.now - msg.arrival;
    if (!windowed) lane.collided_ids.erase(msg.id);
    if (series != nullptr) {
      series->add_success(lane.now, k - wait, backlog_now());
    }
    if (flight != nullptr && flight->sampled(msg.arrival, ch)) {
      flight->record(lane.now, obs::FlightEventKind::kAdmit, msg.arrival,
                     k - wait, ch);
      flight->record(lane.now, obs::FlightEventKind::kSuccess, msg.arrival,
                     k - wait, ch);
    }
    if (trace != nullptr) {
      trace->record(lane.now, sim::TraceKind::Transmission, msg.arrival);
      if (wait > k) {
        trace->record(lane.now, sim::TraceKind::LateAtReceiver, msg.arrival);
      }
    }
    if (msg.arrival >= config_.warmup) {
      metrics_.wait_all.add(wait);
      metrics_.wait_p50.add(wait);
      metrics_.wait_p90.add(wait);
      metrics_.wait_p99.add(wait);
      if (metrics_.wait_hist_enabled) metrics_.wait_hist.add(wait);
      metrics_.scheduling.add(lane.now -
                              std::max(msg.arrival, lane.last_tx_end));
      if (wait <= k) {
        ++metrics_.delivered;
        metrics_.wait_delivered.add(wait);
      } else {
        ++metrics_.lost_receiver;
      }
    }
    if (lane.now >= config_.warmup) metrics_.process_slots.add(probes_so_far);
    metrics_.usage.add_success(config_.message_length,
                               config_.success_overhead);
    if (!windowed) {
      // No window resolved, so nothing is stranded; ALOHA queues stay
      // arrival-ordered on their own.
      if (queue.empty()) deactivate(lane, *transmitter);
    } else if (reference) {
      // Seed-era path: restamp by full scan, then re-sort the queue.
      double restamp = lane.now;
      for (auto& pending : queue) {
        if (pending.window_stamp >= plan.window.lo &&
            pending.window_stamp < plan.window.hi) {
          restamp += 1e-7;
          pending.window_stamp = restamp;
          ++restamps_;
        }
      }
      std::sort(queue.begin(), queue.end(),
                [](const chan::Message& a, const chan::Message& b) {
                  return a.window_stamp < b.window_stamp;
                });
    } else {
      restamp_stranded(queue, lane.now, plan.window.lo, plan.window.hi);
      if (queue.empty()) deactivate(lane, *transmitter);
    }
    apply_feedback(core::Feedback::Success);
    lane.last_tx_end =
        lane.now + config_.message_length + config_.success_overhead;
    lane.now = lane.last_tx_end;
  } else {
    metrics_.usage.add_collision_slot();
    ++lane.tally.collisions;
    // Attribution bookkeeping: remember what collided. Only useful when
    // discards can happen (the sets are otherwise never consulted and
    // would grow unpruned).
    if (config_.policy.discard) {
      if (windowed) {
        lane.collided_spans.insert(plan.window.lo, plan.window.hi);
      } else {
        for (const auto& [id, arrival] : lane.tx_scratch) {
          lane.collided_ids.insert(id);
        }
      }
    }
    if (series != nullptr) series->add_collision(lane.now, backlog_now());
    if (flight != nullptr) {
      if (windowed) {
        // The eligibility scan resolves the identity of the last eligible
        // message found; its flight track carries the collision.
        const chan::Message& msg =
            transmitter->queue[static_cast<std::size_t>(tx_index)];
        if (flight->sampled(msg.arrival, ch)) {
          flight->record(lane.now, obs::FlightEventKind::kAdmit, msg.arrival,
                         k - (lane.now - msg.arrival), ch);
          flight->record(lane.now, obs::FlightEventKind::kCollision,
                         msg.arrival, k - (lane.now - msg.arrival), ch);
        }
      } else {
        for (const auto& [id, arrival] : lane.tx_scratch) {
          if (!flight->sampled(arrival, ch)) continue;
          flight->record(lane.now, obs::FlightEventKind::kAdmit, arrival,
                         k - (lane.now - arrival), ch);
          flight->record(lane.now, obs::FlightEventKind::kCollision, arrival,
                         k - (lane.now - arrival), ch);
        }
      }
    }
    if (trace != nullptr && windowed) {
      trace->record(lane.now, sim::TraceKind::ProbeCollision, plan.window.lo,
                    plan.window.hi);
    }
    apply_feedback(core::Feedback::Collision);
    lane.now += 1.0;
  }
}

const SimMetrics& Network::run() {
  TCW_EXPECTS(!finished_);
  TCW_EXPECTS(!stations_.empty());
  const bool single_channel = config_.mac.channel.channels == 1;
  if (config_.event_skip) {
    // The skip certificates only hold on the schedule-independent batched
    // stream and one lane, produce no per-slot trace events, and
    // canonicalize replica state (so a desync injection must be audited
    // per-slot).
    TCW_EXPECTS(batched_rate_ > 0.0);
    TCW_EXPECTS(single_channel);
    TCW_EXPECTS(!config_.reference_kernel);
    TCW_EXPECTS(config_.trace == nullptr);
    TCW_EXPECTS(desync_replica_ == SIZE_MAX);
  }
  // The desync test hook audits lane 0 only, so it needs C = 1.
  TCW_EXPECTS(single_channel || desync_replica_ == SIZE_MAX);

  build_lanes();
  if (desync_replica_ != SIZE_MAX) {
    std::vector<std::unique_ptr<ProtocolEngine>>& engines = lanes_[0].engines;
    TCW_EXPECTS(engines.size() >= 2);  // see desync_replica_for_test
    TCW_EXPECTS(desync_replica_ < engines.size());
    // One out-of-band probe round nobody else sees: the replica resolves
    // an interval (or, for ALOHA engines, consumes a feedback) the rest
    // of the network never observed.
    ProtocolEngine& rogue = *engines[desync_replica_];
    if (rogue.next_slot(1.0).probes()) rogue.on_feedback(core::Feedback::Idle);
  }

  for (;;) {
    std::size_t li = 0;
    for (std::size_t c = 1; c < lanes_.size(); ++c) {
      if (lanes_[c].now < lanes_[li].now) li = c;
    }
    if (lanes_[li].now >= config_.t_end) break;
    step_lane(lanes_[li], static_cast<std::uint32_t>(li));
  }
  finalize();
  finished_ = true;
  return metrics_;
}

void Network::finalize() {
  const double k = config_.policy.deadline;
  obs::ChannelTally total;
  for (std::size_t c = 0; c < lanes_.size(); ++c) {
    Lane& lane = lanes_[c];
    for (const LaneStation& st : lane.stations) {
      for (const chan::Message& msg : st.queue) {
        if (msg.arrival < config_.warmup) continue;
        if (lane.now - msg.arrival > k) {
          ++metrics_.censored_lost;
        } else {
          ++metrics_.pending_at_end;
        }
      }
    }
    if (config_.consistency_check_every != 0) check_consistency(lane);
    total += lane.tally;
    if (selector_) {
      obs::flush_channel_tally("net.network", static_cast<std::uint32_t>(c),
                               lane.tally);
    }
  }
  NetworkCounters& counters = network_counters();
  counters.runs.add(1);
  counters.probe_slots.add(total.probe_slots);
  counters.idle_slots.add(total.idle_slots);
  counters.collisions.add(total.collisions);
  counters.successes.add(total.successes);
  counters.sender_discards.add(total.sender_discards);
  counters.restamps.add(restamps_);
  counters.consistency_checks.add(checks_run_);
  counters.skipped_slots.add(skipped_slots_);
}

}  // namespace tcw::net
