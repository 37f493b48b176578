#include "net/aggregate_sim.hpp"

#include <algorithm>
#include <cmath>

#include "obs/registry.hpp"
#include "sim/sampling.hpp"
#include "util/contract.hpp"

namespace tcw::net {

namespace {

struct AggregateCounters {
  obs::Counter runs;
  obs::Counter probe_slots;
  obs::Counter idle_slots;
  obs::Counter collisions;
  obs::Counter successes;
  obs::Counter sender_discards;
  obs::Counter chunks_allocated;
  obs::Counter chunks_released;
};

AggregateCounters& aggregate_counters() {
  static AggregateCounters counters{
      obs::Registry::global().counter("net.aggregate.runs"),
      obs::Registry::global().counter("net.aggregate.probe_slots"),
      obs::Registry::global().counter("net.aggregate.idle_slots"),
      obs::Registry::global().counter("net.aggregate.collisions"),
      obs::Registry::global().counter("net.aggregate.successes"),
      obs::Registry::global().counter("net.aggregate.sender_discards"),
      obs::Registry::global().counter("net.aggregate.chunks_allocated"),
      obs::Registry::global().counter("net.aggregate.chunks_released"),
  };
  return counters;
}

}  // namespace

AggregateSimulator::AggregateSimulator(
    const AggregateConfig& config,
    std::unique_ptr<chan::ArrivalProcess> arrivals)
    : config_(config), arrivals_(std::move(arrivals)), rng_(config.seed) {
  TCW_EXPECTS(arrivals_ != nullptr);
  // A non-finite t_end never ends the slot loop; a non-finite message
  // length, overhead or jitter turns the clock into NaN/inf and silently
  // truncates the run.
  TCW_EXPECTS(std::isfinite(config_.t_end));
  TCW_EXPECTS(config_.t_end > config_.warmup);
  TCW_EXPECTS(std::isfinite(config_.message_length));
  TCW_EXPECTS(config_.message_length >= 1.0);
  TCW_EXPECTS(std::isfinite(config_.success_overhead));
  TCW_EXPECTS(config_.success_overhead >= 0.0);
  TCW_EXPECTS(std::isfinite(config_.slot_jitter));
  TCW_EXPECTS(config_.slot_jitter >= 0.0);
  const ChannelPlan& plan = config_.mac.channel;
  TCW_EXPECTS(plan.channels >= 1);
  TCW_EXPECTS(plan.skew >= 0.0 && plan.skew < 1.0);
  // Trace records carry no channel field; tracing is a single-channel
  // debugging surface.
  TCW_EXPECTS(config_.trace == nullptr || plan.channels == 1);
  if (config_.record_wait_histogram) {
    const double hi = config_.wait_hist_max > 0.0
                          ? config_.wait_hist_max
                          : std::max(2.0 * config_.policy.deadline, 1.0);
    metrics_.wait_hist = sim::Histogram(0.0, hi, config_.wait_hist_bins);
    metrics_.wait_hist_enabled = true;
  }
  const EngineConfig& ecfg = config_.mac.engine;
  const std::uint64_t coin_base = engine_coin_seed(ecfg.kind, config_.seed);
  lanes_.resize(plan.channels);
  for (std::uint32_t c = 0; c < plan.channels; ++c) {
    // Lane 0 runs on the raw seeds (channel_stream_seed is the identity
    // there), so C = 1 runs are bit-identical to the single-channel
    // kernel; lanes c > 0 get derived, non-aliasing streams.
    core::ControlPolicy lane_policy = config_.policy;
    lane_policy.shared_seed =
        channel_stream_seed(config_.policy.shared_seed, c);
    lanes_[c].engine = make_engine(ecfg, lane_policy);
    lanes_[c].coin_rng = sim::Rng(channel_stream_seed(coin_base, c));
  }
  if (plan.channels > 1) {
    selector_.emplace(plan, config_.seed);
    lane_now_scratch_.resize(plan.channels);
    lane_busy_scratch_.resize(plan.channels);
    lane_load_scratch_.resize(plan.channels);
  }
  next_arrival_ = arrivals_->next(rng_);
}

std::uint32_t AggregateSimulator::route_arrival(double arrival) {
  for (std::size_t c = 0; c < lanes_.size(); ++c) {
    const Lane& lane = lanes_[c];
    lane_now_scratch_[c] = lane.now;
    lane_busy_scratch_[c] = lane.last_tx_end;
    lane_load_scratch_[c] = config_.reference_kernel
                                ? lane.pending_set.size()
                                : lane.pending.size();
  }
  return selector_->route(arrival, lane_now_scratch_.data(),
                          lane_busy_scratch_.data(),
                          lane_load_scratch_.data(),
                          config_.message_length + config_.success_overhead);
}

void AggregateSimulator::generate_arrivals_until(double t) {
  while (!arrivals_exhausted_ && next_arrival_ <= t) {
    const std::uint32_t ch =
        lanes_.size() == 1 ? 0 : route_arrival(next_arrival_);
    Lane& lane = lanes_[ch];
    if (config_.reference_kernel) {
      lane.pending_set.insert(next_arrival_);
    } else {
      lane.pending.push_back(next_arrival_);  // arrivals strictly increase
    }
    if (config_.capture.series != nullptr) {
      config_.capture.series->add_arrival(next_arrival_,
                                          config_.policy.deadline);
    }
    if (config_.capture.flight != nullptr &&
        config_.capture.flight->sampled(next_arrival_, ch)) {
      config_.capture.flight->record(next_arrival_,
                                     obs::FlightEventKind::kArrival,
                                     next_arrival_, config_.policy.deadline,
                                     ch);
      if (lanes_.size() > 1) {
        config_.capture.flight->record(next_arrival_,
                                       obs::FlightEventKind::kRoute,
                                       next_arrival_, config_.policy.deadline,
                                       ch);
      }
    }
    if (next_arrival_ >= config_.warmup) ++metrics_.arrivals;
    const double nxt = arrivals_->next(rng_);
    TCW_ASSERT(nxt > next_arrival_);
    next_arrival_ = nxt;
  }
}

double AggregateSimulator::now() const {
  double latest = lanes_[0].now;
  for (const Lane& lane : lanes_) latest = std::max(latest, lane.now);
  return latest;
}

std::uint64_t AggregateSimulator::probe_steps() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.tally.probe_slots;
  return total;
}

std::vector<obs::ChannelTally> AggregateSimulator::channel_tallies() const {
  std::vector<obs::ChannelTally> tallies;
  tallies.reserve(lanes_.size());
  for (const Lane& lane : lanes_) tallies.push_back(lane.tally);
  return tallies;
}

void AggregateSimulator::purge_discarded(Lane& lane, std::uint32_t ch) {
  // Everything below the engine's discard floor is resolved; with element
  // (4) active the only way an untransmitted arrival ends up there is
  // sender discard. Without discard the floor never passes an
  // untransmitted arrival (window processes only resolve verified-empty
  // or transmitted spans; ALOHA engines report no floor at all). Lanes
  // step in argmin-clock order, so every arrival at or below this lane's
  // clock is already routed -- the invariant holds per lane.
  const double floor = lane.engine->discard_floor(lane.now);
  const auto discard_one = [&](double arrival) {
    TCW_ASSERT(config_.policy.discard);
    ++lane.tally.sender_discards;
    // Attribution: an arrival inside a collided window span reached the
    // channel and lost; one the controller never probed into a collision
    // was starved of admission. (Only the window engine has a discard
    // floor here, so queue_expired stays zero in this kernel.)
    if (lane.collided_spans.contains(arrival)) {
      ++lane.tally.collision_killed;
    } else {
      ++lane.tally.admission_starved;
    }
    if (arrival >= config_.warmup) ++metrics_.lost_sender;
    if (config_.capture.series != nullptr) {
      config_.capture.series->add_discard(lane.now);
    }
    if (config_.capture.flight != nullptr &&
        config_.capture.flight->sampled(arrival, ch)) {
      config_.capture.flight->record(
          lane.now, obs::FlightEventKind::kExpiry, arrival,
          config_.policy.deadline - (lane.now - arrival), ch);
    }
    if (config_.trace != nullptr) {
      config_.trace->record(lane.now, sim::TraceKind::SenderDiscard, arrival);
    }
  };
  if (config_.reference_kernel) {
    auto it = lane.pending_set.begin();
    while (it != lane.pending_set.end() && *it < floor) {
      discard_one(*it);
      it = lane.pending_set.erase(it);
    }
  } else {
    while (!lane.pending.empty() && lane.pending.front() < floor) {
      discard_one(lane.pending.front());
      lane.pending.pop_front();  // a prefix purge in the flat structure
    }
  }
  // Spans below the floor can never be consulted again (arrival stamps
  // only grow); prune them so the attribution set stays tiny.
  lane.collided_spans.erase_below(floor);
}

std::size_t AggregateSimulator::count_in_window(Lane& lane, double lo,
                                                double hi, double* first) {
  std::size_t count = 0;
  if (config_.reference_kernel) {
    lane.found_it = lane.pending_set.lower_bound(lo);
    auto it = lane.found_it;
    while (it != lane.pending_set.end() && *it < hi && count < 2) {
      ++count;
      ++it;
    }
    if (count > 0) *first = *lane.found_it;
  } else {
    lane.found_pos = lane.pending.lower_bound(lo);
    auto pos = lane.found_pos;
    while (!lane.pending.is_end(pos) && lane.pending.at(pos) < hi &&
           count < 2) {
      ++count;
      pos = lane.pending.next(pos);
    }
    if (count > 0) *first = lane.pending.at(lane.found_pos);
  }
  return count;
}

std::size_t AggregateSimulator::count_transmitters(Lane& lane, double p,
                                                   double* first) {
  // The flight recorder needs the full transmitter list to attach
  // collision events to sampled packets; collecting it is gated on the
  // segment so the uncaptured hot path stays allocation-free.
  const bool collect = config_.capture.flight != nullptr;
  if (collect) lane.tx_scratch.clear();
  std::size_t count = 0;
  if (config_.reference_kernel) {
    for (auto it = lane.pending_set.begin(); it != lane.pending_set.end();
         ++it) {
      if (sim::bernoulli(lane.coin_rng, p)) {
        ++count;
        if (collect) lane.tx_scratch.push_back(*it);
        if (count == 1) {
          lane.found_it = it;
          *first = *it;
        }
      }
    }
  } else {
    for (auto pos = lane.pending.begin_pos(); !lane.pending.is_end(pos);
         pos = lane.pending.next(pos)) {
      if (sim::bernoulli(lane.coin_rng, p)) {
        ++count;
        if (collect) lane.tx_scratch.push_back(lane.pending.at(pos));
        if (count == 1) {
          lane.found_pos = pos;
          *first = lane.pending.at(pos);
        }
      }
    }
  }
  return count;
}

void AggregateSimulator::erase_transmitted(Lane& lane) {
  if (config_.reference_kernel) {
    lane.pending_set.erase(lane.found_it);
  } else {
    lane.pending.erase(lane.found_pos);
  }
}

const SimMetrics& AggregateSimulator::run() {
  TCW_EXPECTS(!finished_);
  for (;;) {
    // The lane with the minimum clock steps next (ties to the lowest
    // index). With one lane this is the plain single-channel loop.
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

void AggregateSimulator::step_lane(Lane& lane, std::uint32_t ch) {
  const double k = config_.policy.deadline;
  generate_arrivals_until(lane.now);
  ProtocolEngine& engine = *lane.engine;
  const bool was_in_process = engine.in_process();
  const SlotPlan plan = engine.next_slot(lane.now);
  const bool windowed = plan.kind == SlotPlan::Kind::Window;
  obs::SlotSeries* const series = config_.capture.series;
  obs::FlightRecorder::Segment* const flight = config_.capture.flight;
  // The series' backlog track samples the lane's actual queue depth.
  const auto queued = [&] {
    return static_cast<double>(config_.reference_kernel
                                   ? lane.pending_set.size()
                                   : lane.pending.size());
  };
  if (!was_in_process) {
    // A fresh process start (possibly degenerate): element (4) discards
    // happened inside the engine; drop the matching messages.
    if (config_.trace != nullptr && windowed) {
      config_.trace->record(lane.now, sim::TraceKind::ProcessStart,
                            plan.window.lo, plan.window.hi);
    }
    purge_discarded(lane, ch);
    if (lane.now >= config_.warmup) {
      metrics_.pseudo_backlog.add(engine.backlog_metric(lane.now));
    }
  }
  if (plan.kind == SlotPlan::Kind::Idle) {
    metrics_.usage.add_idle_slot();
    ++lane.tally.idle_slots;
    if (series != nullptr) series->add_idle(lane.now, queued());
    lane.now += step_duration(1.0);
    return;
  }
  ++lane.tally.probe_slots;
  const auto probes_so_far = static_cast<double>(engine.process_probes());

  // Count transmitters this slot: pending arrivals inside the probe
  // window, or coin flips across the whole backlog for ALOHA plans.
  double first_arrival = 0.0;
  const std::size_t count =
      windowed ? count_in_window(lane, plan.window.lo, plan.window.hi,
                                 &first_arrival)
               : count_transmitters(lane, plan.tx_prob, &first_arrival);

  if (count == 0) {
    metrics_.usage.add_idle_slot();
    ++lane.tally.idle_slots;
    if (series != nullptr) series->add_idle(lane.now, queued());
    if (config_.trace != nullptr && windowed) {
      config_.trace->record(lane.now, sim::TraceKind::ProbeIdle,
                            plan.window.lo, plan.window.hi);
    }
    engine.on_feedback(core::Feedback::Idle);
    if (!engine.in_process() && lane.now >= config_.warmup) {
      metrics_.process_slots.add(probes_so_far);  // empty process
    }
    lane.now += step_duration(1.0);
  } else if (count == 1) {
    ++lane.tally.successes;
    const double arrival = first_arrival;
    erase_transmitted(lane);
    const double wait = lane.now - arrival;  // true waiting time
    if (series != nullptr) series->add_success(lane.now, k - wait, queued());
    if (flight != nullptr && flight->sampled(arrival, ch)) {
      flight->record(lane.now, obs::FlightEventKind::kAdmit, arrival,
                     k - wait, ch);
      flight->record(lane.now, obs::FlightEventKind::kSuccess, arrival,
                     k - wait, ch);
    }
    if (config_.trace != nullptr) {
      config_.trace->record(lane.now, sim::TraceKind::Transmission, arrival);
      if (wait > k) {
        config_.trace->record(lane.now, sim::TraceKind::LateAtReceiver,
                              arrival);
      }
    }
    const bool counted = arrival >= config_.warmup;
    if (counted) {
      metrics_.wait_all.add(wait);
      metrics_.wait_p50.add(wait);
      metrics_.wait_p90.add(wait);
      metrics_.wait_p99.add(wait);
      if (metrics_.wait_hist_enabled) metrics_.wait_hist.add(wait);
      metrics_.scheduling.add(lane.now - std::max(arrival, lane.last_tx_end));
      if (wait <= k) {
        ++metrics_.delivered;
        metrics_.wait_delivered.add(wait);
      } else {
        ++metrics_.lost_receiver;
      }
    }
    if (lane.now >= config_.warmup) {
      metrics_.process_slots.add(probes_so_far);
    }
    metrics_.usage.add_success(config_.message_length,
                               config_.success_overhead);
    engine.on_feedback(core::Feedback::Success);
    lane.last_tx_end = lane.now + step_duration(config_.message_length +
                                                config_.success_overhead);
    lane.now = lane.last_tx_end;
  } else {
    metrics_.usage.add_collision_slot();
    ++lane.tally.collisions;
    // Attribution: remember that this window span collided -- any of its
    // arrivals that the floor later drops was collision_killed.
    if (windowed) {
      lane.collided_spans.insert(plan.window.lo, plan.window.hi);
    }
    if (series != nullptr) series->add_collision(lane.now, queued());
    if (flight != nullptr) {
      if (windowed) {
        // The infinite-population window probe resolves only the oldest
        // eligible arrival's identity; its flight track carries the
        // collision.
        if (flight->sampled(first_arrival, ch)) {
          flight->record(lane.now, obs::FlightEventKind::kAdmit,
                         first_arrival, k - (lane.now - first_arrival), ch);
          flight->record(lane.now, obs::FlightEventKind::kCollision,
                         first_arrival, k - (lane.now - first_arrival), ch);
        }
      } else {
        for (const double arrival : lane.tx_scratch) {
          if (!flight->sampled(arrival, ch)) continue;
          flight->record(lane.now, obs::FlightEventKind::kAdmit, arrival,
                         k - (lane.now - arrival), ch);
          flight->record(lane.now, obs::FlightEventKind::kCollision, arrival,
                         k - (lane.now - arrival), ch);
        }
      }
    }
    if (config_.trace != nullptr && windowed) {
      config_.trace->record(lane.now, sim::TraceKind::ProbeCollision,
                            plan.window.lo, plan.window.hi);
    }
    engine.on_feedback(core::Feedback::Collision);
    lane.now += step_duration(1.0);
  }
}

double AggregateSimulator::step_duration(double base) {
  if (config_.slot_jitter <= 0.0) return base;
  return base + sim::uniform(rng_, 0.0, config_.slot_jitter);
}

void AggregateSimulator::finalize() {
  const double k = config_.policy.deadline;
  obs::ChannelTally total;
  std::uint64_t chunks_allocated = 0;
  std::uint64_t chunks_released = 0;
  for (std::size_t c = 0; c < lanes_.size(); ++c) {
    Lane& lane = lanes_[c];
    const auto account = [&](double arrival) {
      if (arrival < config_.warmup) return;
      if (lane.now - arrival > k) {
        ++metrics_.censored_lost;  // still queued but already past deadline
      } else {
        ++metrics_.pending_at_end;
      }
    };
    if (config_.reference_kernel) {
      for (const double arrival : lane.pending_set) account(arrival);
    } else {
      lane.pending.for_each(account);
    }
    total += lane.tally;
    chunks_allocated += lane.pending.chunks_allocated();
    chunks_released += lane.pending.chunks_released();
    if (lanes_.size() > 1) {
      obs::flush_channel_tally("net.aggregate",
                               static_cast<std::uint32_t>(c), lane.tally);
    }
  }

  AggregateCounters& counters = aggregate_counters();
  counters.runs.add(1);
  counters.probe_slots.add(total.probe_slots);
  counters.idle_slots.add(total.idle_slots);
  counters.collisions.add(total.collisions);
  counters.successes.add(total.successes);
  counters.sender_discards.add(total.sender_discards);
  counters.chunks_allocated.add(chunks_allocated);
  counters.chunks_released.add(chunks_released);
}

}  // namespace tcw::net
