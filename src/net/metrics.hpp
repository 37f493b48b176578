// Per-run output metrics shared by the aggregate and finite-station
// simulators.
#pragma once

#include <cstdint>

#include "chan/channel.hpp"
#include "sim/histogram.hpp"
#include "sim/quantile.hpp"
#include "sim/stats.hpp"

namespace tcw::net {

struct SimMetrics {
  // Message accounting (post-warmup messages only).
  std::uint64_t arrivals = 0;        // messages counted toward the run
  std::uint64_t delivered = 0;       // transmitted with true wait <= K
  std::uint64_t lost_sender = 0;     // discarded by element (4)
  std::uint64_t lost_receiver = 0;   // transmitted too late (true wait > K)
  std::uint64_t censored_lost = 0;   // still queued at end but already > K
  std::uint64_t pending_at_end = 0;  // still queued, fate unknown

  // True waiting time (arrival -> start of own successful transmission)
  // of every transmitted message, and of delivered messages only.
  sim::RunningStats wait_all;
  sim::RunningStats wait_delivered;

  // Streaming quantiles of the true wait of transmitted messages.
  sim::P2Quantile wait_p50{0.5};
  sim::P2Quantile wait_p90{0.9};
  sim::P2Quantile wait_p99{0.99};

  // Scheduling-time component per transmitted message (paper Section 4
  // definition: from max(arrival, end of previous transmission) to own
  // transmission start).
  sim::RunningStats scheduling;

  // Probe slots consumed per windowing process (incl. empty processes).
  // Run-length buffered, so a quiescent stretch of n one-probe empty
  // processes is recorded in O(1) with the bits of n single samples.
  sim::RunLengthStats process_slots;

  // Pseudo-time backlog sampled at each process start (run-length
  // buffered like process_slots).
  sim::RunLengthStats pseudo_backlog;

  // How channel time was spent.
  chan::ChannelUsage usage;

  // Delay (true wait) histogram of transmitted messages, in slots.
  sim::Histogram wait_hist{0.0, 1.0, 1};
  bool wait_hist_enabled = false;

  /// Messages with a decided fate (denominator of the loss estimate).
  std::uint64_t decided() const {
    return delivered + lost_sender + lost_receiver + censored_lost;
  }

  /// Fraction of messages lost: the paper's primary performance measure.
  double p_loss() const {
    const std::uint64_t d = decided();
    if (d == 0) return 0.0;
    return static_cast<double>(lost_sender + lost_receiver + censored_lost) /
           static_cast<double>(d);
  }

  /// Record a certified quiescent stretch in O(1): `slots` idle slots from
  /// the integer clock `start`, each an empty one-probe process started at
  /// pseudo-time backlog `backlog`; the slots at or after `warmup` feed
  /// pseudo_backlog and process_slots. The same bits as the per-slot path.
  void add_quiescent_stretch(double start, std::uint64_t slots,
                             double backlog, double warmup);

  /// Normal-approximation 95% half-width for p_loss (iid approximation;
  /// use replications for publication-grade intervals).
  double p_loss_ci95() const;
};

}  // namespace tcw::net
