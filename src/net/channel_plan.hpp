// The multi-channel ("frequency-sharded") channel model: a ChannelPlan
// generalizes the paper's single slotted broadcast channel to C >= 1
// parallel channels, each running its own MAC engine instance, with
// channel *selection* as a pluggable policy element alongside the MAC
// discipline (cf. the Markovian multi-channel ALOHA framing of Koenig &
// Shafigh, arXiv:2212.08588, and the deadline-aware channel selection in
// Guersu et al., arXiv:1903.11320).
//
// Selection happens once, at arrival time: a message is routed to one
// channel and contends there until success, discard, or expiry. Four
// selectors ship:
//   * HashShard     -- static sharding: a stateless hash of the global
//                      arrival index picks the channel (no RNG draws, so
//                      C = 1 consumes nothing from any stream)
//   * UniformRandom -- an i.i.d. pick per arrival from a dedicated
//                      derived seed plane (channel_selector_seed), never
//                      the arrival or coin streams
//   * LeastLoaded   -- the channel with the fewest pending messages
//                      (ties to the lowest index)
//   * DeadlineHop   -- the channel with the earliest estimated service
//                      completion for this arrival: busy-horizon plus
//                      queue-drain estimate, the greedy deadline-aware hop
// HashShard and UniformRandom honour `skew` (geometrically weighted
// shard map) so studies can load channels unevenly on purpose.
//
// Determinism contract: given the plan, the sim seed, and the sequence of
// (arrival, lane clocks, lane loads) queries, routing is a pure function.
// With channels == 1 the selector is never consulted and no selector
// stream is ever created, so single-channel runs are bit-identical to the
// pre-multichannel kernels.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace tcw::net {

/// Registered channel-selection policies. The numeric value is the
/// selector's stable id, folded into config fingerprints -- append only,
/// never renumber.
enum class ChannelSelectorKind : std::uint8_t {
  HashShard = 0,
  UniformRandom = 1,
  LeastLoaded = 2,
  DeadlineHop = 3,
};

std::string to_string(ChannelSelectorKind kind);

/// Parse a selector name, case-insensitively ("hash-shard", "HASH-SHARD",
/// ...). Returns false (and leaves *out untouched) for anything else.
bool channel_selector_from_string(const std::string& name,
                                  ChannelSelectorKind* out);

/// The valid selector names, comma-separated, for error messages.
std::string channel_selector_names();

/// How many channels the kernel runs and how arrivals pick one.
struct ChannelPlan {
  std::uint32_t channels = 1;
  ChannelSelectorKind selector = ChannelSelectorKind::HashShard;
  /// Shard-map skew in [0, 1) for HashShard / UniformRandom: channel c
  /// gets weight (1 - skew)^c before normalization. 0 is uniform.
  double skew = 0.0;

  /// True for the single-channel default every pre-multichannel config
  /// maps to (the bit-identical compatibility configuration).
  bool single_default() const {
    return channels == 1 && selector == ChannelSelectorKind::HashShard &&
           skew == 0.0;
  }

  friend bool operator==(const ChannelPlan&, const ChannelPlan&) = default;
};

/// The per-channel plane of a base stream seed: channel 0 is the identity
/// (the pre-multichannel stream -- C = 1 bit-identity), channel c > 0
/// derives a fresh stream on a (hi, lo) coordinate pair no other consumer
/// occupies (engine streams use small hi, coin streams lo = 0xC0114,
/// batched arrivals (0xBA7C4ED, 0xA221), sweep shards small (hi, lo)).
std::uint64_t channel_stream_seed(std::uint64_t base, std::uint32_t channel);

/// The dedicated seed plane UniformRandom selector draws run on. Distinct
/// from every engine, coin, batched-arrival, shard, and channel stream.
std::uint64_t channel_selector_seed(std::uint64_t sim_seed);

/// Deterministic routing state for one simulation run. Both kernels (and
/// the test reference steppers) route through this class, so a given
/// (plan, seed, query sequence) yields the same channel everywhere.
class ChannelSelector {
 public:
  ChannelSelector(const ChannelPlan& plan, std::uint64_t sim_seed);

  /// Route one arrival. `lane_now` / `lane_busy_until` / `lane_load` are
  /// per-channel views supplied by the kernel: the lane slot clock, the
  /// instant the lane's current transmission ends, and the pending-message
  /// count. `service` is the slots one successful transmission occupies
  /// (message length + success overhead), the DeadlineHop drain estimate.
  /// Must not be called with plan.channels == 1 (the kernels bypass the
  /// selector entirely in that case, preserving stream bit-identity).
  std::uint32_t route(double arrival, const double* lane_now,
                      const double* lane_busy_until,
                      const std::uint64_t* lane_load, double service);

 private:
  std::uint32_t from_unit(double u) const;

  ChannelPlan plan_;
  std::vector<double> cumulative_;  // normalized weight CDF, size channels
  sim::Rng rng_;                    // UniformRandom draws only
  std::uint64_t arrival_index_ = 0;
};

}  // namespace tcw::net
