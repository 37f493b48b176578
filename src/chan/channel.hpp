// The slotted multiple-access broadcast channel of the paper's Section 2.
//
// Time advances in units of the end-to-end propagation delay tau (= 1 slot).
// In each probe step every enabled station either transmits or stays silent;
// after one slot all stations observe the common outcome:
//   Idle      -- nobody transmitted
//   Success   -- exactly one station transmitted (its message goes through)
//   Collision -- two or more stations transmitted
//
// A successful transmission of a length-M message occupies the channel for
// M slots plus `success_overhead` slots for all stations to detect its end.
#pragma once

#include <cstdint>

namespace tcw::chan {

enum class SlotOutcome : std::uint8_t { Idle, Success, Collision };

/// Maps the number of simultaneous transmitters to the outcome every
/// station observes one propagation delay later.
SlotOutcome outcome_for_transmitters(std::size_t n);

/// Channel timing parameters.
struct ChannelConfig {
  /// Extra slots consumed by a successful transmission beyond the message
  /// length itself (end-of-carrier detection). The paper's accounting is
  /// ambiguous at the +-1 slot level; see DESIGN.md section 5.
  double success_overhead = 1.0;
};

/// Running totals of how channel time was spent; the denominators of the
/// utilization figures reported by the benches.
class ChannelUsage {
 public:
  void add_idle_slot() { idle_ += 1.0; }
  /// n idle slots at once: the same bits as n add_idle_slot calls, since
  /// the total stays an integer-valued double below 2^53.
  void add_idle_slots(std::uint64_t n) { idle_ += static_cast<double>(n); }
  void add_collision_slot() { collisions_ += 1.0; }
  void add_success(double message_length, double overhead) {
    payload_ += message_length;
    success_overhead_ += overhead;
    ++messages_;
  }

  double idle_slots() const { return idle_; }
  double collision_slots() const { return collisions_; }
  double payload_slots() const { return payload_; }
  double success_overhead_slots() const { return success_overhead_; }
  std::uint64_t messages_carried() const { return messages_; }

  double total_slots() const {
    return idle_ + collisions_ + payload_ + success_overhead_;
  }
  /// Fraction of channel time carrying payload ("useful work", the paper's
  /// Section 4.2 discussion of policy element (4)).
  double utilization() const;

 private:
  double idle_ = 0.0;
  double collisions_ = 0.0;
  double payload_ = 0.0;
  double success_overhead_ = 0.0;
  std::uint64_t messages_ = 0;
};

}  // namespace tcw::chan
