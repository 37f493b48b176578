// Pluggable MAC policy engines for the per-slot kernels. A ProtocolEngine
// owns "given the shared channel feedback and the local queue view, who
// may transmit in this slot" plus the per-engine metric hooks; the kernels
// (net::Network, net::AggregateSimulator) keep the channel, arrivals,
// deadline/discard accounting, shadow-replica consistency machinery, and
// obs counters.
//
// Every engine is a deterministic function of the shared feedback
// sequence -- the same property the paper's window controller has -- so
// the finite-station kernel can replicate any engine per shadow and audit
// the distributed-consistency property with state_equals. Three engines
// ship:
//   * WindowEngine       -- the paper's window controller (the default;
//                           kernels are bit-identical to the pre-engine
//                           code at a fixed seed)
//   * SlottedAlohaEngine -- every backlogged station transmits with a
//                           fixed probability p each slot (p = 1/e is the
//                           classic operating point)
//   * DynamicAlohaEngine -- pseudo-Bayesian backlog estimation drives
//                           p(t) = min(1, 1/n-hat) (Rivest-style control,
//                           cf. Gong et al., arXiv:2108.03176)
//
// Transmission coins for Probability plans are *local* randomness: the
// kernels draw them from their own engine-keyed stream (engine_coin_seed),
// never from an engine, so shadow replicas stay a pure function of the
// feedback sequence.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/controller.hpp"
#include "core/policy.hpp"
#include "net/channel_plan.hpp"
#include "util/interval_set.hpp"

namespace tcw::net {

/// Registered MAC disciplines. The numeric value is the engine's stable
/// id, folded into derived stream seeds -- append only, never renumber.
enum class EngineKind : std::uint8_t {
  Window = 0,
  SlottedAloha = 1,
  DynamicAloha = 2,
};

std::string to_string(EngineKind kind);

/// Parse "window" / "slotted-aloha" / "dynamic-aloha", case-insensitively.
/// Returns false (and leaves *out untouched) for anything else.
bool engine_kind_from_string(const std::string& name, EngineKind* out);

/// The valid engine names, comma-separated, for error messages.
std::string engine_kind_names();

/// Engine selection plus the engine-specific knobs, carried alongside the
/// ControlPolicy in every kernel config. The default selects the window
/// engine, so existing configs are unchanged.
struct EngineConfig {
  EngineKind kind = EngineKind::Window;
  /// SlottedAloha: per-station transmission probability. <= 0 selects the
  /// classic 1/e operating point.
  double tx_prob = 0.0;
  /// DynamicAloha: the arrival-rate estimate lambda-hat (messages/slot)
  /// folded into the backlog drift between slots.
  double arrival_rate = 0.0;
  /// DynamicAloha: initial backlog estimate n-hat(0).
  double initial_backlog = 1.0;
};

/// The complete MAC-policy configuration: which engine runs each channel
/// plus how many channels there are and how arrivals pick one. This is
/// the one knob bundle every kernel config (NetworkConfig,
/// AggregateConfig, SweepConfig) carries and the sweep fingerprint folds
/// in. Defaults are the single-channel window engine, bit-identical to
/// the pre-multichannel kernels.
struct PolicyConfig {
  EngineConfig engine;
  ChannelPlan channel;
};

/// What an engine wants done with the slot beginning at `now`.
struct SlotPlan {
  enum class Kind : std::uint8_t {
    Idle,         ///< nobody transmits; the slot idles
    Window,       ///< stations with an eligible arrival in `window` transmit
    Probability,  ///< every backlogged station transmits w.p. `tx_prob`
  };
  Kind kind = Kind::Idle;
  Interval window{0.0, 0.0};  ///< valid when kind == Window
  double tx_prob = 0.0;       ///< valid when kind == Probability

  /// True when the slot counts as a probe (feedback will follow).
  bool probes() const { return kind != Kind::Idle; }

  friend bool operator==(const SlotPlan&, const SlotPlan&) = default;
};

/// A certificate that the next `slots` slots are *quiescent* for an engine:
/// on an empty channel (no station holds a message), every one of those
/// slots probes, reads Idle feedback, ends its one-probe process (the
/// engine is not in_process afterwards), and samples the same constant
/// `backlog` from backlog_metric. The event-skipping kernel uses the
/// certificate to fast-forward the engine with skip_quiescent instead of
/// stepping each empty slot. slots == 0 means "no certificate" (the caller
/// must step per-slot).
struct QuiescentStretch {
  std::uint64_t slots = 0;
  double backlog = 0.0;

  friend bool operator==(const QuiescentStretch&,
                         const QuiescentStretch&) = default;
};

class ProtocolEngine {
 public:
  virtual ~ProtocolEngine() = default;

  virtual EngineKind kind() const = 0;

  /// The plan for the slot beginning at `now`. A non-Idle plan obligates
  /// the caller to report the channel outcome via on_feedback before the
  /// next next_slot call.
  virtual SlotPlan next_slot(double now) = 0;

  /// Report the shared channel outcome of the plan returned by next_slot.
  virtual void on_feedback(core::Feedback fb) = 0;

  /// True while a multi-slot resolution process is outstanding (window
  /// splitting); memoryless engines are never "in process".
  virtual bool in_process() const = 0;

  /// Probe slots issued by the active process (1 for per-slot engines).
  virtual int process_probes() const = 0;

  /// The engine's backlog estimate at `now`, recorded into
  /// SimMetrics::pseudo_backlog (pseudo-time backlog for the window
  /// engine, n-hat for dynamic ALOHA, 0 when the engine tracks nothing).
  virtual double backlog_metric(double now) const = 0;

  /// Arrivals strictly below this instant are dead to the engine: the
  /// kernels discard them at the sender (element 4). Engines without
  /// discard semantics return 0 (nothing is ever below the floor).
  virtual double discard_floor(double now) const = 0;

  /// Certify up to `max_slots` quiescent slots starting at `now` (see
  /// QuiescentStretch). `now` must begin a slot (next_slot not yet called
  /// for it) and the engine must not be in_process. Implementations only
  /// certify stretches they can fast-forward *bit-identically*: after
  /// skip_quiescent(last, slots) the engine state equals the state after
  /// `slots` iterations of {next_slot; on_feedback(Idle)} at times
  /// now, now+1, ..., last. Engines return {0, 0} when the current state
  /// is not provably in such an orbit (the caller steps per-slot, which is
  /// always correct). Certificates require an integral `now`: slot times
  /// then advance exactly (now + i is one double rounding), so the
  /// closed-form end state matches the repeated `+= 1.0` chain bit for
  /// bit. The default certifies nothing.
  virtual QuiescentStretch quiescent_until(double now,
                                           std::uint64_t max_slots) const {
    (void)now;
    (void)max_slots;
    return {};
  }

  /// Fast-forward over `slots` quiescent slots previously certified by
  /// quiescent_until; `last_slot` is the time of the final skipped slot
  /// (= now + slots - 1 as computed by the caller's exact slot clock).
  /// Must only be called with a certificate: the default rejects any
  /// nonzero skip.
  virtual void skip_quiescent(double last_slot, std::uint64_t slots) {
    (void)last_slot;
    (void)slots;
  }

  /// Structural equality of protocol state, for the distributed-
  /// consistency audits. Engines of different kinds never compare equal.
  virtual bool state_equals(const ProtocolEngine& other) const = 0;
};

/// The stream seed an engine's protocol-shared randomness runs on. Engine
/// id 0 (the window engine) keeps `base` untouched -- seed-era CSVs must
/// stay bit-identical -- while every other engine folds its id through
/// sim::derive_stream_seed, so two engines in one suite can never alias
/// each other's shared stream (the RandomGap/RandomHalf draws).
std::uint64_t engine_stream_seed(EngineKind kind, std::uint64_t base);

/// The seed for the kernel-local transmission coins of Probability plans.
/// Always derived (the raw simulation seed drives arrivals) and keyed by
/// the engine id, so coin streams never alias arrivals or other engines.
std::uint64_t engine_coin_seed(EngineKind kind, std::uint64_t sim_seed);

/// Build an engine. `policy` supplies the window elements (window engine)
/// and the deadline/discard contract every engine honours. Validates the
/// engine knobs (tx_prob <= 1, nonnegative rates).
std::unique_ptr<ProtocolEngine> make_engine(const EngineConfig& config,
                                            const core::ControlPolicy& policy);

/// Build the lane-0 engine of a PolicyConfig after validating the channel
/// plan (channels >= 1, skew in [0, 1)). The kernels build further lane
/// engines themselves, folding channel_stream_seed into the policy's
/// shared seed per lane.
std::unique_ptr<ProtocolEngine> make_engine(const PolicyConfig& config,
                                            const core::ControlPolicy& policy);

}  // namespace tcw::net
