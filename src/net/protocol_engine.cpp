#include "net/protocol_engine.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numbers>

#include "sim/rng.hpp"
#include "util/contract.hpp"

namespace tcw::net {

namespace {

// Tag separating the coin stream's coordinate space from the (0-based)
// engine-shared streams derived in engine_stream_seed.
constexpr std::uint64_t kCoinStreamTag = 0xC0114;

// Pseudo-Bayesian collision increment 1/(e - 2): the expected number of
// colliders beyond the first, under the Poisson backlog approximation.
constexpr double kCollisionIncrement = 1.0 / (std::numbers::e - 2.0);

class WindowEngine final : public ProtocolEngine {
 public:
  explicit WindowEngine(const core::ControlPolicy& policy)
      : controller_(policy) {}

  EngineKind kind() const override { return EngineKind::Window; }

  SlotPlan next_slot(double now) override {
    const auto window = controller_.next_probe(now);
    if (!window) return SlotPlan{};
    return SlotPlan{SlotPlan::Kind::Window, *window, 0.0};
  }

  void on_feedback(core::Feedback fb) override { controller_.on_feedback(fb); }

  bool in_process() const override { return controller_.in_process(); }
  int process_probes() const override { return controller_.process_probes(); }

  double backlog_metric(double now) const override {
    return controller_.pseudo_backlog(now);
  }

  double discard_floor(double) const override { return controller_.floor(); }

  QuiescentStretch quiescent_until(double now,
                                   std::uint64_t max_slots) const override {
    const std::uint64_t slots = controller_.quiescent_slots(now, max_slots);
    if (slots == 0) return {};
    // In the orbit each slot samples pseudo_backlog(t) right after the
    // probe window [t-1, t) opened: floor == t-1 and nothing resolved
    // above it, so the backlog is the unresolved measure of
    // [max(t-1, t-K), t) == min(1, K) -- constant across the stretch.
    return {slots, std::min(1.0, controller_.policy().deadline)};
  }

  void skip_quiescent(double last_slot, std::uint64_t slots) override {
    if (slots > 0) controller_.skip_quiescent(last_slot, slots);
  }

  bool state_equals(const ProtocolEngine& other) const override {
    if (other.kind() != EngineKind::Window) return false;
    return controller_.state_equals(
        static_cast<const WindowEngine&>(other).controller_);
  }

 private:
  core::WindowController controller_;
};

// Fixed-probability slotted ALOHA. Stateless: the plan is the same every
// slot and feedback changes nothing, so any two replicas are trivially
// consistent (a desynchronized replica of a memoryless protocol is
// undetectable -- there is no state to diverge).
class SlottedAlohaEngine final : public ProtocolEngine {
 public:
  SlottedAlohaEngine(double tx_prob, const core::ControlPolicy& policy)
      : tx_prob_(tx_prob),
        discard_(policy.discard),
        deadline_(policy.deadline) {}

  EngineKind kind() const override { return EngineKind::SlottedAloha; }

  SlotPlan next_slot(double) override {
    return SlotPlan{SlotPlan::Kind::Probability, {}, tx_prob_};
  }

  void on_feedback(core::Feedback) override {}

  bool in_process() const override { return false; }
  int process_probes() const override { return 1; }
  double backlog_metric(double) const override { return 0.0; }

  double discard_floor(double now) const override {
    return discard_ ? now - deadline_ : 0.0;
  }

  QuiescentStretch quiescent_until(double,
                                   std::uint64_t max_slots) const override {
    // Stateless: every empty slot plans Probability(p), draws no coins
    // (nobody is backlogged), idles, and ignores the feedback. Any
    // stretch is certified and skipping is a no-op.
    return {max_slots, 0.0};
  }

  void skip_quiescent(double, std::uint64_t) override {}

  bool state_equals(const ProtocolEngine& other) const override {
    if (other.kind() != EngineKind::SlottedAloha) return false;
    return tx_prob_ ==
           static_cast<const SlottedAlohaEngine&>(other).tx_prob_;
  }

 private:
  double tx_prob_;
  bool discard_;
  double deadline_;
};

// Pseudo-Bayesian dynamic ALOHA: an estimate n-hat of the backlogged
// population drifts up by lambda-hat per elapsed slot, drops by one on
// Idle/Success, rises by 1/(e-2) on Collision, and every backlogged
// station transmits with p = min(1, 1/max(1, n-hat)). Deterministic given
// the feedback sequence, so shadow replicas stay in lockstep and a
// desynchronized replica is detectable through state_equals.
class DynamicAlohaEngine final : public ProtocolEngine {
 public:
  DynamicAlohaEngine(double arrival_rate, double initial_backlog,
                     const core::ControlPolicy& policy)
      : lambda_(arrival_rate),
        nhat_(std::max(initial_backlog, 0.0)),
        discard_(policy.discard),
        deadline_(policy.deadline) {}

  EngineKind kind() const override { return EngineKind::DynamicAloha; }

  SlotPlan next_slot(double now) override {
    if (now > last_now_) {
      nhat_ += lambda_ * (now - last_now_);
      last_now_ = now;
    }
    const double p = std::min(1.0, 1.0 / std::max(1.0, nhat_));
    return SlotPlan{SlotPlan::Kind::Probability, {}, p};
  }

  void on_feedback(core::Feedback fb) override {
    if (fb == core::Feedback::Collision) {
      nhat_ += kCollisionIncrement;
    } else {
      nhat_ = std::max(0.0, nhat_ - 1.0);
    }
  }

  bool in_process() const override { return false; }
  int process_probes() const override { return 1; }
  double backlog_metric(double) const override { return nhat_; }

  double discard_floor(double now) const override {
    return discard_ ? now - deadline_ : 0.0;
  }

  QuiescentStretch quiescent_until(double now,
                                   std::uint64_t max_slots) const override {
    // Orbit: n-hat enters the slot at 0, drifts to exactly lambda at
    // next_slot (the sampled backlog), and Idle feedback drops it back to
    // max(0, lambda - 1) == 0 -- which needs lambda <= 1 and a one-slot
    // drift computed exactly (integral `now` with last_now_ == now - 1).
    if (nhat_ != 0.0 || lambda_ > 1.0) return {};
    if (now != std::floor(now) || last_now_ != now - 1.0) return {};
    return {max_slots, lambda_};
  }

  void skip_quiescent(double last_slot, std::uint64_t slots) override {
    if (slots == 0) return;
    nhat_ = 0.0;
    last_now_ = last_slot;
  }

  bool state_equals(const ProtocolEngine& other) const override {
    if (other.kind() != EngineKind::DynamicAloha) return false;
    const auto& o = static_cast<const DynamicAlohaEngine&>(other);
    return lambda_ == o.lambda_ && nhat_ == o.nhat_ &&
           last_now_ == o.last_now_;
  }

 private:
  double lambda_;
  double nhat_;
  double last_now_ = 0.0;
  bool discard_;
  double deadline_;
};

}  // namespace

std::string to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::Window: return "window";
    case EngineKind::SlottedAloha: return "slotted-aloha";
    case EngineKind::DynamicAloha: return "dynamic-aloha";
  }
  return "?";
}

bool engine_kind_from_string(const std::string& name, EngineKind* out) {
  TCW_EXPECTS(out != nullptr);
  std::string lower = name;
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  for (const EngineKind kind :
       {EngineKind::Window, EngineKind::SlottedAloha,
        EngineKind::DynamicAloha}) {
    if (lower == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::string engine_kind_names() {
  return "window, slotted-aloha, dynamic-aloha";
}

std::uint64_t engine_stream_seed(EngineKind kind, std::uint64_t base) {
  const auto id = static_cast<std::uint64_t>(kind);
  if (id == 0) return base;  // window engine: the seed-era stream, raw
  return sim::derive_stream_seed(base, id, 0);
}

std::uint64_t engine_coin_seed(EngineKind kind, std::uint64_t sim_seed) {
  return sim::derive_stream_seed(sim_seed, static_cast<std::uint64_t>(kind),
                                 kCoinStreamTag);
}

std::unique_ptr<ProtocolEngine> make_engine(
    const EngineConfig& config, const core::ControlPolicy& policy) {
  TCW_EXPECTS(config.tx_prob <= 1.0);
  TCW_EXPECTS(config.arrival_rate >= 0.0);
  switch (config.kind) {
    case EngineKind::Window: {
      // engine_stream_seed is the identity for the window engine; fold it
      // anyway so the aliasing rule has a single point of truth.
      core::ControlPolicy p = policy;
      p.shared_seed = engine_stream_seed(config.kind, policy.shared_seed);
      return std::make_unique<WindowEngine>(p);
    }
    case EngineKind::SlottedAloha: {
      const double p = config.tx_prob > 0.0 ? config.tx_prob
                                            : 1.0 / std::numbers::e;
      return std::make_unique<SlottedAlohaEngine>(p, policy);
    }
    case EngineKind::DynamicAloha:
      return std::make_unique<DynamicAlohaEngine>(
          config.arrival_rate, config.initial_backlog, policy);
  }
  TCW_ASSERT(false);
  return nullptr;
}

std::unique_ptr<ProtocolEngine> make_engine(
    const PolicyConfig& config, const core::ControlPolicy& policy) {
  TCW_EXPECTS(config.channel.channels >= 1);
  TCW_EXPECTS(config.channel.skew >= 0.0 && config.channel.skew < 1.0);
  return make_engine(config.engine, policy);
}

}  // namespace tcw::net
