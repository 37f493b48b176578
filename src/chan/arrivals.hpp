// Message arrival processes. Each process produces a strictly increasing
// stream of arrival times (in slots) for one traffic source.
//
// * PoissonProcess        -- the paper's workload (aggregate rate lambda).
// * OnOffVoiceProcess     -- packetized-voice talkspurt model: exponential
//                            ON/OFF periods; packets at a fixed rate while ON
//                            (the application motivating the paper, [Cohen 77]).
// * PeriodicJitterProcess -- sensor readings: fixed period with uniform
//                            jitter ([DSN 82] style).
#pragma once

#include <memory>

#include "sim/rng.hpp"

namespace tcw::chan {

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// The next arrival time, strictly after every previously returned time.
  virtual double next(sim::Rng& rng) = 0;

  /// Long-run mean arrival rate (messages per slot).
  virtual double mean_rate() const = 0;
};

class PoissonProcess final : public ArrivalProcess {
 public:
  /// `rate` in messages per slot; `start` shifts the first arrival.
  explicit PoissonProcess(double rate, double start = 0.0);

  double next(sim::Rng& rng) override;
  double mean_rate() const override { return rate_; }

 private:
  double rate_;
  double t_;
};

class OnOffVoiceProcess final : public ArrivalProcess {
 public:
  /// Exponential ON (talkspurt) and OFF (silence) durations with the given
  /// means; during ON, packets are emitted every `packet_period` slots.
  OnOffVoiceProcess(double mean_on, double mean_off, double packet_period,
                    double start = 0.0);

  double next(sim::Rng& rng) override;
  double mean_rate() const override;

 private:
  double mean_on_;
  double mean_off_;
  double period_;
  double t_;          // current clock
  double on_until_;   // end of current talkspurt (t_ < on_until_ while ON)
  bool in_talkspurt_ = false;
};

class PeriodicJitterProcess final : public ArrivalProcess {
 public:
  /// One reading every `period` slots, each displaced by uniform jitter in
  /// [0, jitter). Requires jitter <= period so times stay increasing.
  PeriodicJitterProcess(double period, double jitter, double phase = 0.0);

  double next(sim::Rng& rng) override;
  double mean_rate() const override { return 1.0 / period_; }

 private:
  double period_;
  double jitter_;
  double next_tick_;
  double last_emitted_;
};

/// Convenience factory for the paper's workload: aggregate Poisson traffic
/// with offered load rho' = lambda * M (see DESIGN.md conventions).
std::unique_ptr<ArrivalProcess> make_poisson_for_offered_load(
    double offered_load, double message_length);

}  // namespace tcw::chan
