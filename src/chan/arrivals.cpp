#include "chan/arrivals.hpp"

#include "sim/sampling.hpp"
#include "util/contract.hpp"

namespace tcw::chan {

PoissonProcess::PoissonProcess(double rate, double start)
    : rate_(rate), t_(start) {
  TCW_EXPECTS(rate > 0.0);
}

double PoissonProcess::next(sim::Rng& rng) {
  t_ += sim::exponential(rng, rate_);
  return t_;
}

OnOffVoiceProcess::OnOffVoiceProcess(double mean_on, double mean_off,
                                     double packet_period, double start)
    : mean_on_(mean_on), mean_off_(mean_off), period_(packet_period),
      t_(start), on_until_(start) {
  TCW_EXPECTS(mean_on > 0.0);
  TCW_EXPECTS(mean_off > 0.0);
  TCW_EXPECTS(packet_period > 0.0);
}

double OnOffVoiceProcess::next(sim::Rng& rng) {
  while (true) {
    if (!in_talkspurt_) {
      // Wait out the silence, then open a talkspurt.
      t_ += sim::exponential(rng, 1.0 / mean_off_);
      on_until_ = t_ + sim::exponential(rng, 1.0 / mean_on_);
      in_talkspurt_ = true;
      return t_;  // first packet at talkspurt start
    }
    t_ += period_;
    if (t_ < on_until_) return t_;
    t_ = on_until_;
    in_talkspurt_ = false;
  }
}

double OnOffVoiceProcess::mean_rate() const {
  // Packets per slot while ON, weighted by the ON fraction. The +1 packet
  // at each talkspurt start is second order for mean_on >> period.
  const double on_fraction = mean_on_ / (mean_on_ + mean_off_);
  return on_fraction / period_;
}

PeriodicJitterProcess::PeriodicJitterProcess(double period, double jitter,
                                             double phase)
    : period_(period), jitter_(jitter), next_tick_(phase),
      last_emitted_(phase - period) {
  TCW_EXPECTS(period > 0.0);
  TCW_EXPECTS(jitter >= 0.0 && jitter <= period);
}

double PeriodicJitterProcess::next(sim::Rng& rng) {
  double t = next_tick_ + (jitter_ > 0.0 ? sim::uniform(rng, 0.0, jitter_) : 0.0);
  // Monotonicity guard for the jitter == period corner.
  if (t <= last_emitted_) t = last_emitted_ + 1e-9;
  next_tick_ += period_;
  last_emitted_ = t;
  return t;
}

std::unique_ptr<ArrivalProcess> make_poisson_for_offered_load(
    double offered_load, double message_length) {
  TCW_EXPECTS(offered_load > 0.0);
  TCW_EXPECTS(message_length > 0.0);
  return std::make_unique<PoissonProcess>(offered_load / message_length);
}

}  // namespace tcw::chan
