#include "analysis/loss_model.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/busy_period.hpp"
#include "analysis/mg1.hpp"
#include "analysis/splitting.hpp"
#include "dist/families.hpp"
#include "obs/registry.hpp"
#include "util/contract.hpp"

namespace tcw::analysis {

namespace {

const obs::Counter& fixpoint_iters() {
  static const obs::Counter counter =
      obs::Registry::global().counter("analysis.fixpoint_iters");
  return counter;
}

/// Every knob the model reads: finite positive load and length, a finite
/// nonnegative overhead, a fixpoint that can run and stop, a lattice.
void expect_valid(const ProtocolModelConfig& cfg) {
  TCW_EXPECTS(std::isfinite(cfg.offered_load) && cfg.offered_load > 0.0);
  TCW_EXPECTS(std::isfinite(cfg.message_length) && cfg.message_length > 0.0);
  TCW_EXPECTS(std::isfinite(cfg.success_overhead) &&
              cfg.success_overhead >= 0.0);
  TCW_EXPECTS(std::isfinite(cfg.fixpoint_tol) && cfg.fixpoint_tol > 0.0);
  TCW_EXPECTS(cfg.fixpoint_max_iters >= 1);
  TCW_EXPECTS(cfg.refine >= 1);
}

std::size_t transmission_slots(const ProtocolModelConfig& cfg) {
  const double total = cfg.message_length + cfg.success_overhead;
  const auto slots = static_cast<std::size_t>(std::llround(total));
  TCW_EXPECTS(std::abs(total - static_cast<double>(slots)) < 1e-9);
  TCW_EXPECTS(slots >= 1);
  return slots;
}

}  // namespace

double effective_window_load(double accepted_fraction) {
  TCW_EXPECTS(accepted_fraction >= 0.0 && accepted_fraction <= 1.0 + 1e-12);
  return optimal_window_load() * std::clamp(accepted_fraction, 0.0, 1.0);
}

dist::Pmf service_distribution(const ProtocolModelConfig& cfg, double nu_eff) {
  expect_valid(cfg);
  TCW_EXPECTS(nu_eff >= 0.0);
  const std::size_t tx = transmission_slots(cfg);
  dist::Pmf sched = dist::delta(0);
  if (nu_eff > 1e-9) {
    switch (cfg.scheduling) {
      case SchedulingModel::None:
        break;
      case SchedulingModel::GeometricAmortized:
        sched = dist::geometric0_with_mean(
            conditional_scheduling_mean(nu_eff));
        break;
      case SchedulingModel::ExactConditional:
        sched = scheduling_distribution(nu_eff);
        break;
    }
  }
  return sched.shifted(tx);
}

ControlledLossPoint controlled_loss_at(const ProtocolModelConfig& cfg,
                                       double K, double initial_guess) {
  expect_valid(cfg);
  TCW_EXPECTS(std::isfinite(K) && K >= 0.0);
  TCW_EXPECTS(!std::isnan(initial_guess));  // clamped into [0, 1] below
  const double lambda = cfg.lambda();
  TCW_EXPECTS(lambda > 0.0);

  ControlledLossPoint point;
  point.K = K;

  // Secant iteration on g(p) = loss(p) - p, one eq. 4.7 evaluation per
  // step. With no previous point, with a repeated g, or when the secant
  // leaves [0, 1], the step falls back to the damped p <- (p + loss(p))/2.
  double p = std::clamp(initial_guess, 0.0, 1.0);
  double prev_p = 0.0;
  double prev_g = 0.0;
  bool converged = false;
  while (point.iterations < cfg.fixpoint_max_iters && !converged) {
    ++point.iterations;
    // At K = 0 the scheduling delay is known to be exactly 0 (paper
    // Section 4.1): an accepted message is alone in its window.
    point.nu_eff = K == 0.0 ? 0.0 : effective_window_load(1.0 - p);
    const dist::Pmf service = service_distribution(cfg, point.nu_eff);
    const ImpatientLoss loss =
        mg1_impatient_loss(service, lambda, K, cfg.refine);
    point.rho = loss.rho;
    point.p_idle = loss.p_idle;
    point.sched_mean =
        service.mean() - static_cast<double>(transmission_slots(cfg));
    const double g = loss.p_loss - p;
    converged = std::abs(g) < cfg.fixpoint_tol;
    double step = 0.5 * p + 0.5 * loss.p_loss;
    if (point.iterations > 1 && g != prev_g) {
      const double secant = p - g * (p - prev_p) / (g - prev_g);
      if (secant >= 0.0 && secant <= 1.0) step = secant;
    }
    prev_p = p;
    prev_g = g;
    p = step;
  }
  fixpoint_iters().add(static_cast<std::uint64_t>(point.iterations));
  point.p_loss = p;
  return point;
}

std::vector<ControlledLossPoint> controlled_loss_curve(
    const ProtocolModelConfig& cfg, const std::vector<double>& constraints) {
  expect_valid(cfg);
  std::vector<ControlledLossPoint> out;
  out.reserve(constraints.size());
  // Anchor: at K = 0 the scheduling time is exactly 0 (paper Section 4.1),
  // giving rho_0 = lambda * (M + overhead) and loss rho_0/(1+rho_0); the
  // iteration then walks the grid left to right, warm-starting each point.
  const double rho0 = cfg.lambda() * static_cast<double>(transmission_slots(cfg));
  double guess = rho0 / (1.0 + rho0);
  for (const double K : constraints) {
    TCW_EXPECTS(out.empty() || K >= out.back().K);
    ControlledLossPoint point = controlled_loss_at(cfg, K, guess);
    guess = point.p_loss;
    out.push_back(point);
  }
  return out;
}

double lcfs_nodiscard_loss(const ProtocolModelConfig& cfg, double K) {
  TCW_EXPECTS(std::isfinite(K) && K >= 0.0);
  const dist::Pmf service = service_distribution(cfg, optimal_window_load());
  const double rho = offered_intensity(service, cfg.lambda());
  if (rho >= 1.0) return 1.0;
  // Clamped at 0 against cancellation in 1 - P(W <= K) at large K.
  return std::max(0.0, 1.0 - lcfs_waiting_cdf(service, cfg.lambda(), K));
}

double fcfs_nodiscard_loss(const ProtocolModelConfig& cfg, double K) {
  TCW_EXPECTS(std::isfinite(K) && K >= 0.0);
  // No discard: all messages are scheduled, so the windows carry the full
  // optimal load nu*.
  const dist::Pmf service = service_distribution(cfg, optimal_window_load());
  const double rho = offered_intensity(service, cfg.lambda());
  if (rho >= 1.0) return 1.0;
  // Clamped at 0 against cancellation in 1 - P(W <= K) at large K.
  return std::max(0.0,
                  1.0 - mg1_waiting_cdf(service, cfg.lambda(), K, cfg.refine));
}

}  // namespace tcw::analysis
