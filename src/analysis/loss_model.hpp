// The paper's Section 4 performance model of the *controlled* window
// protocol, and the analytic FCFS baseline it is compared against.
//
// Model structure (paper Section 4.1):
//  * The distributed queue behaves as an M/G/1 queue with impatient
//    customers; a message's service time = scheduling (windowing) slots +
//    transmission slots.
//  * The scheduling component depends on the fraction of messages that
//    actually enter service, because sender discard (element 4) thins the
//    windows. Following the paper, the loss at each K is found by a
//    fixpoint iteration anchored at K = 0, where the scheduling time is
//    exactly 0 and the loss is rho/(1+rho) in closed form. The iteration
//    takes secant steps on loss(p) - p, falling back to the damped step
//    p <- (p + loss(p))/2 where no secant step applies.
//  * The scheduling distribution is either the geometric fit used by the
//    paper (mean matched to the exact renewal analysis of splitting.hpp)
//    or the exact conditional distribution.
#pragma once

#include <cstddef>
#include <vector>

#include "dist/pmf.hpp"

namespace tcw::analysis {

enum class SchedulingModel {
  None,                // scheduling time identically 0 (lower bound)
  GeometricAmortized,  // geometric pmf with the exact mean (paper's choice)
  ExactConditional,    // exact distribution of own-process probe counts
};

/// Every entry point below rejects, with a ContractViolation, a load or
/// length that is not finite and > 0, an overhead that is not finite and
/// >= 0, a tolerance that is not finite and > 0, fewer than one fixpoint
/// step, a zero lattice factor, a K that is not finite and >= 0, and a
/// NaN initial guess.
struct ProtocolModelConfig {
  double offered_load = 0.5;      // rho' = lambda * M
  double message_length = 25.0;   // M in slots (must be integral)
  double success_overhead = 1.0;  // extra slots per successful transmission
  SchedulingModel scheduling = SchedulingModel::GeometricAmortized;
  unsigned refine = 4;            // sub-slot lattice factor for the series
  int fixpoint_max_iters = 80;
  double fixpoint_tol = 1e-10;

  double lambda() const { return offered_load / message_length; }
};

struct ControlledLossPoint {
  double K = 0.0;          // time constraint, slots
  double p_loss = 0.0;     // fraction of messages lost
  double rho = 0.0;        // lambda * E[service]
  double sched_mean = 0.0; // mean scheduling slots per served message
  double p_idle = 0.0;     // P(server idle)
  double nu_eff = 0.0;     // effective window load used for scheduling
  int iterations = 0;      // eq. 4.7 loss evaluations of the fixpoint
};

/// Message service-time distribution (scheduling + transmission) when the
/// windows carry an effective Poisson load of `nu_eff` arrivals.
dist::Pmf service_distribution(const ProtocolModelConfig& cfg, double nu_eff);

/// Loss of the controlled protocol at constraint K. `initial_guess` warm
/// starts the fixpoint (use the loss at the previous grid point).
ControlledLossPoint controlled_loss_at(const ProtocolModelConfig& cfg,
                                       double K, double initial_guess = 0.5);

/// Loss curve over an ascending grid of K values, warm-started left to
/// right exactly as the paper describes (Section 4.1, last paragraph).
std::vector<ControlledLossPoint> controlled_loss_curve(
    const ProtocolModelConfig& cfg, const std::vector<double>& constraints);

/// FCFS baseline without sender discard ([Kurose 83]): every message is
/// transmitted; a message is lost at the receiver when its waiting time
/// exceeds K, so p_loss = P(W > K) by the Benes series. Returns 1.0 when
/// the queue is unstable (rho >= 1) and the long-run loss is total.
double fcfs_nodiscard_loss(const ProtocolModelConfig& cfg, double K);

/// LCFS baseline without sender discard: p_loss = P(W_LCFS > K) via the
/// lattice busy-period computation (busy_period.hpp). Returns 1.0 when
/// the queue is unstable. (An extension beyond the paper, which quoted
/// [Kurose 83]'s approximate LCFS curves.)
double lcfs_nodiscard_loss(const ProtocolModelConfig& cfg, double K);

/// The effective window load: nu* scaled by the accepted fraction.
double effective_window_load(double accepted_fraction);

}  // namespace tcw::analysis
