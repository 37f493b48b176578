// M/G/1 machinery on the slot lattice: the Benes/Takacs series for the
// stationary unfinished-work (virtual waiting time) distribution, the
// Pollaczek-Khinchine mean, and the paper's Section 4 loss formula for the
// M/G/1 queue with impatient customers (balking when the virtual wait
// exceeds the time constraint K).
//
// Paper equation 4.7 is implemented in the algebraically identical form
//
//     p(loss) = 1 - Z / (1 + rho * Z),
//     Z = z(K, rho) = sum_{i>=0} rho^i * CDF_{beta^(i)}(K),
//
// where beta is the equilibrium (residual) service distribution and
// beta^(i) its i-fold convolution (beta^(0) = delta at 0). The series is
// summed in closed form as the renewal function U = sum_i rho^i beta^(i),
// which satisfies U = delta_0 + rho * (beta conv U) and is computed by one
// run-compressed forward-substitution pass: beta is cut into maximal runs
// of exactly equal values, and each run adds its whole window of U to a
// cell as one difference of (compensated) prefix sums, so the pass costs
// O(len x runs) rather than O(len x |beta|). A refined Figure-7 beta has
// ~40 runs against its 250-560 cells. The series converges for every rho
// when K is finite, so the loss system is evaluated also at rho >= 1.
// Every entry point rejects a K (or lattice length) that is not finite
// and >= 0, or whose refined lattice a vector cannot index, with a
// ContractViolation.
//
// Lattice accuracy: service times are integer slot counts, but arrivals are
// continuous, so the true equilibrium density is piecewise constant over
// unit cells. We refine the lattice by an integer factor `refine` (each
// slot split into `refine` sub-cells) and bound the continuous CDF between
// the all-mass-left and all-mass-right placements of each sub-cell; results
// report the midpoint and the bracket width.
#pragma once

#include <cstddef>
#include <vector>

#include "dist/pmf.hpp"

namespace tcw::analysis {

/// Offered work intensity rho = lambda * E[S].
double offered_intensity(const dist::Pmf& service, double lambda);

/// Pollaczek-Khinchine mean waiting time lambda*E[S^2]/(2(1-rho)).
/// Requires rho < 1.
double pk_mean_wait(const dist::Pmf& service, double lambda);

/// Equilibrium (residual) distribution of an integer-slot service time on
/// a lattice refined by `c` sub-cells per slot. The continuous residual
/// density is constant over each unit cell [k, k+1); refining spreads each
/// cell's mass P(S>k)/E[S] evenly over its c sub-cells. Exposed for tests
/// and benchmarks.
std::vector<double> refined_equilibrium(const dist::Pmf& service, unsigned c);

/// The renewal function U = sum_i rho^i beta^(i) on a lattice of `len`
/// points, where beta is the (already lattice) equilibrium pmf; any beta
/// with 1 - rho * beta[0] > 0. Exposed for tests; most callers want the
/// wrappers below.
std::vector<double> renewal_function(const std::vector<double>& beta,
                                     double rho, std::size_t len);

/// P(W <= K) for the plain M/G/1 queue (Benes: (1-rho) * CDF_U(K)).
/// Requires rho < 1. `refine` is the sub-slot lattice factor.
double mg1_waiting_cdf(const dist::Pmf& service, double lambda, double K,
                       unsigned refine = 4);

/// Full FCFS waiting-time distribution of the plain M/G/1 queue on the
/// slot lattice (len points), via the Benes series (1-rho) * U downsampled
/// from the refined lattice. Cell w holds P(W in [w, w+1)); the mass
/// beyond `len` is reported as tail. Requires rho < 1.
dist::Pmf mg1_waiting_distribution(const dist::Pmf& service, double lambda,
                                   std::size_t len, unsigned refine = 4);

/// Result bundle of the impatient-customer model (paper eq. 4.7).
struct ImpatientLoss {
  double p_loss = 0.0;    // fraction of messages lost (balking probability)
  double p_idle = 0.0;    // P(0), probability the server is idle
  double rho = 0.0;       // lambda * E[S]
  double z = 0.0;         // z(K, rho) (bracket midpoint)
  double z_lower = 0.0;   // rigorous lower bound on z
  double z_upper = 0.0;   // rigorous upper bound on z
  double loss_lower = 0.0;  // loss bound induced by z_upper
  double loss_upper = 0.0;  // loss bound induced by z_lower
};

/// Paper eq. 4.7: loss of the M/G/1 queue whose customers balk when their
/// virtual waiting time exceeds K slots. Valid for any rho > 0; K >= 0.
ImpatientLoss mg1_impatient_loss(const dist::Pmf& service, double lambda,
                                 double K, unsigned refine = 4);

/// Waiting-time distribution of *accepted* customers (paper eq. 4.4) on
/// the slot lattice, truncated at K: f(w) = P(0) * U(w), w in [0, K].
/// The returned pmf sums to P(accept) = 1 - p_loss (defective by design).
dist::Pmf accepted_wait_distribution(const dist::Pmf& service, double lambda,
                                     std::size_t K, unsigned refine = 4);

}  // namespace tcw::analysis
