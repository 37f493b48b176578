// M/G/1 busy-period distributions on the slot lattice, and the waiting
// time of the non-preemptive LCFS M/G/1 queue built from them.
//
// Because service times are integer slot counts, the busy period T
// initiated by V slots of work is itself integer valued, and the
// Takacs/Kemperman cycle-lemma identity applies exactly:
//
//     P(T = n | V = j) = (j/n) * P(A_n = n - j),    n >= j >= 1,
//
// where A_n is the total work (in slots) arriving over an interval of
// length n. That work is a sum of N services with N ~ Poisson(n lambda),
// so P(A_n = m) = sum_k Pois(n lambda; k) S_k(m), S_k the k-fold
// convolution of the service pmf B, independent of n. With D(j) = j P(V = j)
// the busy period is a Poisson mixture over the number of arrivals:
//
//     P(T = n) = (1/n) sum_k Pois(n lambda; k) E_k(n),
//     E_0 = D,  E_k = E_{k-1} * B.
//
// A service takes at least s_min >= 1 slots, so E_k vanishes below
// 1 + k s_min and the sum over k ends after about max_len / s_min terms.
//
// Non-preemptive LCFS waiting (the analytic counterpart of the paper's
// LCFS baseline, which [Kurose 83] handled by approximation): an arrival
// finding the server idle (prob. 1 - rho, PASTA) waits 0; otherwise it
// waits exactly one sub-busy period initiated by the residual service of
// the customer in progress, because later arrivals all jump ahead of it.
#pragma once

#include "dist/pmf.hpp"

namespace tcw::analysis {

/// Busy period initiated by work distributed as `initial` (which may have
/// an atom at 0 meaning "no busy period"). Truncated at `max_len` slots;
/// the truncated probability is reported as tail mass. Requires rho < 1
/// for the tail to vanish as max_len grows, and a service that takes at
/// least one slot (service.at(0) == 0).
dist::Pmf busy_period_from_work(const dist::Pmf& initial,
                                const dist::Pmf& service, double lambda,
                                std::size_t max_len);

/// The standard busy period: initiated by one customer's service.
dist::Pmf busy_period_distribution(const dist::Pmf& service, double lambda,
                                   std::size_t max_len);

/// Full waiting-time distribution of the non-preemptive LCFS M/G/1 queue
/// on `max_len` lattice points: an atom 1-rho at 0 plus rho times the
/// sub-busy period initiated by the residual service. Requires rho < 1.
dist::Pmf lcfs_waiting_distribution(const dist::Pmf& service, double lambda,
                                    std::size_t max_len);

/// P(W <= K) for the non-preemptive LCFS M/G/1 queue. Requires rho < 1.
/// `max_len` truncates the busy-period computation; probabilities beyond
/// it are counted as waiting longer than K (a conservative bound).
double lcfs_waiting_cdf(const dist::Pmf& service, double lambda, double K,
                        std::size_t max_len = 0 /* 0 -> K + 2 */);

}  // namespace tcw::analysis
