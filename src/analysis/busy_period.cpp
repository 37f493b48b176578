#include "analysis/busy_period.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/mg1.hpp"
#include "obs/registry.hpp"
#include "util/contract.hpp"

namespace tcw::analysis {

namespace {

const obs::Counter& busy_period_steps() {
  static const obs::Counter counter =
      obs::Registry::global().counter("analysis.busy_period_steps");
  return counter;
}

/// Pois(mu; k) = exp(k log mu - mu - log k!), evaluated in log space so
/// that it stays finite where e^-mu alone underflows.
double poisson_weight(double mu, double k, double log_k_factorial) {
  return std::exp(k * std::log(mu) - mu - log_k_factorial);
}

}  // namespace

dist::Pmf busy_period_from_work(const dist::Pmf& initial,
                                const dist::Pmf& service, double lambda,
                                std::size_t max_len) {
  TCW_EXPECTS(max_len >= 2);
  TCW_EXPECTS(lambda > 0.0);
  TCW_EXPECTS(initial.total_mass() > 0.0);
  TCW_EXPECTS(service.at(0) == 0.0);
  // Sparse support of the service below max_len, ascending; larger
  // services never land in the table.
  std::vector<std::pair<std::size_t, double>> support;
  for (std::size_t s = 1; s < std::min(service.size(), max_len); ++s) {
    if (service.at(s) != 0.0) support.emplace_back(s, service.at(s));
  }

  // term = E_k on cells [lo, hi], zero elsewhere below max_len (cells
  // outside the range are stale and never read). E_0 = D, D(j) = j
  // initial(j); the j = 0 atom means "no busy period" and goes to out[0].
  std::vector<double> term(max_len, 0.0);
  std::vector<double> next(max_len, 0.0);
  std::size_t lo = max_len;
  std::size_t hi = 0;
  for (std::size_t j = 1; j < std::min(initial.size(), max_len); ++j) {
    term[j] = static_cast<double>(j) * initial.at(j);
    if (term[j] != 0.0) {
      lo = std::min(lo, j);
      hi = j;
    }
  }

  // out[n] accumulates sum_k Pois(n lambda; k) E_k(n) = n P(T = n).
  std::vector<double> out(max_len, 0.0);
  const double mu_top = static_cast<double>(max_len - 1) * lambda;
  double log_k_factorial = 0.0;
  // Multiply-adds: one per weighted cell, |supp B| per convolved cell.
  std::uint64_t madds = 0;
  for (std::size_t k = 0; lo < max_len; ++k) {
    if (k > 0) log_k_factorial += std::log(static_cast<double>(k));
    const auto kd = static_cast<double>(k);
    // Past the mode Pois(mu; k) grows with mu and falls with k: once it
    // is +0.0 at the largest n, so is every later term.
    if (kd > mu_top && poisson_weight(mu_top, kd, log_k_factorial) == 0.0) {
      break;
    }
    for (std::size_t n = lo; n <= hi; ++n) {
      const double mu = static_cast<double>(n) * lambda;
      out[n] += poisson_weight(mu, kd, log_k_factorial) * term[n];
    }
    madds += hi - lo + 1;
    if (support.empty()) break;
    // E_{k+1} = E_k * B, truncated at max_len; it lives on
    // [lo + s_min, hi + s_max].
    const std::size_t next_lo = lo + support.front().first;
    const std::size_t next_hi =
        std::min(max_len - 1, hi + support.back().first);
    for (std::size_t n = next_lo; n <= next_hi; ++n) {
      double acc = 0.0;
      for (const auto& [s, q] : support) {
        if (s > n - lo) break;
        if (n - s <= hi) acc += q * term[n - s];
      }
      next[n] = acc;
    }
    if (next_lo <= next_hi) madds += (next_hi - next_lo + 1) * support.size();
    term.swap(next);
    lo = next_lo;
    hi = next_hi;
  }

  busy_period_steps().add(madds);

  // Cycle lemma: P(T = n) = (1/n) sum_k Pois(n lambda; k) E_k(n).
  out[0] = initial.at(0);
  double total = out[0];
  for (std::size_t n = 1; n < max_len; ++n) {
    out[n] /= static_cast<double>(n);
    total += out[n];
  }
  return dist::Pmf(std::move(out),
                   std::max(0.0, initial.total_mass() - total));
}

dist::Pmf busy_period_distribution(const dist::Pmf& service, double lambda,
                                   std::size_t max_len) {
  return busy_period_from_work(service, service, lambda, max_len);
}

dist::Pmf lcfs_waiting_distribution(const dist::Pmf& service, double lambda,
                                    std::size_t max_len) {
  const double rho = offered_intensity(service, lambda);
  TCW_EXPECTS(rho < 1.0);
  // Residual service of the customer found in progress (PASTA): the
  // integer-lattice equilibrium distribution, shifted up one slot because
  // at least the current slot of the service in progress must complete
  // (a conservative, at-most-one-slot bias).
  const dist::Pmf residual = service.equilibrium().shifted(1);
  const dist::Pmf t =
      busy_period_from_work(residual, service, lambda, max_len);
  std::vector<double> out(t.size(), 0.0);
  out[0] = 1.0 - rho;
  for (std::size_t n = 0; n < t.size(); ++n) out[n] += rho * t.at(n);
  return dist::Pmf(std::move(out), rho * t.tail_mass());
}

double lcfs_waiting_cdf(const dist::Pmf& service, double lambda, double K,
                        std::size_t max_len) {
  // The table holds cells 0 .. floor(K) + 1, so K must index a vector.
  TCW_EXPECTS(std::isfinite(K) && K >= 0.0);
  TCW_EXPECTS(K < static_cast<double>(std::vector<double>().max_size() - 2));
  if (max_len == 0) {
    // P(W <= K) only needs the busy-period table up to K; everything
    // longer lands in the (complementary) tail either way.
    max_len = static_cast<std::size_t>(K) + 2;
  }
  const dist::Pmf w = lcfs_waiting_distribution(service, lambda, max_len);
  return w.cdf(static_cast<std::size_t>(std::floor(K)));
}

}  // namespace tcw::analysis
